"""The benchmark's workloads: synthetic data shape and CLI flags for each.

Every workload runs the same closed loop (one client, one process):
``train`` -> ``predict`` -> ``eval`` -> ``eval --graph-constraint on`` ->
``eval --k-per-pair free``. The data shape decides which layer dominates.

Each image holds a fixed number of objects. With a drawn count the
number of ordered pairs, and so the work of a run, would change with the
seed by more than the bounds in BENCHMARK.json allow (for 4-7 objects
over 100 images the pair count alone varies by about 4% of its mean).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train_images: int
    test_images: int
    objects_per_image: int
    feature_dim: int
    pair_density: float
    mode: str
    epochs: int

    def synth_kwargs(self, seed: int) -> dict:
        """Keyword arguments for ``relfusion.synth.SynthConfig``."""
        return {
            "num_images": self.train_images,
            "num_test_images": self.test_images,
            "objects_per_image": (self.objects_per_image, self.objects_per_image),
            "feature_dim": self.feature_dim,
            "pair_density": self.pair_density,
            # Without the appearance tilt on pair existence, and with
            # near-uniform predicate tables around each class pair's mode,
            # the triplet count and the task's difficulty do not depend
            # on the seed; only the drawn scenes do.
            "existence_weight": 0.0,
            "table_concentration": 5.0,
            "seed": seed,
        }

    def sizes(self, seed: int) -> dict:
        return {
            "train_images": self.train_images,
            "test_images": self.test_images,
            "objects_per_image": self.objects_per_image,
            "feature_dim": self.feature_dim,
            "pair_density": self.pair_density,
            "mode": self.mode,
            "epochs": self.epochs,
            "seed": seed,
        }


WORKLOADS = {
    w.name: w
    for w in (
        # 22 objects give 462 ordered pairs and about 300 gt triplets per
        # image. Positive matching is O(triplets x pairs) per image and the
        # sgcls view remaps every pair feature, while training rows grow
        # only with the triplets: featurization and matching are over half
        # of one epoch's train_s.
        Workload(
            name="train-dense",
            why="dense sgcls scenes, one epoch: pair featurization and positive matching dominate train_s",
            train_images=12,
            test_images=6,
            objects_per_image=22,
            feature_dim=16,
            pair_density=1.0,
            mode="sgcls",
            epochs=1,
        ),
        # 30 pairs and about 14 triplets per image, a wide visual head and
        # 14 epochs: the per-step forward/backward/SGD cost dominates, and
        # featurization is the no-change control.
        Workload(
            name="train-long",
            why="sparse scenes, 64-d features, many epochs: numcore forward/backward/SGD dominates train_s",
            train_images=40,
            test_images=40,
            objects_per_image=6,
            feature_dim=64,
            pair_density=0.7,
            mode="sgdet",
            epochs=14,
        ),
        # 13 objects: 156 pairs and about 100 gt triplets per image. On the
        # dense test split top-n ranking and the evaluation matchers are
        # the main cost of predict and eval. Three epochs on the training
        # split give a model whose score varies little from seed to seed.
        Workload(
            name="score-dense",
            why="dense sgdet test images: top-n ranking and the R@K/free-k/mAP matchers dominate predict_s and eval_*_s",
            train_images=24,
            test_images=12,
            objects_per_image=13,
            feature_dim=16,
            pair_density=1.0,
            mode="sgdet",
            epochs=3,
        ),
    )
}
