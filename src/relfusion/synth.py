"""Synthetic relationship datasets with a known generative process.

Three toggleable signal sources mirror the model's branches:

- semantic: predicates drawn from a random conditional table per
  (subject class, object class);
- spatial: overlapping pairs follow a geometric rule (subject center
  above the object -> "on" class, below -> "under" class) with
  probability ``rule_weight``. The rule needs overlap, so when spatial
  is the only signal, relationships are generated exclusively for
  overlapping pairs; with other signals present, non-overlapping pairs
  may also be related (at reduced density) with table-drawn predicates;
- visual: each related pair carries a union-region feature drawn from a
  predicate-conditioned Gaussian cluster (one mean per predicate,
  isotropic std ``noise``); additionally both the predicate draw and the
  probability that a pair is related at all are tilted by linear
  functions of the endpoint appearance features, so subject and object
  appearance alone carry predicate and existence information.

Predicates are drawn conditioned on the already-sampled object features,
which keeps pairs conditionally independent and the exact posterior
computable per pair. Detections are the ground-truth boxes jittered by
up to +/-5% of the box size per coordinate, scored 1 minus the mean
relative jitter. The generative conditionals are recorded in
:class:`OracleTables`, so the true-posterior classifier and its accuracy
are computable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .datamodel import (
    NO_RELATIONSHIP,
    Box,
    Detection,
    GtObject,
    ImageRecord,
    Vocabulary,
    atomic_write_text,
    check_settings,
    read_json,
)

IMAGE_SIZE = 1000
ON_CLASS = 1
UNDER_CLASS = 2
FAR_DENSITY_FACTOR = 0.5  # relationship density for non-overlapping pairs


@dataclass(frozen=True)
class SynthConfig:
    num_images: int = 240
    num_test_images: int = 60
    objects_per_image: tuple[int, int] = (4, 7)
    num_classes: int = 6
    num_predicates: int = 8
    feature_dim: int = 16
    seed: int = 7
    semantic_signal: bool = True
    spatial_signal: bool = True
    visual_signal: bool = True
    noise: float = 0.8
    num_attributes: int = 4
    pair_density: float = 0.7
    rule_weight: float = 0.97
    appearance_weight: float = 2.0
    existence_weight: float = 2.0
    table_concentration: float = 0.3

    def __post_init__(self):
        lo, hi = self.objects_per_image
        check_settings(self, (
            ("num_images", self.num_images >= 0, ">= 0"),
            ("num_test_images", self.num_test_images >= 0, ">= 0"),
            ("objects_per_image", 0 <= lo <= hi, "a (min, max) pair with 0 <= min <= max"),
            ("num_classes", self.num_classes >= 1, ">= 1"),
            ("num_predicates", self.num_predicates >= 1, ">= 1"),
            ("feature_dim", self.feature_dim >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("noise", 0 <= self.noise < math.inf, "finite and >= 0"),
            ("num_attributes", self.num_attributes >= 0, ">= 0"),
            ("pair_density", 0 < self.pair_density <= 1, "in (0, 1]"),
            ("rule_weight", 0 <= self.rule_weight <= 1, "in [0, 1]"),
            ("appearance_weight", 0 <= self.appearance_weight < math.inf, "finite and >= 0"),
            ("existence_weight", 0 <= self.existence_weight < math.inf, "finite and >= 0"),
            ("table_concentration", 0 < self.table_concentration < math.inf, "finite and > 0"),
        ))
        if not (self.semantic_signal or self.spatial_signal or self.visual_signal):
            raise ValueError("at least one signal source must be enabled")
        if self.spatial_signal and self.num_predicates < 2:
            raise ValueError("the geometric rule needs at least two predicates")


@dataclass
class OracleTables:
    """The exact generative conditionals behind a synthetic dataset."""

    num_classes: int
    num_predicates: int
    feature_dim: int
    semantic_signal: bool
    spatial_signal: bool
    visual_signal: bool
    noise: float
    rule_weight: float
    appearance_weight: float = 0.0
    existence_weight: float = 0.0
    table: np.ndarray | None = None  # (C, C, P) over predicates 1..P
    cluster_means: np.ndarray | None = None  # (P, D)
    sub_weights: np.ndarray | None = None  # (P, D) appearance tilt, subject side
    obj_weights: np.ndarray | None = None  # (P, D) appearance tilt, object side
    exist_sub: np.ndarray | None = None  # (D,) existence tilt, subject side
    exist_obj: np.ndarray | None = None  # (D,) existence tilt, object side
    attr_means: np.ndarray | None = None  # (A, D)
    on_class: int = ON_CLASS
    under_class: int = UNDER_CLASS


@dataclass
class SynthResult:
    train: list[ImageRecord]
    test: list[ImageRecord]
    oracle: OracleTables
    vocab: Vocabulary


def _boxes_overlap(a: Box, b: Box) -> bool:
    return min(a.xmax, b.xmax) > max(a.xmin, b.xmin) and min(a.ymax, b.ymax) > max(
        a.ymin, b.ymin
    )


def rule_outcome(sub_box: Box, obj_box: Box) -> int | None:
    """The geometric rule: overlap decides applicability, center height the class."""
    if not _boxes_overlap(sub_box, obj_box):
        return None
    return ON_CLASS if sub_box.center[1] < obj_box.center[1] else UNDER_CLASS


def make_vocabulary(cfg: SynthConfig) -> Vocabulary:
    predicates = [NO_RELATIONSHIP]
    for p in range(1, cfg.num_predicates + 1):
        if p == ON_CLASS and cfg.num_predicates >= 2:
            predicates.append("on")
        elif p == UNDER_CLASS and cfg.num_predicates >= 2:
            predicates.append("under")
        else:
            predicates.append(f"rel_{p}")
    return Vocabulary(
        object_classes=tuple(f"obj_{c}" for c in range(cfg.num_classes)),
        predicates=tuple(predicates),
        attributes=tuple(f"attr_{a}" for a in range(cfg.num_attributes)),
    )


def _base_distribution(
    oracle: OracleTables,
    sub_label: int,
    obj_label: int,
    sub_feature: np.ndarray | None,
    obj_feature: np.ndarray | None,
) -> np.ndarray:
    if oracle.semantic_signal:
        base = oracle.table[sub_label, obj_label].copy()
    else:
        base = np.full(oracle.num_predicates, 1.0 / oracle.num_predicates)
    if (
        oracle.visual_signal
        and oracle.appearance_weight > 0.0
        and sub_feature is not None
        and obj_feature is not None
    ):
        tilt = oracle.appearance_weight * (
            oracle.sub_weights @ sub_feature + oracle.obj_weights @ obj_feature
        )
        base = base * np.exp(tilt - tilt.max())
        base /= base.sum()
    return base


def _prior(
    oracle: OracleTables,
    sub_label: int,
    obj_label: int,
    sub_box: Box,
    obj_box: Box,
    sub_feature: np.ndarray | None,
    obj_feature: np.ndarray | None,
) -> np.ndarray:
    """Predicate distribution (ids 1..P at indices 0..P-1) before the pair feature."""
    base = _base_distribution(oracle, sub_label, obj_label, sub_feature, obj_feature)
    if not oracle.spatial_signal:
        return base
    outcome = rule_outcome(sub_box, obj_box)
    if outcome is None:
        return base
    prior = (1.0 - oracle.rule_weight) * base
    prior[outcome - 1] += oracle.rule_weight
    return prior


def pair_posterior(
    oracle: OracleTables,
    sub_label: int,
    obj_label: int,
    sub_box: Box,
    obj_box: Box,
    pair_feature: np.ndarray | None,
    sub_feature: np.ndarray | None = None,
    obj_feature: np.ndarray | None = None,
) -> np.ndarray:
    """True posterior over predicates 1..P for one ground-truth pair."""
    prior = _prior(oracle, sub_label, obj_label, sub_box, obj_box, sub_feature, obj_feature)
    if not oracle.visual_signal or pair_feature is None:
        return prior / prior.sum()
    diffs = oracle.cluster_means - pair_feature
    sq = np.sum(diffs * diffs, axis=1)
    if oracle.noise == 0.0:
        # Degenerate clusters: the nearest mean is certain.
        post = np.where(sq == sq.min(), prior, 0.0)
    else:
        loglik = -sq / (2.0 * oracle.noise**2)
        post = prior * np.exp(loglik - loglik.max())
    return post / post.sum()


def _sample_box(rng: np.random.Generator) -> Box:
    w = rng.uniform(100.0, 400.0)
    h = rng.uniform(100.0, 400.0)
    x0 = rng.uniform(0.0, IMAGE_SIZE - w)
    y0 = rng.uniform(0.0, IMAGE_SIZE - h)
    return Box(x0, y0, x0 + w, y0 + h)


def _jitter_box(box: Box, rng: np.random.Generator) -> tuple[Box, float]:
    u = rng.uniform(-0.05, 0.05, size=4)
    jittered = Box(
        min(max(box.xmin + u[0] * box.width, 0.0), IMAGE_SIZE),
        min(max(box.ymin + u[1] * box.height, 0.0), IMAGE_SIZE),
        min(max(box.xmax + u[2] * box.width, 0.0), IMAGE_SIZE),
        min(max(box.ymax + u[3] * box.height, 0.0), IMAGE_SIZE),
    )
    score = 1.0 - float(np.mean(np.abs(u)))
    return jittered, score


def _generate_record(
    cfg: SynthConfig, oracle: OracleTables, image_id: str, rng: np.random.Generator
) -> ImageRecord:
    lo, hi = cfg.objects_per_image
    n = int(rng.integers(lo, hi + 1))
    labels = rng.integers(0, cfg.num_classes, size=n)
    boxes = [_sample_box(rng) for _ in range(n)]

    attrs: list[int] = []
    features = []
    for k in range(n):
        feat = rng.normal(0.0, 1.0, size=cfg.feature_dim)
        if cfg.num_attributes > 0:
            a = int(rng.integers(0, cfg.num_attributes))
            attrs.append(a)
            feat = feat + oracle.attr_means[a]
        features.append(feat)

    gt_triplets: list[tuple[int, int, int]] = []
    pair_features: dict[tuple[int, int], np.ndarray] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            outcome = rule_outcome(boxes[i], boxes[j])
            density = cfg.pair_density
            if outcome is None:
                if cfg.spatial_signal and not (cfg.semantic_signal or cfg.visual_signal):
                    continue  # geometry is the only relationship source
                if cfg.spatial_signal:
                    density *= FAR_DENSITY_FACTOR
            if cfg.visual_signal and cfg.existence_weight > 0.0:
                tilt = cfg.existence_weight * (
                    oracle.exist_sub @ features[i] + oracle.exist_obj @ features[j]
                )
                density = min(1.0, density * 2.0 / (1.0 + np.exp(-tilt)))
            if rng.random() >= density:
                continue
            if cfg.spatial_signal and outcome is not None and rng.random() < cfg.rule_weight:
                pred = outcome
            else:
                base = _base_distribution(
                    oracle, int(labels[i]), int(labels[j]), features[i], features[j]
                )
                pred = 1 + int(rng.choice(cfg.num_predicates, p=base))
            gt_triplets.append((i, pred, j))
            if cfg.visual_signal:
                pair_features[(i, j)] = oracle.cluster_means[pred - 1] + rng.normal(
                    0.0, cfg.noise, size=cfg.feature_dim
                )

    detections = []
    gt_boxes = []
    for k in range(n):
        jittered, score = _jitter_box(boxes[k], rng)
        detections.append(
            Detection(label=int(labels[k]), box=jittered, score=score, feature=features[k])
        )
        gt_boxes.append(GtObject(label=int(labels[k]), box=boxes[k]))

    return ImageRecord(
        image_id=image_id,
        width=IMAGE_SIZE,
        height=IMAGE_SIZE,
        detections=detections,
        gt_boxes=gt_boxes,
        gt_triplets=gt_triplets,
        gt_attributes=[(k, attrs[k]) for k in range(n)] if attrs else [],
        pair_features=pair_features,
    )


def generate(cfg: SynthConfig) -> SynthResult:
    """Deterministically generate train/test datasets plus their oracle."""
    rng = np.random.default_rng(cfg.seed)
    oracle = OracleTables(
        num_classes=cfg.num_classes,
        num_predicates=cfg.num_predicates,
        feature_dim=cfg.feature_dim,
        semantic_signal=cfg.semantic_signal,
        spatial_signal=cfg.spatial_signal,
        visual_signal=cfg.visual_signal,
        noise=cfg.noise,
        rule_weight=cfg.rule_weight,
        appearance_weight=cfg.appearance_weight if cfg.visual_signal else 0.0,
        existence_weight=cfg.existence_weight if cfg.visual_signal else 0.0,
    )
    if cfg.semantic_signal:
        # Half the mass goes to each row's own mode, so every class pair
        # has a dominant predicate that modest sample counts can recover.
        table = rng.dirichlet(
            np.full(cfg.num_predicates, cfg.table_concentration),
            size=(cfg.num_classes, cfg.num_classes),
        )
        modes = np.argmax(table, axis=-1)
        table *= 0.5
        for s in range(cfg.num_classes):
            for o in range(cfg.num_classes):
                table[s, o, modes[s, o]] += 0.5
        oracle.table = table
    if cfg.visual_signal:
        means = rng.normal(0.0, 1.0, size=(cfg.num_predicates, cfg.feature_dim))
        norms = np.linalg.norm(means, axis=1, keepdims=True)
        oracle.cluster_means = 1.5 * means / norms
        scale = np.sqrt(cfg.feature_dim)
        oracle.sub_weights = rng.normal(0.0, 1.0, size=(cfg.num_predicates, cfg.feature_dim)) / scale
        oracle.obj_weights = rng.normal(0.0, 1.0, size=(cfg.num_predicates, cfg.feature_dim)) / scale
        oracle.exist_sub = rng.normal(0.0, 1.0, size=cfg.feature_dim) / scale
        oracle.exist_obj = rng.normal(0.0, 1.0, size=cfg.feature_dim) / scale
    if cfg.num_attributes > 0:
        means = rng.normal(0.0, 1.0, size=(cfg.num_attributes, cfg.feature_dim))
        norms = np.linalg.norm(means, axis=1, keepdims=True)
        oracle.attr_means = 1.5 * means / norms

    train = [
        _generate_record(cfg, oracle, f"train_{i:04d}", rng) for i in range(cfg.num_images)
    ]
    test = [
        _generate_record(cfg, oracle, f"test_{i:04d}", rng)
        for i in range(cfg.num_test_images)
    ]
    return SynthResult(train=train, test=test, oracle=oracle, vocab=make_vocabulary(cfg))


def bayes_accuracy(oracle: OracleTables, dataset: list[ImageRecord]) -> float:
    """Accuracy of the true-posterior argmax classifier on ground-truth pairs."""
    correct = 0
    total = 0
    for record in dataset:
        if oracle.visual_signal and len(record.detections) != len(record.gt_boxes):
            raise ValueError(
                f"image {record.image_id!r}: detections are not aligned with gt boxes; "
                "not a generated dataset"
            )
        for sub_idx, pred, obj_idx in record.gt_triplets:
            sub = record.gt_boxes[sub_idx]
            obj = record.gt_boxes[obj_idx]
            if sub.label >= oracle.num_classes or obj.label >= oracle.num_classes:
                raise ValueError(
                    f"image {record.image_id!r}: label outside the oracle's classes"
                )
            feature = record.pair_features.get((sub_idx, obj_idx))
            if oracle.visual_signal and feature is None:
                raise ValueError(
                    f"image {record.image_id!r}: pair ({sub_idx}, {obj_idx}) lacks the "
                    "pair feature this oracle expects"
                )
            sub_feat = record.detections[sub_idx].feature if oracle.visual_signal else None
            obj_feat = record.detections[obj_idx].feature if oracle.visual_signal else None
            post = pair_posterior(
                oracle, sub.label, obj.label, sub.box, obj.box, feature, sub_feat, obj_feat
            )
            if 1 + int(np.argmax(post)) == pred:
                correct += 1
            total += 1
    if total == 0:
        raise ValueError("dataset has no ground-truth pairs")
    return correct / total


def save_oracle(oracle: OracleTables, path: str | os.PathLike) -> None:
    payload = {}
    for f in fields(OracleTables):
        value = getattr(oracle, f.name)
        payload[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def load_oracle(path: str | os.PathLike) -> OracleTables:
    raw = read_json(path)
    # Keys that older files lack keep the field default.
    values = {}
    for f in fields(OracleTables):
        if f.name not in raw:
            continue
        value = raw[f.name]
        if isinstance(value, list):
            value = np.asarray(value, dtype=np.float64)
        values[f.name] = value
    return OracleTables(**values)
