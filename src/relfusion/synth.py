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

import bisect
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
    box_array,
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


def rule_outcomes(sub: np.ndarray, obj: np.ndarray) -> np.ndarray:
    """The geometric rule on broadcasting corner arrays: 0 where the boxes
    do not overlap, else the class the subject's center height decides."""
    overlap = (np.minimum(sub[..., 2], obj[..., 2]) > np.maximum(sub[..., 0], obj[..., 0])) & (
        np.minimum(sub[..., 3], obj[..., 3]) > np.maximum(sub[..., 1], obj[..., 1])
    )
    above = 0.5 * (sub[..., 1] + sub[..., 3]) < 0.5 * (obj[..., 1] + obj[..., 3])
    return np.where(overlap, np.where(above, ON_CLASS, UNDER_CLASS), 0)


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


def _image_pairs(oracle: OracleTables, labels, boxes, features) -> tuple[np.ndarray, np.ndarray]:
    """The rule outcome (n, n) and the predicate distribution before the rule
    (n, n, P; ids 1..P on the last axis) of every ordered pair of n objects.

    The outcome is 0 where the rule does not apply or is off; ``features``
    is None without the appearance tilt.
    """
    n = len(boxes)
    outcomes = np.zeros((n, n), dtype=np.int64)
    if oracle.spatial_signal:
        corners = box_array(boxes)
        outcomes = rule_outcomes(corners[:, None], corners[None, :])
    if oracle.semantic_signal:
        labels = np.asarray(labels)
        base = oracle.table[labels[:, None], labels[None, :]]
    else:
        base = np.full((n, n, oracle.num_predicates), 1.0 / oracle.num_predicates)
    if oracle.visual_signal and oracle.appearance_weight > 0.0 and features is not None:
        p = oracle.num_predicates
        sub = np.array([oracle.sub_weights @ f for f in features]).reshape(n, 1, p)
        obj = np.array([oracle.obj_weights @ f for f in features]).reshape(1, n, p)
        tilt = oracle.appearance_weight * (sub + obj)
        base = base * np.exp(tilt - tilt.max(axis=-1, keepdims=True))
        base /= base.sum(axis=-1, keepdims=True)
    return outcomes, base


def _posterior(oracle: OracleTables, base, outcome, pair_feature) -> np.ndarray:
    """One pair's posterior from its :func:`_image_pairs` distribution and outcome."""
    prior = base
    if outcome:
        prior = (1.0 - oracle.rule_weight) * base
        prior[outcome - 1] += oracle.rule_weight
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


def _pair_tables(cfg: SynthConfig, oracle: OracleTables, labels, boxes, features) -> tuple:
    """What an image's pair loop reads that draws no random number, as [i][j] lists.

    Per ordered pair: the rule outcome, the chance that the pair is
    related, and the predicate CDF as ``Generator.choice`` builds it from
    the distribution: cumsum, then a divide by the last entry. A tilt past
    float64's range leaves a NaN CDF, which the loop reports only if it
    draws from it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes, base = _image_pairs(oracle, labels, boxes, features)
        cdfs = np.cumsum(base, axis=-1)
        cdfs /= cdfs[..., -1:]
    density = np.full(outcomes.shape, cfg.pair_density)
    if cfg.spatial_signal:
        density[outcomes == 0] *= FAR_DENSITY_FACTOR
    if cfg.visual_signal and cfg.existence_weight > 0.0:
        sub = np.array([oracle.exist_sub @ f for f in features]).reshape(-1, 1)
        obj = np.array([oracle.exist_obj @ f for f in features]).reshape(1, -1)
        with np.errstate(over="ignore"):  # exp's overflow to inf gives the limit, a factor of 0
            tilt = cfg.existence_weight * (sub + obj)
            density = np.minimum(1.0, density * 2.0 / (1.0 + np.exp(-tilt)))
    return outcomes.tolist(), density.tolist(), cdfs.tolist()


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

    outcomes, density, cdfs = _pair_tables(cfg, oracle, labels, boxes, features)
    rule_only = cfg.spatial_signal and not (cfg.semantic_signal or cfg.visual_signal)
    gt_triplets: list[tuple[int, int, int]] = []
    # Each related pair's standard normals, one row per pair in draw order.
    draws = np.empty((n * n, cfg.feature_dim)) if cfg.visual_signal else None
    for i in range(n):
        for j in range(n):
            outcome = outcomes[i][j]
            if i == j or (rule_only and not outcome):
                continue  # with geometry the only source, only the rule relates a pair
            if rng.random() >= density[i][j]:
                continue
            if outcome and rng.random() < cfg.rule_weight:
                pred = outcome
            else:
                cdf = cdfs[i][j]
                if math.isnan(cdf[-1]):
                    raise ValueError(
                        f"appearance weight {cfg.appearance_weight!r} is too large: pair "
                        f"({i}, {j}) of image {image_id!r} has no finite predicate distribution"
                    )
                pred = 1 + bisect.bisect_right(cdf, rng.random())  # choice's side="right" search
            if cfg.visual_signal:
                rng.standard_normal(out=draws[len(gt_triplets)])
            gt_triplets.append((i, pred, j))
    pair_features: dict[tuple[int, int], np.ndarray] = {}
    if cfg.visual_signal and gt_triplets:
        means = oracle.cluster_means[[pred - 1 for _, pred, _ in gt_triplets]]
        # Generator.normal(0.0, noise) is 0.0 + noise * z per draw z: the same bits.
        with np.errstate(over="ignore"):
            feats = means + (0.0 + cfg.noise * draws[: len(gt_triplets)])
        finite = np.isfinite(feats).all(axis=1)  # a noise draw past float64's range is inf
        if not finite.all():
            i, _, j = gt_triplets[int(np.argmin(finite))]
            raise ValueError(f"noise {cfg.noise!r} is too large: pair ({i}, {j}) of image "
                             f"{image_id!r} has a non-finite pair feature")
        pair_features = {(i, j): f for (i, _, j), f in zip(gt_triplets, feats)}

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


def _gt_posteriors(oracle: OracleTables, dataset: list[ImageRecord]):
    """(gt predicate, true posterior over predicates 1..P) per gt triplet, in dataset order."""
    for record in dataset:
        if oracle.visual_signal and len(record.detections) != len(record.gt_boxes):
            raise ValueError(
                f"image {record.image_id!r}: detections are not aligned with gt boxes; "
                "not a generated dataset"
            )
        if not record.gt_triplets:
            continue
        if max(g.label for g in record.gt_boxes) >= oracle.num_classes:
            raise ValueError(f"image {record.image_id!r}: label outside the oracle's classes")
        features = [d.feature for d in record.detections] if oracle.visual_signal else None
        outcomes, base = _image_pairs(
            oracle, [g.label for g in record.gt_boxes], [g.box for g in record.gt_boxes], features
        )
        for i, pred, j in record.gt_triplets:
            feature = record.pair_features.get((i, j))
            if oracle.visual_signal and feature is None:
                raise ValueError(
                    f"image {record.image_id!r}: pair ({i}, {j}) lacks the "
                    "pair feature this oracle expects"
                )
            yield pred, _posterior(oracle, base[i, j], outcomes[i, j], feature)


def bayes_accuracy(oracle: OracleTables, dataset: list[ImageRecord]) -> float:
    """Accuracy of the true-posterior argmax classifier on ground-truth pairs."""
    hits = [1 + int(np.argmax(post)) == pred for pred, post in _gt_posteriors(oracle, dataset)]
    if not hits:
        raise ValueError("dataset has no ground-truth pairs")
    return sum(hits) / len(hits)


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
