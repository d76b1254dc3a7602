"""The per-pair synthetic generator and oracle posterior, one pair at a time.

This is the generative process written the way the package first wrote
it: the geometric rule from two ``Box`` objects, a predicate
distribution rebuilt for every pair, and the predicate drawn with
``Generator.choice``. The package builds each image's rule outcomes,
relationship chances and predicate CDFs as arrays and keeps only the
draws in its pair loop; the tests require the two to produce the same
records bit for bit and the same posteriors under ``==``.

:func:`reference_generate` runs ``relfusion.synth.generate`` with its
per-image record builder swapped for :func:`reference_record`, so the
oracle tables are drawn by the package and everything after them here.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from relfusion import synth
from relfusion.datamodel import Box, Detection, GtObject, ImageRecord
from relfusion.synth import (
    FAR_DENSITY_FACTOR,
    IMAGE_SIZE,
    ON_CLASS,
    UNDER_CLASS,
    OracleTables,
    SynthConfig,
    SynthResult,
    _jitter_box,
    _sample_box,
)


def _boxes_overlap(a: Box, b: Box) -> bool:
    return min(a.xmax, b.xmax) > max(a.xmin, b.xmin) and min(a.ymax, b.ymax) > max(
        a.ymin, b.ymin
    )


def rule_outcome(sub_box: Box, obj_box: Box) -> int | None:
    if not _boxes_overlap(sub_box, obj_box):
        return None
    sub_center_y = 0.5 * (sub_box.ymin + sub_box.ymax)
    obj_center_y = 0.5 * (obj_box.ymin + obj_box.ymax)
    return ON_CLASS if sub_center_y < obj_center_y else UNDER_CLASS


def _base_distribution(oracle, sub_label, obj_label, sub_feature, obj_feature) -> np.ndarray:
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


def pair_posterior(
    oracle, sub_label, obj_label, sub_box, obj_box, pair_feature, sub_feature, obj_feature
) -> np.ndarray:
    prior = _base_distribution(oracle, sub_label, obj_label, sub_feature, obj_feature)
    outcome = rule_outcome(sub_box, obj_box) if oracle.spatial_signal else None
    if outcome is not None:
        prior = (1.0 - oracle.rule_weight) * prior
        prior[outcome - 1] += oracle.rule_weight
    if not oracle.visual_signal or pair_feature is None:
        return prior / prior.sum()
    diffs = oracle.cluster_means - pair_feature
    sq = np.sum(diffs * diffs, axis=1)
    if oracle.noise == 0.0:
        post = np.where(sq == sq.min(), prior, 0.0)
    else:
        loglik = -sq / (2.0 * oracle.noise**2)
        post = prior * np.exp(loglik - loglik.max())
    return post / post.sum()


def reference_record(
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
                    continue
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


def reference_generate(cfg: SynthConfig) -> SynthResult:
    with mock.patch.object(synth, "_generate_record", reference_record):
        return synth.generate(cfg)


def reference_posteriors(oracle: OracleTables, dataset: list[ImageRecord]) -> list[np.ndarray]:
    """The per-pair posterior of every ground-truth triplet, in dataset order."""
    posts = []
    for record in dataset:
        for i, _, j in record.gt_triplets:
            sub, obj = record.gt_boxes[i], record.gt_boxes[j]
            feats = (
                (record.detections[i].feature, record.detections[j].feature)
                if oracle.visual_signal else (None, None)
            )
            posts.append(pair_posterior(
                oracle, sub.label, obj.label, sub.box, obj.box,
                record.pair_features.get((i, j)), *feats,
            ))
    return posts
