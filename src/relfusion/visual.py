"""Visual branch over precomputed ROI feature vectors.

Three heads: a three-slot MLP over the concatenated subject, predicate
and object features, and one single-layer head each over the subject and
object features alone. The predicate-region feature is taken verbatim
from the dataset's per-pair features when provided, otherwise it is
synthesized as the mean of the endpoint features. The attribute head is
an entirely separate single-object classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import ImageRecord
from .numcore import DenseLayer, Mlp, init_layer, init_mlp


@dataclass
class VisualBranch:
    """Concatenated-feature head plus standalone subject/object heads."""

    spo_head: Mlp
    sub_head: DenseLayer
    obj_head: DenseLayer

    @property
    def feature_dim(self) -> int:
        return self.sub_head.in_dim


@dataclass
class AttributeHead:
    """Single-object attribute classifier over an ROI feature."""

    mlp: Mlp

    @property
    def num_attributes(self) -> int:
        return self.mlp.out_dim


def init_visual_branch(
    feature_dim: int,
    num_predicates: int,
    rng: np.random.Generator,
    spo_hidden: tuple[int, int] = (256, 256),
) -> VisualBranch:
    out = num_predicates + 1
    spo = init_mlp([3 * feature_dim, *spo_hidden, out], rng)
    return VisualBranch(
        spo_head=spo,
        sub_head=init_layer(feature_dim, out, rng),
        obj_head=init_layer(feature_dim, out, rng),
    )


def init_attribute_head(
    feature_dim: int,
    num_attributes: int,
    rng: np.random.Generator,
    hidden: int = 64,
) -> AttributeHead:
    return AttributeHead(mlp=init_mlp([feature_dim, hidden, num_attributes], rng))


def predicate_feature(
    v_sub: np.ndarray,
    v_obj: np.ndarray,
    record: ImageRecord,
    pair: tuple[int, int],
) -> np.ndarray:
    """Feature for the union region: provided per-pair feature or the mean."""
    provided = record.pair_features.get(pair)
    if provided is not None:
        return provided
    return 0.5 * (v_sub + v_obj)
