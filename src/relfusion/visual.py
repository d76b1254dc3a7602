"""Per-pair inputs of the visual heads over precomputed ROI feature vectors.

The visual heads themselves are nets of the fusion model: a three-slot
MLP over the concatenated subject, predicate and object features, and one
single-layer head each over the subject and object features alone. The
predicate-region feature is taken verbatim from the dataset's per-pair
features when provided, otherwise it is synthesized as the mean of the
endpoint features.
"""

from __future__ import annotations

import numpy as np

from .datamodel import ImageRecord


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


def predicate_features(
    feats: np.ndarray, record: ImageRecord, sub: np.ndarray, obj: np.ndarray
) -> np.ndarray:
    """Row-wise :func:`predicate_feature` of the pairs (sub[k], obj[k]).

    ``feats`` stacks the record's detection features; the record's
    per-pair features, keyed by detection indices, replace the means.
    """
    out = 0.5 * (feats[sub] + feats[obj])
    if record.pair_features:
        n = feats.shape[0]
        slot = np.full((n, n), -1, dtype=np.intp)
        keys = np.array(list(record.pair_features), dtype=np.intp)
        slot[keys[:, 0], keys[:, 1]] = np.arange(len(keys))
        hit = slot[sub, obj]
        provided = hit >= 0
        if provided.any():
            out[provided] = np.stack(list(record.pair_features.values()))[hit[provided]]
    return out
