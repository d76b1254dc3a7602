"""Per-pair inputs of the visual heads over precomputed ROI feature vectors.

The visual heads themselves are nets of the fusion model: a three-slot
MLP over the concatenated subject, predicate and object features, and one
single-layer head each over the subject and object features alone. The
predicate-region feature is taken verbatim from the dataset's per-pair
features when provided, otherwise it is synthesized as the mean of the
endpoint features. :func:`predicate_features` gives the rows of many
images' pairs in one call.
"""

from __future__ import annotations

from itertools import chain

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
    feats: np.ndarray,
    sub: np.ndarray,
    obj: np.ndarray,
    records: list[ImageRecord],
    starts: np.ndarray,
) -> np.ndarray:
    """Row-wise :func:`predicate_feature` of the pairs (sub[k], obj[k]) of rows of ``feats``.

    ``feats`` stacks the records' detection features, record r's from row
    ``starts[r]``. The records' per-pair features, keyed by their own
    detection indices, replace the means: each pair is found by one
    ``searchsorted`` over the sorted int64 keys ``sub * n + obj``, so no
    table grows with the square of the n rows.
    """
    out = feats[sub]
    out += feats[obj]
    out *= 0.5  # in place: 0.5 * (feats[sub] + feats[obj]) with one temporary, not three
    keyed = [(r.pair_features, start) for r, start in zip(records, starts) if r.pair_features]
    if not keyed:
        return out
    n, dim = feats.shape
    flat = chain.from_iterable(chain.from_iterable(provided for provided, _ in keyed))
    pairs = np.fromiter(flat, np.int64).reshape(-1, 2)
    pairs += np.repeat([start for _, start in keyed], [len(p) for p, _ in keyed])[:, None]
    keys = pairs[:, 0] * n + pairs[:, 1]
    order = np.argsort(keys)
    keys = keys[order]
    wanted = sub.astype(np.int64) * n + obj
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    hit = keys[at] == wanted
    if hit.any():
        values = [v for provided, _ in keyed for v in provided.values()]
        # One concatenate of the 1-D rows: np.stack of many small arrays costs three times more.
        out[hit] = np.concatenate([values[k] for k in order[at[hit]].tolist()]).reshape(-1, dim)
    return out
