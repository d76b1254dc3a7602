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
    ``starts[r]``. The records' per-pair features replace the means. They
    are found through one dict keyed by global detection indices
    ``(starts[r] + i, starts[r] + j)``, which holds only the provided pairs.
    """
    out = feats[sub]
    out += feats[obj]
    out *= 0.5  # in place: 0.5 * (feats[sub] + feats[obj]) with one temporary, not three
    provided = {(start + i, start + j): value
                for r, start in zip(records, starts.tolist())
                for (i, j), value in r.pair_features.items()}
    found = map(provided.get, zip(sub.tolist(), obj.tolist()))
    hits = [(k, value) for k, value in enumerate(found) if value is not None]
    if hits:
        rows, values = zip(*hits)
        # One concatenate of the 1-D rows: np.stack of many small arrays costs three times more.
        out[list(rows)] = np.concatenate(values).reshape(len(rows), -1)
    return out
