"""Spatial branch: coordinate-only pair encoding plus a small MLP.

A subject/object box pair is encoded as a 22-vector

    [delta(b_s, b_o), delta(b_s, b_p), delta(b_p, b_o), coords(b_s), coords(b_o)]

where b_p is the tight box enclosing both ("phrase box"), delta is the
anchor-normalized center-offset / log-size-ratio parameterization used by
region-proposal detectors, and coords are image-normalized corners plus
the box/image area ratio.

The encoders work on (N, 4) corner arrays, one pair per row;
:func:`spatial_feature` is a one-row call for a single box pair. Every
value is the same float operation a scalar evaluation would make, and the
logarithms are taken with ``math.log``, so a pair's encoding does not
depend on the batch it is computed in.
"""

from __future__ import annotations

import math

import numpy as np

from .datamodel import Box, box_array

SPATIAL_DIM = 22


def _log(x: np.ndarray) -> np.ndarray:
    # np.log's SIMD kernels may differ from libm in the last bit.
    values = x.ravel().tolist()
    try:
        logs = np.fromiter(map(math.log, values), np.float64, x.size)
    except ValueError:  # a size ratio that underflowed to 0 logs to -inf, as np.log's does
        logs = np.array([math.log(v) if v > 0.0 else -math.inf for v in values])
    return logs.reshape(x.shape)


def box_deltas(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Rows ((x1-x2)/w2, (y1-y2)/h2, log(w1/w2), log(h1/h2)) on box centers: (N, 4)."""
    size1, size2 = b1[:, 2:] - b1[:, :2], b2[:, 2:] - b2[:, :2]  # (width, height)
    if (size1 <= 0.0).any() or (size2 <= 0.0).any():
        raise ValueError("box delta undefined for zero-size boxes")
    offsets = (0.5 * (b1[:, :2] + b1[:, 2:]) - 0.5 * (b2[:, :2] + b2[:, 2:])) / size2
    return np.concatenate([offsets, _log(size1 / size2)], axis=1)


def normalized_corners(b: np.ndarray, width: float, height: float) -> np.ndarray:
    """Rows of corners scaled by image size plus the box/image area ratio: (N, 5)."""
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    area = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    scale = np.array([width, height, width, height], dtype=np.float64)
    return np.concatenate([b / scale, (area / (width * height))[:, None]], axis=1)


def spatial_features(
    b_sub: np.ndarray, b_obj: np.ndarray, width: float, height: float
) -> np.ndarray:
    """(N, 22) encodings of the subject/object corner arrays' row pairs.

    The three box deltas are one :func:`box_deltas` call over the stacked
    pairs, and the two corner sets one :func:`normalized_corners` call.
    """
    b_pred = np.concatenate(
        [np.minimum(b_sub[:, :2], b_obj[:, :2]), np.maximum(b_sub[:, 2:], b_obj[:, 2:])],
        axis=1,
    )
    deltas = box_deltas(np.concatenate([b_sub, b_sub, b_pred]),
                        np.concatenate([b_obj, b_pred, b_obj]))
    corners = normalized_corners(np.concatenate([b_sub, b_obj]), width, height)
    n = len(b_sub)
    return np.concatenate(
        [deltas[:n], deltas[n : 2 * n], deltas[2 * n :], corners[:n], corners[n:]], axis=1
    )


def spatial_feature(b_sub: Box, b_obj: Box, width: float, height: float) -> np.ndarray:
    """22-d encoding of a subject/object box pair within an image."""
    return spatial_features(box_array([b_sub]), box_array([b_obj]), width, height)[0]
