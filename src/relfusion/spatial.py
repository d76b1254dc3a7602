"""Spatial branch: coordinate-only pair encoding plus a small MLP.

A subject/object box pair is encoded as a 22-vector

    [delta(b_s, b_o), delta(b_s, b_p), delta(b_p, b_o), coords(b_s), coords(b_o)]

where b_p is the tight box enclosing both ("phrase box"), delta is the
anchor-normalized center-offset / log-size-ratio parameterization used by
region-proposal detectors, and coords are image-normalized corners plus
the box/image area ratio.

The encoders work on (N, 4) corner arrays, one pair per row, and an
image size per row, so one call can encode the pairs of many images;
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


def image_size(width, height) -> np.ndarray:
    """The (width, height, area) row of an image, as floats.

    The area is the product rounded once, as a scalar ``width * height``
    of the image's integers gives it: ``float(w) * float(h)`` may differ.
    """
    return np.array([float(width), float(height), float(width * height)])


def normalized_corners(b: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Corners scaled by image size plus the box/image area ratio: (..., 5).

    ``b`` holds (..., 4) corner rows and ``sizes`` the :func:`image_size`
    rows that they broadcast against: one per box, or one for all.
    """
    if (sizes[..., :2] <= 0).any():
        raise ValueError("image dimensions must be positive")
    area = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return np.concatenate(
        [b / sizes[..., [0, 1, 0, 1]], (area / sizes[..., 2])[..., None]], axis=-1
    )


def spatial_features(b_sub: np.ndarray, b_obj: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(N, 22) encodings of the subject/object corner arrays' row pairs.

    ``sizes`` holds the :func:`image_size` of each pair's image, an (N, 3)
    array, or one (3,) row for all. The three box deltas are one
    :func:`box_deltas` call over the stacked pairs, and the two corner sets
    one :func:`normalized_corners` call.
    """
    b_pred = np.concatenate(
        [np.minimum(b_sub[:, :2], b_obj[:, :2]), np.maximum(b_sub[:, 2:], b_obj[:, 2:])],
        axis=1,
    )
    deltas = box_deltas(np.concatenate([b_sub, b_sub, b_pred]),
                        np.concatenate([b_obj, b_pred, b_obj]))
    corners = normalized_corners(np.stack([b_sub, b_obj]), sizes)
    n = len(b_sub)
    return np.concatenate(
        [deltas[:n], deltas[n : 2 * n], deltas[2 * n :], corners[0], corners[1]], axis=1
    )


def spatial_feature(b_sub: Box, b_obj: Box, width: float, height: float) -> np.ndarray:
    """22-d encoding of a subject/object box pair within an image."""
    return spatial_features(box_array([b_sub]), box_array([b_obj]), image_size(width, height))[0]
