"""Spatial branch: coordinate-only pair encoding plus a small MLP.

A subject/object box pair is encoded as a 22-vector

    [delta(b_s, b_o), delta(b_s, b_p), delta(b_p, b_o), coords(b_s), coords(b_o)]

where b_p is the tight box enclosing both ("phrase box"), delta is the
anchor-normalized center-offset / log-size-ratio parameterization used by
region-proposal detectors, and coords are image-normalized corners plus
the box/image area ratio.
"""

from __future__ import annotations

import math

import numpy as np

from .datamodel import Box, union_box

SPATIAL_DIM = 22


def box_delta(b1: Box, b2: Box) -> np.ndarray:
    """((x1-x2)/w2, (y1-y2)/h2, log(w1/w2), log(h1/h2)) on box centers."""
    if b1.is_degenerate() or b2.is_degenerate():
        raise ValueError("box delta undefined for zero-size boxes")
    x1, y1 = b1.center
    x2, y2 = b2.center
    return np.array(
        [
            (x1 - x2) / b2.width,
            (y1 - y2) / b2.height,
            math.log(b1.width / b2.width),
            math.log(b1.height / b2.height),
        ]
    )


def normalized_coords(b: Box, width: float, height: float) -> np.ndarray:
    """Corners scaled by image size plus the box/image area ratio."""
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    return np.array(
        [
            b.xmin / width,
            b.ymin / height,
            b.xmax / width,
            b.ymax / height,
            b.area / (width * height),
        ]
    )


def spatial_feature(b_sub: Box, b_obj: Box, width: float, height: float) -> np.ndarray:
    """22-d encoding of a subject/object box pair within an image."""
    b_pred = union_box(b_sub, b_obj)
    return np.concatenate(
        [
            box_delta(b_sub, b_obj),
            box_delta(b_sub, b_pred),
            box_delta(b_pred, b_obj),
            normalized_coords(b_sub, width, height),
            normalized_coords(b_obj, width, height),
        ]
    )
