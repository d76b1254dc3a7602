"""Shared builders for tests: boxes, records, random metric instances."""

from __future__ import annotations

import base64
import math

import numpy as np

from relfusion.datamodel import (
    Box,
    Detection,
    ImageRecord,
    PredictedTriplet,
    ResolvedTriplet,
    Vocabulary,
    parse_box,
)


def box(x0, y0, x1, y1) -> Box:
    return Box(float(x0), float(y0), float(x1), float(y1))


def area(b: Box) -> float:
    return (b.xmax - b.xmin) * (b.ymax - b.ymin)


def center(b: Box) -> tuple[float, float]:
    return (0.5 * (b.xmin + b.xmax), 0.5 * (b.ymin + b.ymax))


def spatial_reference(b_sub: Box, b_obj: Box, width, height) -> np.ndarray:
    """The 22-d spatial encoding computed one scalar at a time."""

    def delta(b1: Box, b2: Box):
        x1, y1 = center(b1)
        x2, y2 = center(b2)
        return [
            (x1 - x2) / b2.width,
            (y1 - y2) / b2.height,
            math.log(b1.width / b2.width),
            math.log(b1.height / b2.height),
        ]

    def coords(b: Box):
        return [b.xmin / width, b.ymin / height, b.xmax / width, b.ymax / height,
                area(b) / (width * height)]

    b_pred = Box(
        min(b_sub.xmin, b_obj.xmin),
        min(b_sub.ymin, b_obj.ymin),
        max(b_sub.xmax, b_obj.xmax),
        max(b_sub.ymax, b_obj.ymax),
    )
    return np.array(
        delta(b_sub, b_obj) + delta(b_sub, b_pred) + delta(b_pred, b_obj)
        + coords(b_sub) + coords(b_obj)
    )


def array_json(values, shape=None, dtype="<f8") -> dict:
    """A checkpoint array object: ``values`` as little-endian float64 bytes in base64."""
    arr = np.asarray(values, dtype=np.float64)
    data = base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")
    return {"dtype": dtype, "shape": list(arr.shape) if shape is None else shape, "data": data}


def edit_array(obj: dict, edit) -> None:
    """Decode the checkpoint array object ``obj``, and store ``edit(array)`` back in it."""
    obj.update(array_json(edit(feature_array(obj).copy())))


def feature_array(raw) -> np.ndarray:
    """A list of numbers, or an encoded array object (a dataset feature, a weight), as float64."""
    if isinstance(raw, dict):
        return np.frombuffer(base64.b64decode(raw["data"]), "<f8").reshape(raw["shape"])
    return np.asarray(raw, dtype=np.float64)


def rewrite_features(line: dict, encode, keys=("detections", "gt_boxes", "pair_features")):
    """The dataset line ``line`` (a parsed JSON object, changed in place), each
    feature of its ``keys`` items replaced by ``encode(array)``: ``list_form``
    or ``array_json``.
    """
    for key in keys:
        for item in line.get(key, []):
            if item.get("feature") is not None:
                item["feature"] = encode(feature_array(item["feature"]))
    return line


def list_form(arr: np.ndarray) -> list:
    return arr.tolist()


def random_box(rng, lo=0.0, hi=100.0, grid=None) -> Box:
    """A valid positive-area box; on a coarse grid when requested."""
    if grid is not None:
        xs = sorted(rng.choice(grid, size=2, replace=False))
        ys = sorted(rng.choice(grid, size=2, replace=False))
        return Box(float(xs[0]), float(ys[0]), float(xs[1]), float(ys[1]))
    x = sorted(rng.uniform(lo, hi, size=2))
    y = sorted(rng.uniform(lo, hi, size=2))
    return Box(x[0], y[0], x[1] + 1.0, y[1] + 1.0)


def make_record(
    image_id="img",
    width=100,
    height=100,
    detections=(),
    gt=(),
    triplets=(),
    attributes=(),
    pair_features=None,
) -> ImageRecord:
    return ImageRecord(
        image_id=image_id,
        width=width,
        height=height,
        detections=list(detections),
        gt_boxes=list(gt),
        gt_triplets=list(triplets),
        gt_attributes=list(attributes),
        pair_features=dict(pair_features or {}),
    )


def make_detection(label=0, b=None, score=1.0, feature=None, dim=4) -> Detection:
    return Detection(
        label=label,
        box=b if b is not None else box(0, 0, 10, 10),
        score=score,
        feature=np.zeros(dim) if feature is None else np.asarray(feature, dtype=float),
    )


def tiny_vocab(num_objects=4, num_predicates=3, num_attributes=0) -> Vocabulary:
    return Vocabulary(
        object_classes=tuple(f"o{i}" for i in range(num_objects)),
        predicates=("__no_rel__",) + tuple(f"p{i}" for i in range(1, num_predicates + 1)),
        attributes=tuple(f"a{i}" for i in range(num_attributes)),
    )


def random_metric_instance(rng, max_images=5, max_objects=4, num_predicates=3):
    """A tiny prediction/ground-truth pair designed to stress matching.

    Boxes live on a coarse grid so exact overlaps, boundary IoU values
    and duplicate localizations all occur; scores are drawn from a small
    discrete set to exercise tie handling; per ordered pair, predicted
    predicates are sampled without replacement so per-pair budgets of P
    keep everything.
    """
    grid = np.array([0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    score_levels = np.round(np.linspace(0.1, 1.0, 7), 3)
    predictions = {}
    ground_truth = {}
    for i in range(int(rng.integers(1, max_images + 1))):
        image_id = f"im{i}"
        n_obj = int(rng.integers(1, max_objects + 1))
        objects = [
            (int(rng.integers(0, 3)), random_box(rng, grid=grid)) for _ in range(n_obj)
        ]
        gts = []
        for a in range(n_obj):
            for b_ in range(n_obj):
                if a == b_ or rng.random() > 0.4:
                    continue
                gts.append(
                    ResolvedTriplet(
                        sub_label=objects[a][0],
                        sub_box=objects[a][1],
                        predicate=int(rng.integers(1, num_predicates + 1)),
                        obj_label=objects[b_][0],
                        obj_box=objects[b_][1],
                    )
                )
        preds = []
        for a in range(n_obj):
            for b_ in range(n_obj):
                if a == b_:
                    continue
                n_preds = int(rng.integers(0, num_predicates + 1))
                predicates = rng.choice(
                    np.arange(1, num_predicates + 1), size=n_preds, replace=False
                )
                for p in predicates:
                    jitter = rng.random()
                    if jitter < 0.5:
                        sub_box, obj_box = objects[a][1], objects[b_][1]
                    elif jitter < 0.8:
                        sub_box = _shift(objects[a][1], rng)
                        obj_box = _shift(objects[b_][1], rng)
                    else:
                        sub_box = random_box(rng, grid=grid)
                        obj_box = random_box(rng, grid=grid)
                    preds.append(
                        PredictedTriplet(
                            sub_box=sub_box,
                            sub_label=objects[a][0],
                            predicate=int(p),
                            obj_box=obj_box,
                            obj_label=objects[b_][0],
                            score=float(rng.choice(score_levels)),
                        )
                    )
        predictions[image_id] = preds
        ground_truth[image_id] = gts
    return predictions, ground_truth


def _shift(b: Box, rng) -> Box:
    dx = float(rng.choice([-2.0, 0.0, 2.0]))
    dy = float(rng.choice([-2.0, 0.0, 2.0]))
    return Box(b.xmin + dx, b.ymin + dy, b.xmax + dx, b.ymax + dy)


def attributes_of(rows: list[dict]) -> dict:
    """``save_predictions``'s attributes that write back the is_triplets of prediction rows.

    Each is_triplet's box must be a list of 4 numbers.
    """
    return {
        row["image_id"]: [
            (make_detection(it["label"], parse_box(it["box"], "box")), it["attribute"], it["score"])
            for it in row["is_triplets"]
        ]
        for row in rows
        if "is_triplets" in row
    }
