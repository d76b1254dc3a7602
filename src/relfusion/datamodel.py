"""Canonical data types for detections, ground truth and predictions.

Boxes are stored in corner form (xmin, ymin, xmax, ymax) in absolute pixel
coordinates; center/size form is derived on demand. Predicate index 0 is
reserved for the "no relationship" class, so model outputs are single
(P+1)-vectors of logits.

Datasets live in a JSONL file, one image per line:

    {"image_id": str, "width": int, "height": int,
     "detections": [{"label": int, "box": [x0,y0,x1,y1], "score": float,
                     "feature": [float x D]}],
     "gt_boxes": [{"label": int, "box": [...], "feature": [...]?}],
     "gt_triplets": [[sub_idx, pred_id, obj_idx]],
     "gt_attributes": [[gt_idx, attr_id]],
     "pair_features": [{"sub": int, "obj": int, "feature": [...]}]?}

``gt_boxes[*].feature`` and ``pair_features`` are optional; when present
they must match the dataset feature dimension D.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)


class DataError(ValueError):
    """Raised for malformed or invariant-violating dataset content."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, corner form, absolute pixels."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        coords = (self.xmin, self.ymin, self.xmax, self.ymax)
        if not all(math.isfinite(c) for c in coords):
            raise DataError(f"non-finite box coordinates {coords}")
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise DataError(f"inverted box {coords}")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    def is_degenerate(self) -> bool:
        """True when the box has zero width or zero height."""
        return self.width <= 0.0 or self.height <= 0.0

    def to_list(self) -> list[float]:
        return [self.xmin, self.ymin, self.xmax, self.ymax]


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0 for disjoint or zero-area."""
    ix = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    iy = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def union_box(a: Box, b: Box) -> Box:
    """Smallest axis-aligned box containing both inputs."""
    return Box(
        min(a.xmin, b.xmin),
        min(a.ymin, b.ymin),
        max(a.xmax, b.xmax),
        max(a.ymax, b.ymax),
    )


@dataclass(frozen=True)
class Detection:
    """One detected object: class id, box, detector confidence, ROI feature."""

    label: int
    box: Box
    score: float
    feature: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise DataError(f"detection score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class GtObject:
    """Ground-truth object: class id, box, and an optional ROI feature."""

    label: int
    box: Box
    feature: np.ndarray | None = None


@dataclass(frozen=True)
class ResolvedTriplet:
    """A ground-truth triplet with its boxes and labels resolved."""

    sub_label: int
    sub_box: Box
    predicate: int
    obj_label: int
    obj_box: Box


@dataclass
class ImageRecord:
    """All per-image inputs: detections plus ground-truth annotations."""

    image_id: str
    width: int
    height: int
    detections: list[Detection]
    gt_boxes: list[GtObject]
    gt_triplets: list[tuple[int, int, int]]
    gt_attributes: list[tuple[int, int]] = field(default_factory=list)
    pair_features: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def resolved_triplets(self) -> list[ResolvedTriplet]:
        out = []
        for sub_idx, pred, obj_idx in self.gt_triplets:
            s = self.gt_boxes[sub_idx]
            o = self.gt_boxes[obj_idx]
            out.append(ResolvedTriplet(s.label, s.box, pred, o.label, o.box))
        return out


@dataclass(frozen=True)
class PredictedTriplet:
    """One scored (subject, predicate, object) prediction."""

    sub_box: Box
    sub_label: int
    predicate: int
    obj_box: Box
    obj_label: int
    score: float

    def __post_init__(self):
        if self.predicate < 1:
            raise DataError("predicted predicate must be a real class (>= 1)")
        if not math.isfinite(self.score):
            raise DataError("prediction score must be finite")


@dataclass(frozen=True)
class Vocabulary:
    """Class-name lists for objects, predicates and attributes.

    ``predicates[0]`` is the reserved no-relationship class; the remaining
    entries are the real predicates.
    """

    object_classes: tuple[str, ...]
    predicates: tuple[str, ...]
    attributes: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.predicates) < 2:
            raise DataError("vocabulary needs the no-relationship class plus >= 1 predicate")
        for name, items in (
            ("objects", self.object_classes),
            ("predicates", self.predicates),
            ("attributes", self.attributes),
        ):
            if len(set(items)) != len(items):
                raise DataError(f"duplicate names in vocabulary list {name!r}")

    @property
    def num_predicates(self) -> int:
        """Number of real predicates P (excludes the no-relationship slot)."""
        return len(self.predicates) - 1

    def digest(self) -> str:
        payload = json.dumps(
            {
                "objects": list(self.object_classes),
                "predicates": list(self.predicates),
                "attributes": list(self.attributes),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


NO_RELATIONSHIP = "__no_rel__"


def load_vocabulary(path: str | os.PathLike) -> Vocabulary:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        return Vocabulary(
            object_classes=tuple(raw["objects"]),
            predicates=tuple(raw["predicates"]),
            attributes=tuple(raw.get("attributes", [])),
        )
    except KeyError as exc:
        raise DataError(f"vocabulary file {path} missing key {exc}") from exc


def save_vocabulary(vocab: Vocabulary, path: str | os.PathLike) -> None:
    payload = {
        "objects": list(vocab.object_classes),
        "predicates": list(vocab.predicates),
        "attributes": list(vocab.attributes),
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Replace ``path`` with ``text`` by renaming a temp file of this call's own.

    The temp file sits next to ``path``, gets the mode a plain ``open`` gives
    (0666 less the umask) and is removed if the write fails.
    """
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _parse_box(raw, where: str) -> Box:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise DataError(f"{where}: box must be a 4-element list, got {raw!r}")
    try:
        return Box(float(raw[0]), float(raw[1]), float(raw[2]), float(raw[3]))
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from exc


def _parse_feature(raw, expected_dim: int | None, where: str) -> np.ndarray:
    feat = np.asarray(raw, dtype=np.float64)
    if feat.ndim != 1:
        raise DataError(f"{where}: feature must be a flat list")
    if not np.all(np.isfinite(feat)):
        raise DataError(f"{where}: non-finite feature values")
    if expected_dim is not None and feat.shape[0] != expected_dim:
        raise DataError(
            f"{where}: feature dimension {feat.shape[0]} != dataset dimension {expected_dim}"
        )
    return feat


def _parse_record(raw: dict, vocab: Vocabulary, feature_dim: int | None) -> tuple[ImageRecord, int | None]:
    image_id = raw.get("image_id")
    if not isinstance(image_id, str) or not image_id:
        raise DataError("missing or empty image_id")
    where = f"image {image_id!r}"

    width = raw.get("width")
    height = raw.get("height")
    if not isinstance(width, int) or not isinstance(height, int) or width <= 0 or height <= 0:
        raise DataError(f"{where}: width/height must be positive integers")

    num_objects = len(vocab.object_classes)
    num_predicates = vocab.num_predicates
    num_attributes = len(vocab.attributes)

    detections = []
    zero_area = 0
    for i, d in enumerate(raw.get("detections", [])):
        box = _parse_box(d.get("box"), f"{where} detection {i}")
        feat = _parse_feature(d.get("feature"), feature_dim, f"{where} detection {i}")
        if feature_dim is None:
            feature_dim = feat.shape[0]
        label = d.get("label")
        if not isinstance(label, int) or not (0 <= label < num_objects):
            raise DataError(f"{where} detection {i}: label {label!r} outside vocabulary")
        score = d.get("score")
        if not isinstance(score, (int, float)) or not (0.0 <= score <= 1.0):
            raise DataError(f"{where} detection {i}: score {score!r} outside [0, 1]")
        if box.is_degenerate():
            zero_area += 1
        detections.append(Detection(label=label, box=box, score=float(score), feature=feat))

    gt_boxes = []
    for i, g in enumerate(raw.get("gt_boxes", [])):
        box = _parse_box(g.get("box"), f"{where} gt box {i}")
        label = g.get("label")
        if not isinstance(label, int) or not (0 <= label < num_objects):
            raise DataError(f"{where} gt box {i}: label {label!r} outside vocabulary")
        feat = None
        if g.get("feature") is not None:
            feat = _parse_feature(g["feature"], feature_dim, f"{where} gt box {i}")
            if feature_dim is None:
                feature_dim = feat.shape[0]
        if box.is_degenerate():
            zero_area += 1
        gt_boxes.append(GtObject(label=label, box=box, feature=feat))

    gt_triplets = []
    for i, t in enumerate(raw.get("gt_triplets", [])):
        if not isinstance(t, (list, tuple)) or len(t) != 3:
            raise DataError(f"{where} gt triplet {i}: expected [sub_idx, pred_id, obj_idx]")
        sub_idx, pred, obj_idx = t
        if not (0 <= sub_idx < len(gt_boxes)) or not (0 <= obj_idx < len(gt_boxes)):
            raise DataError(
                f"{where} gt triplet {i}: index out of range for {len(gt_boxes)} gt boxes"
            )
        if sub_idx == obj_idx:
            raise DataError(f"{where} gt triplet {i}: subject and object index coincide")
        if not (1 <= pred <= num_predicates):
            raise DataError(f"{where} gt triplet {i}: predicate {pred} outside 1..{num_predicates}")
        gt_triplets.append((sub_idx, pred, obj_idx))

    gt_attributes = []
    for i, a in enumerate(raw.get("gt_attributes", [])):
        if not isinstance(a, (list, tuple)) or len(a) != 2:
            raise DataError(f"{where} gt attribute {i}: expected [gt_idx, attr_id]")
        gt_idx, attr = a
        if not (0 <= gt_idx < len(gt_boxes)):
            raise DataError(f"{where} gt attribute {i}: gt index {gt_idx} out of range")
        if not (0 <= attr < num_attributes):
            raise DataError(f"{where} gt attribute {i}: attribute {attr} outside vocabulary")
        gt_attributes.append((gt_idx, attr))

    pair_features = {}
    for i, p in enumerate(raw.get("pair_features", [])):
        sub, obj = p.get("sub"), p.get("obj")
        if not (0 <= sub < len(detections)) or not (0 <= obj < len(detections)) or sub == obj:
            raise DataError(f"{where} pair feature {i}: invalid detection pair ({sub}, {obj})")
        feat = _parse_feature(p.get("feature"), feature_dim, f"{where} pair feature {i}")
        if feature_dim is None:
            feature_dim = feat.shape[0]
        pair_features[(sub, obj)] = feat

    if zero_area:
        logger.warning("%s: %d zero-area box(es) accepted", where, zero_area)

    record = ImageRecord(
        image_id=image_id,
        width=width,
        height=height,
        detections=detections,
        gt_boxes=gt_boxes,
        gt_triplets=gt_triplets,
        gt_attributes=gt_attributes,
        pair_features=pair_features,
    )
    return record, feature_dim


def load_dataset(path: str | os.PathLike, vocab: Vocabulary) -> list[ImageRecord]:
    """Read and validate a JSONL dataset.

    The feature dimension D is inferred from the first feature seen and
    enforced across every detection, gt feature and pair feature in the
    file. Raises :class:`DataError` naming the offending line or image.
    """
    records = []
    feature_dim: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            try:
                record, feature_dim = _parse_record(raw, vocab, feature_dim)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            records.append(record)
    return records


def _record_to_json(record: ImageRecord) -> dict:
    out: dict = {
        "image_id": record.image_id,
        "width": record.width,
        "height": record.height,
        "detections": [
            {
                "label": d.label,
                "box": d.box.to_list(),
                "score": d.score,
                "feature": d.feature.tolist(),
            }
            for d in record.detections
        ],
        "gt_boxes": [
            {"label": g.label, "box": g.box.to_list()}
            | ({"feature": g.feature.tolist()} if g.feature is not None else {})
            for g in record.gt_boxes
        ],
        "gt_triplets": [list(t) for t in record.gt_triplets],
        "gt_attributes": [list(a) for a in record.gt_attributes],
    }
    if record.pair_features:
        out["pair_features"] = [
            {"sub": s, "obj": o, "feature": f.tolist()}
            for (s, o), f in sorted(record.pair_features.items())
        ]
    return out


def save_dataset(records: list[ImageRecord], path: str | os.PathLike) -> None:
    """Write records as JSONL; inverse of :func:`load_dataset`."""
    lines = [json.dumps(_record_to_json(r)) for r in records]
    atomic_write_text(path, "".join(line + "\n" for line in lines))
