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
they must match the dataset feature dimension D. Each ``feature`` is
either a list of D numbers or an encoded array, the form checkpoints use
for weights: ``{"dtype": "<f8", "shape": [D], "data": "<base64>"}`` (see
:func:`array_to_json`). Both forms read to the same float64 bits, and
:func:`save_dataset` writes the encoded one.
"""

from __future__ import annotations

import base64
import binascii
import functools
import hashlib
import itertools
import json
import logging
import math
import operator
import os
import re
import sys
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

logger = logging.getLogger(__name__)


class DataError(ValueError):
    """Raised for malformed or invariant-violating dataset content.

    ``line`` is the file line of the record at fault, when it is known; the
    caller that knows the file names both.
    """

    def __init__(self, message: str = "", line: int | None = None):
        super().__init__(message)
        self.line = line


_set = object.__setattr__  # stores a frozen instance's field: once per field in an __init__
_isfinite = math.isfinite


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned box, corner form, absolute pixels."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __init__(self, xmin, ymin, xmax, ymax):
        if not (_isfinite(xmin) and _isfinite(ymin) and _isfinite(xmax) and _isfinite(ymax)):
            raise DataError(f"non-finite box coordinates {(xmin, ymin, xmax, ymax)}")
        if xmin > xmax or ymin > ymax:
            raise DataError(f"inverted box {(xmin, ymin, xmax, ymax)}")
        _set(self, "xmin", xmin)
        _set(self, "ymin", ymin)
        _set(self, "xmax", xmax)
        _set(self, "ymax", ymax)

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

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
    # Each area is width * height, written out on the corners.
    union = (a.xmax - a.xmin) * (a.ymax - a.ymin) + (b.xmax - b.xmin) * (b.ymax - b.ymin) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def box_array(boxes) -> np.ndarray:
    """(N, 4) corner array of an iterable of boxes, (0, 4) when empty."""
    return np.array([b.to_list() for b in boxes], dtype=np.float64).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(M, N) IoU of every row of corner array ``a`` with every row of ``b``.

    Each entry equals :func:`iou` of the two boxes bit for bit: the same
    operations in the same order, and the same zero rules.
    """
    a, b = a[:, None, :], b[None, :, :]
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = ix * iy
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    out = np.zeros(inter.shape)
    np.divide(inter, union, out=out, where=(ix > 0.0) & (iy > 0.0) & (union > 0.0))
    return out


def union_box(a: Box, b: Box) -> Box:
    """Smallest axis-aligned box containing both inputs."""
    return Box(
        min(a.xmin, b.xmin),
        min(a.ymin, b.ymin),
        max(a.xmax, b.xmax),
        max(a.ymax, b.ymax),
    )


@dataclass(frozen=True, slots=True)
class Detection:
    """One detected object: class id, box, detector confidence, ROI feature."""

    label: int
    box: Box
    score: float
    feature: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise DataError(f"detection score {self.score} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class GtObject:
    """Ground-truth object: class id, box, and an optional ROI feature."""

    label: int
    box: Box
    feature: np.ndarray | None = None


@dataclass(frozen=True, slots=True)
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
    line: int | None = field(default=None, compare=False)  # its file line, if loaded

    def resolved_triplets(self) -> list[ResolvedTriplet]:
        out = []
        for sub_idx, pred, obj_idx in self.gt_triplets:
            s = self.gt_boxes[sub_idx]
            o = self.gt_boxes[obj_idx]
            out.append(ResolvedTriplet(s.label, s.box, pred, o.label, o.box))
        return out


@dataclass(frozen=True, slots=True)
class PredictedTriplet:
    """One scored (subject, predicate, object) prediction."""

    sub_box: Box
    sub_label: int
    predicate: int
    obj_box: Box
    obj_label: int
    score: float

    def __init__(self, sub_box, sub_label, predicate, obj_box, obj_label, score):
        if predicate < 1:
            raise DataError("predicted predicate must be a real class (>= 1)")
        if not _isfinite(score):
            raise DataError("prediction score must be finite")
        _set(self, "sub_box", sub_box)
        _set(self, "sub_label", sub_label)
        _set(self, "predicate", predicate)
        _set(self, "obj_box", obj_box)
        _set(self, "obj_label", obj_label)
        _set(self, "score", score)


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
        for name, items in self.to_json().items():
            if len(set(items)) != len(items):
                raise DataError(f"duplicate names in vocabulary list {name!r}")

    @property
    def num_predicates(self) -> int:
        """Number of real predicates P (excludes the no-relationship slot)."""
        return len(self.predicates) - 1

    def to_json(self) -> dict:
        """The vocabulary file's content; :meth:`digest` hashes it."""
        return {
            "objects": list(self.object_classes),
            "predicates": list(self.predicates),
            "attributes": list(self.attributes),
        }

    def digest(self) -> str:
        payload = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


NO_RELATIONSHIP = "__no_rel__"


def _decode_object(text: str, path, line: int) -> dict:
    """One JSON object whose text starts on ``line`` of ``path``."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{line + exc.lineno - 1}: invalid JSON ({exc.msg})") from exc
    if not isinstance(raw, dict):
        raise DataError(f"{path}:{line}: expected a JSON object")
    return raw


def _not_utf8(path, exc: UnicodeDecodeError) -> DataError:
    """A DataError naming the first line of ``path`` that is not UTF-8.

    The file is read again only here, after decoding failed: each byte
    that is not UTF-8 then reads as a lone surrogate.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    bad = re.search("[\udc80-\udcff]", text)
    line = text.count("\n", 0, bad.start() if bad else 0) + 1
    return DataError(f"{path}:{line}: not UTF-8 text ({exc.reason})")


def read_json(path: str | os.PathLike) -> dict:
    """A JSON object file; malformed content is a DataError naming the line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
    return _decode_object(text, path, 1)


def read_image_lines(path: str | os.PathLike, parse) -> dict:
    """Image id -> value of each non-blank line of a JSONL file, by ``parse(raw, line)``.

    ``parse`` gives (image id, value). A DataError it raises, and an image
    id that an earlier line holds, is a DataError naming ``path:line``.
    """
    out: dict = {}
    lines: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not (line := line.strip()):
                    continue
                raw = _decode_object(line, path, lineno)  # names path:line itself
                try:
                    image_id, value = parse(raw, lineno)
                    if image_id in lines:
                        raise DataError(f"image {image_id!r} already on line {lines[image_id]}")
                except DataError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from exc
                lines[image_id] = lineno
                out[image_id] = value
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
    return out


def is_list_of(value, kind: type) -> bool:
    """True for a JSON list whose items all have type ``kind`` (a bool is no int)."""
    return type(value) is list and {kind}.issuperset(map(type, value))


def check_settings(config, rules) -> None:
    """A ValueError naming the field of the first (field, ok, rule) in ``rules`` that fails."""
    for name, ok, rule in rules:
        if not ok:
            value = getattr(config, name)
            raise ValueError(f"{name.replace('_', ' ')} must be {rule}, got {value!r}")


def _index(value, n: int) -> bool:
    """True for a JSON integer (not a boolean) in 0..n-1."""
    return type(value) is int and 0 <= value < n


def _indices(values: list, n: int) -> bool:
    """:func:`_index` of every item of the list ``values``, in a few builtin passes."""
    return is_list_of(values, int) and (not values or (min(values) >= 0 and max(values) < n))


def load_vocabulary(path: str | os.PathLike) -> Vocabulary:
    raw = read_json(path)
    lists = [raw.get("objects"), raw.get("predicates"), raw.get("attributes", [])]
    for key, names in zip(("objects", "predicates", "attributes"), lists):
        if not is_list_of(names, str):
            raise DataError(f"vocabulary file {path}: {key!r} must be a list of strings")
    try:
        return Vocabulary(*map(tuple, lists))
    except DataError as exc:
        raise DataError(f"vocabulary file {path}: {exc}") from exc


def save_vocabulary(vocab: Vocabulary, path: str | os.PathLike) -> None:
    atomic_write_text(path, json.dumps(vocab.to_json(), indent=2) + "\n")


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Replace ``path`` with ``text`` by renaming a temp file of this call's own.

    The temp file sits next to ``path``, gets the mode a plain ``open`` gives
    (0666 less the umask) and is removed if the write fails. An OSError
    names ``path``, not the temp file.
    """
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


# A JSON number is an int or a float, never true or false (so type(), not
# isinstance()), that converts to a finite float64. json_number applies the
# rule to a scalar, parse_box to each coordinate, parse_array to each element.
_NUMBER_TYPES = frozenset((int, float))
# An array element may also be null, which reads as NaN and so is non-finite.
_ELEMENT_TYPES = _NUMBER_TYPES | {type(None)}


def json_number(value) -> float | None:
    """``value`` as a float if it is a JSON number under the rule above, else None."""
    try:
        number = float(value) if type(value) in _NUMBER_TYPES else math.nan
    except OverflowError:  # an int beyond the float range
        number = math.nan
    return number if math.isfinite(number) else None


# Coordinates of magnitude at most 2**510 keep every side below 2**511, so a box area,
# the sum of two areas and the area of an enclosing box stay below 2**1023: finite.
_MAX_COORDINATE = 2.0**510


def parse_box(raw, where: str) -> Box:
    """A box from a JSON list of 4 numbers within +-2**510, else a DataError naming ``where``."""
    if (not isinstance(raw, (list, tuple)) or len(raw) != 4
            or not _NUMBER_TYPES.issuperset(map(type, raw))):
        raise DataError(f"{where}: box must be a list of 4 numbers, got {raw!r}")
    try:
        box = Box(float(raw[0]), float(raw[1]), float(raw[2]), float(raw[3]))
    except (OverflowError, DataError) as exc:
        raise DataError(f"{where}: {exc}") from exc
    # Not inverted, so xmin <= xmax and ymin <= ymax bound the other two magnitudes.
    if max(-box.xmin, -box.ymin, box.xmax, box.ymax) > _MAX_COORDINATE:
        if math.isinf(box.xmax - box.xmin) or math.isinf(box.ymax - box.ymin):
            raise DataError(f"{where}: box width or height overflows the float range, got {raw!r}")
        raise DataError(f"{where}: box coordinate beyond +-2**510, got {raw!r}")
    return box


def _finite(arr: np.ndarray, where: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{where}: non-finite values")
    return arr


def parse_array(raw, ndim: int, where: str) -> np.ndarray:
    """A float64 array of ``ndim`` (1 or 2) dimensions of JSON numbers; else a DataError."""
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{where}: not an array of numbers ({exc})") from None
    if arr.ndim != ndim:
        raise DataError(f"{where}: expected a {ndim}-d array of numbers, got {raw!r:.40}")
    # numpy reads the strings "1" and "1e1" and the booleans as numbers.
    elements = raw if ndim == 1 else itertools.chain.from_iterable(raw)
    if not _ELEMENT_TYPES.issuperset(map(type, elements)):
        raise DataError(f"{where}: not an array of numbers (holds a string or true/false)")
    return _finite(arr, where)


# An encoded array, a checkpoint weight or a dataset feature, is
# {"dtype": "<f8", "shape": [...], "data": <base64 of its little-endian
# bytes in C order>}, exact for every float64.
_DTYPE = "<f8"
# base64.b64decode(data, validate=True) without its Python wrapper: the same bytes, and the
# same ValueError for text beyond ASCII and for bad base64. Python 3.10 has no strict mode.
_b64decode = (functools.partial(binascii.a2b_base64, strict_mode=True)
              if sys.version_info >= (3, 11) else functools.partial(base64.b64decode, validate=True))


def _array_base64(arr: np.ndarray) -> str:
    # tobytes copies in C order, so a float64 array needs no astype copy before it.
    data = arr.astype(_DTYPE, copy=False).tobytes()
    return binascii.b2a_base64(data, newline=False).decode("ascii")


def array_to_json(arr: np.ndarray) -> dict:
    return {"dtype": _DTYPE, "shape": list(arr.shape), "data": _array_base64(arr)}


def _array_bytes(raw, ndim: int, where: str) -> tuple[list[int], bytes]:
    """The shape and data bytes of an ``ndim``-d :func:`array_to_json` object; else a DataError."""
    if not isinstance(raw, dict):
        raise DataError(f'{where}: expected a {ndim}-d array {{"dtype": "{_DTYPE}", "shape":'
                        f' [...], "data": "<base64>"}}, got {raw!r:.40}')
    dtype, shape, data = raw.get("dtype"), raw.get("shape"), raw.get("data")
    if dtype != _DTYPE:
        raise DataError(f"{where}: dtype {dtype!r:.40} is not {_DTYPE!r}")
    # The bound keeps numpy's size limit off a zero-size array, (0, 10**18) say.
    if not (is_list_of(shape, int) and len(shape) == ndim and all(0 <= n < 2**31 for n in shape)):
        raise DataError(f"{where}: shape must be a {ndim}-item list of integers in 0..2**31-1,"
                        f" got {shape!r:.40}")
    if type(data) is not str:
        raise DataError(f"{where}: data must be a base64 string, got {data!r:.40}")
    try:
        buf = _b64decode(data)
    except ValueError as exc:  # binascii.Error, or a character beyond ASCII
        raise DataError(f"{where}: data is not base64 ({exc})") from None
    if len(buf) != (size := 8 * math.prod(shape)):
        raise DataError(f"{where}: not an array of shape {shape}: {len(buf)} bytes of data,"
                        f" expected {size}")
    return shape, buf


def array_from_json(raw, ndim: int, where: str) -> np.ndarray:
    """A finite ``ndim``-d float64 array from :func:`array_to_json`'s object; else a DataError."""
    shape, buf = _array_bytes(raw, ndim, where)
    return _finite(np.frombuffer(buf, _DTYPE).reshape(shape).astype(np.float64), where)


def _parse_feature(raw, expected_dim: int | None, where: str) -> np.ndarray:
    """A finite flat feature, of length ``expected_dim`` unless that is None.

    ``raw`` is a list of numbers or, as an object, an encoded array.
    """
    parse = array_from_json if isinstance(raw, dict) else parse_array
    feat = parse(raw, 1, f"{where} feature")
    if expected_dim is not None and feat.shape[0] != expected_dim:
        raise DataError(
            f"{where}: feature dimension {feat.shape[0]} != dataset dimension {expected_dim}"
        )
    return feat


def _encoded_rows(feats: list[dict]) -> np.ndarray | None:
    """Encoded 1-d arrays of one length as the rows of one finite array, else None.

    The checks are :func:`_array_bytes`'s and :func:`_finite`'s, each made
    on all the objects in a few builtin passes. Each item is base64-decoded
    on its own: joined, the strings of items that end in padding would not
    decode.
    """
    n = len(feats)
    if list(map(dict.get, feats, itertools.repeat("dtype"))).count(_DTYPE) != n:
        return None
    shapes = list(map(dict.get, feats, itertools.repeat("shape")))
    shape = shapes[0]
    # A list equal to [D] may still hold a float or a boolean: [3.0] == [True] * 3 == [3].
    if not (type(shape) is list and len(shape) == 1 and shapes.count(shape) == n
            and {int}.issuperset(map(type, itertools.chain.from_iterable(shapes)))
            and 0 <= shape[0] < 2**31):
        return None
    data = list(map(dict.get, feats, itertools.repeat("data")))
    if not {str}.issuperset(map(type, data)):
        return None
    try:
        bufs = list(map(_b64decode, data))
    except ValueError:
        return None
    if list(map(len, bufs)).count(8 * shape[0]) != n:
        return None
    rows = np.frombuffer(b"".join(bufs), _DTYPE).reshape(n, shape[0])
    return rows.astype(np.float64) if np.isfinite(rows).all() else None


def _feature_rows(group: list[dict], feature_dim: int | None, where: str) -> np.ndarray | None:
    """The group's item features as the rows of one array, or None if one of them is bad.

    :func:`_encoded_rows` checks a group of encoded arrays and one
    :func:`parse_array` call a group of lists; a group that holds both
    forms is parsed item by item. On None the caller parses each item
    with :func:`_parse_feature`, which names the first bad one.
    """
    feats = list(map(dict.get, group, itertools.repeat("feature")))
    kinds = set(map(type, feats))
    try:  # an empty group parses as 1-d, so gives None
        if kinds == {dict}:
            rows = _encoded_rows(feats)
        elif dict in kinds:
            rows = np.array([_parse_feature(feat, None, where) for feat in feats])
        else:
            rows = parse_array(feats, 2, where)
    except ValueError:  # a DataError, or items of more than one length
        return None
    return rows if rows is not None and feature_dim in (None, rows.shape[1]) else None


# A group of items that fails its check in _parse_record is walked item by
# item, so that its first bad item is named; the walk always finds one.


def _no_bad_item(group: str, where: str) -> RuntimeError:
    return RuntimeError(f"{where}: internal error: {group} failed the group check, but no item did")


def _name_bad_triplet(triplets: list[list], num_boxes: int, num_predicates: int,
                      where: str) -> NoReturn:
    for i, t in enumerate(triplets):
        if len(t) != 3:
            raise DataError(f"{where} gt triplet {i}: expected [sub_idx, pred_id, obj_idx]")
        sub_idx, pred, obj_idx = t
        if not (_index(sub_idx, num_boxes) and _index(obj_idx, num_boxes)):
            raise DataError(f"{where} gt triplet {i}: index out of range for {num_boxes} gt boxes")
        if sub_idx == obj_idx:
            raise DataError(f"{where} gt triplet {i}: subject and object index coincide")
        if not _index(pred, num_predicates + 1) or pred == 0:
            raise DataError(
                f"{where} gt triplet {i}: predicate {pred!r} outside 1..{num_predicates}"
            )
    raise _no_bad_item("gt triplets", where)


def _name_bad_attribute(attributes: list[list], num_boxes: int, num_attributes: int,
                        where: str) -> NoReturn:
    for i, a in enumerate(attributes):
        if len(a) != 2:
            raise DataError(f"{where} gt attribute {i}: expected [gt_idx, attr_id]")
        gt_idx, attr = a
        if not _index(gt_idx, num_boxes):
            raise DataError(f"{where} gt attribute {i}: gt index {gt_idx!r} out of range")
        if not _index(attr, num_attributes):
            raise DataError(f"{where} gt attribute {i}: attribute {attr!r} outside vocabulary")
    raise _no_bad_item("gt attributes", where)


def _name_bad_pair_feature(pairs: list[dict], rows: np.ndarray | None, num_detections: int,
                           feature_dim: int | None, where: str) -> NoReturn:
    firsts: dict[tuple[int, int], int] = {}
    for i, p in enumerate(pairs):
        sub, obj = p.get("sub"), p.get("obj")
        if not (_index(sub, num_detections) and _index(obj, num_detections)) or sub == obj:
            raise DataError(f"{where} pair feature {i}: invalid detection pair ({sub!r}, {obj!r})")
        if (first := firsts.setdefault((sub, obj), i)) != i:
            raise DataError(f"{where} pair feature {i}: repeats pair feature {first}'s"
                            f" detection pair ({sub}, {obj})")
        if rows is None:
            feature_dim = _parse_feature(
                p.get("feature"), feature_dim, f"{where} pair feature {i}").shape[0]
    raise _no_bad_item("pair features", where)


def _parse_record(raw: dict, vocab: Vocabulary, feature_dim: int | None) -> tuple[ImageRecord, int | None]:
    """The record of one dataset line, and the feature dimension D after it.

    Triplets, attributes, pair features and the feature groups are checked
    a group at a time, in a few builtin passes over their JSON values; a
    group that fails is walked item by item to name its first bad item.
    """
    image_id = raw.get("image_id")
    if not isinstance(image_id, str) or not image_id:
        raise DataError("missing or empty image_id")
    where = f"image {image_id!r}"

    width, height = raw.get("width"), raw.get("height")
    if not all(type(v) is int and json_number(v) is not None and v > 0 for v in (width, height)):
        raise DataError(f"{where}: width/height must be positive integers within float range")
    if json_number(width * height) is None:  # the spatial encoding divides by the image area
        raise DataError(f"{where}: width * height overflows the float range")

    items = {}
    for key, kind in (("detections", dict), ("gt_boxes", dict), ("gt_triplets", list),
                      ("gt_attributes", list), ("pair_features", dict)):
        items[key] = raw.get(key, [])
        if not is_list_of(items[key], kind):
            noun = "objects" if kind is dict else "lists"
            raise DataError(f"{where}: {key} must be a list of {noun}")

    num_objects = len(vocab.object_classes)
    num_predicates = vocab.num_predicates
    num_attributes = len(vocab.attributes)

    detections = []
    rows = _feature_rows(items["detections"], feature_dim, where)
    for i, d in enumerate(items["detections"]):
        box = parse_box(d.get("box"), f"{where} detection {i}")
        feat = rows[i] if rows is not None else _parse_feature(
            d.get("feature"), feature_dim, f"{where} detection {i}")
        feature_dim = feat.shape[0]
        label = d.get("label")
        if not _index(label, num_objects):
            raise DataError(f"{where} detection {i}: label {label!r} outside vocabulary")
        score = json_number(d.get("score"))
        if score is None or not (0.0 <= score <= 1.0):
            raise DataError(f"{where} detection {i}: score {d.get('score')!r} outside [0, 1]")
        detections.append(Detection(label=label, box=box, score=score, feature=feat))

    gt_boxes = []
    for i, g in enumerate(items["gt_boxes"]):
        box = parse_box(g.get("box"), f"{where} gt box {i}")
        label = g.get("label")
        if not _index(label, num_objects):
            raise DataError(f"{where} gt box {i}: label {label!r} outside vocabulary")
        feat = None
        if g.get("feature") is not None:
            feat = _parse_feature(g["feature"], feature_dim, f"{where} gt box {i}")
            feature_dim = feat.shape[0]
        gt_boxes.append(GtObject(label=label, box=box, feature=feat))

    num_boxes = len(gt_boxes)
    triplets = items["gt_triplets"]
    flat = list(itertools.chain.from_iterable(triplets))
    subs, preds, objs = flat[0::3], flat[1::3], flat[2::3]
    if not ({3}.issuperset(map(len, triplets)) and _indices(subs, num_boxes)
            and _indices(objs, num_boxes) and not any(map(operator.eq, subs, objs))
            and _indices(preds, num_predicates + 1) and 0 not in preds):
        _name_bad_triplet(triplets, num_boxes, num_predicates, where)
    gt_triplets = list(zip(subs, preds, objs))

    attributes = items["gt_attributes"]
    flat = list(itertools.chain.from_iterable(attributes))
    gt_indices, attrs = flat[0::2], flat[1::2]
    if not ({2}.issuperset(map(len, attributes)) and _indices(gt_indices, num_boxes)
            and _indices(attrs, num_attributes)):
        _name_bad_attribute(attributes, num_boxes, num_attributes, where)
    gt_attributes = list(zip(gt_indices, attrs))

    pair_features = {}
    if pairs := items["pair_features"]:
        rows = _feature_rows(pairs, feature_dim, where)
        subs = list(map(dict.get, pairs, itertools.repeat("sub")))
        objs = list(map(dict.get, pairs, itertools.repeat("obj")))
        if (rows is not None and _indices(subs, len(detections)) and _indices(objs, len(detections))
                and not any(map(operator.eq, subs, objs))):
            pair_features = dict(zip(zip(subs, objs), rows))
        if len(pair_features) < len(pairs):  # a failed check, or a repeated pair
            _name_bad_pair_feature(pairs, rows, len(detections), feature_dim, where)
        feature_dim = rows.shape[1]

    zero_area = sum(o.box.is_degenerate() for o in [*detections, *gt_boxes])
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
    file. Raises :class:`DataError` naming the offending line or image,
    also for an image id that an earlier line holds.
    """
    feature_dim: int | None = None

    def parse(raw: dict, line: int) -> tuple[str, ImageRecord]:
        nonlocal feature_dim
        record, feature_dim = _parse_record(raw, vocab, feature_dim)
        record.line = line
        return record.image_id, record

    return list(read_image_lines(path, parse).values())


def _json_scalar(value) -> str:
    """``json.dumps(value)``; an int or a finite float (not a bool) skips the encoder."""
    if type(value) is int or type(value) is float and _isfinite(value):
        return repr(value)
    return json.dumps(value)


def _json_box(box: Box) -> str:
    s = _json_scalar
    return f"[{s(box.xmin)}, {s(box.ymin)}, {s(box.xmax)}, {s(box.ymax)}]"


def _json_array(arr: np.ndarray) -> str:
    """``json.dumps(array_to_json(arr))``: base64 needs no escapes."""
    return f'{{"dtype": "{_DTYPE}", "shape": {list(arr.shape)}, "data": "{_array_base64(arr)}"}}'


def _record_line(record: ImageRecord) -> str:
    """The record's JSON line, the exact text ``json.dumps`` gives its dict."""
    s = _json_scalar
    detections = ", ".join(
        f'{{"label": {s(d.label)}, "box": {_json_box(d.box)}, "score": {s(d.score)},'
        f' "feature": {_json_array(d.feature)}}}'
        for d in record.detections
    )
    gt_boxes = ", ".join(
        f'{{"label": {s(g.label)}, "box": {_json_box(g.box)}'
        + (f', "feature": {_json_array(g.feature)}}}' if g.feature is not None else "}")
        for g in record.gt_boxes
    )
    line = (
        f'{{"image_id": {json.dumps(record.image_id)}, "width": {s(record.width)},'
        f' "height": {s(record.height)}, "detections": [{detections}], "gt_boxes": [{gt_boxes}],'
        f' "gt_triplets": {json.dumps(record.gt_triplets)},'
        f' "gt_attributes": {json.dumps(record.gt_attributes)}'
    )
    if record.pair_features:
        pairs = ", ".join(
            f'{{"sub": {s(i)}, "obj": {s(j)}, "feature": {_json_array(f)}}}'
            for (i, j), f in sorted(record.pair_features.items())
        )
        line += f', "pair_features": [{pairs}]'
    return line + "}"


def save_dataset(records: list[ImageRecord], path: str | os.PathLike) -> None:
    """Write records as JSONL; inverse of :func:`load_dataset`."""
    atomic_write_text(path, "".join(_record_line(r) + "\n" for r in records))
