"""Data types, box geometry, and dataset IO."""

import copy
import dataclasses
import hashlib
import json
import math
import os
import re
import stat

import numpy as np
import pytest

from relfusion.datamodel import (
    Box,
    DataError,
    Detection,
    GtObject,
    PredictedTriplet,
    ResolvedTriplet,
    Vocabulary,
    atomic_write_text,
    box_array,
    iou,
    iou_matrix,
    load_dataset,
    load_vocabulary,
    parse_box,
    save_dataset,
    save_vocabulary,
    union_box,
)

from util import area, array_json, box, center, feature_array, random_box, tiny_vocab


class TestBox:
    def test_invalid_boxes_rejected(self):
        with pytest.raises(DataError):
            Box(5, 0, 0, 5)
        with pytest.raises(DataError):
            Box(0, 0, math.inf, 5)

    def test_a_side_past_the_float_range_is_rejected_on_input(self):
        for raw in ([-1e308, 0, 1e308, 1], [0, -1e308, 1, 1e308]):
            with pytest.raises(DataError, match=r"^w: box width or height overflows the float"):
                parse_box(raw, "w")
        # A huge box built in memory is still a Box.
        assert Box(-1e308, 0, 1e308, 1).width == math.inf

    def test_a_coordinate_past_two_to_the_510_is_rejected_on_input(self):
        # Finite sides, but an area (or a sum of two areas) past the float range.
        for raw in ([0, 0, 1e308, 1e308], [-1e308, -1e308, 0, 0], [0, 0, 1, 2.0**510 * 1.5],
                    [-(2.0**511), 0, 0, 1]):
            with pytest.raises(DataError, match=r"^w: box coordinate beyond \+-2\*\*510, got "):
                parse_box(raw, "w")
        edge = parse_box([-(2.0**510), -(2.0**510), 2.0**510, 2.0**510], "w")
        assert area(edge) == 2.0**1022 and math.isfinite(area(edge) + area(edge))
        assert iou(edge, edge) == 1.0
        assert iou_matrix(box_array([edge]), box_array([edge])).tolist() == [[1.0]]

    def test_zero_area_accepted(self):
        b = Box(3, 3, 3, 3)
        assert b.is_degenerate()

    def test_center_and_size(self):
        b = box(0, 0, 10, 20)
        assert center(b) == (5, 10)
        assert (b.width, b.height, area(b)) == (10, 20, 200)


class TestIou:
    def test_identity(self):
        b = box(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        # intersection 5x10, union 100 + 100 - 50
        assert iou(box(0, 0, 10, 10), box(5, 0, 15, 10)) == pytest.approx(1 / 3, abs=1e-15)

    def test_zero_area_gives_zero(self):
        degenerate = box(5, 5, 5, 5)
        assert iou(degenerate, degenerate) == 0.0
        assert iou(degenerate, box(0, 0, 10, 10)) == 0.0

    def test_symmetry_and_identity_characterization(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == iou(b, a)
            if a != b:
                assert iou(a, b) < 1.0
            assert 0.0 <= iou(a, b) <= 1.0


class TestIouMatrix:
    def test_equals_scalar_iou_bit_for_bit(self):
        rng = np.random.default_rng(21)
        grid = np.array([0.0, 1.5, 3.0, 4.5, 6.0, 7.5])
        boxes = [random_box(rng, grid=grid) for _ in range(40)]  # touching, equal, nested
        boxes += [random_box(rng, hi=8.0) for _ in range(40)]
        boxes += [box(3, 1.5, 3, 6), box(1.5, 4.5, 7.5, 4.5), box(2, 2, 2, 2)]  # zero area
        boxes += [box(0, 0, 10, 10), box(0, 0, 10, 20), box(10, 0, 20, 10)]
        a, b = boxes[::2], boxes[1::2] + boxes[:7]
        matrix = iou_matrix(box_array(a), box_array(b))
        scalar = np.array([[iou(x, y) for y in b] for x in a])
        assert matrix.shape == (len(a), len(b))
        assert np.array_equal(matrix.view(np.int64), scalar.view(np.int64))
        assert np.any(matrix == 1.0) and np.any(matrix == 0.0) and np.any(matrix == 0.5)

    def test_empty_sides(self):
        some = box_array([box(0, 0, 1, 1)])
        assert iou_matrix(box_array([]), some).shape == (0, 1)
        assert iou_matrix(some, box_array([])).shape == (1, 0)


class TestUnionBox:
    def test_idempotent(self):
        b = box(1, 2, 3, 4)
        assert union_box(b, b) == b

    def test_corners(self):
        assert union_box(box(0, 0, 1, 1), box(2, 2, 3, 3)) == box(0, 0, 3, 3)

    def test_commutative_and_containing(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b = random_box(rng), random_box(rng)
            u = union_box(a, b)
            assert u == union_box(b, a)
            assert u.xmin <= min(a.xmin, b.xmin) and u.xmax >= max(a.xmax, b.xmax)
            assert area(u) >= max(area(a), area(b))

    def test_union_and_iou_have_the_bits_of_builtin_min_and_max(self):
        # Ties and signed zeros too: each picks the operand that min or max picks.
        sides = [(lo, hi) for lo in (-0.0, 0.0, 1.0) for hi in (-0.0, 0.0, 2.0) if lo <= hi]
        boxes = [Box(x0, y0, x1, y1) for x0, x1 in sides for y0, y1 in sides]
        boxes += [random_box(np.random.default_rng(6), hi=3.0) for _ in range(30)]
        for a in boxes:
            for b in boxes:
                low, high = (min(a.xmin, b.xmin), min(a.ymin, b.ymin)), (max(a.xmax, b.xmax),
                                                                         max(a.ymax, b.ymax))
                assert [v.hex() for v in union_box(a, b).to_list()] == [
                    v.hex() for v in (*low, *high)]
                ix = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
                iy = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
                union = area(a) + area(b) - ix * iy
                want = ix * iy / union if ix > 0.0 and iy > 0.0 and union > 0.0 else 0.0
                assert iou(a, b).hex() == want.hex()


def _value_objects():
    """One instance of each value type, with the repr that it prints."""
    a, b = Box(0.0, 1.0, 2.0, 3.0), Box(4.0, 5.0, 6.5, 7.0)
    feature = np.zeros(2)
    return [
        (a, "Box(xmin=0.0, ymin=1.0, xmax=2.0, ymax=3.0)"),
        (Detection(1, a, 0.5, feature),
         f"Detection(label=1, box={a!r}, score=0.5, feature=array([0., 0.]))"),
        (GtObject(2, b), f"GtObject(label=2, box={b!r}, feature=None)"),
        (ResolvedTriplet(1, a, 3, 2, b),
         f"ResolvedTriplet(sub_label=1, sub_box={a!r}, predicate=3, obj_label=2, obj_box={b!r})"),
        (PredictedTriplet(a, 1, 3, b, 2, 0.25),
         f"PredictedTriplet(sub_box={a!r}, sub_label=1, predicate=3, obj_box={b!r}, obj_label=2, "
         "score=0.25)"),
    ]


REPLACEMENTS = {
    Box: {"xmin": -1.0},
    Detection: {"score": 1.0},
    GtObject: {"label": 3},
    ResolvedTriplet: {"predicate": 1},
    PredictedTriplet: {"score": 0.75},
}

FIELD_NAMES = {
    Box: ("xmin", "ymin", "xmax", "ymax"),
    Detection: ("label", "box", "score", "feature"),
    GtObject: ("label", "box", "feature"),
    ResolvedTriplet: ("sub_label", "sub_box", "predicate", "obj_label", "obj_box"),
    PredictedTriplet: ("sub_box", "sub_label", "predicate", "obj_box", "obj_label", "score"),
}


class TestValueObjects:
    @pytest.mark.parametrize("obj, text", _value_objects(), ids=lambda v: type(v).__name__)
    def test_frozen_slotted_values(self, obj, text):
        cls = type(obj)
        names = tuple(f.name for f in dataclasses.fields(obj))
        assert names == FIELD_NAMES[cls]
        assert not hasattr(obj, "__dict__") and cls.__slots__ == names
        for name in names:
            message = f"^cannot assign to field '{name}'$"
            with pytest.raises(dataclasses.FrozenInstanceError, match=message):
                setattr(obj, name, 1)
        # Nowhere to store a new name either. The frozen __setattr__ of a slotted dataclass
        # raises a TypeError here on Python 3.11, as it refers to the class before slots.
        with pytest.raises((AttributeError, TypeError)):
            obj.extra = 1
        assert repr(obj) == text
        # Keyword construction and replace give an equal value with the same hash.
        values = {name: getattr(obj, name) for name in names}
        again = cls(**values)
        assert all(getattr(again, name) is value for name, value in values.items())
        assert again == obj and dataclasses.replace(obj) == obj
        if cls is not Detection:  # its ndarray feature is not hashable
            assert hash(again) == hash(obj)
        changed = dataclasses.replace(obj, **REPLACEMENTS[cls])
        assert changed != obj
        assert {n: getattr(changed, n) for n in names} == {**values, **REPLACEMENTS[cls]}

    def test_asdict_recurses_into_boxes(self):
        a, b = Box(0.0, 1.0, 2.0, 3.0), Box(4.0, 5.0, 6.5, 7.0)
        box_a = {"xmin": 0.0, "ymin": 1.0, "xmax": 2.0, "ymax": 3.0}
        box_b = {"xmin": 4.0, "ymin": 5.0, "xmax": 6.5, "ymax": 7.0}
        assert dataclasses.asdict(a) == box_a
        assert dataclasses.asdict(GtObject(2, b)) == {"label": 2, "box": box_b, "feature": None}
        assert dataclasses.asdict(ResolvedTriplet(1, a, 3, 2, b)) == {
            "sub_label": 1, "sub_box": box_a, "predicate": 3, "obj_label": 2, "obj_box": box_b}
        assert dataclasses.asdict(PredictedTriplet(a, 1, 3, b, 2, 0.25)) == {
            "sub_box": box_a, "sub_label": 1, "predicate": 3, "obj_box": box_b, "obj_label": 2,
            "score": 0.25}
        det = dataclasses.asdict(Detection(1, a, 0.5, np.arange(2.0)))
        assert det.pop("feature").tolist() == [0.0, 1.0]
        assert det == {"label": 1, "box": box_a, "score": 0.5}

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Box(0, 0, math.inf, 5), "non-finite box coordinates (0, 0, inf, 5)"),
            (lambda: Box(math.nan, 0, 1, 1), "non-finite box coordinates (nan, 0, 1, 1)"),
            # Finiteness is checked before order.
            (lambda: Box(5, 0, 0, -math.inf), "non-finite box coordinates (5, 0, 0, -inf)"),
            (lambda: Box(5, 0, 0, 5), "inverted box (5, 0, 0, 5)"),
            (lambda: Box(0, 2.5, 1, 2), "inverted box (0, 2.5, 1, 2)"),
            (lambda: PredictedTriplet(Box(0, 0, 1, 1), 0, 0, Box(0, 0, 1, 1), 0, 0.5),
             "predicted predicate must be a real class (>= 1)"),
            # The predicate is checked before the score.
            (lambda: PredictedTriplet(Box(0, 0, 1, 1), 0, 0, Box(0, 0, 1, 1), 0, math.nan),
             "predicted predicate must be a real class (>= 1)"),
            (lambda: PredictedTriplet(Box(0, 0, 1, 1), 0, 1, Box(0, 0, 1, 1), 0, math.nan),
             "prediction score must be finite"),
            (lambda: PredictedTriplet(Box(0, 0, 1, 1), 0, 1, Box(0, 0, 1, 1), 0, -math.inf),
             "prediction score must be finite"),
            (lambda: Detection(0, Box(0, 0, 1, 1), 1.5, np.zeros(2)),
             "detection score 1.5 outside [0, 1]"),
            (lambda: Detection(0, Box(0, 0, 1, 1), -0.25, np.zeros(2)),
             "detection score -0.25 outside [0, 1]"),
            (lambda: Detection(0, Box(0, 0, 1, 1), math.nan, np.zeros(2)),
             "detection score nan outside [0, 1]"),
        ],
        ids=["inf box", "nan box", "inverted and non-finite box", "inverted x", "inverted y",
             "predicate 0", "predicate 0 and nan score", "nan score", "infinite score",
             "detection score above 1", "detection score below 0", "nan detection score"],
    )
    def test_exact_data_errors(self, build, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            build()

    def test_replace_runs_the_checks(self):
        with pytest.raises(DataError, match=r"^inverted box \(3\.0, 1\.0, 2\.0, 3\.0\)$"):
            dataclasses.replace(Box(0.0, 1.0, 2.0, 3.0), xmin=3.0)
        t = PredictedTriplet(Box(0, 0, 1, 1), 0, 1, Box(0, 0, 1, 1), 0, 0.5)
        with pytest.raises(DataError, match=r"^prediction score must be finite$"):
            dataclasses.replace(t, score=math.inf)


class TestVocabulary:
    def test_reserved_slot_and_uniqueness(self):
        with pytest.raises(DataError):
            Vocabulary(object_classes=("a",), predicates=("__no_rel__",))
        with pytest.raises(DataError):
            Vocabulary(object_classes=("a", "a"), predicates=("__no_rel__", "p"))
        v = tiny_vocab(num_predicates=9)
        assert v.num_predicates == 9

    def test_roundtrip_and_digest(self, tmp_path):
        v = tiny_vocab(num_attributes=2)
        save_vocabulary(v, tmp_path / "vocab.json")
        loaded = load_vocabulary(tmp_path / "vocab.json")
        assert loaded == v
        assert loaded.digest() == v.digest()

    def test_digest_hashes_the_sorted_key_payload(self, tmp_path):
        # Checkpoints store this digest, so its bytes must not change.
        v = tiny_vocab(num_objects=1, num_predicates=1, num_attributes=1)
        payload = b'{"attributes": ["a0"], "objects": ["o0"], "predicates": ["__no_rel__", "p1"]}'
        assert v.digest() == hashlib.sha256(payload).hexdigest()
        save_vocabulary(v, tmp_path / "vocab.json")
        assert json.loads((tmp_path / "vocab.json").read_text()) == json.loads(payload)

    @pytest.mark.parametrize(
        "objects",
        [None, "abc", ["a", 1], {"a": "b"}],
        ids=["null", "string", "int item", "object"],
    )
    def test_name_lists_must_be_lists_of_strings(self, tmp_path, objects):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"objects": objects, "predicates": ["__no_rel__", "p"]}))
        message = f"{path}: 'objects' must be a list of strings"
        with pytest.raises(DataError, match=re.escape(message)):
            load_vocabulary(path)

    def test_vocabulary_errors_name_the_file(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"objects": ["a", "a"], "predicates": ["__no_rel__", "p"]}))
        with pytest.raises(DataError, match=re.escape(f"{path}: duplicate names")):
            load_vocabulary(path)


class TestAtomicWriteText:
    def test_temp_name_is_not_shared(self, tmp_path):
        # A directory at the once-fixed temp name "{path}.tmp" must not matter.
        path = tmp_path / "out.txt"
        (tmp_path / "out.txt.tmp").mkdir()
        atomic_write_text(path, "new\n")
        assert path.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "out.txt.tmp"]

    def test_failed_write_keeps_old_file_and_removes_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "\ud800")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_os_error_names_the_path_not_the_temp_file(self, tmp_path):
        path = tmp_path / "file" / "out.txt"
        path.parent.write_text("")
        with pytest.raises(NotADirectoryError) as info:
            atomic_write_text(path, "x")
        assert info.value.filename == str(path) and ".tmp" not in str(info.value)

    def test_mode_is_that_of_a_plain_open(self, tmp_path):
        old = os.umask(0o027)
        try:
            atomic_write_text(tmp_path / "out.txt", "x")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode) == 0o640


def _valid_line(image_id="a", dim=3):
    return {
        "image_id": image_id,
        "width": 100,
        "height": 100,
        "detections": [
            {"label": 0, "box": [0, 0, 10, 10], "score": 0.9, "feature": [0.0] * dim},
            {"label": 1, "box": [5, 5, 20, 20], "score": 0.8, "feature": [1.0] * dim},
        ],
        "gt_boxes": [
            {"label": 0, "box": [0, 0, 10, 10]},
            {"label": 1, "box": [5, 5, 20, 20]},
        ],
        "gt_triplets": [[0, 1, 1]],
        "gt_attributes": [],
    }


class TestLoadDataset:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_dataset(path, tiny_vocab()) == []

    def test_bad_triplet_index_names_image(self, tmp_path):
        line = _valid_line("broken")
        line["gt_triplets"] = [[0, 1, 5]]
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(DataError, match="broken"):
            load_dataset(path, tiny_vocab())

    def test_roundtrip_identity(self, tmp_path):
        vocab = tiny_vocab()
        path = tmp_path / "two.jsonl"
        path.write_text(
            json.dumps(_valid_line("a")) + "\n" + json.dumps(_valid_line("b")) + "\n"
        )
        records = load_dataset(path, vocab)
        out = tmp_path / "copy.jsonl"
        save_dataset(records, out)
        again = load_dataset(out, vocab)
        assert len(again) == 2
        for r1, r2 in zip(records, again):
            assert r1.image_id == r2.image_id
            assert r1.gt_triplets == r2.gt_triplets
            assert all(d1.box == d2.box for d1, d2 in zip(r1.detections, r2.detections))
            assert all(
                np.array_equal(d1.feature, d2.feature)
                for d1, d2 in zip(r1.detections, r2.detections)
            )

    def test_records_keep_their_line_which_is_neither_compared_nor_written(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("\n" + json.dumps(_valid_line("a")) + "\n"
                        + json.dumps(_valid_line("b")) + "\n")
        records = load_dataset(path, tiny_vocab())
        assert [r.line for r in records] == [2, 3]
        assert dataclasses.replace(records[0], line=None) == records[0]
        out = tmp_path / "copy.jsonl"
        save_dataset(records, out)
        assert all("line" not in json.loads(text) for text in out.read_text().splitlines())
        assert [r.line for r in load_dataset(out, tiny_vocab())] == [1, 2]

    def test_feature_dimension_enforced_across_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps(_valid_line("a", dim=3)) + "\n" + json.dumps(_valid_line("b", dim=4)) + "\n"
        )
        with pytest.raises(DataError, match="dimension"):
            load_dataset(path, tiny_vocab())

    def test_repeated_image_id_names_both_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [_valid_line("a"), _valid_line("b"), _valid_line("a")]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(DataError, match=f"{path}:3: image 'a' already on line 1$"):
            load_dataset(path, tiny_vocab())

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("\n" + json.dumps(_valid_line("a")) + "\n  \n\n"
                        + json.dumps(_valid_line("b")) + "\n\n{oops\n")
        with pytest.raises(DataError, match=f"{path}:7: invalid JSON"):
            load_dataset(path, tiny_vocab())
        path.write_text(path.read_text().replace("{oops\n", ""))
        assert [r.image_id for r in load_dataset(path, tiny_vocab())] == ["a", "b"]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(_valid_line()) + "\n{oops\n")
        with pytest.raises(DataError, match=":2"):
            load_dataset(path, tiny_vocab())

    def test_non_object_line_carries_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(_valid_line()) + "\n[1, 2]\n")
        with pytest.raises(DataError, match=":2: expected a JSON object"):
            load_dataset(path, tiny_vocab())

    @pytest.mark.parametrize(
        "mutate,field",
        [
            (lambda l: l["detections"][0].update(score=1.5), "score"),
            (lambda l: l["gt_triplets"].append([0, 0, 1]), "predicate"),
            (lambda l: l["gt_triplets"].append([1, 1, 1]), "coincide"),
            (lambda l: l.update(width=0), "width"),
            (lambda l: l["detections"][0].update(label=99), "label"),
            (lambda l: l["detections"][0].update(box=["a", 0, 1, 1]), "detection 0"),
            pytest.param(
                lambda l: l["detections"][0].update(label=True),
                "label",
                id="bool detection label",
            ),
            pytest.param(
                lambda l: l["gt_boxes"][0].update(label=False),
                "label",
                id="bool gt label",
            ),
            pytest.param(
                lambda l: l["gt_triplets"].append([0, True, 1]),
                "predicate",
                id="bool predicate",
            ),
            pytest.param(
                lambda l: l["detections"][0].update(score=True),
                "score",
                id="bool score",
            ),
            pytest.param(
                lambda l: l.update(width=True),
                "width",
                id="bool width",
            ),
            pytest.param(
                lambda l: l["detections"].append(5),
                "detections must be a list of objects",
                id="int detection",
            ),
            pytest.param(
                lambda l: l["gt_boxes"].append("x"),
                "gt_boxes must be a list of objects",
                id="string gt box",
            ),
            pytest.param(
                lambda l: l.update(detections=5),
                "detections must be a list",
                id="detections not a list",
            ),
            pytest.param(
                lambda l: l["gt_triplets"].append(5),
                "gt_triplets must be a list of lists",
                id="int triplet",
            ),
            pytest.param(
                lambda l: l.update(gt_triplets=[[0, 1]]),
                r"d\.jsonl:1: image 'a' gt triplet 0: expected \[sub_idx, pred_id, obj_idx\]",
                id="two-item triplet",
            ),
            pytest.param(
                lambda l: l.update(gt_attributes=[[0, 0, 0]]),
                r"d\.jsonl:1: image 'a' gt attribute 0: expected \[gt_idx, attr_id\]",
                id="three-item attribute",
            ),
            pytest.param(
                lambda l: l.update(gt_triplets=[["0", 1, 1]]),
                "gt triplet 0: index",
                id="string triplet index",
            ),
            pytest.param(
                lambda l: l.update(gt_triplets=[[0.0, 1, 1]]),
                "gt triplet 0: index",
                id="float triplet index",
            ),
            pytest.param(
                lambda l: l.update(gt_triplets=[[None, 1, 1]]),
                "gt triplet 0: index",
                id="null triplet index",
            ),
            pytest.param(
                lambda l: l.update(gt_triplets=[[0, 1.0, 1]]),
                "gt triplet 0: predicate",
                id="float predicate",
            ),
            pytest.param(
                lambda l: l.update(gt_attributes=[["0", 0]]),
                "gt attribute 0: gt index",
                id="string attribute index",
            ),
            pytest.param(
                lambda l: l.update(gt_attributes=[[0.0, 0]]),
                "gt attribute 0: gt index",
                id="float attribute index",
            ),
            pytest.param(
                lambda l: l.update(gt_attributes=[[None, 0]]),
                "gt attribute 0: gt index",
                id="null attribute index",
            ),
            pytest.param(
                lambda l: l.update(pair_features=[{"sub": None, "obj": 1, "feature": [0] * 3}]),
                "pair feature 0",
                id="null pair index",
            ),
            pytest.param(
                lambda l: l.update(pair_features=[{"sub": 0, "obj": 1, "feature": [0] * 3},
                                                  {"sub": 1, "obj": 0, "feature": [1] * 3},
                                                  {"sub": 0, "obj": 1, "feature": [2] * 3}]),
                r"d\.jsonl:1: image 'a' pair feature 2: repeats pair feature 0's detection pair",
                id="repeated pair feature",
            ),
            pytest.param(
                lambda l: l.update(pair_features=[{"sub": "0", "obj": 1, "feature": [0] * 3}]),
                "pair feature 0",
                id="string pair index",
            ),
            pytest.param(
                lambda l: l.update(pair_features=[{"sub": 0.0, "obj": 1, "feature": [0] * 3}]),
                "pair feature 0",
                id="float pair index",
            ),
            pytest.param(
                lambda l: l["detections"][0].update(feature=["a", 0, 0]),
                "detection 0 feature",
                id="string feature value",
            ),
            pytest.param(
                lambda l: l["detections"][0].update(feature={"a": 1}),
                "detection 0 feature",
                id="object feature",
            ),
            # numpy reads "1" and true as 1.0, and cannot hold 10**400.
            pytest.param(
                lambda l: l["detections"][0]["feature"].__setitem__(0, "1"),
                r"d\.jsonl:1: image 'a' detection 0 feature: not an array of numbers",
                id="numeric string feature value",
            ),
            pytest.param(
                lambda l: l["detections"][0]["feature"].__setitem__(0, True),
                r"d\.jsonl:1: image 'a' detection 0 feature: not an array of numbers",
                id="bool feature value",
            ),
            pytest.param(
                lambda l: l["detections"][0]["feature"].__setitem__(0, 10**400),
                r"d\.jsonl:1: image 'a' detection 0 feature: .*int too large to convert",
                id="overflowing feature value",
            ),
            pytest.param(
                lambda l: l.update(width=10**400),
                r"d\.jsonl:1: image 'a': width/height must be positive integers",
                id="overflowing width",
            ),
        ],
    )
    def test_invariant_violations(self, tmp_path, mutate, field):
        line = _valid_line()
        mutate(line)
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(DataError, match=field):
            load_dataset(path, tiny_vocab())

    def test_zero_area_box_warns_but_loads(self, tmp_path, caplog):
        line = _valid_line()
        line["detections"][0]["box"] = [5, 5, 5, 5]
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(line) + "\n")
        with caplog.at_level("WARNING"):
            records = load_dataset(path, tiny_vocab())
        assert len(records) == 1
        assert "zero-area" in caplog.text

    def test_pair_features_roundtrip(self, tmp_path):
        line = _valid_line()
        line["pair_features"] = [{"sub": 0, "obj": 1, "feature": [0.5, 0.5, 0.5]}]
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(line) + "\n")
        records = load_dataset(path, tiny_vocab())
        assert (0, 1) in records[0].pair_features
        out = tmp_path / "copy.jsonl"
        save_dataset(records, out)
        assert (0, 1) in load_dataset(out, tiny_vocab())[0].pair_features

    def test_optional_keys_may_be_absent(self, tmp_path):
        line = {"image_id": "bare", "width": 10, "height": 10,
                "detections": [], "gt_boxes": []}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(line) + "\n")
        records = load_dataset(path, tiny_vocab())
        assert records[0].gt_triplets == []
        assert records[0].gt_attributes == []
        assert records[0].pair_features == {}

    def test_gt_feature_roundtrip(self, tmp_path):
        line = _valid_line()
        line["gt_boxes"][0]["feature"] = [1.0, 2.0, 3.0]
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(line) + "\n")
        records = load_dataset(path, tiny_vocab())
        assert np.array_equal(records[0].gt_boxes[0].feature, [1.0, 2.0, 3.0])
        assert records[0].gt_boxes[1].feature is None


def _group_line(image_id="a", dim=3):
    """Four detections and six pair features, each with a ``dim``-d feature."""
    dets = [{"label": i, "box": [i, i, 10 + i, 10 + i], "score": 0.5, "feature": [float(i)] * dim}
            for i in range(4)]
    pairs = [{"sub": s, "obj": o, "feature": [0.5] * dim}
             for s, o in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]]
    return {"image_id": image_id, "width": 100, "height": 100, "detections": dets,
            "gt_boxes": [], "pair_features": pairs}


BAD_FEATURES = {
    "string": (lambda f: f.__setitem__(1, "x"),
               "not an array of numbers (could not convert string to float: 'x')"),
    "true": (lambda f: f.__setitem__(1, True),
             "not an array of numbers (holds a string or true/false)"),
    "null": (lambda f: f.__setitem__(1, None), "non-finite values"),
    "overflowing": (lambda f: f.__setitem__(1, 10**400),
                    "not an array of numbers (int too large to convert to float)"),
}


class TestFeatureGroups:
    """A record's features are parsed a group at a time; the messages name one item."""

    def _message(self, tmp_path, *lines):
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(DataError) as info:
            load_dataset(path, tiny_vocab())
        return str(info.value).replace(str(path), "d.jsonl")

    @pytest.mark.parametrize("bad", [*BAD_FEATURES, "short"])
    @pytest.mark.parametrize("key, item", [("detections", "detection 2"),
                                           ("pair_features", "pair feature 4")])
    def test_bad_item_is_named(self, tmp_path, key, item, bad):
        line = _group_line()
        feature = line[key][int(item[-1])]["feature"]
        if bad == "short":
            feature.pop()
            expected = f"{item}: feature dimension 2 != dataset dimension 3"
        else:
            BAD_FEATURES[bad][0](feature)
            expected = f"{item} feature: {BAD_FEATURES[bad][1]}"
        assert self._message(tmp_path, line) == f"d.jsonl:1: image 'a' {expected}"

    def test_first_of_two_bad_detections_is_named(self, tmp_path):
        line = _group_line()
        line["detections"][1]["feature"][0] = "1"
        line["detections"][3]["feature"][2] = None
        assert self._message(tmp_path, line) == (
            "d.jsonl:1: image 'a' detection 1 feature: not an array of numbers"
            " (holds a string or true/false)")

    def test_first_of_two_bad_pair_features_is_named(self, tmp_path):
        line = _group_line()
        line["pair_features"][1]["feature"].append(1.0)
        line["pair_features"][5]["feature"][0] = True
        assert self._message(tmp_path, line) == (
            "d.jsonl:1: image 'a' pair feature 1: feature dimension 4 != dataset dimension 3")

    def test_an_earlier_item_check_comes_first(self, tmp_path):
        line = _group_line()
        line["detections"][1]["label"] = 9
        line["detections"][3]["feature"][2] = None
        assert self._message(tmp_path, line) == (
            "d.jsonl:1: image 'a' detection 1: label 9 outside vocabulary")
        line = _group_line()
        line["pair_features"][1]["sub"] = 7
        line["pair_features"][3]["feature"][2] = None
        assert self._message(tmp_path, line) == (
            "d.jsonl:1: image 'a' pair feature 1: invalid detection pair (7, 0)")

    @pytest.mark.parametrize("field, value, expected", [
        ("shape", [3, 1], "shape must be a 1-item list of integers in 0..2**31-1, got [3, 1]"),
        ("shape", [3.0], "shape must be a 1-item list of integers in 0..2**31-1, got [3.0]"),
        ("dtype", "<f4", "dtype '<f4' is not '<f8'"),
    ])
    @pytest.mark.parametrize("key, item", [("detections", "detection 0"),
                                           ("pair_features", "pair feature 0")])
    def test_a_group_of_items_bad_alike_names_the_first(self, tmp_path, key, item, field, value,
                                                        expected):
        line = _group_line()
        for entry in line[key]:
            entry["feature"] = array_json(entry["feature"]) | {field: value}
        assert self._message(tmp_path, line) == f"d.jsonl:1: image 'a' {item} feature: {expected}"

    def test_dimension_change_across_records(self, tmp_path):
        assert self._message(tmp_path, _group_line("a", 3), _group_line("b", 4)) == (
            "d.jsonl:2: image 'b' detection 0: feature dimension 4 != dataset dimension 3")

    def test_pair_group_of_another_dimension(self, tmp_path):
        line = _group_line("b", 4)
        for pair in line["pair_features"]:
            pair["feature"] = [0.5] * 3
        assert self._message(tmp_path, line) == (
            "d.jsonl:1: image 'b' pair feature 0: feature dimension 3 != dataset dimension 4")

    def test_features_equal_a_parse_of_each_item(self, tmp_path):
        line = _group_line()
        line["detections"][2]["feature"] = [1, -0.0, 5e-324]
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(line) + "\n")
        record = load_dataset(path, tiny_vocab())[0]
        for det, raw in zip(record.detections, line["detections"]):
            assert np.array_equal(det.feature, np.array(raw["feature"], dtype=np.float64))
            assert det.feature.dtype == np.float64 and det.feature.shape == (3,)
        for raw in line["pair_features"]:
            assert np.array_equal(record.pair_features[(raw["sub"], raw["obj"])], raw["feature"])


PINNED_VOCAB = dict(num_objects=4, num_predicates=3, num_attributes=3)
DELETE = object()  # a _set value: remove the field


def _pinned_line(rng, image_id: str, encoded: bool) -> dict:
    """A valid line: 5 detections, 4 gt boxes with features, 5 triplets, 4 attributes, 6 pairs."""
    def feature():
        arr = rng.normal(size=3)
        return array_json(arr) if encoded else arr.tolist()

    def box():
        x0, y0, w, h = (int(v) for v in rng.integers(1, 50, size=4))
        return [x0, y0, x0 + w, y0 + h]

    def pairs(n, k):
        every = [(s, o) for s in range(n) for o in range(n) if s != o]
        return [every[j] for j in rng.choice(len(every), size=k, replace=False)]

    return {
        "image_id": image_id, "width": 120, "height": 90,
        "detections": [{"label": int(rng.integers(4)), "box": box(), "score": float(rng.uniform()),
                        "feature": feature()} for _ in range(5)],
        "gt_boxes": [{"label": int(rng.integers(4)), "box": box(), "feature": feature()}
                     for _ in range(4)],
        "gt_triplets": [[s, int(rng.integers(1, 4)), o] for s, o in pairs(4, 5)],
        "gt_attributes": [[int(rng.integers(4)), int(rng.integers(3))] for _ in range(4)],
        "pair_features": [{"sub": s, "obj": o, "feature": feature()}
                          for s, o in pairs(5, 6)],
    }


def _set(path, value):
    """An edit of item ``i``: the field at ``path`` becomes ``value``, or ``value(old)`` if callable."""
    def edit(group, i):
        node = group[i]
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return edit


def _replace(make):
    """An edit of item ``i``: it becomes ``make(item)``."""
    def edit(group, i):
        group[i] = make(group[i])
    return edit


def _b64(values) -> str:
    return array_json(values)["data"]


def _repeat_previous_pair(group, i):
    group[i].update(sub=group[i - 1]["sub"], obj=group[i - 1]["obj"])


# (group, form, edit): the edit applies to one item of the group, drawn from the seed, in a
# line whose features have that form. Every field of every group gets bad values.
PINNED_CORRUPTIONS = [
    *[("detections", "encoded", _set(("box",), v))
      for v in (["a", 0, 1, 1], [0, 0, 1], [5, 5, 1, 1], [0, 0, math.inf, 1], None, [0, 0, 2**600, 1],
                [0, 0, 1, True])],
    *[("detections", "encoded", _set(("label",), v)) for v in (4, -1, True, 1.0, None, "0")],
    *[("detections", "encoded", _set(("score",), v))
      for v in (1.5, -0.5, True, "0.5", None, math.nan, DELETE)],
    *[(key, "encoded", _set(("feature",), v))
      for key in ("detections", "gt_boxes", "pair_features") for v in ("abc", 5, True, [])],
    ("detections", "encoded", _set(("feature",), DELETE)),
    *[(key, "encoded", _set(("feature", "dtype"), v))
      for key in ("detections", "gt_boxes", "pair_features") for v in (">f8", "<f4", None, DELETE)],
    *[(key, "encoded", _set(("feature", "shape"), v))
      for key in ("detections", "gt_boxes", "pair_features")
      for v in ([4], [2], [3.0], [True], [-1], [3, 1], [], "3", None, [2**31])],
    *[(key, "encoded", _set(("feature", "data"), v))
      for key in ("detections", "gt_boxes", "pair_features")
      for v in (lambda d: d[:-1], lambda d: d + "AA=", lambda d: "=" + d[1:],
                lambda d: "é" + d[1:], lambda d: d[:4] + "!" + d[5:],
                _b64([1.0, 2.0]), _b64([1.0, 2.0, 3.0, 4.0]), _b64([0.0, math.nan, 1.0]),
                _b64([math.inf, 0.0, 1.0]), 7, None, DELETE)],
    *[(key, "list", _set(("feature", 1), v))
      for key in ("detections", "gt_boxes", "pair_features")
      for v in ("x", "1", True, None, 10**400, [1.0], {"a": 1})],
    *[(key, "list", _set(("feature",), v))
      for key in ("detections", "gt_boxes", "pair_features")
      for v in (lambda f: f[:2], lambda f: f + [0.0], lambda f: [f])],
    *[("gt_boxes", "encoded", _set(("box",), v)) for v in ([0, 0, 1], [1, 1, 0, 0], "box")],
    *[("gt_boxes", "encoded", _set(("label",), v)) for v in (4, -1, False, 2.0, DELETE)],
    *[("gt_triplets", "encoded", _replace(make))
      for make in (lambda t: t[:2], lambda t: t + [1], lambda t: [], lambda t: [t[0], t[1], t[0]])],
    *[("gt_triplets", "encoded", _set((k,), v))
      for k in range(3) for v in (True, 1.0, -1, 4, "1", None)],
    *[("gt_triplets", "encoded", _set((1,), v)) for v in (0, 4, False)],
    *[("gt_attributes", "encoded", _replace(make))
      for make in (lambda a: a[:1], lambda a: a + [0], lambda a: [])],
    *[("gt_attributes", "encoded", _set((k,), v))
      for k, end in ((0, 4), (1, 3)) for v in (True, 1.0, -1, end, "1", None)],
    *[("pair_features", "encoded", _set((key,), v))
      for key in ("sub", "obj") for v in (DELETE, True, 1.0, -1, 5, "1", None)],
    ("pair_features", "encoded", _repeat_previous_pair),
    ("pair_features", "encoded", _replace(lambda p: p | {"obj": p["sub"]})),
]


def _record_values(record) -> tuple:
    """Every field and feature byte of a loaded record."""
    def feature(f):
        return None if f is None else (f.dtype.str, f.shape, f.tobytes())
    return (record.image_id, record.width, record.height, record.line,
            [(d.label, d.box.to_list(), d.score, feature(d.feature)) for d in record.detections],
            [(g.label, g.box.to_list(), feature(g.feature)) for g in record.gt_boxes],
            record.gt_triplets, record.gt_attributes,
            [(pair, feature(f)) for pair, f in record.pair_features.items()])


class TestPinnedLoaderResults:
    # sha256 of the messages and of the values below, generated before the loader checked
    # item lists as groups: a changed message, or a value read differently, moves one.
    MESSAGES = "d20390a7c157921d95a26806e32cc22f6c93904052d3d15dbb0b398cb4b20d6b"
    VALUES = "db07cae109d1b773d93b7984a20b30862d5e52e4df391eadb815899d55748ff8"

    def _lines(self, rng):
        """Valid lines: encoded, list form, and both forms within one group."""
        encoded = [_pinned_line(rng, f"e{k}", True) for k in range(3)]
        listed = [_pinned_line(rng, f"l{k}", False) for k in range(3)]
        mixed = _pinned_line(rng, "m", True)
        for item in mixed["detections"][1::2] + mixed["pair_features"][::2]:
            item["feature"] = feature_array(item["feature"]).tolist()
        sparse = _pinned_line(rng, "s", False)
        del sparse["gt_boxes"][1]["feature"], sparse["pair_features"], sparse["gt_attributes"]
        sparse["gt_boxes"][2]["feature"] = None
        return encoded, listed, [mixed, sparse]

    def test_messages_and_values_are_pinned(self, tmp_path):
        rng = np.random.default_rng(27)
        encoded, listed, others = self._lines(rng)
        vocab = tiny_vocab(**PINNED_VOCAB)
        path = tmp_path / "d.jsonl"

        def load(lines):
            path.write_text("".join(json.dumps(line) + "\n" for line in lines))
            return load_dataset(path, vocab)

        values = [_record_values(r) for r in load([*encoded, *listed, *others])]
        messages = []
        for n, (key, form, edit) in enumerate(PINNED_CORRUPTIONS):
            valid = encoded if form == "encoded" else listed
            line = copy.deepcopy(valid[n % len(valid)])
            edit(line[key], int(rng.integers(len(line[key]))))
            for lines in ([line], [valid[(n + 1) % len(valid)], line]):
                with pytest.raises(DataError) as info:
                    load(lines)
                messages.append(str(info.value).replace(str(path), "d.jsonl"))
        assert len(messages) == 2 * len(PINNED_CORRUPTIONS)
        assert hashlib.sha256(repr(values).encode()).hexdigest() == self.VALUES
        assert hashlib.sha256("\n".join(messages).encode()).hexdigest() == self.MESSAGES
