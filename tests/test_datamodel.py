"""Data types, box geometry, and dataset IO."""

import json
import math
import os
import stat

import numpy as np
import pytest

from relfusion.datamodel import (
    Box,
    DataError,
    Vocabulary,
    atomic_write_text,
    iou,
    load_dataset,
    load_vocabulary,
    save_dataset,
    save_vocabulary,
    union_box,
)

from util import box, random_box, tiny_vocab


class TestBox:
    def test_invalid_boxes_rejected(self):
        with pytest.raises(DataError):
            Box(5, 0, 0, 5)
        with pytest.raises(DataError):
            Box(0, 0, math.inf, 5)

    def test_zero_area_accepted(self):
        b = Box(3, 3, 3, 3)
        assert b.is_degenerate()

    def test_center_and_size(self):
        b = box(0, 0, 10, 20)
        assert b.center == (5, 10)
        assert (b.width, b.height, b.area) == (10, 20, 200)


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
            assert u.area >= max(a.area, b.area)


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

    def test_feature_dimension_enforced_across_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps(_valid_line("a", dim=3)) + "\n" + json.dumps(_valid_line("b", dim=4)) + "\n"
        )
        with pytest.raises(DataError, match="dimension"):
            load_dataset(path, tiny_vocab())

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(_valid_line()) + "\n{oops\n")
        with pytest.raises(DataError, match=":2"):
            load_dataset(path, tiny_vocab())

    @pytest.mark.parametrize(
        "mutate,field",
        [
            (lambda l: l["detections"][0].update(score=1.5), "score"),
            (lambda l: l["gt_triplets"].append([0, 0, 1]), "predicate"),
            (lambda l: l["gt_triplets"].append([1, 1, 1]), "coincide"),
            (lambda l: l.update(width=0), "width"),
            (lambda l: l["detections"][0].update(label=99), "label"),
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
