"""Prediction files: the writer's exact ``json.dumps`` form, which holds each
distinct box of a line once in its ``boxes`` table, and a loader that reads a
box field as an index into that table or as a list of 4 numbers, and gives
what a per-item parse gives."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from relfusion.cli import main
from relfusion.datamodel import Box, DataError, PredictedTriplet, parse_box
from relfusion.fusion import (
    _parse_triplet,
    init_fusion_model,
    load_predictions,
    predict_image,
    save_predictions,
)
from relfusion.semantic import FrequencyTable

from util import attributes_of, make_detection, make_record, tiny_vocab

# Coordinates that json.dumps writes in a special form (signed zero, subnormal,
# exponent, integer-valued), and 1.0, which compares equal to True.
SPECIAL = [-0.0, 0.0, 5e-324, 1e16, 1e-7, 1.0, 3.0, 250.0]
IMAGE_IDS = ["plain", 'say "hi"', "back\\slash", "café 图", "tab\there", "\U0001f600"]


def _row(image_id, triplets, attributes) -> dict:
    """An image's row, which save_predictions must write as ``json.dumps`` does.

    Its ``boxes`` table holds each Box object once, in order of first use by
    the triplets and then the is_triplets; a box field is an index into it.
    """
    used = [b for t in triplets for b in (t.sub_box, t.obj_box)]
    if attributes and image_id in attributes:
        is_triplets = attributes[image_id]
        used += [d.box for d, _, _ in is_triplets]
    table = []
    for b in used:
        if not any(b is seen for seen in table):
            table.append(b)

    def index(b: Box) -> int:
        return next(k for k, seen in enumerate(table) if seen is b)

    row = {
        "image_id": image_id,
        "boxes": [b.to_list() for b in table],
        "triplets": [
            {
                "sub_box": index(t.sub_box),
                "sub_label": t.sub_label,
                "predicate": t.predicate,
                "obj_box": index(t.obj_box),
                "obj_label": t.obj_label,
                "score": t.score,
            }
            for t in triplets
        ],
    }
    if attributes and image_id in attributes:
        row["is_triplets"] = [
            {"box": index(d.box), "label": d.label, "attribute": a, "score": s}
            for d, a, s in is_triplets
        ]
    return row


def _expected_bytes(predictions, attributes) -> bytes:
    lines = (json.dumps(_row(i, t, attributes)) + "\n" for i, t in predictions.items())
    return "".join(lines).encode("utf-8")


def _coordinate(rng) -> float:
    if rng.random() < 0.4:
        return SPECIAL[rng.integers(len(SPECIAL))]
    return float(rng.uniform(0.0, 500.0))


def _random_box(rng) -> Box:
    x0, x1 = sorted((_coordinate(rng), _coordinate(rng)))
    y0, y1 = sorted((_coordinate(rng), _coordinate(rng)))
    return Box(x0, y0, x1, y1)


def _random_predictions(rng):
    """Images with shared detection boxes, equal but separate boxes, and is_triplets."""
    predictions, attributes = {}, {}
    for n in range(int(rng.integers(1, 6))):
        image_id = f"{IMAGE_IDS[rng.integers(len(IMAGE_IDS))]} {n}"
        dets = [
            make_detection(int(rng.integers(0, 5)), _random_box(rng))
            for _ in range(int(rng.integers(1, 5)))
        ]
        triplets = []
        for _ in range(int(rng.integers(0, 12))):  # sometimes none
            i, j = rng.integers(len(dets), size=2).tolist()
            sub_box, obj_box = dets[i].box, dets[j].box
            if rng.random() < 0.3:
                sub_box = Box(*sub_box.to_list())  # equal, another object
            score = _coordinate(rng) if rng.random() < 0.3 else float(rng.random())
            triplets.append(PredictedTriplet(
                sub_box, dets[i].label, int(rng.integers(1, 4)), obj_box, dets[j].label, score
            ))
        predictions[image_id] = triplets
        if rng.random() < 0.5:
            attributes[image_id] = [(d, int(rng.integers(3)), float(rng.random())) for d in dets]
    return predictions, attributes


def _fields(t: PredictedTriplet) -> list:
    """Every field with its type; each coordinate with its sign, so -0.0 differs from 0.0."""
    coords = [*t.sub_box.to_list(), *t.obj_box.to_list()]
    return [(type(c), c, math.copysign(1.0, c)) for c in coords] + [
        (type(v), v) for v in (t.sub_label, t.predicate, t.obj_label, t.score)
    ]


class TestWriter:
    def test_random_rows_are_written_as_json_dumps_writes_them(self, tmp_path):
        path = tmp_path / "p.jsonl"
        for seed in range(40):
            predictions, attributes = _random_predictions(np.random.default_rng(seed))
            if seed % 2:
                attributes = None
            save_predictions(predictions, path, attributes)
            assert path.read_bytes() == _expected_bytes(predictions, attributes), seed

    def test_random_rows_load_back_as_saved(self, tmp_path):
        path = tmp_path / "p.jsonl"
        for seed in range(40):
            predictions, attributes = _random_predictions(np.random.default_rng(seed))
            save_predictions(predictions, path, attributes)
            loaded = _assert_loads_as_reference(path)
            assert list(loaded) == list(predictions)
            for image_id, triplets in predictions.items():
                assert [_fields(t) for t in loaded[image_id]] == [_fields(t) for t in triplets]

    def test_equal_boxes_keep_their_own_sign_of_zero(self, tmp_path):
        a, b = Box(-0.0, 0.0, 1e16, 3.0), Box(0.0, -0.0, 1e16, 3.0)
        assert a == b and hash(a) == hash(b)
        predictions = {"x": [PredictedTriplet(a, 0, 1, b, 1, 0.5),
                             PredictedTriplet(b, 1, 2, a, 0, 1e-7)]}
        path = tmp_path / "p.jsonl"
        save_predictions(predictions, path)
        assert path.read_bytes() == _expected_bytes(predictions, None)
        assert path.read_text() == (
            '{"image_id": "x", "boxes": [[-0.0, 0.0, 1e+16, 3.0], [0.0, -0.0, 1e+16, 3.0]],'
            ' "triplets": [{"sub_box": 0, "sub_label": 0, "predicate": 1, "obj_box": 1,'
            ' "obj_label": 1, "score": 0.5}, {"sub_box": 1, "sub_label": 1, "predicate": 2,'
            ' "obj_box": 0, "obj_label": 0, "score": 1e-07}]}\n')
        loaded = load_predictions(path)["x"]
        assert [_fields(t) for t in loaded] == [_fields(t) for t in predictions["x"]]

    def test_is_triplet_boxes_follow_the_triplets_boxes(self, tmp_path):
        a, b, c = Box(0.0, 0.0, 1.0, 1.0), Box(2.0, 2.0, 3.0, 3.0), Box(4.0, 4.0, 5.0, 5.0)
        dets = [make_detection(0, c), make_detection(1, b)]
        predictions = {"x": [PredictedTriplet(b, 1, 1, a, 0, 0.5)]}
        path = tmp_path / "p.jsonl"
        save_predictions(predictions, path, {"x": [(dets[0], 2, 0.25), (dets[1], 0, 0.75)]})
        assert path.read_text() == (
            '{"image_id": "x", "boxes": [[2.0, 2.0, 3.0, 3.0], [0.0, 0.0, 1.0, 1.0],'
            ' [4.0, 4.0, 5.0, 5.0]], "triplets": [{"sub_box": 0, "sub_label": 1,'
            ' "predicate": 1, "obj_box": 1, "obj_label": 0, "score": 0.5}],'
            ' "is_triplets": [{"box": 2, "label": 0, "attribute": 2, "score": 0.25},'
            ' {"box": 0, "label": 1, "attribute": 0, "score": 0.75}]}\n')

    def test_empty_triplets(self, tmp_path):
        path = tmp_path / "p.jsonl"
        save_predictions({"x": [], "y": []}, path)
        assert path.read_text() == ('{"image_id": "x", "boxes": [], "triplets": []}\n'
                                    '{"image_id": "y", "boxes": [], "triplets": []}\n')

    def test_bool_labels_are_written_as_true_and_false(self, tmp_path):
        b = Box(1.5, 2.5, 3.5, 4.5)
        predictions = {"x": [PredictedTriplet(b, True, True, b, False, np.float64(0.25))]}
        path = tmp_path / "p.jsonl"
        save_predictions(predictions, path)
        assert path.read_bytes() == _expected_bytes(predictions, None)
        assert '"sub_label": true, "predicate": true' in path.read_text()

    @pytest.mark.parametrize("label", [np.int64(2), np.int32(2)])
    def test_numpy_integer_label_is_a_type_error(self, tmp_path, label):
        b = Box(1.5, 2.5, 3.5, 4.5)
        predictions = {"x": [PredictedTriplet(b, label, 1, b, 0, 0.5)]}
        with pytest.raises(TypeError):
            json.dumps(_row("x", predictions["x"], None))
        with pytest.raises(TypeError):
            save_predictions(predictions, tmp_path / "p.jsonl")
        assert not list(tmp_path.iterdir())

    def test_predict_image_output_loads_back_equal(self, tmp_path):
        """Triplets of predict_image, on boxes with both signs of zero, survive a file."""
        freq = FrequencyTable(num_predicates=3)
        freq.counts[(0, 1)] = np.array([0, 5, 1, 0])
        model = init_fusion_model(freq, 4, tiny_vocab(), np.random.default_rng(0),
                                  spatial_hidden=(8, 8), spo_hidden=(8, 8))
        rng = np.random.default_rng(1)
        boxes = [Box(-0.0, 0.0, 10.0, 20.0), Box(0.0, -0.0, 30.0, 3.0),
                 Box(2.5, 3.0, 7.0, 25.0), Box(-0.0, -0.0, 50.0, 0.5)]
        predictions = {}
        for n in range(3):
            dets = [make_detection(int(rng.integers(2)), b, score=float(rng.random()),
                                   feature=rng.normal(size=4)) for b in boxes[n:]]
            predictions[f"img {n}"] = predict_image(model, make_record(detections=dets))
        assert sum(map(len, predictions.values())) > 0
        path = tmp_path / "p.jsonl"
        save_predictions(predictions, path)
        loaded = load_predictions(path)
        assert list(loaded) == list(predictions)
        for image_id, triplets in predictions.items():
            assert [_fields(t) for t in loaded[image_id]] == [_fields(t) for t in triplets]


def _reference_load(path) -> dict:
    """Each box field of each triplet parsed on its own; an index reads the line's boxes."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        raw = json.loads(line)

        def box(value, key):
            return parse_box(raw["boxes"][value] if type(value) is int else value, key)

        out[raw["image_id"]] = [
            PredictedTriplet(
                box(t["sub_box"], "sub_box"), t["sub_label"], t["predicate"],
                box(t["obj_box"], "obj_box"), t["obj_label"], float(t["score"]),
            )
            for t in raw["triplets"]
        ]
    return out


def _assert_loads_as_reference(path) -> dict:
    loaded = load_predictions(path)
    reference = _reference_load(path)
    assert list(loaded) == list(reference)
    for image_id, triplets in loaded.items():
        assert [_fields(t) for t in triplets] == [_fields(t) for t in reference[image_id]]
    line_of = {}  # id of each loaded Box -> the image whose line gave it
    for image_id, triplets in loaded.items():
        for t in triplets:
            for b in (t.sub_box, t.obj_box):
                assert line_of.setdefault(id(b), image_id) == image_id
    return loaded


# Coordinate lists that compare equal across int and float spellings and
# across the sign of zero; they share one pool, so lines repeat each other's.
_LIST_POOL = [
    [0, 0, 10, 10], [0.0, 0.0, 10.0, 10.0], [-0.0, -0.0, 10, 10.0], [0.0, -0.0, 10, 10],
    [1, 1, 2, 2], [1.0, 1.0, 2.0, 2.0], [2.5, 3, 7, 250.0], [2.5, 3.0, 7.0, 250],
    [5e-324, 1e-7, 1e16, 1e16], [3, 4, 5, 6], [-5.5, -4.0, -1e-7, -0.0],
]


def _random_file(rng, path) -> None:
    """Lines whose box fields are lists, and on some lines indices into a boxes table too."""
    rows = []
    for n in range(int(rng.integers(1, 6))):
        lists = [_LIST_POOL[k] for k in rng.integers(len(_LIST_POOL), size=4)]
        indexed = rng.random() < 0.5

        def pick():
            k = int(rng.integers(len(lists)))
            return k if indexed and rng.random() < 0.7 else list(lists[k])

        triplets = [
            {"sub_box": pick(), "sub_label": int(rng.integers(0, 4)),
             "predicate": int(rng.integers(1, 4)), "obj_box": pick(),
             "obj_label": int(rng.integers(0, 4)),
             "score": [0, 1, 0.5, -0.0, 1e16][rng.integers(5)]}
            for _ in range(int(rng.integers(0, 10)))
        ]
        row = {"image_id": f"{IMAGE_IDS[rng.integers(len(IMAGE_IDS))]} {n}"}
        if indexed:
            row["boxes"] = lists
        row["triplets"] = triplets
        if rng.random() < 0.5:
            row["is_triplets"] = [{"box": pick(), "label": 0, "attribute": 1, "score": 0.5}]
        rows.append(row)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


class TestLoader:
    def test_random_files_load_as_a_per_item_parse(self, tmp_path):
        path = tmp_path / "p.jsonl"
        for seed in range(40):
            _random_file(np.random.default_rng(seed), path)
            _assert_loads_as_reference(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        rows = [json.dumps({"image_id": i, "triplets": [_GOOD]}) for i in ("x", "y")]
        plain, spaced = tmp_path / "plain.jsonl", tmp_path / "spaced.jsonl"
        plain.write_text("".join(row + "\n" for row in rows))
        spaced.write_text("\n" + rows[0] + "\n \t\n\n" + rows[1] + "\n\n")
        assert load_predictions(spaced) == load_predictions(plain)
        assert list(load_predictions(spaced)) == ["x", "y"]

    def test_a_line_mixing_both_forms_loads_as_a_per_item_parse(self, tmp_path):
        row = {"image_id": "x", "boxes": [[2.5, 3, 7, 9.5], [-0.0, 3, 7, 9.5]], "triplets": [
            {**_GOOD, "sub_box": 1, "obj_box": [-0.0, 3, 7, 9.5]},
            {**_GOOD, "sub_box": [0, 3, 7, 9.5], "obj_box": 0},
            {**_GOOD, "sub_box": 0},
        ], "is_triplets": [{"box": 1, "label": 0, "attribute": 1, "score": 0.5},
                           {"box": [0, 0, 1, 1], "label": 0, "attribute": 1, "score": 0.5}]}
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps(row) + "\n")
        x = _assert_loads_as_reference(path)["x"]
        assert [math.copysign(1.0, b.xmin) for b in (x[0].sub_box, x[0].obj_box)] == [-1.0, -1.0]
        assert x[1].obj_box.to_list() == [2.5, 3.0, 7.0, 9.5]
        assert x[2].obj_box == parse_box(_GOOD["obj_box"], "obj_box")

    def test_items_naming_one_index_share_its_box(self, tmp_path):
        row = {"image_id": "x", "boxes": [[2.5, 3, 7, 9.5], [0, 3, 7, 9.5]], "triplets": [
            {**_GOOD, "sub_box": 0, "obj_box": 0},
            {**_GOOD, "sub_box": 0, "obj_box": 1},
        ]}
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps(row) + "\n" + json.dumps({**row, "image_id": "y"}) + "\n")
        loaded = _assert_loads_as_reference(path)
        x, y = loaded["x"], loaded["y"]
        assert x[0].sub_box is x[0].obj_box is x[1].sub_box
        assert x[1].obj_box is not x[0].sub_box
        assert y[0].sub_box is not x[0].sub_box

    def test_seed_1_synth_predictions_load_as_a_per_item_parse(self, tmp_path):
        data = tmp_path / "data"
        ckpt, path = tmp_path / "model.json", tmp_path / "p.jsonl"
        common = ["--vocab", str(data / "vocab.json"), "--checkpoint", str(ckpt)]
        assert main(["gen-synth", "--out", str(data), "--num-images", "40",
                     "--num-test-images", "20", "--seed", "1"]) == 0
        assert main(["train", "--train", str(data / "train.jsonl"), *common,
                     "--epochs", "2"]) == 0
        assert main(["predict", "--test", str(data / "test.jsonl"), *common,
                     "--out", str(path), "--attributes"]) == 0
        loaded = _assert_loads_as_reference(path)
        assert sum(map(len, loaded.values())) > 0
        lines = path.read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert all(list(row) == ["image_id", "boxes", "triplets", "is_triplets"] for row in rows)
        fields = [t[key] for row in rows for t in row["triplets"] for key in ("sub_box", "obj_box")]
        assert fields and {type(v) for v in fields} == {int}
        assert [json.dumps(row) for row in rows] == lines


_GOOD = {"sub_box": [2.5, 3.5, 10.5, 20.5], "sub_label": 0, "predicate": 1,
         "obj_box": [4.5, 5.5, 30.5, 40.5], "obj_label": 1, "score": 0.5}
# Items 0..2 pass, and share the boxes the faults below damage.
_BEFORE = [_GOOD, {**_GOOD, "sub_box": [1, 3.5, 10.5, 20.5]}, _GOOD]
_MISSING = object()


@pytest.mark.parametrize(
    "fault, message",
    [
        ({"obj_box": [4.5, 5.5, "30.5", 40.5]},
         "obj_box: box must be a list of 4 numbers, got [4.5, 5.5, '30.5', 40.5]"),
        ({"obj_box": _MISSING}, "missing key 'obj_box'"),
        ({"sub_label": "0"}, "sub_label, predicate and obj_label must be integers"),
        ({"predicate": 0}, "predicted predicate must be a real class (>= 1)"),
        ({"sub_box": [10.5, 3.5, 2.5, 20.5]}, "sub_box: inverted box (10.5, 3.5, 2.5, 20.5)"),
        ({"sub_box": [True, 3.5, 10.5, 20.5]},
         "sub_box: box must be a list of 4 numbers, got [True, 3.5, 10.5, 20.5]"),
        ({"sub_box": [[2.5], 3.5, 10.5, 20.5]},
         "sub_box: box must be a list of 4 numbers, got [[2.5], 3.5, 10.5, 20.5]"),
    ],
    ids=["string coordinate", "missing key", "string label", "predicate 0", "inverted box",
         "true for 1", "nested list"],
)
def test_bad_item_after_items_sharing_its_boxes(tmp_path, fault, message):
    bad = {k: v for k, v in {**_GOOD, **fault}.items() if v is not _MISSING}
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({"image_id": "ok", "triplets": _BEFORE}) + "\n"
                    + json.dumps({"image_id": "x", "triplets": [*_BEFORE, bad, _GOOD]}) + "\n")
    with pytest.raises(DataError) as err:
        load_predictions(path)
    assert str(err.value) == f"{path}:2: image 'x' triplet 3: {message}"


def test_bad_is_triplet_after_triplets_sharing_its_box(tmp_path):
    is_triplets = [{"box": box, "label": 0, "attribute": 1, "score": 0.5}
                   for box in ([2.5, 3.5, 10.5, 20.5], [True, 3.5, 10.5, 20.5])]
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({"image_id": "x", "triplets": _BEFORE,
                                "is_triplets": is_triplets}) + "\n")
    with pytest.raises(DataError) as err:
        load_predictions(path)
    assert str(err.value) == (f"{path}:1: image 'x' is_triplet 1: box: box must be a list"
                              " of 4 numbers, got [True, 3.5, 10.5, 20.5]")


_GOLDEN = Path(__file__).parent / "golden"
_INDEX_ERROR = "box must be a list of 4 numbers or an index into the line's {n} boxes, got {v}"
_PAST_THE_END = object()


def _index_damage(key, value):
    """Put ``value`` in triplet 2's ``key``, or is_triplet 1's when ``key`` is "box"."""
    def damage(row):
        n = len(row["boxes"])
        value_ = n if value is _PAST_THE_END else value
        name = "is_triplet 1" if key == "box" else "triplet 2"
        (row["is_triplets"][1] if key == "box" else row["triplets"][2])[key] = value_
        return f"image {row['image_id']!r} {name}: {key}: " + _INDEX_ERROR.format(n=n, v=repr(value_))
    return damage


def _table_damage(k, value, message):
    """Put ``value`` in the line's ``boxes`` entry ``k`` (from the end when negative)."""
    def damage(row):
        k_ = k % len(row["boxes"])
        row["boxes"][k_] = value
        return f"image {row['image_id']!r} box {k_}: {message}"
    return damage


def _boxes_not_a_list(row):
    row["boxes"] = {"0": [0, 0, 1, 1]}
    return f"image {row['image_id']!r}: boxes must be a list"


# Damage to an index-form line written by save_predictions -> the message after "path:line: ".
INDEX_DAMAGE = {
    "index past the end": _index_damage("sub_box", _PAST_THE_END),
    "negative index": _index_damage("obj_box", -1),
    "true": _index_damage("sub_box", True),
    "1.0": _index_damage("obj_box", 1.0),
    "string": _index_damage("sub_box", "0"),
    "is_triplet index past the end": _index_damage("box", _PAST_THE_END),
    "is_triplet index 1.0": _index_damage("box", 1.0),
    "boxes not a list": _boxes_not_a_list,
    "bad table box": _table_damage(-1, [0, 0, 1], "box must be a list of 4 numbers, got [0, 0, 1]"),
    "inverted table box": _table_damage(0, [5, 0, 1, 1], "inverted box (5.0, 0.0, 1.0, 1.0)"),
}


@pytest.mark.parametrize("damage", INDEX_DAMAGE)
def test_damaged_index_form_exits_2_naming_the_line_and_item(tmp_path, capsys, damage):
    rows = [json.loads(line) for line in (_GOLDEN / "predictions.jsonl").read_text().splitlines()]
    k = next(k for k, row in enumerate(rows)
             if len(row["triplets"]) >= 3 and len(row.get("is_triplets", [])) >= 2)
    predictions = load_predictions(_GOLDEN / "predictions.jsonl")
    path = tmp_path / "pred.jsonl"
    save_predictions(predictions, path, attributes_of(rows))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    message = INDEX_DAMAGE[damage](lines[k])
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code = main(["eval", "--test", str(_GOLDEN / "test.jsonl"),
                 "--vocab", str(_GOLDEN / "vocab.json"),
                 "--predictions", str(path), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"{path}:{k + 1}: {message}" in err, err
    assert "Traceback" not in err


def _retype(key, value):
    def damage(item):
        item[key] = value
    return damage


def _edit_box(key, edit):
    def damage(item):
        item[key] = edit(item[key])
    return damage


_KEYS = ("sub_box", "sub_label", "predicate", "obj_box", "obj_label", "score")
# Damage to one triplet of a many-triplet line, by name; some (a float score,
# a -0.0 coordinate, an index in range) leave it valid.
ITEM_DAMAGE = {
    **{f"no {key}": (lambda item, key=key: item.pop(key)) for key in _KEYS},
    **{f"{key} as {name}": _retype(key, value) for key in _KEYS
       for name, value in (("bool", True), ("str", "1"), ("float", 1.5), ("null", None))},
    "score 10**400": _retype("score", 10**400),
    "predicate 0": _retype("predicate", 0),
    **{f"inverted {key}": _edit_box(key, lambda b: [b[2], b[1], b[0], b[3]])
       for key in ("sub_box", "obj_box")},
    **{f"{key} as an object": _edit_box(key, lambda b: dict(zip("abcd", b)))
       for key in ("sub_box", "obj_box")},
    **{f"-0.0 in {key}": _edit_box(key, lambda b: [-0.0, *b[1:]])
       for key in ("sub_box", "obj_box")},
    **{f"{key} as index {v}": _retype(key, v) for key in ("sub_box", "obj_box") for v in (-1, 3, 4)},
}


@pytest.mark.parametrize("damage", ITEM_DAMAGE)
def test_damaged_triplet_gets_the_message_of_the_per_item_check(tmp_path, damage):
    """A damaged triplet among many gets the verdict that ``_parse_triplet`` gives it alone."""
    rng = np.random.default_rng(sorted(ITEM_DAMAGE).index(damage))
    pool = [[0, 0, 10, 10], [0.5, 2, 30.5, 40], [3, 4, 5, 6.25], [7.5, 1, 8, 250]]
    triplets = [
        {"sub_box": list(pool[rng.integers(4)]), "sub_label": int(rng.integers(4)),
         "predicate": int(rng.integers(1, 4)), "obj_box": list(pool[rng.integers(4)]),
         "obj_label": int(rng.integers(4)), "score": float(rng.random())}
        for _ in range(int(rng.integers(20, 60)))
    ]
    k = int(rng.integers(len(triplets)))
    ITEM_DAMAGE[damage](triplets[k])
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({"image_id": "x", "boxes": pool, "triplets": triplets}) + "\n")
    table = [parse_box(b, "box") for b in pool]
    try:
        alone = _parse_triplet(json.loads(json.dumps(triplets[k])), table)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            load_predictions(path)
        assert str(err.value) == f"{path}:1: image 'x' triplet {k}: {exc}"
    else:
        loaded = _assert_loads_as_reference(path)["x"]
        assert _fields(loaded[k]) == _fields(alone)


_IS_KEYS = ("box", "label", "attribute", "score")
# Damage to one is_triplet: each key missing or retyped (a float score leaves it valid).
IS_ITEM_DAMAGE = {
    **{f"no {key}": (lambda item, key=key: item.pop(key)) for key in _IS_KEYS},
    **{f"{key} as {name}": _retype(key, value) for key in _IS_KEYS
       for name, value in (("bool", True), ("str", "1"), ("float", 1.5), ("null", None))},
    "inverted box": _edit_box("box", lambda b: [b[2], b[1], b[0], b[3]]),
}
_POOL = [[0, 0, 10, 10], [0.5, 2, 30.5, 40], [3, 4, 5, 6.25], [7.5, 1, 8, 250]]
_NOT_INTS = "sub_label, predicate and obj_label must be integers"
_NOT_A_BOX = "box must be a list of 4 numbers or an index into the line's 4 boxes, got "
# The message after "path:1: image 'x' triplet 2: " (or "is_triplet 2") of each damage to
# item 2 of _damaged_line's triplets or is_triplets; None where the item stays valid.
PINNED_MESSAGES = {
    ("triplets", "no sub_box"): "missing key 'sub_box'",
    ("triplets", "no sub_label"): "missing key 'sub_label'",
    ("triplets", "no predicate"): "missing key 'predicate'",
    ("triplets", "no obj_box"): "missing key 'obj_box'",
    ("triplets", "no obj_label"): "missing key 'obj_label'",
    ("triplets", "no score"): "missing key 'score'",
    ("triplets", "sub_box as bool"): "sub_box: " + _NOT_A_BOX + "True",
    ("triplets", "sub_box as str"): "sub_box: " + _NOT_A_BOX + "'1'",
    ("triplets", "sub_box as float"): "sub_box: " + _NOT_A_BOX + "1.5",
    ("triplets", "sub_box as null"): "sub_box: " + _NOT_A_BOX + "None",
    ("triplets", "sub_label as bool"): _NOT_INTS,
    ("triplets", "sub_label as str"): _NOT_INTS,
    ("triplets", "sub_label as float"): _NOT_INTS,
    ("triplets", "sub_label as null"): _NOT_INTS,
    ("triplets", "predicate as bool"): _NOT_INTS,
    ("triplets", "predicate as str"): _NOT_INTS,
    ("triplets", "predicate as float"): _NOT_INTS,
    ("triplets", "predicate as null"): _NOT_INTS,
    ("triplets", "obj_box as bool"): "obj_box: " + _NOT_A_BOX + "True",
    ("triplets", "obj_box as str"): "obj_box: " + _NOT_A_BOX + "'1'",
    ("triplets", "obj_box as float"): "obj_box: " + _NOT_A_BOX + "1.5",
    ("triplets", "obj_box as null"): "obj_box: " + _NOT_A_BOX + "None",
    ("triplets", "obj_label as bool"): _NOT_INTS,
    ("triplets", "obj_label as str"): _NOT_INTS,
    ("triplets", "obj_label as float"): _NOT_INTS,
    ("triplets", "obj_label as null"): _NOT_INTS,
    ("triplets", "score as bool"): "score must be a finite number, got True",
    ("triplets", "score as str"): "score must be a finite number, got '1'",
    ("triplets", "score as float"): None,
    ("triplets", "score as null"): "score must be a finite number, got None",
    ("triplets", "score 10**400"): "score must be a finite number, got 1" + "0" * 39,
    ("triplets", "predicate 0"): "predicted predicate must be a real class (>= 1)",
    ("triplets", "inverted sub_box"): "sub_box: inverted box (5.0, 4.0, 3.0, 6.25)",
    ("triplets", "inverted obj_box"): "obj_box: inverted box (30.5, 2.0, 0.5, 40.0)",
    ("triplets", "sub_box as an object"):
        "sub_box: " + _NOT_A_BOX + "{'a': 3, 'b': 4, 'c': 5, 'd': 6.25}",
    ("triplets", "obj_box as an object"):
        "obj_box: " + _NOT_A_BOX + "{'a': 0.5, 'b': 2, 'c': 30.5, 'd': 40}",
    ("triplets", "-0.0 in sub_box"): None,
    ("triplets", "-0.0 in obj_box"): None,
    ("triplets", "sub_box as index -1"): "sub_box: " + _NOT_A_BOX + "-1",
    ("triplets", "sub_box as index 3"): None,
    ("triplets", "sub_box as index 4"): "sub_box: " + _NOT_A_BOX + "4",
    ("triplets", "obj_box as index -1"): "obj_box: " + _NOT_A_BOX + "-1",
    ("triplets", "obj_box as index 3"): None,
    ("triplets", "obj_box as index 4"): "obj_box: " + _NOT_A_BOX + "4",
    ("is_triplets", "no box"): "missing key 'box'",
    ("is_triplets", "no label"): "missing key 'label'",
    ("is_triplets", "no attribute"): "missing key 'attribute'",
    ("is_triplets", "no score"): "missing key 'score'",
    ("is_triplets", "box as bool"): "box: " + _NOT_A_BOX + "True",
    ("is_triplets", "box as str"): "box: " + _NOT_A_BOX + "'1'",
    ("is_triplets", "box as float"): "box: " + _NOT_A_BOX + "1.5",
    ("is_triplets", "box as null"): "box: " + _NOT_A_BOX + "None",
    ("is_triplets", "label as bool"): "label and attribute must be integers",
    ("is_triplets", "label as str"): "label and attribute must be integers",
    ("is_triplets", "label as float"): "label and attribute must be integers",
    ("is_triplets", "label as null"): "label and attribute must be integers",
    ("is_triplets", "attribute as bool"): "label and attribute must be integers",
    ("is_triplets", "attribute as str"): "label and attribute must be integers",
    ("is_triplets", "attribute as float"): "label and attribute must be integers",
    ("is_triplets", "attribute as null"): "label and attribute must be integers",
    ("is_triplets", "score as bool"): "score must be a finite number, got True",
    ("is_triplets", "score as str"): "score must be a finite number, got '1'",
    ("is_triplets", "score as float"): None,
    ("is_triplets", "score as null"): "score must be a finite number, got None",
    ("is_triplets", "inverted box"): "box: inverted box (5.0, 4.0, 3.0, 6.25)",
}


def _damaged_line(path, key: str, damage) -> None:
    """4 triplets and 4 is_triplets, box fields as lists, with item 2 of ``key`` damaged."""
    row = {"image_id": "x", "boxes": _POOL, "triplets": [
        {"sub_box": list(_POOL[k]), "sub_label": k, "predicate": 1 + k % 3,
         "obj_box": list(_POOL[3 - k]), "obj_label": 3 - k, "score": 0.25 * k}
        for k in range(4)
    ], "is_triplets": [
        {"box": list(_POOL[k]), "label": k % 2, "attribute": k % 3, "score": 0.5}
        for k in range(4)
    ]}
    damage(row[key][2])
    path.write_text(json.dumps(row) + "\n")


@pytest.mark.parametrize("key, damage", [
    *(("triplets", name) for name in ITEM_DAMAGE),
    *(("is_triplets", name) for name in IS_ITEM_DAMAGE),
])
def test_damaged_item_gets_its_pinned_message(tmp_path, key, damage):
    path = tmp_path / "p.jsonl"
    _damaged_line(path, key, (ITEM_DAMAGE if key == "triplets" else IS_ITEM_DAMAGE)[damage])
    message = PINNED_MESSAGES[key, damage]
    if message is None:
        _assert_loads_as_reference(path)
    else:
        with pytest.raises(DataError) as err:
            load_predictions(path)
        assert str(err.value) == f"{path}:1: image 'x' {key[:-1]} 2: {message}"
