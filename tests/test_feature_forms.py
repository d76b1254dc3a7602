"""Dataset features as lists of numbers and as encoded arrays read the same.

One ``gen-synth`` set (with gt-box features added) is written three ways:
every feature a list, every feature an encoded array, and a mix, where one
line has list detections and gt boxes next to encoded pair features and
two more alternate the two forms within their detections. Each form must
load to the same float64 bits and give the same checkpoint, prediction
and report bytes.
"""

import copy
import json
import shutil

import numpy as np
import pytest

from relfusion.cli import main
from relfusion.datamodel import (
    DataError,
    GtObject,
    _parse_feature,
    array_from_json,
    array_to_json,
    load_dataset,
    load_vocabulary,
    save_dataset,
)
from relfusion.fusion import EVAL_MODES

from util import (
    array_json,
    feature_array,
    list_form,
    make_detection,
    make_record,
    rewrite_features,
    tiny_vocab,
)

FORMS = ("list", "encoded", "mixed")
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, -3.0]


def _mixed(lines: list[dict]) -> list[dict]:
    """``lines`` encoded, but for list detections and gt boxes on the first and mixed groups."""
    lines = [rewrite_features(line, array_json) for line in lines]
    rewrite_features(lines[0], list_form, keys=("detections", "gt_boxes"))
    # Within one group: a list first, then an encoded array first.
    for det in [*lines[1]["detections"][::2], *lines[2]["detections"][1::2]]:
        det["feature"] = list_form(feature_array(det["feature"]))
    return lines


@pytest.fixture(scope="module")
def form_dirs(tmp_path_factory):
    """Form name -> a directory of train.jsonl, test.jsonl and vocab.json in that form."""
    src = tmp_path_factory.mktemp("synth")
    # D = 5 gives 40 bytes a feature, so every item's base64 ends in padding.
    assert main(["gen-synth", "--out", str(src), "--num-images", "8", "--num-test-images", "3",
                 "--min-objects", "3", "--max-objects", "4", "--feature-dim", "5",
                 "--num-attributes", "2", "--seed", "2"]) == 0
    dirs = {form: tmp_path_factory.mktemp(form) for form in FORMS}
    for name in ("train.jsonl", "test.jsonl"):
        lines = [json.loads(line) for line in (src / name).read_text().splitlines()]
        for line in lines[::2]:  # gt box k sits at detection k in a gen-synth set
            for gt, det in zip(line["gt_boxes"], line["detections"]):
                gt["feature"] = det["feature"]
        assert len(lines) >= 3 and any(line.get("pair_features") for line in lines)
        written = {
            "list": [rewrite_features(copy.deepcopy(line), list_form) for line in lines],
            "encoded": [rewrite_features(copy.deepcopy(line), array_json) for line in lines],
            "mixed": _mixed(copy.deepcopy(lines)),
        }
        for form, out in written.items():
            (dirs[form] / name).write_text("".join(json.dumps(line) + "\n" for line in out))
    for d in dirs.values():
        shutil.copy(src / "vocab.json", d / "vocab.json")
    return dirs


def _features(records) -> list:
    """Every feature of ``records`` as (image, kind, index, its dtype and bytes), in file order."""
    def bits(feature):
        return None if feature is None else (feature.dtype, feature.tobytes())

    out = []
    for r in records:
        out += [(r.image_id, "det", i, bits(d.feature)) for i, d in enumerate(r.detections)]
        out += [(r.image_id, "gt", i, bits(g.feature)) for i, g in enumerate(r.gt_boxes)]
        out += [(r.image_id, "pair", key, bits(f)) for key, f in sorted(r.pair_features.items())]
    return out


def test_files_differ_in_form_only(form_dirs):
    lines = {form: (d / "test.jsonl").read_text() for form, d in form_dirs.items()}
    assert len(set(lines.values())) == 3
    first = {form: json.loads(text.splitlines()[0]) for form, text in lines.items()}
    assert type(first["list"]["detections"][0]["feature"]) is list
    assert first["encoded"]["detections"][0]["feature"]["dtype"] == "<f8"
    assert type(first["mixed"]["detections"][0]["feature"]) is list
    assert first["mixed"]["pair_features"][0]["feature"]["dtype"] == "<f8"


@pytest.mark.parametrize("name", ["train.jsonl", "test.jsonl"])
def test_every_form_loads_the_same_bits(form_dirs, name):
    vocab = load_vocabulary(form_dirs["list"] / "vocab.json")
    loaded = {form: _features(load_dataset(d / name, vocab)) for form, d in form_dirs.items()}
    kinds = {kind for _, kind, _, bits in loaded["list"] if bits is not None}
    assert kinds == {"det", "gt", "pair"}
    assert all(bits[0] == np.float64 for *_, bits in loaded["list"] if bits is not None)
    assert loaded["encoded"] == loaded["list"]
    assert loaded["mixed"] == loaded["list"]


@pytest.mark.parametrize("mode", EVAL_MODES)
def test_every_form_gives_the_same_output_bytes(form_dirs, tmp_path, capsys, mode):
    outputs = {}
    for form, d in form_dirs.items():
        out = tmp_path / form
        out.mkdir()
        data = ["--vocab", str(d / "vocab.json"), "--mode", mode]
        assert main(["train", "--train", str(d / "train.jsonl"), *data, "--epochs", "2",
                     "--checkpoint", str(out / "m.json")]) == 0
        assert main(["predict", "--test", str(d / "test.jsonl"), *data, "--attributes",
                     "--checkpoint", str(out / "m.json"), "--out", str(out / "p.jsonl")]) == 0
        assert main(["eval", "--test", str(d / "test.jsonl"), *data, "--k-per-pair", "free",
                     "--predictions", str(out / "p.jsonl"), "--out", str(out / "r.json")]) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        outputs[form] = [printed] + [(out / name).read_bytes() for name in
                                     ("m.json", "m.json.loss.csv", "p.jsonl", "r.json")]
    assert outputs["encoded"] == outputs["list"]
    assert outputs["mixed"] == outputs["list"]


@pytest.mark.parametrize("shape", [(10,), (2, 5)])
def test_codec_round_trips_every_bit(shape):
    arr = np.array(EDGE_VALUES).reshape(shape)
    raw = json.loads(json.dumps(array_to_json(arr)))
    back = array_from_json(raw, len(shape), "x")
    assert back.dtype == np.float64 and back.shape == shape
    assert back.tobytes() == arr.tobytes()


def test_save_dataset_writes_encoded_features_that_read_back_bit_for_bit(tmp_path):
    feature = np.array(EDGE_VALUES)
    record = make_record(detections=[make_detection(0, feature=feature)])
    vocab = tiny_vocab()
    path = tmp_path / "d.jsonl"
    save_dataset([record], path)
    line = json.loads(path.read_text())
    assert line["detections"][0]["feature"] == array_to_json(feature)
    listed = tmp_path / "l.jsonl"
    listed.write_text(json.dumps(rewrite_features(line, list_form)) + "\n")
    for p in (path, listed):
        (back,) = load_dataset(p, vocab)
        assert back.detections[0].feature.tobytes() == feature.tobytes()


@pytest.mark.parametrize("encode", [list_form, array_json], ids=["list", "encoded"])
def test_a_valid_group_of_one_form_is_parsed_in_one_step(tmp_path, monkeypatch, encode):
    def per_item(*args):
        raise AssertionError("a feature of a valid group was parsed on its own")

    rng = np.random.default_rng(0)
    dets = [make_detection(i, feature=rng.normal(size=5)) for i in range(3)]
    pairs = {(0, 1): rng.normal(size=5), (2, 0): rng.normal(size=5)}
    path = tmp_path / "d.jsonl"
    save_dataset([make_record(detections=dets, pair_features=pairs)], path)
    path.write_text(json.dumps(rewrite_features(json.loads(path.read_text()), encode)) + "\n")
    monkeypatch.setattr("relfusion.datamodel._parse_feature", per_item)
    (back,) = load_dataset(path, tiny_vocab())
    assert [d.feature.tobytes() for d in back.detections] == [d.feature.tobytes() for d in dets]
    assert {k: f.tobytes() for k, f in back.pair_features.items()} == {
        k: f.tobytes() for k, f in pairs.items()}


# Damage to gt box 2's feature, in either form: (edit of the feature, the form).
GT_DAMAGE = {
    "null in a list": (lambda f: [None, *f[1:]], list_form),
    "string in a list": (lambda f: ["1", *f[1:]], list_form),
    "other D as a list": (lambda f: [*f, 1.0], list_form),
    "NaN bytes": (lambda f: array_json(np.full(5, np.nan)), array_json),
    "bad base64": (lambda f: f | {"data": "*" + f["data"][1:]}, array_json),
    "other D encoded": (lambda f: array_json(np.append(feature_array(f), 1.0)), array_json),
    "2-d shape": (lambda f: f | {"shape": [1, 5]}, array_json),
}


@pytest.mark.parametrize("damage", GT_DAMAGE)
def test_damaged_gt_box_feature_gets_the_per_item_message(tmp_path, damage):
    """Every gt box carries a feature; the load names the bad one as a parse of it alone does."""
    edit, encode = GT_DAMAGE[damage]
    rng = np.random.default_rng(1)
    dets = [make_detection(i, feature=rng.normal(size=5)) for i in range(2)]
    gts = [GtObject(i % 4, make_detection().box, rng.normal(size=5)) for i in range(4)]
    path = tmp_path / "d.jsonl"
    save_dataset([make_record(detections=dets, gt=gts)], path)
    line = rewrite_features(json.loads(path.read_text()), encode)
    line["gt_boxes"][2]["feature"] = bad = edit(line["gt_boxes"][2]["feature"])
    path.write_text(json.dumps(line) + "\n")
    with pytest.raises(DataError) as alone:
        _parse_feature(bad, 5, "image 'img' gt box 2")
    with pytest.raises(DataError) as loaded:
        load_dataset(path, tiny_vocab())
    assert str(loaded.value) == f"{path}:1: {alone.value}"


def test_damaged_gt_box_feature_message(tmp_path):
    rng = np.random.default_rng(3)
    gts = [GtObject(i % 4, make_detection().box, rng.normal(size=5)) for i in range(4)]
    path = tmp_path / "d.jsonl"
    save_dataset([make_record(gt=gts)], path)
    line = rewrite_features(json.loads(path.read_text()), list_form)
    line["gt_boxes"][2]["feature"][3] = None
    path.write_text(json.dumps(line) + "\n")
    with pytest.raises(DataError) as exc:
        load_dataset(path, tiny_vocab())
    assert str(exc.value) == f"{path}:1: image 'img' gt box 2 feature: non-finite values"
