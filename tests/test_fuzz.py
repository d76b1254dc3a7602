"""Seeded mutation fuzzing of every input file through the CLI, in process.

Each case damages one valid file once: it deletes a key, changes a
value's type, puts a number out of range (negative), inserts NaN, puts
in an integer too large for a float (10**400) or truncates the text. The command that reads the file must then succeed
(the mutation left a valid file, say an optional key deleted) or exit 1
or 2 with the file's path in the message. It must never raise, warn or
exit 3. Two more tests put one byte that is not UTF-8 into each file, or a
directory in its place.

``gen-synth`` writes features as encoded arrays, so ``test.jsonl`` fuzzes
that form; ``list-test.jsonl``, the same images with every feature as a
list of numbers, fuzzes the other. Likewise ``predict`` writes each box of
a prediction line as an index into the line's ``boxes`` table, so
``pred.jsonl`` fuzzes that form and ``inline-pred.jsonl``, every box as a
list of 4 numbers, the other. One more test damages one encoded
feature in each way its reader must reject: bad base64, a wrong byte
count, a wrong dtype, NaN bytes, a shape other than [D] and another D.
"""

import json
import re
import shutil

import numpy as np
import pytest

from relfusion.cli import main
from relfusion.fusion import EVAL_MODES, load_checkpoint, save_checkpoint
from relfusion.numcore import init_mlp

from util import array_json, feature_array, list_form, rewrite_features

MUTATIONS = ("delete", "retype", "out_of_range", "nan", "huge", "truncate")
TEST_SETS = ("test.jsonl", "list-test.jsonl")
PREDICTION_SETS = ("pred.jsonl", "inline-pred.jsonl")
TARGETS = (*TEST_SETS, "vocab.json", *PREDICTION_SETS, "model.json", "config.json")
CASES_PER_FILE = 18

CONFIG = {"epochs": 1, "batch_size": 16, "lr": 0.01, "momentum": 0.9, "neg_ratio": 1.0,
          "smoothing": 1.0, "seed": 3, "mode": "sgcls", "branches": "s,p,v,so"}


@pytest.fixture(scope="module")
def valid_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("valid")
    files = {name: str(out / name) for name in
             ("train.jsonl", "test.jsonl", "vocab.json", "model.json", "pred.jsonl")}
    assert main(["gen-synth", "--out", str(out), "--num-images", "3", "--num-test-images", "2",
                 "--min-objects", "2", "--max-objects", "3", "--feature-dim", "4",
                 "--num-attributes", "2", "--seed", "5"]) == 0
    assert main(["train", "--train", files["train.jsonl"], "--vocab", files["vocab.json"],
                 "--checkpoint", files["model.json"], "--epochs", "1"]) == 0
    # A narrow SPO head keeps the checkpoint small, and each case fast.
    model = load_checkpoint(files["model.json"])
    spo = model.spo_head
    model.spo_head = init_mlp([spo.in_dim, 8, spo.out_dim], np.random.default_rng(0))
    save_checkpoint(model, files["model.json"])
    assert main(["predict", "--test", files["test.jsonl"], "--vocab", files["vocab.json"],
                 "--checkpoint", files["model.json"], "--out", files["pred.jsonl"],
                 "--attributes"]) == 0
    (out / "config.json").write_text(json.dumps(CONFIG))
    lines = (out / "test.jsonl").read_text().splitlines()
    (out / "list-test.jsonl").write_text(
        "".join(json.dumps(rewrite_features(json.loads(line), list_form)) + "\n"
                for line in lines))
    (out / "inline-pred.jsonl").write_text(
        "".join(json.dumps(_inline_boxes(json.loads(line))) + "\n"
                for line in (out / "pred.jsonl").read_text().splitlines()))
    return out


def _inline_boxes(row: dict) -> dict:
    """A prediction row with each box index replaced by its list from the row's boxes."""
    table = row.pop("boxes")
    for key, box_keys in (("triplets", ("sub_box", "obj_box")), ("is_triplets", ("box",))):
        for item in row.get(key, []):
            item.update({k: table[item[k]] for k in box_keys})
    return row


def _walk(node, rng, want=None):
    """(container, key) of a random descendant, a leaf passing ``want`` if given."""
    parent, key = None, None
    while isinstance(node, (dict, list)) and node:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, keys[int(rng.integers(len(keys)))]
        node = node[key]
        if want is None and rng.random() < 0.4:
            break
    if parent is None or (want is not None and not want(node)):
        return None
    return parent, key


def _is_number(v):
    return type(v) in (int, float)


def _mutate_value(raw, mutation, rng) -> bool:
    """Apply one mutation in place; False when no value to change turns up."""
    want = _is_number if mutation in ("out_of_range", "nan", "huge") else None
    spot = next(filter(None, (_walk(raw, rng, want) for _ in range(50))), None)
    if spot is None:
        return False
    parent, key = spot
    v = parent[key]
    if mutation == "delete":
        del parent[key]
    elif mutation == "retype":
        parent[key] = ("7" if _is_number(v) or type(v) is bool else
                       {"k": 1} if isinstance(v, list) else
                       [1] if isinstance(v, dict) else 7)
    elif mutation == "huge":
        parent[key] = 10**400
    else:
        parent[key] = -(abs(v) + 1) if mutation == "out_of_range" else float("nan")
    return True


def _damage(path, mutation, rng) -> bool:
    text = path.read_text()
    if mutation == "truncate":
        # Cut inside a line, so the last line kept is never whole JSON.
        lines = text.splitlines(keepends=True)
        k = int(rng.choice([k for k, line in enumerate(lines) if len(line.strip()) > 1]))
        cut = sum(map(len, lines[:k])) + int(rng.integers(1, len(lines[k].rstrip())))
        path.write_text(text[:cut])
        return True
    if path.suffix == ".jsonl":
        lines = text.splitlines()
        k = int(rng.integers(len(lines)))
        raw = json.loads(lines[k])
        if not _mutate_value(raw, mutation, rng):
            return False
        lines[k] = json.dumps(raw)
        path.write_text("\n".join(lines) + "\n")
        return True
    raw = json.loads(text)
    if not _mutate_value(raw, mutation, rng):
        return False
    path.write_text(json.dumps(raw))
    return True


def _command(d, target, rng):
    """The argv of a command that reads ``target`` (a file name in ``d``)."""
    mode = EVAL_MODES[int(rng.integers(len(EVAL_MODES)))]
    common = ["--vocab", str(d / "vocab.json"), "--mode", mode]
    if target == "config.json":
        return ["--config", str(d / "config.json"), "train", "--train", str(d / "train.jsonl"),
                "--vocab", str(d / "vocab.json"), "--checkpoint", str(d / "out.json")]
    test = str(d / (target if target in TEST_SETS else "test.jsonl"))
    predictions = str(d / (target if target in PREDICTION_SETS else "pred.jsonl"))
    if target in ("vocab.json", *PREDICTION_SETS) or (target in TEST_SETS and rng.random() < 0.5):
        return ["eval", "--test", test, "--predictions", predictions,
                "--out", str(d / "report.json"), *common]
    return ["predict", "--test", test, "--checkpoint", str(d / "model.json"),
            "--out", str(d / "out.jsonl"), "--attributes", *common]


@pytest.mark.parametrize("target", TARGETS)
def test_damaged_input_exits_1_or_2_naming_the_file(valid_dir, tmp_path, capsys, recwarn,
                                                    target):
    rng = np.random.default_rng(sum(map(ord, target)))
    # A vocabulary that lost a name is still a vocabulary: the labels
    # that used the name then fall outside it, in the dataset.
    named = [target, "test.jsonl"] if target == "vocab.json" else [target]
    rejected = 0
    for case in range(CASES_PER_FILE):
        mutation = MUTATIONS[case % len(MUTATIONS)]
        d = tmp_path / str(case)
        shutil.copytree(valid_dir, d)
        if not _damage(d / target, mutation, rng):
            continue
        code = main(_command(d, target, rng))
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (mutation, code, err)
        assert code == 0 or any(str(d / name) in err for name in named), (mutation, err)
        assert code != 0 or mutation != "truncate", err
        assert not recwarn.list, (mutation, [str(w.message) for w in recwarn.list])
        rejected += code != 0
    assert rejected >= CASES_PER_FILE // 2, rejected


@pytest.mark.parametrize("target", TARGETS)
def test_non_utf8_byte_exits_naming_the_line(valid_dir, tmp_path, capsys, target):
    d = tmp_path / "d"
    shutil.copytree(valid_dir, d)
    path = d / target
    data = path.read_bytes()
    cut = len(data) // 2
    line = data[:cut].count(b"\n") + 1
    path.write_bytes(data[:cut] + b"\xff" + data[cut:])
    code = main(_command(d, target, np.random.default_rng(sum(map(ord, target)))))
    err = capsys.readouterr().err
    # A config file is usage, not data.
    assert code == (1 if target == "config.json" else 2), err
    assert f"{path}:{line}: not UTF-8 text" in err, err


@pytest.mark.parametrize("target", TARGETS)
def test_directory_in_place_of_input_exits_1_naming_it(valid_dir, tmp_path, capsys, target):
    d = tmp_path / "d"
    shutil.copytree(valid_dir, d)
    path = d / target
    path.unlink()
    path.mkdir()
    code = main(_command(d, target, np.random.default_rng(sum(map(ord, target)))))
    err = capsys.readouterr().err
    assert code == 1 and str(path) in err, err


# Damage to one encoded feature: (edit of the feature object, the message).
# The fixture's feature dimension D is 4.
ENCODED_DAMAGE = {
    "bad base64": (lambda f: f | {"data": "*" + f["data"][1:]}, " feature: data is not base64"),
    "wrong byte count": (lambda f: array_json(feature_array(f)[:-1], shape=f["shape"]),
                         " feature: not an array of shape [4]: 24 bytes of data, expected 32"),
    "wrong dtype": (lambda f: f | {"dtype": "<f4"}, " feature: dtype '<f4' is not '<f8'"),
    "NaN bytes": (lambda f: array_json(np.full(4, np.nan)), " feature: non-finite values"),
    "shape other than [D]": (lambda f: f | {"shape": [1, 4]},
                             " feature: shape must be a 1-item list of integers"),
    "other D": (lambda f: array_json(np.append(feature_array(f), 1.0)),
                ": feature dimension 5 != dataset dimension 4"),
}


@pytest.mark.parametrize("key, noun", [("detections", "detection"), ("gt_boxes", "gt box"),
                                       ("pair_features", "pair feature")])
@pytest.mark.parametrize("damage", ENCODED_DAMAGE)
def test_damaged_encoded_feature_exits_2_naming_the_line(valid_dir, tmp_path, capsys, key,
                                                         noun, damage):
    d = tmp_path / "d"
    shutil.copytree(valid_dir, d)
    path = d / "test.jsonl"
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    # The last item of a line after the first, so the first line sets D.
    k = max(k for k, line in enumerate(lines) if line.get("pair_features"))
    assert k >= 1
    line = lines[k]
    edit, message = ENCODED_DAMAGE[damage]
    feature = line["detections"][-1]["feature"]  # gt boxes have none; they take this one
    line[key][-1]["feature"] = edit(feature)
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code = main(["eval", "--test", str(path), "--predictions", str(d / "pred.jsonl"),
                 "--out", str(d / "report.json"), "--vocab", str(d / "vocab.json")])
    err = capsys.readouterr().err
    where = f"{path}:{k + 1}: image {line['image_id']!r} {noun} {len(line[key]) - 1}"
    assert code == 2 and f"{where}{message}" in err, err


# Edge values of box coordinates, each in an image of the set's size, then edge image
# sizes, each with a box on the image's border. A case puts its box in place of one box
# (a detection or gt box) of the train and test sets and of a prediction line.
BORDER = None  # the whole image: [0, 0, width, height]
EDGE_CASES = (
    ([0, 0, 1e308, 1e308], None),  # finite sides, an area past the float range
    ([-1e308, -1e308, 0, 0], None),
    ([-1e308, 0, 1e308, 10], None),  # a side past the float range
    ([0, 0, 5e-324, 10], None),  # a subnormal side
    ([3, 0, 3 + 5e-324, 10], None),  # a subnormal side that 3 absorbs: zero width
    ([1e16, 0, 1e16 + 1, 10], None),  # a side of 1 that 1e16 absorbs
    ([5, 5, 5, 5], None),  # zero area
    ([0, 4, 9, 4], None),  # zero height
    (BORDER, None),
    (BORDER, 1),
    (BORDER, 2**510),  # the largest coordinate a box may have
    (BORDER, int(np.finfo(np.float64).max)),  # an image area past the float range
)


def _edge_edit(path, rng, edge_box, size, key=None):
    """Put ``edge_box`` in place of one random box of one random line of ``path``; with
    ``size``, that line's image becomes ``size`` wide and tall. ``key="boxes"`` edits a
    prediction line."""
    lines = path.read_text().splitlines()
    k = int(rng.integers(len(lines)))
    row = json.loads(lines[k])
    if size is not None:
        row["width"] = row["height"] = size
    edge = edge_box or [0, 0, row.get("width", 10), row.get("height", 10)]  # BORDER
    if key == "boxes":  # a prediction line's box table
        row["boxes"][int(rng.integers(len(row["boxes"])))] = edge
    else:
        items = row["detections"] + row["gt_boxes"]
        items[int(rng.integers(len(items)))]["box"] = edge
    lines[k] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")


def test_edge_boxes_and_image_sizes_exit_0_or_2_naming_the_file(valid_dir, tmp_path, capsys,
                                                                 recwarn):
    rng = np.random.default_rng(8)
    rejected = 0
    for case, (edge_box, size) in enumerate(EDGE_CASES):
        d = tmp_path / str(case)
        shutil.copytree(valid_dir, d)
        for name in ("train.jsonl", "test.jsonl"):
            _edge_edit(d / name, rng, edge_box, size)
        _edge_edit(d / "pred.jsonl", rng, edge_box, None, key="boxes")
        files = [str(d / name) for name in ("train.jsonl", "test.jsonl", "pred.jsonl")]
        for mode in EVAL_MODES:
            runs = [
                ["train", "--train", files[0], "--checkpoint", str(d / "m.json"),
                 "--epochs", "1"],
                ["predict", "--test", files[1], "--checkpoint", str(d / "model.json"),
                 "--out", str(d / "p.jsonl"), "--attributes"],
                ["eval", "--test", files[1], "--predictions", files[2],
                 "--out", str(d / "r.json")],
            ]
            for argv in runs:
                code = main([*argv, "--vocab", str(d / "vocab.json"), "--mode", mode])
                err = capsys.readouterr().err
                named = re.match(r"data error: (.+?):\d+: image '", err)
                assert code in (0, 2), (case, argv[0], mode, err)
                assert code == 0 or (named and named[1] in files), (case, argv[0], mode, err)
                assert not recwarn.list, (case, argv[0], mode, [str(w.message) for w in recwarn])
                rejected += code == 2
    assert rejected > 0
