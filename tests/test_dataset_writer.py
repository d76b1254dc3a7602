"""``save_dataset`` writes the exact text ``json.dumps`` gives each record's dict.

The reference is :func:`reference_io.record_to_json`, the dict the writer
once built per record. The sets are the benchmark workloads' and a seeded
table of edge records: escaped and non-ASCII image ids, ``-0.0``, integer
and numpy coordinates and scores, non-finite sizes, and features of other
dtypes, byte orders, strides and shapes. The workload files are also
pinned by digest.
"""

import dataclasses
import hashlib
import json
import pathlib
import runpy

import numpy as np
import pytest

from relfusion.datamodel import Box, Detection, GtObject, ImageRecord, save_dataset
from relfusion.synth import SynthConfig, generate

from reference_io import record_to_json

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]

# sha256 of each workload set's files as perfbench/setup_data.py writes them.
WORKLOAD_DIGESTS = {
    ("score-dense", 1, "train"): "b2a562ee9f51aa30bd8dfebd703fd94d2382fef1693a34f5266f169ed41e9821",
    ("score-dense", 1, "test"): "fde5976cbce9fa6e290f691524cb0456c404f8fede3e344956879c47db93f66b",
    ("score-dense", 2, "train"): "71b3a53013b470443e1ea3218006af5125b5a9348902fd8253cf9f29f5fc1021",
    ("score-dense", 2, "test"): "0fa3bde9bb25c1f15123c9aed245b3dc0b1383db547894150ebe1ad95c56ee4b",
    ("train-dense", 1, "train"): "79ee9febd95eab62aa103d0a927e8fd4069d2bf1d1fc28624f983405a9ee9ea4",
    ("train-dense", 1, "test"): "4e545b4e8616095f84c6b7bec3fa9cdf504f730a3051663fb025e65a79f1a410",
    ("train-dense", 2, "train"): "c2c22312edd5ae9e3ec0360005edebc6e4e9cf789266575a77143e8637247bc2",
    ("train-dense", 2, "test"): "0077cf27f8407546f4207e2f9febcd1ab4c14efba5881ed031f2a365f984a863",
    ("train-long", 1, "train"): "10bb429a3f05cdf40ab4d427732e02d54e91720b8eeb9da09bfe6e821ad0acf3",
    ("train-long", 1, "test"): "cbdf5c949900059ce9fbff4a964537bb44a3ff3dffcb89956ffb1e94405296b6",
    ("train-long", 2, "train"): "4a0d217e0cb3bf660ca112102df888f82fde96ec8cf0a4d31670a093801fd85d",
    ("train-long", 2, "test"): "c9cbe3b9f85589128710346b902b68976ec154069cfd1d04dc15487455ef56bc",
}


def _reference_bytes(records) -> bytes:
    return "".join(json.dumps(record_to_json(r)) + "\n" for r in records).encode()


def _saved_bytes(records, tmp_path) -> bytes:
    save_dataset(records, tmp_path / "set.jsonl")
    return (tmp_path / "set.jsonl").read_bytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", (1, 2))
def test_workload_sets_match_reference_and_digest(name, seed, tmp_path):
    result = generate(SynthConfig(**WORKLOADS[name].synth_kwargs(seed)))
    for split in ("train", "test"):
        records = getattr(result, split)
        got = _saved_bytes(records, tmp_path)
        assert got == _reference_bytes(records)
        assert hashlib.sha256(got).hexdigest() == WORKLOAD_DIGESTS[(name, seed, split)]


def _edge_records() -> list[ImageRecord]:
    rng = np.random.default_rng(28)

    def values(n):
        v = rng.normal(size=n)
        v[:2] = -0.0, 5e-324  # a signed zero and a subnormal
        return v

    features = {
        "float64": values(4),
        "float32": values(4).astype(np.float32),
        "big-endian": values(4).astype(">f8"),
        "non-contiguous": values(8)[::2],
        "empty": np.empty(0),
        "2-d": values(6).reshape(2, 3),
        "fortran 2-d": np.asfortranarray(values(6).reshape(2, 3)),
    }
    boxes = [
        Box(-0.0, 0.0, 10.0, 20.5),
        Box(1, 2, 30, 40),  # integers
        Box(np.float64(0.1), 2.5, np.float64(7.0), 1e300),
        Box(float(rng.uniform(0, 100)), 0.0, 100.0, 100.0),
    ]
    scores = [0.0, -0.0, 1, np.float64(0.25), float(rng.uniform())]

    def detection(k, feature):
        return Detection(label=k % 3, box=boxes[k % len(boxes)], score=scores[k % len(scores)],
                         feature=feature)

    dets = [detection(k, f) for k, f in enumerate(features.values())]
    gts = [GtObject(0, boxes[0]), GtObject(2, boxes[2], features["big-endian"]),
           GtObject(True, boxes[1], features["non-contiguous"]), GtObject(1, boxes[3])]
    pairs = {(2, 0): features["float32"], (0, 1): values(4), (1, 0): features["2-d"]}
    full = ImageRecord("im0", 800, 600, dets, gts, [(0, 1, 1), (2, 3, 0)], [(0, 1), (3, 0)],
                       pairs)
    ids = ['quote " inside', "back\\slash", "non-ASCII: café, 画像, 𝄞", "tab\tand\nnewline",
           "\x00\x7f", ""]
    return [
        full,
        *(dataclasses.replace(full, image_id=image_id) for image_id in ids),
        dataclasses.replace(full, width=1000.0, height=np.float64(512.5)),
        dataclasses.replace(full, width=-0.0, height=float("nan")),
        dataclasses.replace(full, width=float("inf"), height=-float("inf")),
        dataclasses.replace(full, pair_features={}),
        dataclasses.replace(full, gt_triplets=[], gt_attributes=[]),
        dataclasses.replace(full, detections=[], gt_boxes=[], gt_triplets=[], gt_attributes=[],
                            pair_features={}),
        dataclasses.replace(full, gt_boxes=[GtObject(0, b) for b in boxes]),
        dataclasses.replace(full, gt_triplets=[[0, 1, 1]], gt_attributes=[[3, 0]]),
    ]


@pytest.mark.parametrize("k", range(len(_edge_records())))
def test_edge_record_matches_reference(k, tmp_path):
    record = _edge_records()[k]
    assert _saved_bytes([record], tmp_path) == _reference_bytes([record])


def test_edge_table_matches_reference_as_one_file(tmp_path):
    records = _edge_records()
    got = _saved_bytes(records, tmp_path)
    assert got == _reference_bytes(records)
    assert got.isascii() and got.count(b"\n") == len(records)


@pytest.mark.parametrize("where", ("detection", "gt box", "pair"))
def test_numpy_integer_raises_type_error_on_both_sides(where, tmp_path):
    record = _edge_records()[0]
    label = np.int64(1)
    if where == "detection":
        record.detections[0] = dataclasses.replace(record.detections[0], label=label)
    elif where == "gt box":
        record.gt_boxes[0] = GtObject(label, record.gt_boxes[0].box)
    else:
        record.pair_features = {(label, 0): np.zeros(4)}
    with pytest.raises(TypeError, match="int64"):
        json.dumps(record_to_json(record))
    with pytest.raises(TypeError, match="int64"):
        save_dataset([record], tmp_path / "set.jsonl")
    assert not (tmp_path / "set.jsonl").exists()
