"""A loaded prediction line is a Ranking of columns: every metric gives on it what it gives
on ``list()`` of it, and ``eval`` builds a triplet object only for a candidate."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from relfusion import datamodel, fusion
from relfusion.cli import main
from relfusion.datamodel import (
    Box,
    DataError,
    PredictedTriplet,
    Ranking,
    ResolvedTriplet,
    load_dataset,
    load_vocabulary,
)
from relfusion.fusion import load_predictions, save_predictions
from relfusion.metrics import (
    MatchSpec,
    average_precision,
    evaluate,
    mean_average_precision,
    recall_at_k,
    vrd_recall,
)

from test_metrics import _records
from test_prediction_io import (
    _POOL,
    IS_ITEM_DAMAGE,
    ITEM_DAMAGE,
    PINNED_MESSAGES,
    _assert_loads_as_reference,
    _random_file,
)
from util import random_metric_instance, ranking_of, tiny_vocab

GOLDEN = Path(__file__).parent / "golden"
FIXED, GC, K2, FREE, IOU7 = (MatchSpec(), MatchSpec(graph_constraint=True),
                             MatchSpec(k_per_pair=2), MatchSpec(k_per_pair="free"),
                             MatchSpec(iou_threshold=0.7))


def _results(preds, gts, records, vocab) -> list:
    """Every public metric function in the fixed, graph-constraint, k=2, free and IoU-0.7
    modes, and ``evaluate`` in each."""
    p = vocab.num_predicates
    out = [evaluate(preds, records, vocab, spec=s) for s in (FIXED, GC, K2, FREE, IOU7)]
    for spec in (FIXED, GC, IOU7):
        out += [recall_at_k(preds, gts, k, spec) for k in (1, 5, 50)]
    for spec in (FIXED, IOU7):
        out += [vrd_recall(preds, gts, k, b, spec, p) for k in (1, 5, 50) for b in (2, "free")]
    out += [vrd_recall(preds, gts, 5, 2, K2), vrd_recall(preds, gts, 5, "free", FREE, p)]
    for spec in (FIXED, GC, K2, FREE, IOU7):
        for mode in ("rel", "phr"):
            out += [average_precision(preds, gts, q, mode, spec) for q in range(1, p + 1)]
            out.append(mean_average_precision(preds, gts, p, mode, spec))
    return out


def _assert_parity(loaded: dict, gts: dict, records, vocab) -> None:
    assert all(type(r) is Ranking for r in loaded.values())
    as_lists = {image_id: list(r) for image_id, r in loaded.items()}
    assert _results(loaded, gts, records, vocab) == _results(as_lists, gts, records, vocab)


def _gts_near(loaded: dict, rng) -> dict:
    """Ground truth per image: about half its triplets, some with a box moved off."""
    gts = {}
    for image_id, ranking in loaded.items():
        gts[image_id] = []
        for t in ranking:
            if rng.random() < 0.5:
                sub_box = t.sub_box
                if rng.random() < 0.3:
                    sub_box = dataclasses.replace(sub_box, xmax=sub_box.xmax + 3.0)
                gts[image_id].append(
                    ResolvedTriplet(t.sub_label, sub_box, t.predicate, t.obj_label, t.obj_box))
    return gts


class TestParity:
    def test_random_files(self, tmp_path):
        path, vocab = tmp_path / "p.jsonl", tiny_vocab(num_objects=4, num_predicates=3)
        matched = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            _random_file(rng, path)
            loaded = load_predictions(path)
            gts = _gts_near(loaded, rng)
            matched += sum(map(len, gts.values()))
            _assert_parity(loaded, gts, _records(gts), vocab)
        assert matched > 100

    def test_golden_list_form_boxes(self):
        vocab = load_vocabulary(GOLDEN / "vocab.json")
        records = load_dataset(GOLDEN / "test.jsonl", vocab)
        loaded = load_predictions(GOLDEN / "predictions.jsonl", vocab)
        gts = {r.image_id: r.resolved_triplets() for r in records}
        _assert_parity(loaded, gts, records, vocab)

    def test_random_metric_instances(self, tmp_path):
        rng, path = np.random.default_rng(32), tmp_path / "p.jsonl"
        for _ in range(60):
            p = int(rng.integers(1, 5))
            preds, gts = random_metric_instance(rng, max_images=5, max_objects=5,
                                                num_predicates=p)
            save_predictions({i: ranking_of(t) for i, t in preds.items()}, path)
            _assert_parity(load_predictions(path), gts, _records(gts),
                           tiny_vocab(num_objects=3, num_predicates=p))


def _index_line(path, key: str, damage) -> None:
    """4 triplets and 4 is_triplets whose box fields are all indices, as the writer gives,
    with item 2 of ``key`` damaged."""
    row = {"image_id": "x", "boxes": _POOL, "triplets": [
        {"sub_box": k, "sub_label": k, "predicate": 1 + k % 3, "obj_box": 3 - k,
         "obj_label": 3 - k, "score": 0.25 * k} for k in range(4)
    ], "is_triplets": [{"box": k, "label": k % 2, "attribute": k % 3, "score": 0.5}
                       for k in range(4)]}
    damage(row[key][2])
    path.write_text(json.dumps(row) + "\n")


@pytest.mark.parametrize("key, damage", [
    (key, name) for key, table in (("triplets", ITEM_DAMAGE), ("is_triplets", IS_ITEM_DAMAGE))
    for name in table if not name.startswith(("inverted", "-0.0", "sub_box as an", "obj_box as an"))
])
def test_damaged_item_of_an_index_line_gets_its_pinned_message(tmp_path, key, damage):
    """The column checks refuse a damaged item of an index-form line, and the per-item walk
    names it with the message it gets on a list-form line; predicate 0 included."""
    path = tmp_path / "p.jsonl"
    _index_line(path, key, (ITEM_DAMAGE if key == "triplets" else IS_ITEM_DAMAGE)[damage])
    message = PINNED_MESSAGES[key, damage]
    if message is None:
        assert type(_assert_loads_as_reference(path)["x"]) is Ranking
    else:
        with pytest.raises(DataError) as err:
            load_predictions(path)
        assert str(err.value) == f"{path}:1: image 'x' {key[:-1]} 2: {message}"


def test_is_triplet_label_outside_the_vocabulary_of_an_index_line(tmp_path):
    path = tmp_path / "p.jsonl"
    _index_line(path, "is_triplets", lambda item: item.update(label=4))
    load_predictions(path)
    with pytest.raises(DataError) as err:
        load_predictions(path, tiny_vocab(num_objects=4, num_attributes=3))
    assert str(err.value) == (f"{path}:1: image 'x' is_triplet 2: label 4 or attribute 2 "
                              "outside object classes 0..3 and attributes 0..2")


@pytest.mark.parametrize("loaded", [True, False], ids=["ranking", "list"])
def test_label_range_names_the_third_triplet(tmp_path, loaded):
    """The range check reads min and max of the columns; a bad label is still named by
    its triplet, here the third."""
    a, b = Box(0.0, 0.0, 10.0, 10.0), Box(5.0, 5.0, 20.0, 20.0)
    triplets = [PredictedTriplet(a, 0, 1, b, 2, 0.9), PredictedTriplet(b, 2, 2, a, 0, 0.8),
                PredictedTriplet(a, 0, 1, b, 3, 0.7), PredictedTriplet(b, 7, 9, a, 0, 0.6)]
    path = tmp_path / "p.jsonl"
    save_predictions({"im": ranking_of(triplets)}, path)
    preds = load_predictions(path) if loaded else {"im": triplets}
    vocab = tiny_vocab(num_objects=3, num_predicates=2)
    with pytest.raises(DataError) as exc:
        evaluate(preds, _records({"im": []}), vocab)
    assert str(exc.value) == ("image 'im' triplet 2: labels (0, 1, 3) outside object classes "
                              "0..2 and predicates 1..2")


@pytest.mark.parametrize("budget", [[], ["--graph-constraint", "on"], ["--k-per-pair", "2"],
                                    ["--k-per-pair", "free"]],
                         ids=["fixed", "graph constraint", "k=2", "free"])
def test_eval_builds_a_triplet_only_per_candidate(tmp_path, monkeypatch, budget):
    """A candidate is a prediction whose label triple has ground truth in its image."""
    data, ckpt, preds = tmp_path / "data", tmp_path / "m.json", tmp_path / "p.jsonl"
    files = ["--vocab", str(data / "vocab.json"), "--mode", "sgdet"]
    assert main(["gen-synth", "--out", str(data), "--num-images", "20",
                 "--num-test-images", "8", "--seed", "11"]) == 0
    assert main(["train", "--train", str(data / "train.jsonl"), *files,
                 "--checkpoint", str(ckpt), "--epochs", "1"]) == 0
    built = []

    def counting(*args):
        built.append(args)
        return PredictedTriplet(*args)

    def refuse(*args):
        raise AssertionError("predict built a PredictedTriplet")

    with monkeypatch.context() as patch:
        for module in (datamodel, fusion):  # a Ranking's items; the loader's list-form lines
            patch.setattr(module, "PredictedTriplet", refuse)
        assert main(["predict", "--test", str(data / "test.jsonl"), *files,
                     "--checkpoint", str(ckpt), "--out", str(preds)]) == 0
    vocab = load_vocabulary(data / "vocab.json")
    labels = {r.image_id: {(g.sub_label, g.predicate, g.obj_label) for g in r.resolved_triplets()}
              for r in load_dataset(data / "test.jsonl", vocab)}
    loaded = load_predictions(preds)
    candidates = sum((t.sub_label, t.predicate, t.obj_label) in labels[image_id]
                     for image_id, ranking in loaded.items() for t in ranking)
    assert 0 < candidates < sum(map(len, loaded.values()))
    with monkeypatch.context() as patch:
        for module in (datamodel, fusion):
            patch.setattr(module, "PredictedTriplet", counting)
        assert main(["eval", "--test", str(data / "test.jsonl"), *files, *budget,
                     "--predictions", str(preds), "--out", str(tmp_path / "r.json")]) == 0
    assert 0 < len(built) <= candidates
