"""Golden eval reports: ``eval`` on the files in tests/golden must print and write
these exact bytes on every supported Python.

The inputs are small by design and hit the protocol's edge cases (see
``test_the_inputs_hit_the_edge_cases``). The expected files were written by
``relfusion eval`` on Python 3.11; regenerate them only in a change that names
the numbers it moves.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from collections import Counter
from pathlib import Path

import pytest

from relfusion.cli import main
from relfusion.datamodel import iou, load_dataset, load_vocabulary
from relfusion.fusion import load_predictions, save_predictions
from relfusion.metrics import MatchSpec, recall_at_k

from util import attributes_of, ranking_of

GOLDEN = Path(__file__).parent / "golden"
SPECS = {
    "fixed": [],
    "graph_constraint": ["--graph-constraint", "on"],
    "k_per_pair_2": ["--k-per-pair", "2"],
    "k_per_pair_free": ["--k-per-pair", "free"],
    "iou_0.7": ["--iou-threshold", "0.7"],
}


def _inputs():
    vocab = load_vocabulary(GOLDEN / "vocab.json")
    dataset = load_dataset(GOLDEN / "test.jsonl", vocab)
    return dataset, load_predictions(GOLDEN / "predictions.jsonl", vocab)


def _assert_golden_bytes(tmp_path, capsys, name, predictions):
    out = tmp_path / "report.json"
    assert main(["eval", "--test", str(GOLDEN / "test.jsonl"),
                 "--vocab", str(GOLDEN / "vocab.json"),
                 "--predictions", str(predictions),
                 "--out", str(out), *SPECS[name]]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.report.json").read_bytes()
    assert capsys.readouterr().out == (GOLDEN / f"{name}.table.txt").read_text()


@pytest.mark.parametrize("name", SPECS)
def test_report_and_table_bytes(tmp_path, capsys, name):
    _assert_golden_bytes(tmp_path, capsys, name, GOLDEN / "predictions.jsonl")


@pytest.mark.parametrize("name", SPECS)
def test_report_and_table_bytes_from_the_index_form(tmp_path, capsys, name):
    """The golden predictions (inline boxes) written back in the form ``predict`` writes."""
    path = GOLDEN / "predictions.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    written = tmp_path / "predictions.jsonl"
    rankings = {i: ranking_of(t) for i, t in load_predictions(path).items()}
    save_predictions(rankings, written, attributes_of(rows))
    assert '"sub_box": 0' in written.read_text() and '"box": [' not in written.read_text()
    _assert_golden_bytes(tmp_path, capsys, name, written)


def test_the_inputs_hit_the_edge_cases():
    dataset, predictions = _inputs()
    gt_boxes = [g.box for r in dataset for g in r.gt_boxes]
    overlaps = {iou(t.sub_box, b) for ts in predictions.values() for t in ts for b in gt_boxes}
    assert {0.5, 0.7} <= overlaps
    assert any(max(Counter(t.score for t in ts).values()) > 1 for ts in predictions.values())
    pairs = Counter((t.sub_label, t.sub_box, t.obj_label, t.obj_box)
                    for ts in predictions.values() for t in ts)
    assert max(pairs.values()) >= 3
    assert any(not r.gt_triplets and r.image_id in predictions for r in dataset)
    assert any(r.gt_triplets and r.image_id not in predictions for r in dataset)
    assert any(b.is_degenerate() for b in gt_boxes)
    assert any(t.obj_box.is_degenerate() for ts in predictions.values() for t in ts)


@pytest.mark.parametrize("spec", [MatchSpec(), MatchSpec(graph_constraint=True),
                                  MatchSpec(iou_threshold=0.7)])
def test_mean_recall_is_a_left_fold_that_differs_from_fsum(spec):
    """Builtin sum() on 3.12+ adds compensated, as math.fsum does here; the report folds left."""
    dataset, predictions = _inputs()
    for k in (20, 50, 100):
        recalls = [
            recall_at_k({r.image_id: predictions.get(r.image_id, [])},
                        {r.image_id: r.resolved_triplets()}, k, spec)
            for r in dataset if r.gt_triplets
        ]
        fold = functools.reduce(operator.add, recalls, 0.0)
        assert fold != math.fsum(recalls)
        truth = {r.image_id: r.resolved_triplets() for r in dataset}
        assert recall_at_k(predictions, truth, k, spec) == fold / len(recalls)
