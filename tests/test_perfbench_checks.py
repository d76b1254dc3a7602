"""The benchmark's output checks pass on a tiny run of the CLI.

``perfbench/checks.py`` reads the run's outputs through
``load_predictions``, ``load_dataset`` and ``resolved_triplets``. A
change to any of them, or to the files the CLI writes, must fail here
rather than as failed operations in a benchmark run.
"""

import importlib.util
import json
import pathlib

from relfusion.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_check_passes(tmp_path):
    checks = _load("perfbench_checks", ROOT / "perfbench" / "checks.py")
    reference = _load("reference_eval", ROOT / "tests" / "reference_eval.py")
    epochs, top_n = 2, 100
    # The benchmark's loop: gen-synth, train, predict --attributes, three eval variants.
    data = tmp_path / "data"
    assert main(["gen-synth", "--out", str(data), "--num-images", "12",
                 "--num-test-images", "4", "--seed", "1"]) == 0
    vocab = ["--vocab", str(data / "vocab.json")]
    test = ["--test", str(data / "test.jsonl")]
    checkpoint, predictions = tmp_path / "checkpoint.json", tmp_path / "predictions.jsonl"
    assert main(["train", "--train", str(data / "train.jsonl"), *vocab,
                 "--checkpoint", str(checkpoint), "--epochs", str(epochs), "--seed", "1"]) == 0
    assert main(["predict", *test, *vocab, "--checkpoint", str(checkpoint),
                 "--out", str(predictions), "--top-n", str(top_n), "--attributes"]) == 0
    reports = {}
    for variant, flags in {"eval": [], "eval_gc": ["--graph-constraint", "on"],
                           "eval_free": ["--k-per-pair", "free"]}.items():
        reports[variant] = str(tmp_path / f"report_{variant}.json")
        assert main(["eval", *test, *vocab, "--predictions", str(predictions),
                     "--out", reports[variant], *flags]) == 0

    with open(data / "test.jsonl", encoding="utf-8") as fh:
        image_ids = [json.loads(line)["image_id"] for line in fh]
    results = [
        checks.check_loss_history(f"{checkpoint}.loss.csv", epochs),
        checks.check_prediction_order(str(predictions), image_ids, top_n),
        *checks.check_reports(reference, str(data), str(predictions), reports),
    ]
    assert [name for name, _, _ in results] == [
        "loss_history_finite", "predictions_top_n_ordered", "eval_matches_reference",
        "eval_gc_matches_reference", "eval_free_matches_reference",
    ]
    assert all(ok for _, ok, _ in results), results
