"""Output checks, run after the timed loop.

Each function returns ``(name, ok, detail)``. A failed check counts as a
failed operation in the run's result.
"""

from __future__ import annotations

import hashlib
import json
import math

from relfusion.datamodel import load_dataset, load_vocabulary
from relfusion.fusion import load_predictions

TOLERANCE = 1e-9  # acceptance criterion 3


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_loss_history(path: str, epochs: int):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    values = [float(line.split(",")[1]) for line in lines[1:]]
    ok = lines[:1] == ["epoch,loss"] and len(values) == epochs and all(
        math.isfinite(v) for v in values
    )
    return "loss_history_finite", ok, f"{len(values)} epochs, last {values[-1:]}"


def check_prediction_order(path: str, image_ids: list[str], top_n: int):
    """At most top_n triplets per image, scores non-increasing, every image present."""
    seen = []
    bad = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            seen.append(row["image_id"])
            scores = [t["score"] for t in row["triplets"]]
            if len(scores) > top_n or any(a < b for a, b in zip(scores, scores[1:])):
                bad.append(row["image_id"])
    ok = not bad and seen == image_ids
    return "predictions_top_n_ordered", ok, f"{len(seen)} images, {len(bad)} bad"


def check_reports(reference, data_dir: str, predictions_path: str, reports: dict):
    """Each eval report against the brute-force reference evaluator.

    ``reports`` maps the eval variant ("eval", "eval_gc", "eval_free") to
    its report path. The mAP terms do not depend on the variant.
    """
    vocab = load_vocabulary(f"{data_dir}/vocab.json")
    dataset = load_dataset(f"{data_dir}/test.jsonl", vocab)
    predictions = load_predictions(predictions_path)
    gts = {r.image_id: r.resolved_triplets() for r in dataset}
    num_predicates = vocab.num_predicates
    map_rel = reference.ref_mean_ap(predictions, gts, num_predicates, phrase=False)
    map_phr = reference.ref_mean_ap(predictions, gts, num_predicates, phrase=True)

    def recall(variant: str, k: int) -> float:
        if variant == "eval_free":
            return reference.ref_vrd_recall(
                predictions, gts, k, "free", num_predicates=num_predicates
            )
        return reference.ref_recall_at_k(
            predictions, gts, k, graph_constraint=variant == "eval_gc"
        )

    results = []
    for variant, path in reports.items():
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        expected = {f"R@{k}": recall(variant, int(k)) for k in report["recall_at"]}
        got = {f"R@{k}": v for k, v in report["recall_at"].items()}
        expected["map_rel"], got["map_rel"] = map_rel, report["map_rel"]
        expected["map_phr"], got["map_phr"] = map_phr, report["map_phr"]
        expected["oi_score"] = 0.2 * expected["R@50"] + 0.4 * map_rel + 0.4 * map_phr
        got["oi_score"] = report["oi_score"]
        worst = max(abs(got[key] - expected[key]) for key in expected)
        results.append(
            (f"{variant}_matches_reference", worst <= TOLERANCE, f"max deviation {worst:.2e}")
        )
    return results
