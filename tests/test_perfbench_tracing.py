"""The benchmark's tracer finds every package attribute it wraps.

``perfbench/tracing.py`` patches functions at the module attribute where
the calling module looks them up. A refactor that drops or renames one
of them must fail here rather than in a traced benchmark run, and so
must one that calls the matcher other than through those attributes or
sweeps free k other than in one pass.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

from relfusion import metrics
from util import random_metric_instance

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fine_tracer_wraps_and_restores_every_attribute():
    tracing = _load_tracing()
    targets = [(m, a) for m, a, _ in tracing.SPANS + tracing.COUNTED]
    targets.append(("relfusion.fusion", "pair_proposals"))
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a in targets}
    tracer = tracing.Tracer()
    tracer.install(fine=True)
    try:
        for (m, a), original in originals.items():
            assert getattr(importlib.import_module(m), a) is not original, f"{m}.{a}"
    finally:
        tracer.uninstall()
    for (m, a), original in originals.items():
        assert getattr(importlib.import_module(m), a) is original, f"{m}.{a}"


def test_fine_tracer_sees_the_matcher_lookups():
    # Called through the module, as ``evaluate`` calls them, so a matcher
    # bound at definition time (say, as a default argument) counts nothing.
    num_predicates = 3
    preds, gts = random_metric_instance(
        np.random.default_rng(0), max_images=5, max_objects=4, num_predicates=num_predicates
    )
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install(fine=True)
    lookups = ("metrics.triplet_match_calls", "datamodel.iou_calls")
    try:
        spec = metrics.MatchSpec()
        metrics.vrd_recall(preds, gts, 5, "free", spec, num_predicates=num_predicates)
        after_recall = [tracer.counts[name] for name in lookups]
        metrics.mean_average_precision(preds, gts, num_predicates, "rel", spec)
        after_map = [tracer.counts[name] for name in lookups]
    finally:
        tracer.uninstall()
    assert all(n > 0 for n in after_recall), after_recall
    assert all(b > a for a, b in zip(after_recall, after_map)), (after_recall, after_map)
    assert tracer.calls["metrics.vrd_recall"] == 1
    assert tracer.calls["metrics.mean_average_precision"] == 1
    # Free k is one sweep inside one call: no fixed-budget re-matches.
    assert tracer.counts["metrics.free_k_calls"] == 1
    assert tracer.counts["metrics.free_k_budgets"] == 0
