"""Evaluation protocols against hand values and the brute-force reference."""

import collections
import dataclasses
import functools
import hashlib
import math
import operator
import re
import tracemalloc

import numpy as np
import pytest

from relfusion import datamodel, metrics
from relfusion.datamodel import DataError, GtObject, PredictedTriplet, ResolvedTriplet
from relfusion.metrics import (
    MatchSpec,
    _one_pass,
    average_precision,
    evaluate,
    mean_average_precision,
    oi_score,
    recall_at_k,
    triplet_match,
    vrd_recall,
)

from reference_eval import ref_average_precision, ref_recall_at_k, ref_vrd_recall
from util import box, make_detection, make_record, random_metric_instance, tiny_vocab


def _pred(sub_box, sub_label, predicate, obj_box, obj_label, score):
    return PredictedTriplet(
        sub_box=sub_box,
        sub_label=sub_label,
        predicate=predicate,
        obj_box=obj_box,
        obj_label=obj_label,
        score=score,
    )


def _gt(sub_box, sub_label, predicate, obj_box, obj_label):
    return ResolvedTriplet(
        sub_label=sub_label,
        sub_box=sub_box,
        predicate=predicate,
        obj_label=obj_label,
        obj_box=obj_box,
    )


B1 = box(0, 0, 10, 10)
B2 = box(20, 0, 30, 10)
B3 = box(0, 20, 10, 30)


class TestTripletMatch:
    def test_identical_matches(self):
        gt = _gt(B1, 0, 1, B2, 1)
        assert triplet_match(_pred(B1, 0, 1, B2, 1, 0.5), gt, MatchSpec())

    def test_wrong_predicate(self):
        gt = _gt(B1, 0, 1, B2, 1)
        assert not triplet_match(_pred(B1, 0, 2, B2, 1, 0.5), gt, MatchSpec())

    def test_wrong_labels(self):
        gt = _gt(B1, 0, 1, B2, 1)
        assert not triplet_match(_pred(B1, 1, 1, B2, 1, 0.5), gt, MatchSpec())
        assert not triplet_match(_pred(B1, 0, 1, B2, 0, 0.5), gt, MatchSpec())

    def test_boundary_iou_is_inclusive(self):
        # sub boxes (0,0,2,1) vs (0,0,1,1): intersection 1, union 2 -> exactly 0.5
        gt = _gt(box(0, 0, 1, 1), 0, 1, B2, 1)
        pred = _pred(box(0, 0, 2, 1), 0, 1, B2, 1, 0.9)
        assert triplet_match(pred, gt, MatchSpec(iou_threshold=0.5))

    def test_low_iou_fails(self):
        gt = _gt(B1, 0, 1, B2, 1)
        assert not triplet_match(_pred(box(8, 8, 18, 18), 0, 1, B2, 1, 0.9), gt, MatchSpec())


class TestRecallAtK:
    def test_empty_predictions(self):
        gt = {"a": [_gt(B1, 0, 1, B2, 1)]}
        assert recall_at_k({"a": []}, gt, 50, MatchSpec()) == 0.0

    def test_echoed_gt_perfect(self):
        gts = [_gt(B1, 0, 1, B2, 1), _gt(B2, 1, 2, B3, 0)]
        preds = [_pred(g.sub_box, g.sub_label, g.predicate, g.obj_box, g.obj_label, 0.9) for g in gts]
        assert recall_at_k({"a": preds}, {"a": gts}, 10, MatchSpec()) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(0)
        preds, gts = random_metric_instance(rng)
        spec = MatchSpec()
        values = [recall_at_k(preds, gts, k, spec) for k in (1, 2, 5, 10, 20)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_graph_constraint_never_increases_without_a_cut(self):
        # With K below the pool size the constraint can free top-K slots
        # and recall may go either way; with K covering every prediction
        # the constrained pool is a subset, so recall cannot grow.
        rng = np.random.default_rng(1)
        for _ in range(30):
            preds, gts = random_metric_instance(rng)
            k = max((len(v) for v in preds.values()), default=1) or 1
            unconstrained = recall_at_k(preds, gts, k, MatchSpec(graph_constraint=False))
            constrained = recall_at_k(preds, gts, k, MatchSpec(graph_constraint=True))
            assert constrained <= unconstrained + 1e-12

    def test_graph_constraint_equality_for_single_predicate_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            preds, gts = random_metric_instance(rng)
            deduped = {}
            for image_id, lst in preds.items():
                seen = set()
                kept = []
                for t in sorted(lst, key=lambda t: -t.score):
                    key = (t.sub_label, t.sub_box, t.obj_label, t.obj_box)
                    if key not in seen:
                        seen.add(key)
                        kept.append(t)
                deduped[image_id] = kept
            for k in (1, 5, 10):
                off = recall_at_k(deduped, gts, k, MatchSpec(graph_constraint=False))
                on = recall_at_k(deduped, gts, k, MatchSpec(graph_constraint=True))
                assert on == off

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            recall_at_k({}, {}, 0, MatchSpec())

    def test_gt_consumed_at_most_once(self):
        gt = {"a": [_gt(B1, 0, 1, B2, 1)]}
        duplicated = [_pred(B1, 0, 1, B2, 1, 0.9), _pred(B1, 0, 1, B2, 1, 0.8)]
        assert recall_at_k({"a": duplicated}, gt, 10, MatchSpec()) == 1.0

    @pytest.mark.parametrize("budget", [1, 2, "free"])
    def test_k_per_pair_is_not_ignored(self, budget):
        # On this instance the budget 1 changes R@5 (0.1 without it, 0.0 with it).
        preds, gts = random_metric_instance(np.random.default_rng(0), max_images=6,
                                            max_objects=5, num_predicates=3)
        assert recall_at_k(preds, gts, 5, MatchSpec()) != vrd_recall(preds, gts, 5, 1, MatchSpec())
        with pytest.raises(ValueError, match="no k per pair"):
            recall_at_k(preds, gts, 5, MatchSpec(k_per_pair=budget))


class TestAveragePrecision:
    def test_single_match(self):
        preds = {"a": [_pred(B1, 0, 1, B2, 1, 0.9)]}
        gts = {"a": [_gt(B1, 0, 1, B2, 1)]}
        assert average_precision(preds, gts, 1, "rel", MatchSpec()) == 1.0

    def test_no_predictions_zero(self):
        gts = {"a": [_gt(B1, 0, 1, B2, 1)]}
        assert average_precision({"a": []}, gts, 1, "rel", MatchSpec()) == 0.0

    def test_no_gt_excluded(self):
        preds = {"a": [_pred(B1, 0, 2, B2, 1, 0.9)]}
        gts = {"a": [_gt(B1, 0, 1, B2, 1)]}
        assert average_precision(preds, gts, 2, "rel", MatchSpec()) is None

    def test_hand_computed_curve(self):
        # hit at .9, miss at .8, hit at .7 against 2 gt -> (1.0 + 2/3)/2
        gts = {"a": [_gt(B1, 0, 1, B2, 1), _gt(B2, 1, 1, B3, 0)]}
        preds = {
            "a": [
                _pred(B1, 0, 1, B2, 1, 0.9),
                _pred(B3, 0, 1, B2, 1, 0.8),
                _pred(B2, 1, 1, B3, 0, 0.7),
            ]
        }
        ap = average_precision(preds, gts, 1, "rel", MatchSpec())
        assert ap == pytest.approx((1.0 + 2 / 3) / 2, abs=1e-12)

    def test_phrase_mode_union_boxes(self):
        # individually shifted boxes whose enclosing box still overlaps well
        gts = {"a": [_gt(box(0, 0, 10, 10), 0, 1, box(30, 0, 40, 10), 1)]}
        preds = {"a": [_pred(box(28, 0, 40, 10), 0, 1, box(0, 0, 12, 10), 1, 0.9)]}
        assert average_precision(preds, gts, 1, "rel", MatchSpec()) == 0.0
        assert average_precision(preds, gts, 1, "phr", MatchSpec()) == 1.0

    def test_rank_only_dependence(self):
        rng = np.random.default_rng(2)
        preds, gts = random_metric_instance(rng)
        spec = MatchSpec()
        base = average_precision(preds, gts, 1, "rel", spec)
        squashed = {
            image_id: [
                PredictedTriplet(
                    sub_box=t.sub_box,
                    sub_label=t.sub_label,
                    predicate=t.predicate,
                    obj_box=t.obj_box,
                    obj_label=t.obj_label,
                    score=float(np.tanh(t.score) + 5.0),
                )
                for t in lst
            ]
            for image_id, lst in preds.items()
        }
        assert average_precision(squashed, gts, 1, "rel", spec) == base


class TestOneMatchPerImage:
    def test_ap_equals_ap_of_the_predicate_alone(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            preds, gts = random_metric_instance(rng, max_images=6, max_objects=5,
                                                num_predicates=4)
            for p in range(1, 5):
                alone_preds = {i: [t for t in ts if t.predicate == p] for i, ts in preds.items()}
                alone_gts = {i: [g for g in gs if g.predicate == p] for i, gs in gts.items()}
                for mode in ("rel", "phr"):
                    for spec in (MatchSpec(), MatchSpec(iou_threshold=0.7)):
                        full = average_precision(preds, gts, p, mode, spec)
                        alone = average_precision(alone_preds, alone_gts, p, mode, spec)
                        assert full == alone

    @pytest.mark.parametrize("mode", ["rel", "phr"])
    def test_same_label_ground_truth_is_consumed_in_annotation_order(self, monkeypatch, mode):
        first = _gt(B1, 0, 1, B2, 1)
        other = _gt(B1, 0, 2, B2, 1)
        second = _gt(box(0, 0, 10, 12), 0, 1, B2, 1)
        ranked = [
            _pred(box(0, 0, 10, 11), 0, 1, B2, 1, 0.9),  # IoU .909 with first, .917 second
            _pred(box(0, 0, 10, 7), 0, 1, B2, 1, 0.8),  # IoU .7 with first, .583 second
            _pred(box(0, 0, 10, 12), 0, 1, B2, 1, 0.7),
            _pred(B1, 0, 2, B2, 1, 0.6),
        ]
        preds, gts = _unshared({"a": ranked}, {"a": [first, other, second]})
        spec = MatchSpec(iou_threshold=0.7)
        # The first prediction takes ``first``, so the second finds no gt it reaches: hits
        # at ranks 1, 3 and 4. Both box modes test only same-label pairs.
        spy = _TestSpy(monkeypatch, preds, gts)
        if mode == "rel":
            assert [recall_at_k(preds, gts, k, spec) for k in (1, 2, 3, 4)] == [
                1 / 3, 1 / 3, 2 / 3, 1.0
            ]
        else:
            ap = average_precision(preds, gts, 1, "phr", spec)
            assert ap == ref_average_precision(preds, gts, 1, True, threshold=0.7)
        labels = lambda t: (t.sub_label, t.predicate, t.obj_label)  # noqa: E731
        assert spy.tests and {m for m, _, _ in spy.tests} == {mode}
        assert all(labels(pred) == labels(gt) for _, pred, gt in spy.tests)


def _records(ground_truth):
    """Image records whose resolved triplets are ``ground_truth``'s, in order."""
    records = []
    for image_id, gts in ground_truth.items():
        boxes = []
        for g in gts:
            boxes += [GtObject(g.sub_label, g.sub_box), GtObject(g.obj_label, g.obj_box)]
        triplets = [(2 * i, g.predicate, 2 * i + 1) for i, g in enumerate(gts)]
        records.append(make_record(image_id=image_id, gt=boxes, triplets=triplets))
    assert {r.image_id: r.resolved_triplets() for r in records} == ground_truth
    return records


class TestOneMatchPerBudget:
    KS = (1, 2, 3, 5, 8)

    def test_every_k_reads_a_prefix_of_one_match(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            p = int(rng.integers(1, 5))
            preds, gts = random_metric_instance(rng, max_images=6, max_objects=5,
                                                num_predicates=p)
            for threshold in (0.5, 0.7):
                spec = MatchSpec(iou_threshold=threshold)
                gc = MatchSpec(iou_threshold=threshold, graph_constraint=True)

                def recalls(budget, spec=spec):
                    spec = dataclasses.replace(spec, k_per_pair=budget)
                    return _one_pass(preds, gts, self.KS, (), spec, p)[0]

                assert recalls(None) == {k: recall_at_k(preds, gts, k, spec) for k in self.KS}
                assert recalls(None, gc) == {k: recall_at_k(preds, gts, k, gc) for k in self.KS}
                assert recalls(2) == {k: vrd_recall(preds, gts, k, 2, spec) for k in self.KS}
                sweep = [recalls(b) for b in range(1, p + 1)]
                best = {k: max(r[k] for r in sweep) for k in self.KS}
                assert recalls("free") == best == {
                    k: vrd_recall(preds, gts, k, "free", spec, p) for k in self.KS
                }

    def test_evaluate_free_k_equals_vrd_recall(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            p = int(rng.integers(1, 5))
            preds, gts = random_metric_instance(rng, max_images=4, max_objects=7,
                                                num_predicates=p)
            records, vocab = _records(gts), tiny_vocab(num_objects=3, num_predicates=p)
            for threshold in (0.5, 0.7):
                spec = MatchSpec(iou_threshold=threshold, k_per_pair="free")
                report = evaluate(preds, records, vocab, spec=spec)
                assert report.recall_at == {
                    k: vrd_recall(preds, gts, k, "free", spec, p) for k in (20, 50, 100)
                }

    @pytest.mark.parametrize(
        "spec", [MatchSpec(), MatchSpec(graph_constraint=True), MatchSpec(k_per_pair=2),
                 MatchSpec(k_per_pair="free")],
        ids=["no budget", "graph constraint", "budget 2", "free"],
    )
    def test_evaluate_tests_each_pair_once_per_box_mode(self, monkeypatch, spec):
        # Each (prediction, gt) pair is tested at most once per box mode, however many
        # budgets re-walk the ranking, and each enclosing box is built at most once.
        rng = np.random.default_rng(3)
        cut = 0
        for _ in range(20):
            preds, gts = _unshared(*random_metric_instance(rng, num_predicates=3))
            spy = _TestSpy(monkeypatch, preds, gts)
            evaluate(preds, _records(gts), tiny_vocab(num_objects=3), spec=spec)
            tested = collections.Counter((m, id(pred), id(gt)) for m, pred, gt in spy.tests)
            assert max(tested.values(), default=1) == 1
            assert max(spy.unions_built.values(), default=1) == 1
            for image_id, image_gts in gts.items():
                ranked = _brute_ranked(preds.get(image_id, []))
                cut += image_gts != [] and len(_brute_kept(ranked, 1)) < len(ranked)
        assert cut > 0  # the graph constraint and free k re-walk some cut lists

    def test_free_k_tests_what_no_budget_tests_when_no_budget_cuts(self, monkeypatch):
        preds, gts = random_metric_instance(np.random.default_rng(3), num_predicates=3)
        single = {}
        for image_id, ts in preds.items():
            firsts = {_pair(t): t for t in reversed(ts)}
            single[image_id] = [t for t in ts if firsts[_pair(t)] is t]
        assert sum(map(len, single.values())) < sum(map(len, preds.values()))
        single, gts = _unshared(single, gts)
        tested = []
        for spec in (MatchSpec(), MatchSpec(k_per_pair="free")):
            spy = _TestSpy(monkeypatch, single, gts)
            evaluate(single, _records(gts), tiny_vocab(num_objects=3), spec=spec)
            tested.append([(m, id(pred), id(gt)) for m, pred, gt in spy.tests])
        assert tested[0] == tested[1] and tested[0]

    def test_free_vrd_recall_tests_the_pairs_of_its_budgets_once(self, monkeypatch):
        # The free sweep tests what budgets 1..P test one by one, and no pair twice.
        rng = np.random.default_rng(3)
        for _ in range(20):
            preds, gts = _unshared(*random_metric_instance(rng, num_predicates=3))
            spy = _TestSpy(monkeypatch, preds, gts)
            union = set()
            for budget in (1, 2, 3):
                spy.tests.clear()
                vrd_recall(preds, gts, 10**6, budget, MatchSpec())
                union |= {(id(pred), id(gt)) for _, pred, gt in spy.tests}
            spy.tests.clear()
            vrd_recall(preds, gts, 10**6, "free", MatchSpec(), num_predicates=3)
            free = [(id(pred), id(gt)) for _, pred, gt in spy.tests]
            assert len(free) == len(set(free)) and set(free) == union

    def test_recall_only_calls_test_only_the_first_k_kept(self, monkeypatch):
        # Recall reads no hit past rank k, so a call that computes no AP tests only the
        # first k of the list its budget keeps; free k, those of some budget in 1..P.
        rng = np.random.default_rng(43)
        calls = {
            "no budget": ([None], lambda p, g, k: recall_at_k(p, g, k, MatchSpec())),
            "graph constraint": (
                [1], lambda p, g, k: recall_at_k(p, g, k, MatchSpec(graph_constraint=True))),
            "budget 2": ([2], lambda p, g, k: vrd_recall(p, g, k, 2, MatchSpec())),
            "free": ([1, 2, 3], lambda p, g, k: vrd_recall(p, g, k, "free", MatchSpec(), 3)),
        }
        past_k = collections.Counter()
        for _ in range(15):
            preds, gts = _unshared(*random_metric_instance(rng, max_objects=7, num_predicates=3))
            spy = _TestSpy(monkeypatch, preds, gts)
            for name, (budgets, call) in calls.items():
                for k in (1, 3, 20):
                    first_k, later = set(), 0
                    for image_id, image_gts in gts.items():
                        labels = {(g.sub_label, g.predicate, g.obj_label) for g in image_gts}
                        for b in budgets:
                            kept = _brute_kept(_brute_ranked(preds.get(image_id, [])), b)
                            first_k |= {id(t) for t in kept[:k]}
                            later += sum((t.sub_label, t.predicate, t.obj_label) in labels
                                         for t in kept[k:])
                    spy.tests.clear()
                    call(preds, gts, k)
                    assert {id(pred) for _, pred, _ in spy.tests} <= first_k, (name, k)
                    past_k[name, k] += later > 0
        # Every call and k met candidates past rank k, which a whole-ranking walk would test.
        assert len(past_k) == 12 and min(past_k.values()) > 0, past_k

    def test_each_budgets_recall_is_a_greedy_match_of_its_kept_list(self):
        rng = np.random.default_rng(37)
        cut = 0
        for _ in range(60):
            p = int(rng.integers(1, 5))
            preds, gts = random_metric_instance(rng, max_images=4, max_objects=5,
                                                num_predicates=p)
            for ts in preds.values():
                # Repeated identical triplets (the same object, or an equal copy)
                # tie with their original inside its pair.
                for i in rng.integers(0, len(ts), size=len(ts) // 2):
                    ts.append(ts[i] if rng.random() < 0.5 else dataclasses.replace(ts[i]))
            spec = MatchSpec(iou_threshold=float(rng.choice([0.5, 0.7])))
            for k in (1, 3, 10**6):
                want = {b: _brute_recall(preds, gts, k, b, spec) for b in range(1, p + 2)}
                for budget in range(1, p + 2):
                    assert vrd_recall(preds, gts, k, budget, spec) == want[budget]
                assert recall_at_k(preds, gts, k, spec) == _brute_recall(preds, gts, k, None, spec)
                gc = dataclasses.replace(spec, graph_constraint=True)
                assert recall_at_k(preds, gts, k, gc) == want[1]
                assert vrd_recall(preds, gts, k, "free", spec, p) == max(
                    want[b] for b in range(1, p + 1))
            for image_id, image_gts in gts.items():
                ranked = _brute_ranked(preds.get(image_id, []))
                cut += image_gts != [] and len(_brute_kept(ranked, 1)) < len(ranked)
        assert cut > 0

    def test_many_predictions_on_one_pair_take_memory_linear_in_their_number(self):
        # Pair ranks run to n - 1: a table per prediction over all pair ranks would take
        # n * n slots (tens of MB here); the budgets' kept lists take O(n).
        n = 2000
        preds = {"a": [_pred(B1, 0, 1, B2, 1, 1.0 - i / n) for i in range(n)]}
        gts = {"a": [_gt(B1, 0, 1, B2, 1), _gt(B3, 0, 1, B2, 1)]}
        for spec in (MatchSpec(graph_constraint=True), MatchSpec(k_per_pair="free")):
            tracemalloc.start()
            recall, _ = _one_pass(preds, gts, (20, 50, 100), ("rel", "phr"), spec, 3)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert recall == {20: 0.5, 50: 0.5, 100: 0.5}
            assert peak < 4 * 2**20, peak


def _pair(t):
    return t.sub_label, t.sub_box, t.obj_label, t.obj_box


def _brute_ranked(ts):
    """Descending score; equal scores keep input order."""
    return [ts[i] for i in sorted(range(len(ts)), key=lambda i: (-ts[i].score, i))]


def _brute_kept(ranked, budget):
    """The ranked predictions with fewer than ``budget`` earlier ones on their pair."""
    return [
        t for i, t in enumerate(ranked)
        if budget is None or sum(_pair(u) == _pair(t) for u in ranked[:i]) < budget
    ]


def _brute_recall(preds, gts, k, budget, spec):
    """Mean over images of the greedy hits among the first k of ``_brute_kept``."""
    recalls = []
    for image_id, image_gts in gts.items():
        if not image_gts:
            continue
        unmatched, hits = list(image_gts), 0
        for t in _brute_kept(_brute_ranked(preds.get(image_id, [])), budget)[:k]:
            gt = next((g for g in unmatched if triplet_match(t, g, spec)), None)
            if gt is not None:
                unmatched.remove(gt)
                hits += 1
        recalls.append(hits / len(image_gts))
    return functools.reduce(operator.add, recalls, 0.0) / len(recalls) if recalls else 0.0


def _unshared(preds, gts):
    """Copies in which every triplet has box objects of its own, so its boxes name it."""
    fresh = lambda t: dataclasses.replace(  # noqa: E731
        t, sub_box=dataclasses.replace(t.sub_box), obj_box=dataclasses.replace(t.obj_box))
    return ({i: [fresh(t) for t in ts] for i, ts in preds.items()},
            {i: [fresh(g) for g in gs] for i, gs in gts.items()})


class _TestSpy:
    """Records each match test a metric run makes through ``metrics``' globals.

    ``tests`` holds (box mode, prediction, gt): a ``triplet_match`` call is a rel test,
    an ``iou`` call on two enclosing boxes a phrase test. The triplets must own their
    boxes (``_unshared``); a gt is named by the input triplet with its boxes, since
    ``evaluate`` resolves its own copies. ``unions_built`` counts each enclosing box's
    builds by its triplet.
    """

    def __init__(self, monkeypatch, preds, gts):
        owner = {(id(t.sub_box), id(t.obj_box)): t
                 for ts in (*preds.values(), *gts.values()) for t in ts}
        unions = {}  # id -> (enclosing box, kept alive so ids stay unique; its triplet)
        self.tests, self.unions_built = [], collections.Counter()
        # The functions themselves, not ``metrics``' globals: those may be an earlier spy.
        real_union, real_iou, real_match = datamodel.union_box, datamodel.iou, triplet_match

        def spy_union(a, b):
            u = real_union(a, b)
            unions[id(u)] = (u, owner[id(a), id(b)])
            self.unions_built[id(owner[id(a), id(b)])] += 1
            return u

        def spy_iou(a, b):
            if id(a) in unions:
                self.tests.append(("phr", unions[id(a)][1], unions[id(b)][1]))
            return real_iou(a, b)

        def spy_match(pred, gt, spec):
            self.tests.append(("rel", pred, owner[id(gt.sub_box), id(gt.obj_box)]))
            return real_match(pred, gt, spec)

        for name, spy in (("union_box", spy_union), ("iou", spy_iou),
                          ("triplet_match", spy_match)):
            monkeypatch.setattr(metrics, name, spy)


class TestMeansAreLeftFolds:
    """Means add left to right, as builtin sum() did before Python 3.12 compensated."""

    TENTHS = functools.reduce(operator.add, [0.1] * 10, 0.0) / 10

    def test_the_case_tells_a_left_fold_from_compensated_summation(self):
        assert self.TENTHS != math.fsum([0.1] * 10) / 10

    @staticmethod
    def _ten_gts(predicate):
        """Ten ground-truth triplets with one predicate, and a prediction matching the first."""
        gts = [_gt(box(40 * j, 0, 40 * j + 10, 10), 0, predicate,
                   box(40 * j + 20, 0, 40 * j + 30, 10), 1) for j in range(10)]
        g = gts[0]
        return gts, _pred(g.sub_box, 0, predicate, g.obj_box, 1, 0.5)

    def test_recall_of_ten_images_each_at_one_tenth(self):
        gts, pred = self._ten_gts(1)
        ground_truth = {f"img{i}": gts for i in range(10)}
        predictions = {image_id: [pred] for image_id in ground_truth}
        assert recall_at_k(predictions, ground_truth, 50, MatchSpec()) == self.TENTHS

    def test_map_of_ten_predicates_each_at_one_tenth(self):
        gts, preds = [], []
        for p in range(1, 11):
            more, pred = self._ten_gts(p)
            gts += more
            preds.append(pred)
        mean, table = mean_average_precision({"a": preds}, {"a": gts}, 10, "rel", MatchSpec())
        assert list(table.values()) == [0.1] * 10
        assert mean == self.TENTHS


class TestOiScore:
    def test_full_marks(self):
        assert oi_score(100, 100, 100) == pytest.approx(100.0, abs=1e-12)

    def test_weights(self):
        assert oi_score(50, 0, 0) == pytest.approx(10.0, abs=1e-12)
        assert oi_score(0, 50, 0) == pytest.approx(20.0, abs=1e-12)
        assert oi_score(0, 0, 50) == pytest.approx(20.0, abs=1e-12)


class TestVrdRecall:
    def test_k1_equals_graph_constraint(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            preds, gts = random_metric_instance(rng)
            for k in (1, 5, 10):
                assert vrd_recall(preds, gts, k, 1, MatchSpec()) == pytest.approx(
                    recall_at_k(preds, gts, k, MatchSpec(graph_constraint=True)), abs=1e-15
                )

    def test_k_equals_p_unconstrained(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            preds, gts = random_metric_instance(rng, num_predicates=3)
            for k in (1, 5, 10):
                assert vrd_recall(preds, gts, k, 3, MatchSpec()) == pytest.approx(
                    recall_at_k(preds, gts, k, MatchSpec(graph_constraint=False)), abs=1e-15
                )

    def test_free_k_dominates_fixed(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            preds, gts = random_metric_instance(rng, num_predicates=3)
            free = vrd_recall(preds, gts, 5, "free", MatchSpec(), num_predicates=3)
            for budget in (1, 2, 3):
                assert free >= vrd_recall(preds, gts, 5, budget, MatchSpec()) - 1e-15

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            vrd_recall({}, {"a": []}, 5, 0, MatchSpec())

    @pytest.mark.parametrize("k", [0, -2])
    @pytest.mark.parametrize("budget", [2, "free"])
    def test_non_positive_k(self, k, budget):
        # A negative k must not slice the ranked list from its end.
        preds, gts = random_metric_instance(np.random.default_rng(1))
        with pytest.raises(ValueError, match="k must be positive"):
            vrd_recall(preds, gts, k, budget, MatchSpec(), num_predicates=3)

    def test_free_k_needs_num_predicates(self):
        preds, gts = random_metric_instance(np.random.default_rng(6))
        with pytest.raises(ValueError):
            vrd_recall(preds, gts, 5, "free", MatchSpec())

    def test_graph_constraint_is_not_ignored(self):
        # On this instance the constraint changes R@5 (0.1 without it, 0.0 with it).
        preds, gts = random_metric_instance(np.random.default_rng(0), max_images=6,
                                            max_objects=5, num_predicates=3)
        gc = MatchSpec(graph_constraint=True)
        assert vrd_recall(preds, gts, 5, 3, MatchSpec()) != recall_at_k(preds, gts, 5, gc)
        for budget in (1, 3, "free"):
            with pytest.raises(ValueError, match="not as the graph constraint"):
                vrd_recall(preds, gts, 5, budget, gc, num_predicates=3)

    @pytest.mark.parametrize("budget", [True, 2.5, 0, "all", [2]])
    def test_bad_budget_is_named(self, budget):
        preds, gts = random_metric_instance(np.random.default_rng(1))
        message = f"k per pair must be a positive integer or 'free', got {re.escape(repr(budget))}"
        with pytest.raises(ValueError, match=message):
            MatchSpec(k_per_pair=budget)
        with pytest.raises(ValueError, match=message):
            vrd_recall(preds, gts, 5, budget, MatchSpec(), num_predicates=3)

    def test_spec_budget_must_agree(self):
        preds, gts = random_metric_instance(np.random.default_rng(1))
        with pytest.raises(ValueError, match="k_per_pair 'free' differs from the spec's 2"):
            vrd_recall(preds, gts, 5, "free", MatchSpec(k_per_pair=2), num_predicates=3)
        same = vrd_recall(preds, gts, 5, 2, MatchSpec(k_per_pair=2))
        assert same == vrd_recall(preds, gts, 5, 2, MatchSpec())

    def test_graph_constraint_takes_no_other_budget(self):
        # The graph constraint is the per-pair budget 1.
        with pytest.raises(ValueError):
            MatchSpec(graph_constraint=True, k_per_pair=2)


class TestScoreScaleInvariance:
    def test_all_metrics_stable_under_scaling(self):
        rng = np.random.default_rng(6)
        preds, gts = random_metric_instance(rng)
        scaled = {
            image_id: [
                PredictedTriplet(
                    sub_box=t.sub_box,
                    sub_label=t.sub_label,
                    predicate=t.predicate,
                    obj_box=t.obj_box,
                    obj_label=t.obj_label,
                    score=t.score * 0.125,
                )
                for t in lst
            ]
            for image_id, lst in preds.items()
        }
        spec = MatchSpec()
        assert recall_at_k(preds, gts, 5, spec) == recall_at_k(scaled, gts, 5, spec)
        assert vrd_recall(preds, gts, 5, 2, spec) == vrd_recall(scaled, gts, 5, 2, spec)
        a, _ = mean_average_precision(preds, gts, 3, "rel", spec)
        b, _ = mean_average_precision(scaled, gts, 3, "rel", spec)
        assert a == b


class TestReferenceEquivalence:
    def test_random_instances_match_bruteforce(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            preds, gts = random_metric_instance(rng)
            for constraint in (False, True):
                spec = MatchSpec(graph_constraint=constraint)
                for k in (1, 5, 10):
                    mine = recall_at_k(preds, gts, k, spec)
                    ref = ref_recall_at_k(preds, gts, k, graph_constraint=constraint)
                    assert abs(mine - ref) < 1e-9
            for budget in (1, 2, 3, "free"):
                mine = vrd_recall(preds, gts, 5, budget, MatchSpec(), num_predicates=3)
                ref = ref_vrd_recall(preds, gts, 5, budget, num_predicates=3)
                assert abs(mine - ref) < 1e-9
            for p in (1, 2, 3):
                for mode, phrase in (("rel", False), ("phr", True)):
                    mine = average_precision(preds, gts, p, mode, MatchSpec())
                    ref = ref_average_precision(preds, gts, p, phrase)
                    if mine is None:
                        assert ref is None
                    else:
                        assert abs(mine - ref) < 1e-9


class TestEvaluate:
    def _perfect_setup(self):
        vocab = tiny_vocab()
        dets = [make_detection(label=0, b=B1), make_detection(label=1, b=B2)]
        gt = [GtObject(0, B1), GtObject(1, B2)]
        record = make_record(image_id="a", detections=dets, gt=gt, triplets=[(0, 1, 1)])
        preds = {"a": [_pred(B1, 0, 1, B2, 1, 0.9)]}
        return preds, [record], vocab

    def test_perfect_predictions(self):
        preds, dataset, vocab = self._perfect_setup()
        report = evaluate(preds, dataset, vocab)
        assert all(v == 1.0 for v in report.recall_at.values())
        assert report.map_rel == 1.0
        assert report.map_phr == 1.0
        assert report.oi_score == pytest.approx(1.0, abs=1e-12)

    def test_empty_predictions(self):
        _, dataset, vocab = self._perfect_setup()
        report = evaluate({}, dataset, vocab)
        assert all(v == 0.0 for v in report.recall_at.values())
        assert report.oi_score == 0.0

    def test_unknown_image_id_rejected(self):
        preds, dataset, vocab = self._perfect_setup()
        preds["mystery"] = []
        with pytest.raises(DataError):
            evaluate(preds, dataset, vocab)

    def test_report_serializes(self):
        preds, dataset, vocab = self._perfect_setup()
        report = evaluate(preds, dataset, vocab)
        blob = report.to_json(vocab)
        assert blob["recall_at"]["50"] == 1.0
        assert "p1" in blob["ap_rel"]
        assert "score" in report.format_table(vocab)


class TestPinnedResults:
    # sha256 of the reprs below, generated once before the matcher's rework: any change
    # to a matching, tie, budget or fold rule moves it, however small the deviation.
    DIGEST = "09233ef6bcafa43c6e901927ef32d53db0201d93b9fe9752ae7cdb31bb16c209"

    def test_public_metric_results_are_pinned_bit_for_bit(self):
        rng = np.random.default_rng(22)
        digest = hashlib.sha256()
        for _ in range(400):
            p = int(rng.integers(1, 5))
            preds, gts = random_metric_instance(rng, max_images=5, max_objects=5,
                                                num_predicates=p)
            spec = MatchSpec(iou_threshold=float(rng.choice([0.5, 0.7])))
            gc = dataclasses.replace(spec, graph_constraint=True)
            records, vocab = _records(gts), tiny_vocab(num_objects=3, num_predicates=p)
            results = [
                [recall_at_k(preds, gts, k, s) for k in (1, 5, 20) for s in (spec, gc)],
                [vrd_recall(preds, gts, 5, b, spec, p) for b in (2, "free")],
                [average_precision(preds, gts, q, m, spec) for q in range(1, p + 1)
                 for m in ("rel", "phr")],
                [mean_average_precision(preds, gts, p, m, spec) for m in ("rel", "phr")],
                [evaluate(preds, records, vocab, spec=s)
                 for s in (spec, gc, dataclasses.replace(spec, k_per_pair="free"))],
            ]
            digest.update(repr(results).encode())
        assert digest.hexdigest() == self.DIGEST
