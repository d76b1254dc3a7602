"""Evaluation protocols against hand values and the brute-force reference."""

import dataclasses
import re

import numpy as np
import pytest

from relfusion import metrics
from relfusion.datamodel import DataError, GtObject, PredictedTriplet, ResolvedTriplet
from relfusion.metrics import (
    MatchSpec,
    _greedy_hits,
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

    def test_same_label_ground_truth_is_consumed_in_annotation_order(self):
        first = _gt(B1, 0, 1, B2, 1)
        other = _gt(B1, 0, 2, B2, 1)
        second = _gt(box(0, 0, 10, 12), 0, 1, B2, 1)
        ranked = [
            _pred(box(0, 0, 10, 11), 0, 1, B2, 1, 0.9),  # IoU .909 with first, .917 second
            _pred(box(0, 0, 10, 7), 0, 1, B2, 1, 0.8),  # IoU .7 with first, .583 second
            _pred(box(0, 0, 10, 12), 0, 1, B2, 1, 0.7),
            _pred(B1, 0, 2, B2, 1, 0.6),
        ]
        tried = []

        def match(pred, gt, spec):
            tried.append((pred, gt))
            return triplet_match(pred, gt, spec)

        spec = MatchSpec(iou_threshold=0.7)
        assert _greedy_hits(ranked, [first, other, second], match, spec) == [
            True, False, True, True
        ]
        labels = lambda t: (t.sub_label, t.predicate, t.obj_label)  # noqa: E731
        assert all(labels(pred) == labels(gt) for pred, gt in tried)


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

    @staticmethod
    def _matches(monkeypatch, preds, gts, spec):
        """(box mode, list length, ground truth) of each match one ``evaluate`` makes."""
        seen = []
        real = metrics._greedy_hits

        def spy(ranked, ground_truth, match, spec):
            mode = "phr" if match is metrics._phrase_match else "rel"
            seen.append((mode, len(ranked), ground_truth))
            return real(ranked, ground_truth, match, spec)

        monkeypatch.setattr(metrics, "_greedy_hits", spy)
        for name in ("recall_at_k", "vrd_recall", "average_precision", "mean_average_precision"):
            monkeypatch.setattr(metrics, name, None)
        evaluate(preds, _records(gts), tiny_vocab(num_objects=3), spec=spec)
        return seen

    @staticmethod
    def _one_match_per_box_mode_and_shorter_list(preds, gts, budgets):
        calls = []
        for image_id, image_gts in gts.items():
            ranked = _brute_ranked(preds.get(image_id, []))
            calls += [("rel", len(ranked), image_gts), ("phr", len(ranked), image_gts)]
            if image_gts:
                lengths = dict.fromkeys(len(_brute_kept(ranked, b)) for b in budgets)
                calls += [("rel", n, image_gts) for n in lengths if n < len(ranked)]
        return calls

    @pytest.mark.parametrize(
        "spec, budgets",
        [(MatchSpec(), [None]), (MatchSpec(graph_constraint=True), [1]),
         (MatchSpec(k_per_pair=2), [2]), (MatchSpec(k_per_pair="free"), [1, 2, 3])],
        ids=["no budget", "graph constraint", "budget 2", "free"],
    )
    def test_evaluate_matches_once_per_budget(self, monkeypatch, spec, budgets):
        # One match per image and box mode. The whole ranking's rel match serves
        # every budget that keeps it all; each shorter kept list adds one match.
        preds, gts = random_metric_instance(np.random.default_rng(3), num_predicates=3)
        seen = self._matches(monkeypatch, preds, gts, spec)
        assert seen == self._one_match_per_box_mode_and_shorter_list(preds, gts, budgets)
        if spec.k_per_pair == "free":  # some budget cuts some image's ranking
            assert len(seen) > 2 * len(gts)

    def test_free_k_matches_twice_per_image_with_one_prediction_per_pair(self, monkeypatch):
        preds, gts = random_metric_instance(np.random.default_rng(3), num_predicates=3)
        single = {}
        for image_id, ts in preds.items():
            firsts = {_pair(t): t for t in reversed(ts)}
            single[image_id] = [t for t in ts if firsts[_pair(t)] is t]
        assert sum(map(len, single.values())) < sum(map(len, preds.values()))
        seen = self._matches(monkeypatch, single, gts, MatchSpec(k_per_pair="free"))
        assert len(seen) == 2 * len(gts)

    def test_free_vrd_recall_matches_once_per_kept_length(self, monkeypatch):
        # Budgets that keep equally long lists of an image share one match.
        seen = []
        real = metrics._greedy_hits

        def spy(ranked, ground_truth, match, spec):
            seen.append((match, len(ranked), ground_truth))
            return real(ranked, ground_truth, match, spec)

        monkeypatch.setattr(metrics, "_greedy_hits", spy)
        preds, gts = random_metric_instance(np.random.default_rng(3), num_predicates=3)
        vrd_recall(preds, gts, 10**6, "free", MatchSpec(), num_predicates=3)
        want = []
        for image_id, image_gts in gts.items():
            if image_gts:
                ranked = _brute_ranked(preds.get(image_id, []))
                lengths = dict.fromkeys(len(_brute_kept(ranked, b)) for b in (1, 2, 3))
                want += [(triplet_match, n, image_gts) for n in lengths]
        assert seen == want
        assert len(want) < 3 * sum(map(bool, gts.values()))  # some lengths repeat

    def test_budget_keeps_the_predictions_with_fewer_earlier_ones_on_their_pair(
        self, monkeypatch
    ):
        kept_lists = []
        real = metrics._greedy_hits

        def spy(ranked, ground_truth, match, spec):
            kept_lists.append(ranked)
            return real(ranked, ground_truth, match, spec)

        monkeypatch.setattr(metrics, "_greedy_hits", spy)
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
            for budget in range(1, p + 2):
                kept_lists.clear()
                vrd_recall(preds, gts, 10**6, budget, MatchSpec())
                ranked = [_brute_ranked(preds.get(i, [])) for i, image_gts in gts.items()
                          if image_gts]
                want = [_brute_kept(r, budget) for r in ranked]
                assert [list(map(id, k)) for k in kept_lists] == [list(map(id, k)) for k in want]
                cut += sum(len(k) < len(r) for k, r in zip(want, ranked))
        assert cut > 0


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
