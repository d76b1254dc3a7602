"""Branch assembly, training, prediction and evaluation views."""

from dataclasses import replace

import numpy as np
import pytest

from relfusion import fusion
from relfusion.datamodel import DataError, Detection, GtObject, iou
from relfusion.fusion import (
    ATTRIBUTE_HIDDEN,
    _attribute_examples,
    EVAL_MODES,
    BranchMask,
    TrainConfig,
    batch_logits,
    build_training_inputs,
    featurized_views,
    gt_substitution,
    init_fusion_model,
    load_checkpoint,
    loss_and_grads,
    match_positive_pairs,
    pair_inputs,
    pair_logits,
    pair_proposals,
    predict_image,
    save_checkpoint,
    train,
    trainable_params,
)
from relfusion.numcore import fd_gradient, init_mlp, max_relative_error, softmax
from relfusion.semantic import FrequencyTable, fit_frequency, semantic_logits
from relfusion.synth import SynthConfig, generate
from relfusion.visual import predicate_feature

from util import box, make_detection, make_record, predict_one, spatial_reference, tiny_vocab


def _freq(num_predicates=3):
    table = FrequencyTable(num_predicates=num_predicates)
    table.counts[(0, 1)] = np.array([0, 5, 1, 0])
    table.counts[(1, 0)] = np.array([0, 0, 2, 2])
    return table


def _toy_model(mask=BranchMask(), dim=4, num_predicates=3, seed=0):
    rng = np.random.default_rng(seed)
    return init_fusion_model(
        _freq(num_predicates),
        dim,
        tiny_vocab(num_predicates=num_predicates),
        rng,
        mask=mask,
        spatial_hidden=(8, 8),
        spo_hidden=(8, 8),
    )


def _toy_record(n=3, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    dets = []
    gt = []
    for i in range(n):
        b = box(10 * i, 5 * i, 10 * i + 20, 5 * i + 15)
        feature = rng.normal(size=dim)
        dets.append(Detection(label=i % 2, box=b, score=0.9, feature=feature))
        gt.append(GtObject(label=i % 2, box=b))
    triplets = [(0, 1, 1), (1, 2, 2)] if n >= 3 else [(0, 1, 1)]
    return make_record(detections=dets, gt=gt, triplets=triplets, width=200, height=200)


class TestPairProposals:
    def test_zero_or_one_detection(self):
        assert pair_proposals(make_record()) == []
        assert pair_proposals(make_record(detections=[make_detection()])) == []

    def test_three_detections_six_pairs(self):
        record = _toy_record(n=3)
        assert len(pair_proposals(record)) == 6

    def test_zero_area_detection_filtered(self):
        dets = [make_detection(b=box(0, 0, 10, 10)) for _ in range(4)]
        dets.append(make_detection(b=box(5, 5, 5, 5)))
        record = make_record(detections=dets)
        assert len(pair_proposals(record)) == 12


class TestPairLogits:
    def test_semantic_only_equals_frequency_logits(self):
        model = _toy_model(BranchMask(True, False, False, False))
        record = _toy_record()
        logits = pair_logits(model, record, (0, 1))
        expected = semantic_logits(model.freq, 0, 1)
        assert np.array_equal(logits, expected)

    def test_zero_trainable_weights_equal_semantic(self):
        model = _toy_model()
        for net in (model.spatial_mlp, model.spo_head, model.sub_head, model.obj_head):
            for layer in net.layers:
                layer.weights[:] = 0
                layer.bias[:] = 0
        record = _toy_record()
        assert np.array_equal(
            pair_logits(model, record, (0, 1)), semantic_logits(model.freq, 0, 1)
        )

    def test_a_pairs_prior_row_is_fixed_at_its_first_use(self, monkeypatch):
        """The frozen prior: a model computes a class pair's row once and keeps it."""
        model = _toy_model(BranchMask(True, False, False, False))
        record = _toy_record()
        first = semantic_logits(model.freq, 0, 1)
        calls = []

        def counted(table, sub_label, obj_label):
            calls.append((sub_label, obj_label))
            return semantic_logits(table, sub_label, obj_label)

        monkeypatch.setattr("relfusion.fusion.semantic_logits", counted)
        assert np.array_equal(pair_logits(model, record, (0, 1)), first)
        model.freq.counts[(0, 1)] += 7  # after first use: the model does not see it
        assert np.array_equal(pair_logits(model, record, (0, 1)), first)
        assert calls == [(0, 1)]
        edited = semantic_logits(model.freq, 0, 1)
        assert not np.array_equal(edited, first)
        assert np.array_equal(pair_logits(replace(model), record, (0, 1)), edited)

    def test_single_branch_composition_is_exact(self):
        """Any mask's logits equal the canonical fold of its branch vectors."""
        record = _toy_record()
        pair = (0, 1)
        field_names = ("semantic", "spatial", "visual_spo", "visual_subobj")
        singles = {}
        for name in field_names:
            model = _toy_model(BranchMask(**{f: f == name for f in field_names}))
            singles[name] = pair_logits(model, record, pair)
        for bits in range(1, 16):
            enabled = [f for i, f in enumerate(field_names) if bits >> i & 1]
            model = _toy_model(BranchMask(**{f: f in enabled for f in field_names}))
            acc = np.zeros(model.num_predicates + 1)
            for name in reversed(enabled):
                acc = singles[name] + acc
            assert np.array_equal(pair_logits(model, record, pair), acc)

    def test_front_split_additivity_exact(self):
        record = _toy_record()
        pair = (1, 2)
        full = pair_logits(_toy_model(BranchMask()), record, pair)
        head = pair_logits(_toy_model(BranchMask(True, False, False, False)), record, pair)
        tail = pair_logits(_toy_model(BranchMask(False, True, True, True)), record, pair)
        assert np.array_equal(head + tail, full)

    def test_softmax_shift_invariance_of_fused_scores(self):
        model = _toy_model()
        record = _toy_record()
        logits = pair_logits(model, record, (0, 1))
        for c in (-40.0, 3.5, 90.0):
            assert np.all(np.abs(softmax(logits + c) - softmax(logits)) < 1e-12)

    def test_batch_path_matches_single_path(self):
        model = _toy_model()
        record = _toy_record()
        pairs = pair_proposals(record)
        logits, _ = batch_logits(model, pair_inputs(model, [record], [pairs]))
        for row, pair in zip(logits, pairs):
            assert np.allclose(row, pair_logits(model, record, pair), atol=1e-12)

    @pytest.mark.parametrize(
        "extreme",
        [box(0, 0, 20, 5e-324), box(-1e308, 0, 1e308, 15), box(1e308, 0, 1.5e308, 15)],
        ids=["subnormal height", "width beyond float range", "center beyond float range"],
    )
    def test_a_spatial_encoding_that_overflows_names_its_pair(self, extreme):
        """Finite, not zero-area boxes; no RuntimeWarning (an error under the test settings)."""
        model = _toy_model()
        record = _toy_record()
        record.detections[1] = replace(record.detections[1], box=extreme)
        with pytest.raises(DataError) as err:
            pair_inputs(model, [record], [[(0, 2), (0, 1), (1, 2)]])
        assert str(err.value) == "image 'img' detection pair (0, 1): spatial encoding is not finite"


class TestMultiRecordInputs:
    """``pair_inputs`` over several records gives each record's own rows, bit for bit."""

    @staticmethod
    def _records():
        rng = np.random.default_rng(21)
        wide = replace(_toy_record(n=4, seed=1), image_id="wide", width=2**53 + 1, height=3)
        assert float(wide.width) * float(wide.height) != float(wide.width * wide.height)
        paired = _toy_record(n=5, seed=2)
        paired.image_id = "paired"
        paired.pair_features = {(0, 1): rng.normal(size=4), (3, 0): rng.normal(size=4),
                                (4, 2): rng.normal(size=4)}
        lonely = make_record(image_id="lonely", detections=[make_detection(1, feature=[1] * 4)])
        sgcls = gt_substitution(paired, "sgcls")
        assert sgcls.pair_features
        return [wide, paired, lonely, _toy_record(n=2, seed=3), sgcls]

    @pytest.mark.parametrize("form", ["tuples", "arrays"])
    def test_equals_per_record_calls(self, form):
        model = _toy_model(seed=5)
        records = self._records()
        pairs = [pair_proposals(r) for r in records]
        assert pairs[2] == [] and all(pairs[:2] + pairs[3:])
        if form == "arrays":
            pairs = [np.array(p, dtype=np.intp).reshape(-1, 2) for p in pairs]
        got = pair_inputs(model, records, pairs).arrays
        alone = [pair_inputs(model, [r], [p]).arrays for r, p in zip(records, pairs) if len(p)]
        assert set(got) == {"sem", "spat", "v_sub", "v_pred", "v_obj"}
        for name, array in got.items():
            expected = np.concatenate([a[name] for a in alone])
            assert array.tobytes() == expected.tobytes(), name
        # The wide image's area divisor is float(width * height) of its integers.
        wide = records[0]
        dets = wide.detections
        reference = np.stack([spatial_reference(dets[i].box, dets[j].box, wide.width, wide.height)
                              for i, j in pair_proposals(wide)])
        assert got["spat"][: len(reference)].tobytes() == reference.tobytes()

    def test_a_spatial_fault_names_its_own_image_pair_and_line(self):
        records = [replace(_toy_record(seed=k), image_id=f"img{k}", line=k + 3) for k in range(4)]
        bad = records[2]
        bad.detections[1] = replace(bad.detections[1], box=box(0, 0, 20, 5e-324))
        with pytest.raises(DataError) as err:
            pair_inputs(_toy_model(), records, [pair_proposals(r) for r in records])
        assert str(err.value) == "image 'img2' detection pair (0, 1): spatial encoding is not finite"
        assert err.value.line == 5


class TestTraining:
    def test_zero_epochs_leaves_parameters(self):
        model = _toy_model()
        before = [p.copy() for p in trainable_params(model)]
        train(model, [_toy_record()], TrainConfig(epochs=0, seed=1))
        after = trainable_params(model)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_same_seed_bitwise_identical(self):
        results = []
        for _ in range(2):
            model = _toy_model(seed=3)
            train(model, [_toy_record()], TrainConfig(epochs=3, seed=9))
            results.append([p.copy() for p in trainable_params(model)])
        assert all(np.array_equal(a, b) for a, b in zip(*results))

    def test_no_positives_raises(self):
        record = _toy_record()
        record.gt_boxes = [GtObject(3, box(900, 900, 950, 950)) for _ in range(2)]
        record.gt_triplets = [(0, 1, 1)]
        with pytest.raises(DataError):
            train(_toy_model(), [record], TrainConfig(epochs=1, seed=0))

    def test_loss_decreases(self):
        records = [_toy_record(seed=s) for s in range(8)]
        model = _toy_model(seed=2)
        _, history = train(model, records, TrainConfig(epochs=8, seed=2))
        assert history[-1] < history[0]

    def test_trained_beats_semantic_only_on_positives(self):
        from relfusion.semantic import fit_frequency
        from relfusion.synth import SynthConfig, generate

        cfg = SynthConfig(seed=17, num_images=50, num_test_images=1)
        res = generate(cfg)
        vocab = res.vocab
        freq = fit_frequency(res.train, vocab)

        def positive_accuracy(model):
            hits = total = 0
            for record in res.train:
                for (i, p, j) in record.gt_triplets:
                    logits = pair_logits(model, record, (i, j))
                    hits += int(np.argmax(logits[1:])) + 1 == p
                    total += 1
            return hits / total

        semantic_only = init_fusion_model(
            freq, cfg.feature_dim, vocab, np.random.default_rng(17),
            mask=BranchMask(True, False, False, False),
        )
        full = init_fusion_model(
            freq, cfg.feature_dim, vocab, np.random.default_rng(17), mask=BranchMask()
        )
        _, history = train(full, res.train, TrainConfig(seed=17, epochs=6))
        assert history[-1] < history[0]
        assert positive_accuracy(full) > positive_accuracy(semantic_only)

    def test_gradients_match_finite_differences(self):
        model = _toy_model(seed=4)
        records = [_toy_record(seed=4)]
        inputs = build_training_inputs(model, records, TrainConfig(seed=4), np.random.default_rng(4))
        _, grads = loss_and_grads(model, inputs)
        params = trainable_params(model)
        for p, g in zip(params, grads):
            fd = fd_gradient(lambda: loss_and_grads(model, inputs)[0], p)
            assert max_relative_error(g, fd) < 1e-4


class TestTrainConfig:
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("learning_rate", 0.0, "learning rate must be finite and positive, got 0.0"),
            ("learning_rate", -1.0, "learning rate must be finite and positive, got -1.0"),
            ("learning_rate", float("nan"), "learning rate must be finite and positive, got nan"),
            ("learning_rate", float("inf"), "learning rate must be finite and positive, got inf"),
            ("momentum", -0.1, "momentum must be in [0, 1), got -0.1"),
            ("momentum", 1.0, "momentum must be in [0, 1), got 1.0"),
            ("seed", -1, "seed must be >= 0, got -1"),
            ("epochs", -1, "epochs must be >= 0, got -1"),
            ("batch_size", 0, "batch size must be positive, got 0"),
            ("negative_ratio", float("inf"), "negative ratio must be finite and >= 0, got inf"),
        ],
    )
    def test_bad_setting_is_named(self, name, value, message):
        with pytest.raises(ValueError) as err:
            TrainConfig(**{name: value})
        assert str(err.value) == message

    def test_edge_values_are_accepted(self):
        TrainConfig(epochs=0, batch_size=1, learning_rate=1e-300, momentum=0.0,
                    negative_ratio=0.0, seed=0)


class TestPredictImage:
    def test_no_detections_empty(self):
        assert list(predict_one(_toy_model(), make_record())) == []

    def test_sorted_and_tie_broken(self):
        model = _toy_model()
        record = _toy_record()
        preds = list(predict_one(model, record, top_n=50))
        scores = [p.score for p in preds]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_matches_bruteforce_enumeration(self):
        model = _toy_model(seed=6)
        record = _toy_record(n=2, seed=6)
        preds = list(predict_one(model, record, top_n=1000))
        # brute force: enumerate every (ordered pair, predicate) candidate
        expected = []
        for pair_idx, (i, j) in enumerate(pair_proposals(record)):
            probs = softmax(pair_logits(model, record, (i, j)))
            det = record.detections[i].score * record.detections[j].score
            for p in range(1, model.num_predicates + 1):
                expected.append((probs[p] * det, pair_idx, p, i, j))
        expected.sort(key=lambda c: (-c[0], c[1], c[2]))
        assert len(preds) == len(expected)
        for got, (score, _, p, i, j) in zip(preds, expected):
            assert got.score == pytest.approx(score, abs=1e-12)
            assert got.predicate == p
            # The detections' own Box objects and labels, Python ints and floats.
            di, dj = record.detections[i], record.detections[j]
            assert got.sub_box is di.box and got.obj_box is dj.box
            assert (got.sub_label, got.obj_label) == (di.label, dj.label)
            assert [type(v) for v in (got.sub_label, got.predicate, got.obj_label, got.score)] == [
                int, int, int, float]

    def test_ranking_columns_index_the_views_detections(self):
        record = _toy_record(seed=6)
        ranking = predict_one(_toy_model(seed=6), record, top_n=7)
        assert [(id(b), label) for b, label in zip(ranking.boxes, ranking.labels)] == [
            (id(d.box), d.label) for d in record.detections] and len(ranking) == 7
        for column, kind in ((ranking.sub, int), (ranking.obj, int), (ranking.predicates, int),
                             (ranking.scores, float)):
            assert type(column) is list and [type(v) for v in column] == [kind] * 7
        dets = record.detections
        assert [(t.sub_box, t.predicate, t.obj_box, t.score) for t in ranking] == [
            (dets[i].box, p, dets[j].box, s)
            for i, j, p, s in zip(ranking.sub, ranking.obj, ranking.predicates, ranking.scores)]

    def test_top_n_truncates(self):
        model = _toy_model()
        record = _toy_record()
        assert len(predict_one(model, record, top_n=5)) == 5

    def test_negative_top_n_rejected_and_zero_allowed(self):
        model = _toy_model()
        record = _toy_record()
        assert list(predict_one(model, record, top_n=0)) == []
        with pytest.raises(ValueError, match="top_n"):
            predict_one(model, record, top_n=-1)
        with pytest.raises(ValueError, match="top_n"):
            predict_one(model, make_record(), top_n=-1)

    def test_score_ties_ordered_by_pair_then_predicate(self):
        # An empty frequency table gives every pair the same uniform logits,
        # so a candidate's score is set by its two detector scores alone:
        # three score levels, each shared by many (pair, predicate) ties.
        model = _toy_model(BranchMask(True, False, False, False))
        model.freq.counts.clear()
        record = _toy_record(n=8)
        record.detections = [
            Detection(d.label, d.box, 0.5 if k % 2 else 0.9, d.feature)
            for k, d in enumerate(record.detections)
        ]
        preds = list(predict_one(model, record, top_n=1000))
        assert len({p.score for p in preds}) == 3
        pairs = pair_proposals(record)
        expected = sorted(
            (-record.detections[i].score * record.detections[j].score, pair_idx, p)
            for pair_idx, (i, j) in enumerate(pairs)
            for p in range(1, model.num_predicates + 1)
        )
        assert [(p.sub_box, p.predicate, p.obj_box) for p in preds] == [
            (record.detections[pairs[k][0]].box, p, record.detections[pairs[k][1]].box)
            for _, k, p in expected
        ]


class TestGtSubstitution:
    def test_sgdet_identity(self):
        record = _toy_record()
        assert gt_substitution(record, "sgdet") is record

    def test_prdcls_uses_gt(self):
        record = _toy_record()
        view = gt_substitution(record, "prdcls")
        assert len(view.detections) == len(record.gt_boxes)
        for det, gt in zip(view.detections, record.gt_boxes):
            assert det.box == gt.box
            assert det.label == gt.label
            assert det.score == 1.0
        assert view.gt_triplets == record.gt_triplets

    def test_prdcls_prefers_gt_features(self):
        record = _toy_record()
        feat = np.full(4, 7.0)
        record.gt_boxes[0] = GtObject(record.gt_boxes[0].label, record.gt_boxes[0].box, feat)
        view = gt_substitution(record, "prdcls")
        assert np.array_equal(view.detections[0].feature, feat)

    def test_sgcls_labels_match_bruteforce_best_iou(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            dets = []
            for _ in range(n):
                x0, y0 = rng.uniform(0, 50, size=2)
                w, h = rng.uniform(5, 30, size=2)
                dets.append(
                    Detection(
                        label=int(rng.integers(0, 4)),
                        box=box(x0, y0, x0 + w, y0 + h),
                        score=float(rng.uniform(0.1, 1)),
                        feature=rng.normal(size=4),
                    )
                )
            gt = [GtObject(int(rng.integers(0, 4)), d.box) for d in dets]
            record = make_record(detections=dets, gt=gt)
            view = gt_substitution(record, "sgcls")
            for det_view, g in zip(view.detections, record.gt_boxes):
                overlaps = [iou(d.box, g.box) for d in record.detections]
                best = int(np.argmax(overlaps))
                assert det_view.label == record.detections[best].label
                assert det_view.box == g.box

    def test_sgcls_best_iou_tie_takes_the_first_detection(self):
        # Two detections on the gt box itself: equal IoU 1, the first wins.
        b = box(0, 0, 20, 20)
        gt = [GtObject(label=0, box=b)]
        for first, second in ((1, 2), (2, 1)):
            dets = [make_detection(label=first, b=b), make_detection(label=second, b=b)]
            view = gt_substitution(make_record(detections=dets, gt=gt), "sgcls")
            assert [d.label for d in view.detections] == [first]

    def test_pair_features_follow_shuffled_assignment(self):
        # detections stored in a different order than the gt boxes: the
        # per-pair features must be re-keyed through the best-IoU match
        rng = np.random.default_rng(11)
        boxes = [box(0, 0, 20, 20), box(40, 0, 60, 20), box(0, 40, 20, 60)]
        gt = [GtObject(label=k, box=b) for k, b in enumerate(boxes)]
        order = [2, 0, 1]  # detection d sits at gt index order[d]
        dets = [
            Detection(label=order[d], box=boxes[order[d]], score=0.9,
                      feature=rng.normal(size=4))
            for d in range(3)
        ]
        feat_01 = np.array([1.0, 2.0, 3.0, 4.0])
        # detections 1 and 2 correspond to gt 0 and gt 1
        record = make_record(
            detections=dets, gt=gt, triplets=[(0, 1, 1)],
            pair_features={(1, 2): feat_01},
        )
        view = gt_substitution(record, "prdcls")
        assert np.array_equal(view.pair_features[(0, 1)], feat_01)
        assert (1, 2) not in view.pair_features

    def test_empty_gt_gives_empty_view(self):
        record = make_record(detections=[make_detection()])
        for mode in ("prdcls", "sgcls"):
            assert gt_substitution(record, mode).detections == []

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            gt_substitution(_toy_record(), "nonsense")

    def test_views_keep_their_records_line_for_its_data_errors(self):
        record = replace(_toy_record(), line=4)
        for mode in EVAL_MODES:
            assert gt_substitution(record, mode).line == 4
        disjoint = replace(self._disjoint_record(), line=4)
        with pytest.raises(DataError, match="prdcls needs") as err:
            gt_substitution(disjoint, "prdcls")
        assert err.value.line == 4

    def _disjoint_record(self):
        """One detection (label 3) and one gt box, with an attribute, that it misses."""
        det = make_detection(label=3, b=box(0, 0, 10, 10), feature=np.ones(4))
        gt = [GtObject(label=1, box=box(50, 50, 60, 60))]
        return make_record(detections=[det], gt=gt, attributes=[(0, 2)])

    def test_gt_box_without_overlap_has_no_stand_in(self):
        record = self._disjoint_record()
        assert gt_substitution(record, "sgcls").detections == []
        with pytest.raises(DataError, match="image 'img' gt box 0: prdcls needs"):
            gt_substitution(record, "prdcls")
        with pytest.raises(DataError, match="no attribute annotations"):
            _attribute_examples([record])

    def test_prdcls_without_stand_in_uses_the_gt_feature(self):
        record = self._disjoint_record()
        feat = np.full(4, 5.0)
        record.gt_boxes[0] = GtObject(label=1, box=record.gt_boxes[0].box, feature=feat)
        view = gt_substitution(record, "prdcls")
        assert [d.label for d in view.detections] == [1]
        assert view.detections[0].feature is feat

    def test_sgcls_drops_a_gt_box_without_stand_in(self):
        # gt 1 sits between gt 0 and gt 2, and no detection overlaps it.
        boxes = [box(0, 0, 20, 20), box(40, 0, 60, 20), box(80, 0, 99, 20)]
        gt = [GtObject(label=k, box=b) for k, b in enumerate(boxes)]
        dets = [make_detection(label=0, b=boxes[0]), make_detection(label=2, b=boxes[2])]
        feat = np.arange(4.0)
        record = make_record(
            detections=dets, gt=gt, triplets=[(0, 1, 2)], pair_features={(0, 1): feat}
        )
        view = gt_substitution(record, "sgcls")
        assert [(d.label, d.box) for d in view.detections] == [(0, boxes[0]), (2, boxes[2])]
        assert list(view.pair_features) == [(0, 1)]
        assert view.pair_features[(0, 1)] is feat
        assert view.gt_boxes == record.gt_boxes and view.gt_triplets == record.gt_triplets

    def test_attribute_example_without_stand_in_is_skipped(self):
        dets = [make_detection(label=0, b=box(0, 0, 20, 20), feature=np.full(4, 2.0))]
        gt = [GtObject(label=0, box=box(0, 0, 20, 20)), GtObject(label=1, box=box(50, 50, 60, 60))]
        record = make_record(detections=dets, gt=gt, attributes=[(0, 1), (1, 2)])
        feats, targets = _attribute_examples([record])
        assert np.array_equal(feats, np.full((1, 4), 2.0))
        assert targets.tolist() == [1]


class TestMatchPositivePairs:
    def test_groups_split_by_the_row_cap_rank_as_one_group(self, monkeypatch):
        model = _toy_model(seed=7)
        views = [_toy_record(n=n, seed=n) for n in (3, 1, 4, 2, 0, 5, 3)]
        for k, view in enumerate(views):
            view.image_id = f"img{k}"

        def rankings():
            return [(v.image_id, predict_image(model, v, pairs, inputs, 9))
                    for v, pairs, inputs in featurized_views(model, views)]

        whole = rankings()
        calls = []
        real = fusion.pair_inputs
        monkeypatch.setattr(fusion, "pair_inputs", lambda *a: calls.append(a[1]) or real(*a))
        monkeypatch.setattr(fusion, "PREDICT_GROUP_ROWS", 12)
        split = rankings()
        # Rows 6 + 0, then 12, then 2 + 0, then 20 (past the cap, so alone), then 6.
        assert [[len(r.detections) for r in c] for c in calls] == [[3, 1], [4], [2, 0], [5], [3]]
        assert [i for i, _ in split] == [i for i, _ in whole] == [v.image_id for v in views]
        for (_, a), (_, b) in zip(whole, split):
            assert (a.sub, a.obj, a.predicates, a.scores) == (b.sub, b.obj, b.predicates, b.scores)

    def _record(self, sub_box):
        gt = [GtObject(label=0, box=box(0, 0, 10, 20)), GtObject(label=1, box=box(50, 0, 60, 20))]
        dets = [make_detection(label=0, b=sub_box), make_detection(label=1, b=gt[1].box)]
        return make_record(detections=dets, gt=gt, triplets=[(0, 2, 1)])

    def test_iou_exactly_at_threshold_is_positive(self):
        record = self._record(box(0, 0, 10, 10))
        assert iou(record.detections[0].box, record.gt_boxes[0].box) == 0.5
        pairs, predicates = match_positive_pairs(record)
        assert pairs.tolist() == [[0, 1]] and predicates.tolist() == [2]

    def test_iou_just_below_threshold_is_not(self):
        record = self._record(box(0, 0, 10, np.nextafter(10.0, 0.0)))
        assert iou(record.detections[0].box, record.gt_boxes[0].box) < 0.5
        pairs, predicates = match_positive_pairs(record)
        assert pairs.shape == (0, 2) and predicates.shape == (0,)


def _reference_pair_inputs(model, record, pairs):
    """Every branch input built one pair at a time from the per-pair definitions."""
    dets = record.detections
    rows = {
        "sem": lambda i, j: semantic_logits(model.freq, dets[i].label, dets[j].label),
        "spat": lambda i, j: spatial_reference(
            dets[i].box, dets[j].box, record.width, record.height
        ),
        "v_sub": lambda i, j: dets[i].feature,
        "v_pred": lambda i, j: predicate_feature(
            dets[i].feature, dets[j].feature, record, (i, j)
        ),
        "v_obj": lambda i, j: dets[j].feature,
    }
    return {name: np.stack([row(i, j) for i, j in pairs]) for name, row in rows.items()}


def _reference_positives(record, iou_threshold=0.5):
    """((sub, obj), predicate) per triplet and proposal, in that order."""
    positives = []
    for sub_idx, pred, obj_idx in record.gt_triplets:
        sub_gt, obj_gt = record.gt_boxes[sub_idx], record.gt_boxes[obj_idx]
        for i, j in pair_proposals(record):
            di, dj = record.detections[i], record.detections[j]
            if (
                di.label == sub_gt.label
                and dj.label == obj_gt.label
                and iou(di.box, sub_gt.box) >= iou_threshold
                and iou(dj.box, obj_gt.box) >= iou_threshold
            ):
                positives.append(((i, j), pred))
    return positives


def _reference_pair_feature_remap(record):
    """Per-pair features re-keyed from detection to gt indices, as a view holds them."""
    assigned = [
        int(np.argmax([iou(d.box, gt.box) for d in record.detections]))
        for gt in record.gt_boxes
    ]
    remapped = {}
    for (i, j), feat in record.pair_features.items():
        for a, ma in enumerate(assigned):
            for b, mb in enumerate(assigned):
                if a != b and ma == i and mb == j:
                    remapped[(a, b)] = feat
    return remapped


def test_array_paths_match_per_pair_reference():
    cfg = SynthConfig(seed=5, num_images=10, num_test_images=1, noise=0.3)
    res = generate(cfg)
    model = init_fusion_model(
        fit_frequency(res.train, res.vocab), cfg.feature_dim, res.vocab, np.random.default_rng(5)
    )
    checked = {"pairs": 0, "positives": 0, "pair_features": 0}
    for mode in EVAL_MODES:
        for record in res.train:
            view = gt_substitution(record, mode)
            if mode != "sgdet":
                expected = _reference_pair_feature_remap(record)
                assert list(view.pair_features) == list(expected)
                assert all(view.pair_features[k] is v for k, v in expected.items())
                checked["pair_features"] += len(expected)

            pairs = pair_proposals(view)
            got = pair_inputs(model, [view], [pairs]).arrays
            expected = _reference_pair_inputs(model, view, pairs)
            assert set(got) == set(expected)
            for name, array in expected.items():
                assert np.array_equal(got[name], array), (mode, record.image_id, name)
            checked["pairs"] += len(pairs)

            got_pairs, got_predicates = match_positive_pairs(view)
            expected = _reference_positives(view)
            got = list(zip(map(tuple, got_pairs.tolist()), got_predicates.tolist()))
            assert got == expected, (mode, record.image_id)
            checked["positives"] += len(expected)
    assert all(checked.values()), checked


def test_positive_matching_edge_cases_match_per_pair_reference():
    a, b = box(0, 0, 10, 10), box(40, 0, 50, 10)
    # gt 0 and gt 2 are fitted by detections 0 and 2 alike; detection 3 has zero area.
    gt = [GtObject(0, a), GtObject(1, b), GtObject(0, box(0, 0, 10, 11))]
    dets = [make_detection(0, a), make_detection(1, b), make_detection(0, box(0, 0, 10, 9)),
            make_detection(0, box(5, 5, 5, 5))]
    triplets = [(0, 1, 1), (1, 2, 0), (0, 3, 2), (2, 1, 1)]
    records = {
        "all cases": make_record(detections=dets, gt=gt, triplets=triplets),
        "no detections": make_record(gt=gt, triplets=triplets),
        "no triplets": make_record(detections=dets, gt=gt),
    }
    # At threshold 0 every overlap fits, so only the proposal rule keeps detection 3 out.
    for threshold in (0.5, 0.0):
        for name, record in records.items():
            pairs, predicates = match_positive_pairs(record, threshold)
            assert pairs.dtype == predicates.dtype == np.intp
            assert pairs.shape == (len(predicates), 2)
            got = list(zip(map(tuple, pairs.tolist()), predicates.tolist()))
            assert got == _reference_positives(record, threshold), (name, threshold)
            if name == "all cases":
                assert got == [((0, 1), 1), ((2, 1), 1), ((1, 0), 2), ((1, 2), 2),
                               ((0, 2), 3), ((2, 0), 3), ((0, 1), 1), ((2, 1), 1)]
            else:
                assert got == []


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        model = _toy_model(seed=8)
        record = _toy_record(seed=8)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        a = list(predict_one(model, record))
        b = list(predict_one(again, record))
        assert [(p.score, p.predicate) for p in a] == [(q.score, q.predicate) for q in b]

    def test_resave_is_byte_identical(self, tmp_path):
        model = _toy_model(seed=9)
        attribute_heads = (None, init_mlp([4, ATTRIBUTE_HIDDEN, 3], np.random.default_rng(9)))
        for attribute_head in attribute_heads:
            model.attribute_head = attribute_head
            p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
            save_checkpoint(model, p1)
            again = load_checkpoint(p1)
            save_checkpoint(again, p2)
            assert p1.read_bytes() == p2.read_bytes()
            assert (again.attribute_head is None) == (attribute_head is None)
