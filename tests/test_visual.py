"""Visual heads over precomputed ROI features, plus the attribute head."""

import numpy as np
import pytest

from relfusion.fusion import (
    ATTRIBUTE_HIDDEN,
    TrainConfig,
    init_fusion_model,
    predict_attributes,
    train_attribute_head,
)
from relfusion.numcore import NumericError, fd_gradient, forward, init_mlp, softmax
from relfusion.semantic import FrequencyTable
from relfusion.synth import SynthConfig, generate
from relfusion.visual import predicate_feature

from util import make_record, tiny_vocab


def _visual_heads(feature_dim, num_predicates, rng, spo_hidden):
    """A fusion model; its spo_head, sub_head and obj_head are the visual heads."""
    return init_fusion_model(
        FrequencyTable(num_predicates=num_predicates),
        feature_dim,
        tiny_vocab(num_predicates=num_predicates),
        rng,
        spo_hidden=spo_hidden,
    )


def _spo_oracle(branch, v):
    """Hand-coded affine/rectifier chain, independent of numcore.forward."""
    h = np.asarray(v, dtype=float)
    last = len(branch.spo_head.layers) - 1
    for i, layer in enumerate(branch.spo_head.layers):
        h = layer.weights @ h + layer.bias
        if i < last:
            h = np.maximum(h, 0.0)
    return h


def _head_logits(branch, v_sub, v_pred, v_obj):
    """The three heads' separate logit vectors (spo, sub, obj)."""
    spo, _ = forward(branch.spo_head, np.concatenate([v_sub, v_pred, v_obj]))
    return spo, forward(branch.sub_head, v_sub)[0], forward(branch.obj_head, v_obj)[0]


class TestVisualLogits:
    def test_zero_weights_zero_logits(self):
        branch = _visual_heads(4, 3, np.random.default_rng(0), spo_hidden=(6, 6))
        for mlp_layer in branch.spo_head.layers:
            mlp_layer.weights[:] = 0
            mlp_layer.bias[:] = 0
        branch.sub_head.layers[0].weights[:] = 0
        branch.obj_head.layers[0].weights[:] = 0
        spo, sub, obj = _head_logits(branch, np.ones(4), np.ones(4), np.ones(4))
        assert np.array_equal(spo, np.zeros(4))
        assert np.array_equal(sub, np.zeros(4))
        assert np.array_equal(obj, np.zeros(4))

    def test_sub_head_ignores_object_feature(self):
        rng = np.random.default_rng(1)
        branch = _visual_heads(5, 4, rng, spo_hidden=(8, 8))
        v_s, v_p = rng.normal(size=5), rng.normal(size=5)
        _, sub_a, _ = _head_logits(branch, v_s, v_p, rng.normal(size=5))
        _, sub_b, _ = _head_logits(branch, v_s, v_p, rng.normal(size=5))
        assert np.array_equal(sub_a, sub_b)

    def test_obj_head_ignores_subject_feature(self):
        rng = np.random.default_rng(2)
        branch = _visual_heads(5, 4, rng, spo_hidden=(8, 8))
        v_p, v_o = rng.normal(size=5), rng.normal(size=5)
        _, _, obj_a = _head_logits(branch, rng.normal(size=5), v_p, v_o)
        _, _, obj_b = _head_logits(branch, rng.normal(size=5), v_p, v_o)
        assert np.array_equal(obj_a, obj_b)

    def test_spo_matches_independent_oracle(self):
        rng = np.random.default_rng(3)
        branch = _visual_heads(6, 5, rng, spo_hidden=(10, 7))
        v_s, v_p, v_o = rng.normal(size=(3, 6))
        spo, _, _ = _head_logits(branch, v_s, v_p, v_o)
        assert np.allclose(spo, _spo_oracle(branch, np.concatenate([v_s, v_p, v_o])), atol=1e-12)

    def test_separability_by_finite_differences(self):
        rng = np.random.default_rng(4)
        branch = _visual_heads(4, 3, rng, spo_hidden=(6, 6))
        v_s, v_p = rng.normal(size=4), rng.normal(size=4)
        v_o = rng.normal(size=4)

        def sub_component():
            return float(_head_logits(branch, v_s, v_p, v_o)[1][0])

        assert np.all(fd_gradient(sub_component, v_o) == 0.0)

        def obj_component():
            return float(_head_logits(branch, v_s, v_p, v_o)[2][0])

        assert np.all(fd_gradient(obj_component, v_s) == 0.0)


class TestPredicateFeature:
    def test_provided_feature_passthrough(self):
        feat = np.array([9.0, 9.0])
        record = make_record(pair_features={(0, 1): feat})
        out = predicate_feature(np.zeros(2), np.ones(2), record, (0, 1))
        assert out is feat

    def test_fallback_mean_identity(self):
        record = make_record()
        v = np.array([3.0, -1.0])
        assert np.array_equal(predicate_feature(v, v, record, (0, 1)), v)

    def test_fallback_mean(self):
        record = make_record()
        out = predicate_feature(np.array([0.0, 2.0]), np.array([2.0, 0.0]), record, (1, 0))
        assert np.array_equal(out, [1.0, 1.0])


class TestAttributeHead:
    def test_zero_weights_zero_logits(self):
        head = init_mlp([4, ATTRIBUTE_HIDDEN, 3], np.random.default_rng(5))
        for layer in head.layers:
            layer.weights[:] = 0
            layer.bias[:] = 0
        assert np.array_equal(forward(head, np.ones(4))[0], np.zeros(3))

    def test_softmax_normalizes(self):
        rng = np.random.default_rng(6)
        head = init_mlp([4, ATTRIBUTE_HIDDEN, 5], rng)
        probs = softmax(forward(head, rng.normal(size=4))[0])
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_trained_accuracy_beats_majority(self):
        cfg = SynthConfig(seed=5, num_images=60, num_test_images=30)
        result = generate(cfg)
        rng = np.random.default_rng(5)
        head = init_mlp([cfg.feature_dim, ATTRIBUTE_HIDDEN, cfg.num_attributes], rng)
        train_attribute_head(head, result.train, TrainConfig(seed=5, epochs=8))
        hits = total = 0
        counts = np.zeros(cfg.num_attributes, dtype=int)
        for record in result.test:
            best = {i: a for i, a, _ in predict_attributes(head, record)}
            for gt_idx, attr in record.gt_attributes:
                counts[attr] += 1
                hits += best.get(gt_idx) == attr
                total += 1
        majority = counts.max() / total
        assert hits / total > majority

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_attribute_loss(self):
        cfg = SynthConfig(seed=5, num_images=20)
        result = generate(cfg)
        rng = np.random.default_rng(5)
        head = init_mlp([cfg.feature_dim, ATTRIBUTE_HIDDEN, cfg.num_attributes], rng)
        diverging = TrainConfig(seed=5, epochs=12, learning_rate=1e9)
        with pytest.raises(NumericError, match="attribute loss"):
            train_attribute_head(head, result.train, diverging)
