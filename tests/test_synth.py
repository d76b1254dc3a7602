"""Synthetic data generator and its exact-posterior oracle."""

import dataclasses

import numpy as np
import pytest

from relfusion.datamodel import save_dataset
from relfusion.fusion import (
    BranchMask,
    TrainConfig,
    gt_substitution,
    init_fusion_model,
    pair_logits,
    train,
)
from relfusion.semantic import fit_frequency
from relfusion.synth import (
    SynthConfig,
    bayes_accuracy,
    generate,
    load_oracle,
    pair_posterior,
    rule_outcome,
    save_oracle,
)

from util import box


class TestGenerate:
    def test_deterministic_bitwise(self, tmp_path):
        a = generate(SynthConfig(seed=12, num_images=20, num_test_images=5))
        b = generate(SynthConfig(seed=12, num_images=20, num_test_images=5))
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(a.train + a.test, pa)
        save_dataset(b.train + b.test, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_shapes_and_alignment(self):
        cfg = SynthConfig(seed=2, num_images=10, num_test_images=4)
        res = generate(cfg)
        assert len(res.train) == 10 and len(res.test) == 4
        for record in res.train:
            assert len(record.detections) == len(record.gt_boxes)
            assert record.width == record.height == 1000
            lo, hi = cfg.objects_per_image
            assert lo <= len(record.gt_boxes) <= hi
            for det in record.detections:
                assert det.feature.shape == (cfg.feature_dim,)
                assert 0.95 <= det.score <= 1.0
            for (i, p, j) in record.gt_triplets:
                assert i != j and 1 <= p <= cfg.num_predicates
                assert (i, j) in record.pair_features

    def test_requires_some_signal(self):
        with pytest.raises(ValueError):
            SynthConfig(semantic_signal=False, spatial_signal=False, visual_signal=False)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"num_images": -3}, "num images must be >= 0, got -3"),
            ({"num_test_images": -1}, "num test images must be >= 0, got -1"),
            ({"objects_per_image": (5, 2)},
             "objects per image must be a (min, max) pair with 0 <= min <= max, got (5, 2)"),
            ({"objects_per_image": (-1, 2)},
             "objects per image must be a (min, max) pair with 0 <= min <= max, got (-1, 2)"),
            ({"num_classes": 0}, "num classes must be >= 1, got 0"),
            ({"num_predicates": 0, "spatial_signal": False}, "num predicates must be >= 1, got 0"),
            ({"feature_dim": 0}, "feature dim must be >= 1, got 0"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"num_attributes": -1}, "num attributes must be >= 0, got -1"),
            ({"noise": float("nan")}, "noise must be finite and >= 0, got nan"),
            ({"noise": -0.5}, "noise must be finite and >= 0, got -0.5"),
            ({"appearance_weight": float("nan")},
             "appearance weight must be finite and >= 0, got nan"),
            ({"existence_weight": float("inf")},
             "existence weight must be finite and >= 0, got inf"),
            ({"table_concentration": 0.0}, "table concentration must be finite and > 0, got 0.0"),
            ({"table_concentration": float("inf")},
             "table concentration must be finite and > 0, got inf"),
        ],
    )
    def test_bad_field_is_named(self, fields, message):
        with pytest.raises(ValueError) as err:
            SynthConfig(**fields)
        assert str(err.value) == message

    def test_edge_values_generate(self):
        cfg = SynthConfig(num_images=0, num_test_images=1, objects_per_image=(0, 0),
                          num_classes=1, num_predicates=2, feature_dim=1, seed=0, noise=0.0,
                          num_attributes=0, appearance_weight=0.0, existence_weight=0.0)
        res = generate(cfg)
        assert res.train == [] and len(res.test) == 1 and res.test[0].detections == []

    def test_vocabulary_names(self):
        res = generate(SynthConfig(seed=1, num_images=2, num_test_images=1))
        assert res.vocab.predicates[0] == "__no_rel__"
        assert res.vocab.predicates[1] == "on"
        assert res.vocab.predicates[2] == "under"


class TestSpatialRule:
    def test_rule_requires_overlap(self):
        assert rule_outcome(box(0, 0, 10, 10), box(50, 50, 60, 60)) is None

    def test_above_is_on(self):
        assert rule_outcome(box(0, 0, 10, 10), box(0, 5, 10, 20)) == 1
        assert rule_outcome(box(0, 5, 10, 20), box(0, 0, 10, 10)) == 2

    def test_spatial_only_rule_accuracy(self):
        cfg = SynthConfig(
            seed=7,
            semantic_signal=False,
            spatial_signal=True,
            visual_signal=False,
            num_attributes=0,
        )
        res = generate(cfg)
        hits = total = 0
        for record in res.train + res.test:
            for (i, p, j) in record.gt_triplets:
                hits += rule_outcome(record.gt_boxes[i].box, record.gt_boxes[j].box) == p
                total += 1
        assert total > 500
        assert hits / total >= 0.95


class TestBayesAccuracy:
    def test_deterministic_rule_is_perfect(self):
        cfg = SynthConfig(
            seed=3,
            semantic_signal=False,
            spatial_signal=True,
            visual_signal=False,
            num_attributes=0,
            rule_weight=1.0,
        )
        res = generate(cfg)
        assert bayes_accuracy(res.oracle, res.train) == 1.0

    def test_uniform_posterior_matches_one_over_p(self):
        # predicates drawn uniformly (visual-only draw with zero tilt);
        # an oracle that ignores every signal has a flat posterior, so its
        # argmax always answers the first predicate
        cfg = SynthConfig(
            seed=4,
            num_images=400,
            num_test_images=1,
            semantic_signal=False,
            spatial_signal=False,
            visual_signal=True,
            appearance_weight=0.0,
            num_attributes=0,
        )
        res = generate(cfg)
        blind = dataclasses.replace(
            res.oracle, semantic_signal=False, spatial_signal=False, visual_signal=False
        )
        acc = bayes_accuracy(blind, res.train)
        assert abs(acc - 1.0 / cfg.num_predicates) < 0.02

    def test_semantic_only_matches_table_maximum(self):
        cfg = SynthConfig(
            seed=11,
            semantic_signal=True,
            spatial_signal=False,
            visual_signal=False,
            num_attributes=0,
        )
        res = generate(cfg)
        dataset = res.train + res.test
        acc = bayes_accuracy(res.oracle, dataset)
        expected = np.mean(
            [
                res.oracle.table[r.gt_boxes[i].label, r.gt_boxes[j].label].max()
                for r in dataset
                for (i, _, j) in r.gt_triplets
            ]
        )
        assert abs(acc - expected) < 0.02

    def test_monte_carlo_agreement_on_large_sample(self):
        cfg = SynthConfig(seed=5, num_images=1000, num_test_images=1)
        res = generate(cfg)
        pairs = sum(len(r.gt_triplets) for r in res.train)
        assert pairs > 10000
        acc = bayes_accuracy(res.oracle, res.train)
        expected = []
        for r in res.train:
            for (i, p, j) in r.gt_triplets:
                post = pair_posterior(
                    res.oracle,
                    r.gt_boxes[i].label,
                    r.gt_boxes[j].label,
                    r.gt_boxes[i].box,
                    r.gt_boxes[j].box,
                    r.pair_features[(i, j)],
                    r.detections[i].feature,
                    r.detections[j].feature,
                )
                expected.append(post.max())
        assert abs(acc - float(np.mean(expected))) < 0.02

    def test_mismatch_detected(self):
        res = generate(SynthConfig(seed=6, num_images=4, num_test_images=1))
        broken = dataclasses.replace(res.oracle, num_classes=1)
        with pytest.raises(ValueError):
            bayes_accuracy(broken, res.train)


class TestFrequencyRecovery:
    def test_argmax_recovered_for_well_observed_pairs(self):
        cfg = SynthConfig(
            seed=9,
            semantic_signal=True,
            spatial_signal=False,
            visual_signal=False,
            num_attributes=0,
        )
        res = generate(cfg)
        freq = fit_frequency(res.train, res.vocab)
        checked = 0
        for (s, o), counts in freq.counts.items():
            if counts.sum() >= 30:
                checked += 1
                assert int(np.argmax(counts[1:])) == int(np.argmax(res.oracle.table[s, o]))
        assert checked >= 10


class TestTrainedModelBound:
    def test_accuracy_never_beats_bayes_plus_margin(self):
        cfg = SynthConfig(seed=13, num_images=80, num_test_images=40)
        res = generate(cfg)
        freq = fit_frequency(res.train, res.vocab)
        rng = np.random.default_rng(13)
        model = init_fusion_model(
            freq, cfg.feature_dim, res.vocab, rng, mask=BranchMask()
        )
        train(model, res.train, TrainConfig(seed=13, epochs=6))
        hits = total = 0
        for record in res.test:
            view = gt_substitution(record, "prdcls")
            for (i, p, j) in record.gt_triplets:
                logits = pair_logits(model, view, (i, j))
                hits += int(np.argmax(logits[1:])) + 1 == p
                total += 1
        assert hits / total <= bayes_accuracy(res.oracle, res.test) + 0.02


class TestOracleSerialization:
    def test_roundtrip(self, tmp_path):
        res = generate(SynthConfig(seed=8, num_images=3, num_test_images=1))
        path = tmp_path / "oracle.json"
        save_oracle(res.oracle, path)
        again = load_oracle(path)
        assert again.num_predicates == res.oracle.num_predicates
        assert np.allclose(again.table, res.oracle.table, atol=0)
        assert np.allclose(again.cluster_means, res.oracle.cluster_means, atol=0)
        assert np.allclose(again.sub_weights, res.oracle.sub_weights, atol=0)
        assert again.rule_weight == res.oracle.rule_weight
        # posterior computed from the reloaded oracle matches exactly
        record = res.train[0]
        (i, p, j) = record.gt_triplets[0]
        args = (
            record.gt_boxes[i].label,
            record.gt_boxes[j].label,
            record.gt_boxes[i].box,
            record.gt_boxes[j].box,
            record.pair_features[(i, j)],
            record.detections[i].feature,
            record.detections[j].feature,
        )
        assert np.allclose(
            pair_posterior(res.oracle, *args), pair_posterior(again, *args), atol=0
        )
