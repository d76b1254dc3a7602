"""Frequency baseline: counting, smoothing, logits."""

import math

import numpy as np
import pytest

from relfusion.datamodel import GtObject, Vocabulary
from relfusion.semantic import (
    FrequencyTable,
    fit_frequency,
    semantic_logits,
    table_from_json,
    table_to_json,
)

from util import box, make_record, tiny_vocab

# class ids for readability in the toy corpus
MAN, HORSE, STREET = 0, 1, 2
RIDE, FEED, ON = 1, 2, 3


def _toy_corpus():
    """5 triplets: (man,ride,horse) x3, (man,feed,horse) x1, (man,on,street) x1."""
    gt = [
        GtObject(MAN, box(0, 0, 10, 10)),
        GtObject(HORSE, box(10, 0, 20, 10)),
        GtObject(STREET, box(0, 10, 20, 20)),
    ]
    triplets = [(0, RIDE, 1), (0, RIDE, 1), (0, RIDE, 1), (0, FEED, 1), (0, ON, 2)]
    return [make_record(gt=gt, triplets=triplets)]


def _vocab():
    return Vocabulary(
        object_classes=("man", "horse", "street"),
        predicates=("__no_rel__", "ride", "feed", "on"),
    )


class TestFitFrequency:
    def test_empty_dataset(self):
        table = fit_frequency([], _vocab())
        assert table.counts == {}

    def test_toy_corpus_counts(self):
        table = fit_frequency(_toy_corpus(), _vocab())
        assert np.array_equal(table.counts[(MAN, HORSE)], [0, 3, 1, 0])
        assert np.array_equal(table.counts[(MAN, STREET)], [0, 0, 0, 1])
        assert set(table.counts) == {(MAN, HORSE), (MAN, STREET)}

    def test_no_relationship_id_rejected(self):
        records = _toy_corpus()
        records[0].gt_triplets.append((0, 0, 1))
        with pytest.raises(ValueError):
            fit_frequency(records, _vocab())

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        vocab = tiny_vocab(num_objects=3, num_predicates=3)
        records = []
        for i in range(10):
            gt = [GtObject(int(rng.integers(0, 3)), box(0, 0, 5, 5)) for _ in range(3)]
            trips = [
                (a, int(rng.integers(1, 4)), b)
                for a in range(3)
                for b in range(3)
                if a != b and rng.random() < 0.5
            ]
            records.append(make_record(image_id=f"r{i}", gt=gt, triplets=trips))
        t1 = fit_frequency(records, vocab)
        t2 = fit_frequency(records[::-1], vocab)
        assert set(t1.counts) == set(t2.counts)
        for key in t1.counts:
            assert np.array_equal(t1.counts[key], t2.counts[key])

    def test_duplication_doubles_counts_and_keeps_ratios(self):
        rng = np.random.default_rng(1)
        vocab = tiny_vocab(num_objects=4, num_predicates=3)
        for trial in range(20):
            gt = [GtObject(int(rng.integers(0, 4)), box(0, 0, 5, 5)) for _ in range(4)]
            trips = [
                (a, int(rng.integers(1, 4)), b)
                for a in range(4)
                for b in range(4)
                if a != b and rng.random() < 0.6
            ]
            if not trips:
                continue
            records = [make_record(image_id=f"t{trial}", gt=gt, triplets=trips)]
            single = fit_frequency(records, vocab)
            double = fit_frequency(records * 2, vocab)
            for key, counts in single.counts.items():
                assert np.array_equal(double.counts[key], 2 * counts)
                # unsmoothed empirical ratios survive duplication exactly
                total = counts.sum()
                ratios = counts / total
                ratios2 = double.counts[key] / double.counts[key].sum()
                assert np.all(np.abs(ratios - ratios2) < 1e-12)
                # the smoothed argmax over real predicates is stable too
                assert np.argmax(single.probabilities(*key)[1:]) == np.argmax(
                    double.probabilities(*key)[1:]
                )


class TestSemanticLogits:
    def test_unseen_pair_uniform(self):
        table = FrequencyTable(num_predicates=9, smoothing=1.0)
        logits = semantic_logits(table, 5, 6)
        assert logits.shape == (10,)
        assert np.all(np.abs(logits - math.log(1 / 10)) < 1e-12)

    def test_probabilities_sum_to_one(self):
        table = fit_frequency(_toy_corpus(), _vocab())
        for key in [(MAN, HORSE), (MAN, STREET), (HORSE, MAN)]:
            assert abs(np.exp(semantic_logits(table, *key)).sum() - 1.0) < 1e-12

    def test_toy_corpus_hand_values(self):
        table = fit_frequency(_toy_corpus(), _vocab())
        logits = semantic_logits(table, MAN, HORSE)
        expected = np.log(np.array([1, 4, 2, 1]) / 8.0)
        assert np.all(np.abs(logits - expected) < 1e-12)

    def test_argmax_matches_most_frequent(self):
        table = fit_frequency(_toy_corpus(), _vocab())
        assert int(np.argmax(semantic_logits(table, MAN, HORSE)[1:])) + 1 == RIDE
        assert int(np.argmax(semantic_logits(table, MAN, STREET)[1:])) + 1 == ON

    def test_tie_broken_by_lower_index(self):
        table = FrequencyTable(num_predicates=3)
        table.counts[(0, 1)] = np.array([0, 2, 2, 0])
        assert int(np.argmax(semantic_logits(table, 0, 1)[1:])) + 1 == 1

    def test_deterministic(self):
        table = fit_frequency(_toy_corpus(), _vocab())
        a = semantic_logits(table, MAN, HORSE)
        b = semantic_logits(table, MAN, HORSE)
        assert np.array_equal(a, b)


class TestVectorizedPrior:
    """Label sequences give, row for row, the bits of one call per class pair."""

    @staticmethod
    def _table(rng, size, smoothing, high):
        """Counts for a random part of classes 0-3; class 4 is never seen."""
        table = FrequencyTable(num_predicates=size - 1, smoothing=smoothing)
        for key in [(s, o) for s in range(4) for o in range(4) if rng.random() < 0.6]:
            table.counts[key] = rng.integers(0, high, size=size, dtype=np.int64)
        return table

    @staticmethod
    def _reference(table, sub_label, obj_label):
        """The smoothing formula on one row, written out: float zeros for an unseen pair."""
        size = table.num_predicates + 1
        counts = table.counts.get((sub_label, obj_label), np.zeros(size))
        return (counts + table.smoothing) / (counts.sum() + size * table.smoothing)

    # 8 and 16 are multiples of the SIMD width in float64 lanes; 2, 7 and 61 are not.
    @pytest.mark.parametrize("size", [2, 7, 8, 16, 61])
    @pytest.mark.parametrize("smoothing", [1e-9, 0.5, 3.7])
    # The last bound keeps a 61-slot row's total below table_from_json's 2**63.
    @pytest.mark.parametrize("high", [4, 10**6, 2**63 // 64])
    def test_rows_equal_per_pair_calls(self, size, smoothing, high):
        rng = np.random.default_rng([size, high])
        table = self._table(rng, size, smoothing, high)
        subs, objs = rng.integers(0, 5, size=(2, 60)).tolist()
        assert any(key not in table.counts for key in zip(subs, objs))
        probs = table.probabilities(subs, objs)
        logits = semantic_logits(table, np.array(subs), tuple(objs))
        assert probs.shape == logits.shape == (60, size)
        for k, key in enumerate(zip(subs, objs)):
            assert probs[k].tobytes() == table.probabilities(*key).tobytes()
            assert probs[k].tobytes() == self._reference(table, *key).tobytes()
            assert logits[k].tobytes() == semantic_logits(table, *key).tobytes()
            assert logits[k].tobytes() == np.log(self._reference(table, *key)).tobytes()

    def test_one_pair_shapes(self):
        table = fit_frequency(_toy_corpus(), _vocab())
        one = semantic_logits(table, MAN, HORSE)
        assert one.shape == (4,)
        assert semantic_logits(table, [MAN], [HORSE]).shape == (1, 4)
        assert semantic_logits(table, [MAN], [HORSE])[0].tobytes() == one.tobytes()
        assert table.probabilities([], []).shape == (0, 4)

    def test_length_mismatch_raises(self):
        table = fit_frequency(_toy_corpus(), _vocab())
        with pytest.raises(ValueError, match="2 subject labels but 1 object labels"):
            semantic_logits(table, [MAN, MAN], [HORSE])
        with pytest.raises(ValueError):
            table.probabilities([MAN], [HORSE, STREET])


class TestSerialization:
    def test_roundtrip(self):
        table = fit_frequency(_toy_corpus(), _vocab())
        again = table_from_json(table_to_json(table))
        assert again.num_predicates == table.num_predicates
        assert again.smoothing == table.smoothing
        assert set(again.counts) == set(table.counts)
        for key in table.counts:
            assert np.array_equal(again.counts[key], table.counts[key])
