"""Frequency-baseline branch.

Counts how often each predicate occurs for a given (subject class, object
class) pair over the training annotations and emits the smoothed
log-probabilities as frozen logits. Only annotated object classes ever
appear as keys, and the no-relationship slot (index 0) receives pseudo
counts only: annotations contain positive relationships exclusively, and
the trainable branches learn a residual on top of this prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datamodel import DataError, ImageRecord, Vocabulary, is_list_of, json_number


def _smoothed(counts: np.ndarray, smoothing: float) -> np.ndarray:
    """(counts + s) / (total + (P+1)·s) along the last axis of int64 counts."""
    total = counts.sum(axis=-1, keepdims=True)
    return (counts + smoothing) / (total + counts.shape[-1] * smoothing)


@dataclass
class FrequencyTable:
    """Empirical predicate counts per (subject class, object class)."""

    num_predicates: int
    smoothing: float = 1.0
    counts: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 < self.smoothing < math.inf:
            raise ValueError("smoothing must be finite and positive")

    def probabilities(self, sub_labels, obj_labels) -> np.ndarray:
        """Smoothed distribution over the P+1 predicate slots: (P+1,) for one class pair,
        (N, P+1) for two equal-length label sequences, each row with the same bits."""
        scalar = np.ndim(sub_labels) == np.ndim(obj_labels) == 0
        subs, objs = ([sub_labels], [obj_labels]) if scalar else (sub_labels, obj_labels)
        if len(subs) != len(objs):
            raise ValueError(f"{len(subs)} subject labels but {len(objs)} object labels")
        zeros = np.zeros(self.num_predicates + 1, dtype=np.int64)
        rows = np.array([self.counts.get(key, zeros) for key in zip(subs, objs)], dtype=np.int64)
        probs = _smoothed(rows.reshape(len(subs), len(zeros)), self.smoothing)
        return probs[0] if scalar else probs

    def rows_defined(self) -> bool:
        """Whether :meth:`probabilities` is finite and positive on every row, unseen pairs' too."""
        rows = np.array([[0] * (self.num_predicates + 1), *self.counts.values()], dtype=np.int64)
        probs = _smoothed(rows, self.smoothing)
        return bool(np.all(np.isfinite(probs) & (probs > 0.0)))


def fit_frequency(
    dataset: list[ImageRecord], vocab: Vocabulary, smoothing: float = 1.0
) -> FrequencyTable:
    """Count ground-truth predicate occurrences per class pair."""
    table = FrequencyTable(num_predicates=vocab.num_predicates, smoothing=smoothing)
    size = vocab.num_predicates + 1
    for record in dataset:
        for sub_idx, pred, obj_idx in record.gt_triplets:
            if pred < 1:
                raise ValueError(
                    f"image {record.image_id!r}: ground-truth predicate id {pred} "
                    "is the no-relationship class"
                )
            key = (record.gt_boxes[sub_idx].label, record.gt_boxes[obj_idx].label)
            counts = table.counts.get(key)
            if counts is None:
                counts = np.zeros(size, dtype=np.int64)
                table.counts[key] = counts
            counts[pred] += 1
    if not table.rows_defined():
        raise ValueError(f"smoothing {smoothing!r} leaves a prior row with a zero or non-finite "
                         "probability")
    return table


def semantic_logits(table: FrequencyTable, sub_labels, obj_labels) -> np.ndarray:
    """Smoothed log p(predicate | sub class, obj class): (P+1,) for one class
    pair, (N, P+1) for two equal-length label sequences.

    Unseen class pairs fall out as the uniform log 1/(P+1).
    """
    return np.log(table.probabilities(sub_labels, obj_labels))


def table_to_json(table: FrequencyTable) -> dict:
    entries = [
        [s, o, counts.tolist()] for (s, o), counts in sorted(table.counts.items())
    ]
    return {
        "num_predicates": table.num_predicates,
        "smoothing": table.smoothing,
        "entries": entries,
    }


def table_from_json(raw) -> FrequencyTable:
    """Inverse of :func:`table_to_json`; malformed input is a DataError."""
    if type(raw) is not dict:
        raise DataError("expected a JSON object")
    try:
        num_predicates, smoothing = raw["num_predicates"], raw["smoothing"]
        entries = raw["entries"]
    except KeyError as exc:
        raise DataError(f"missing key {exc}") from None
    if type(num_predicates) is not int or num_predicates < 1:
        raise DataError(f"num_predicates must be a positive integer, got {num_predicates!r}")
    value = json_number(smoothing)
    if value is None or value <= 0:
        raise DataError(f"smoothing must be a finite positive number, got {smoothing!r:.40}")
    if not is_list_of(entries, list):
        raise DataError("entries must be a list of [subject, object, counts] lists")
    table = FrequencyTable(num_predicates=num_predicates, smoothing=value)
    size = num_predicates + 1
    pair_entries: dict[tuple[int, int], int] = {}
    for k, entry in enumerate(entries):
        if len(entry) != 3 or not is_list_of(entry[:2], int) or min(entry[:2]) < 0:
            raise DataError(f"entry {k}: expected [subject, object, counts] with class ids >= 0")
        s, o, counts = entry
        if (first := pair_entries.setdefault((s, o), k)) != k:
            raise DataError(f"entry {k}: repeats entry {first}'s class pair ({s}, {o})")
        if not is_list_of(counts, int) or len(counts) != size:
            raise DataError(f"entry {k}: counts must be a list of {size} JSON integers")
        # A row's total must fit the int64 counts.
        if min(counts) < 0 or sum(counts) >= 2**63:
            raise DataError(f"entry {k}: counts must be >= 0, with a total below 2**63")
        table.counts[(s, o)] = np.array(counts, dtype=np.int64)
    if not table.rows_defined():
        raise DataError(f"smoothing {smoothing!r:.40} leaves a prior row with a zero or "
                        "non-finite probability")
    return table
