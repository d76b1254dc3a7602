"""Frequency-baseline branch.

Counts how often each predicate occurs for a given (subject class, object
class) pair over the training annotations and emits the smoothed
log-probabilities as frozen logits. Only annotated object classes ever
appear as keys, and the no-relationship slot (index 0) receives pseudo
counts only: annotations contain positive relationships exclusively, and
the trainable branches learn a residual on top of this prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import DataError, ImageRecord, Vocabulary


@dataclass
class FrequencyTable:
    """Empirical predicate counts per (subject class, object class)."""

    num_predicates: int
    smoothing: float = 1.0
    counts: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.smoothing <= 0:
            raise ValueError("smoothing must be positive")

    def probabilities(self, sub_label: int, obj_label: int) -> np.ndarray:
        """Smoothed conditional distribution over the P+1 predicate slots."""
        size = self.num_predicates + 1
        counts = self.counts.get((sub_label, obj_label))
        if counts is None:
            counts = np.zeros(size)
        total = counts.sum()
        return (counts + self.smoothing) / (total + size * self.smoothing)


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
    return table


def semantic_logits(table: FrequencyTable, sub_label: int, obj_label: int) -> np.ndarray:
    """Smoothed log p(predicate | sub class, obj class), length P+1.

    Unseen class pairs fall out as the uniform log 1/(P+1).
    """
    return np.log(table.probabilities(sub_label, obj_label))


def table_to_json(table: FrequencyTable) -> dict:
    entries = [
        [s, o, counts.tolist()] for (s, o), counts in sorted(table.counts.items())
    ]
    return {
        "num_predicates": table.num_predicates,
        "smoothing": table.smoothing,
        "entries": entries,
    }


def table_from_json(raw: dict) -> FrequencyTable:
    """Inverse of :func:`table_to_json`; malformed input is a DataError."""
    try:
        table = FrequencyTable(
            num_predicates=int(raw["num_predicates"]), smoothing=float(raw["smoothing"])
        )
        for s, o, counts in raw["entries"]:
            table.counts[(int(s), int(o))] = np.asarray(counts, dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(str(exc)) from None
    size = table.num_predicates + 1
    if any(counts.shape != (size,) for counts in table.counts.values()):
        raise DataError(f"every entry needs {size} predicate counts")
    return table
