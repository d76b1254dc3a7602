"""Scene-graph evaluation: Recall@K, mAP variants, weighted score.

Matching rules, pinned so results are reproducible bit for bit:

- A prediction matches a ground-truth triplet when all three labels agree
  and both boxes overlap their counterparts with IoU >= threshold
  (inclusive). Phrase-mode matching replaces the two box tests with one
  IoU test on the enclosing boxes.
- One greedy matcher serves R@K, free-k and both AP box modes: in score
  order (stable), each prediction takes the first unmatched ground-truth
  entry with its three labels (annotation order) it can match, and
  consumes that entry. One pass ranks each image once and reads every
  R@k off the match of the list a per-pair budget keeps.
- The variable-k protocol keeps the top k predicates per ordered
  localization pair (same subject box+label and object box+label);
  free-k reports the best fixed k in 1..P. The graph constraint is the
  per-pair budget 1, so it takes no other budget.
- Average precision integrates the precision envelope over all recall
  points; predicates without ground truth are excluded from the mean.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from .datamodel import (
    DataError,
    ImageRecord,
    PredictedTriplet,
    Ranking,
    ResolvedTriplet,
    Vocabulary,
    iou,
    union_box,
)


@dataclass(frozen=True)
class MatchSpec:
    """Evaluation knobs: IoU threshold, graph constraint, per-pair budget."""

    iou_threshold: float = 0.5
    graph_constraint: bool = False
    k_per_pair: int | str | None = None  # positive int, "free", or None

    def __post_init__(self):
        if not (0.0 < self.iou_threshold <= 1.0):
            raise ValueError(f"iou threshold must be in (0, 1], got {self.iou_threshold!r}")
        k = self.k_per_pair
        if not (k is None or k == "free" or (type(k) is int and k >= 1)):
            raise ValueError(f"k per pair must be a positive integer or 'free', got {k!r}")
        if self.graph_constraint and k is not None:
            raise ValueError("the graph constraint is the per-pair budget 1; set no k per pair")


def triplet_match(pred: PredictedTriplet, gt: ResolvedTriplet, spec: MatchSpec) -> bool:
    """Label equality on all three slots plus IoU on both boxes."""
    return (
        pred.sub_label == gt.sub_label
        and pred.predicate == gt.predicate
        and pred.obj_label == gt.obj_label
        and iou(pred.sub_box, gt.sub_box) >= spec.iou_threshold
        and iou(pred.obj_box, gt.obj_box) >= spec.iou_threshold
    )


def _phrase_test(r: Ranking, gts: list[ResolvedTriplet], spec: MatchSpec):
    """Phrase mode's test of (rank, gt index): IoU of the enclosing boxes, each built once."""
    pred_union = functools.cache(lambda i: union_box(r.boxes[r.sub[i]], r.boxes[r.obj[i]]))
    gt_union = functools.cache(lambda g: union_box(gts[g].sub_box, gts[g].obj_box))
    return lambda i, g: iou(pred_union(i), gt_union(g)) >= spec.iou_threshold


def _walk(candidates: list[tuple[int, int, list[int]]], test) -> list[int]:
    """The list positions of one ranked list's greedy hits, ascending.

    ``candidates`` holds (list position, rank, indices of the gts with its three labels)
    in list order. Each takes the first unmatched gt, in annotation order, that
    ``test(rank, gt index)`` passes.
    """
    taken: set[int] = set()
    hits = []
    for pos, i, options in candidates:
        for g in options:
            if g not in taken and test(i, g):
                taken.add(g)
                hits.append(pos)
                break
    return hits


def _pair_ranks(ranked: Ranking) -> list[int]:
    """Per prediction: how many earlier ones share its pair of detection (label, box) ids."""
    ids: dict[tuple, int] = {}
    det = [ids.setdefault((label, b.xmin, b.ymin, b.xmax, b.ymax), len(ids))
           for b, label in zip(ranked.boxes, ranked.labels)]
    pairs = zip(map(det.__getitem__, ranked.sub), map(det.__getitem__, ranked.obj))
    counts = defaultdict(itertools.count)  # per pair, the pair rank of its next prediction
    return list(map(next, map(counts.__getitem__, pairs)))


def _average_precision(scores: np.ndarray, hit: np.ndarray, npos: int) -> float:
    """All-points-interpolated AP of one predicate's pooled scores and hit flags.

    Recall moves only at a hit, and its last step, to 1, meets an envelope of 0.0, so
    the fold over the hits adds the terms of a fold over all recall points, in order.
    """
    hit = hit[np.argsort(-scores, kind="stable")]
    tp = np.cumsum(hit)
    envelope = np.maximum.accumulate((tp / np.arange(1, len(tp) + 1))[::-1])[::-1]
    at = np.flatnonzero(hit)
    steps = np.diff(tp[at] / npos, prepend=0.0) * envelope[at]
    return functools.reduce(operator.add, steps.tolist(), 0.0)


def _one_pass(
    predictions: dict[str, list[PredictedTriplet]],
    ground_truth: dict[str, list[ResolvedTriplet]],
    ks: tuple[int, ...],
    box_modes: tuple[str, ...],
    spec: MatchSpec,
    num_predicates: int | None = None,
) -> tuple[dict[int, float], dict[str, dict[int, float]]]:
    """Mean recall per k under the spec's budgets, and each box mode's AP table.

    The budget rule: the graph constraint is the budget 1, an integer k per pair or None (keep
    all) is used as is, and "free" sweeps 1..``num_predicates``, each k taking its best. Budget
    b keeps the predictions whose pair rank is below b, so it cuts an image's ranking only if a
    pair rank reaches b. Each image's columns are put in score order and its ground truth
    indexed by label triple once; walks visit only the candidates, the predictions whose labels
    have ground truth, and a rel test builds (``preds[i]``) a candidate's triplet once. The
    ranking is walked once per box mode. One loop reads each budget's recalls: a budget that
    cuts nothing reuses the rel walk (recall alone walks it only below ``max(ks)``), one that
    cuts walks its first ``max(ks)`` kept predictions; a walk goes in order, so its first k hits
    ignore what follows. The rel walks share one verdict per (prediction, gt) pair. AP pools
    scores and hits per predicate, as matching each alone would; no budget.
    """
    if any(k <= 0 for k in ks):
        raise ValueError("k must be positive")
    for mode in box_modes:
        if mode not in ("rel", "phr"):
            raise ValueError(f"box_mode must be 'rel' or 'phr', got {mode!r}")
    budgets = [1 if spec.graph_constraint else spec.k_per_pair]
    if spec.k_per_pair == "free" and ks:
        if num_predicates is None:
            raise ValueError("k_per_pair='free' needs num_predicates")
        budgets = list(range(1, num_predicates + 1))
    npos = Counter(g.predicate for gts in ground_truth.values() for g in gts)
    predicates, scores = [], []  # every image's ranked columns, in turn; hits index them
    pooled_hits: dict[str, list[int]] = {mode: [] for mode in box_modes}
    per_image: list[list[list[float]]] = [[[] for _ in ks] for _ in budgets]
    for image_id, gts in ground_truth.items():
        preds = predictions.get(image_id, [])
        r = Ranking.of(preds)
        # Stable, reversed too, so the caller-provided order breaks score ties.
        order = sorted(range(len(r)), key=r.scores.__getitem__, reverse=True)
        columns = Ranking(r.boxes, r.labels, *(list(map(c.__getitem__, order))
                                               for c in (r.sub, r.obj, r.predicates, r.scores)))
        index: dict[tuple[int, int, int], list[int]] = {}
        for g, gt in enumerate(gts):
            index.setdefault((gt.sub_label, gt.predicate, gt.obj_label), []).append(g)
        labels = columns.labels.__getitem__
        options = list(map(index.get, zip(map(labels, columns.sub), columns.predicates,
                                          map(labels, columns.obj))))
        candidates = [(i, i, o) for i, o in enumerate(options) if o]
        ranks = _pair_ranks(columns) if ks and gts and budgets != [None] else []
        top = max(ranks, default=0)  # a budget cuts the ranking only if it is at most this
        ranked = functools.cache(lambda i: preds[order[i]])  # a rel candidate's triplet
        rel = functools.cache(lambda i, g: triplet_match(ranked(i), gts[g], spec))
        walks: dict[str, list[int]] = {}
        for mode in box_modes:
            test = rel if mode == "rel" else _phrase_test(columns, gts, spec)
            walks[mode] = _walk(candidates, test)
            pooled_hits[mode] += [len(scores) + pos for pos in walks[mode]]
        predicates += columns.predicates
        scores += columns.scores
        if not (gts and ks):
            continue
        for recalls, b in zip(per_image, budgets):
            if b is not None and b <= top:  # b's first max(ks) kept, each at its list position
                kept = itertools.islice((i for i, r in enumerate(ranks) if r < b), max(ks))
                hits = _walk([(j, i, options[i]) for j, i in enumerate(kept) if options[i]], rel)
            elif "rel" in walks:
                hits = walks["rel"]
            else:  # recall alone reads no hit past max(ks)
                below = bisect.bisect_left(candidates, max(ks), key=operator.itemgetter(0))
                hits = walks["rel"] = _walk(candidates[:below], rel)
            for out, k in zip(recalls, ks):
                out.append(bisect.bisect_left(hits, k) / len(gts))
    means = [[_mean(r) for r in recalls] for recalls in per_image]
    pooled, scores = np.array(predicates, dtype=np.int64), np.array(scores, dtype=float)
    rows = {p: pooled == p for p in npos}
    tables = {}
    for mode, hit_rows in pooled_hits.items():
        hit = np.zeros(len(scores), dtype=bool)
        hit[hit_rows] = True
        tables[mode] = {p: _average_precision(scores[r], hit[r], npos[p]) for p, r in rows.items()}
    return {k: max(m[i] for m in means) for i, k in enumerate(ks)}, tables


def recall_at_k(
    predictions: dict[str, list[PredictedTriplet]],
    ground_truth: dict[str, list[ResolvedTriplet]],
    k: int,
    spec: MatchSpec,
) -> float:
    """Mean per-image fraction of ground-truth triplets found in the top k."""
    if spec.k_per_pair is not None:
        raise ValueError("recall_at_k applies no k per pair; vrd_recall does")
    return _one_pass(predictions, ground_truth, (k,), (), spec)[0][k]


def vrd_recall(
    predictions: dict[str, list[PredictedTriplet]],
    ground_truth: dict[str, list[ResolvedTriplet]],
    k: int,
    k_per_pair: int | str,
    spec: MatchSpec,
    num_predicates: int | None = None,
) -> float:
    """Recall@k with a per-pair candidate budget applied before top-k.

    ``k_per_pair="free"`` sweeps every budget in 1..P and reports the
    best (P = ``num_predicates``), treating the budget as a tunable
    hyperparameter. A spec that sets another k per pair is an error.
    """
    if spec.graph_constraint:  # the budget 1
        raise ValueError("vrd_recall takes its budget as k_per_pair, not as the graph constraint")
    if spec.k_per_pair not in (None, k_per_pair):
        raise ValueError(f"k_per_pair {k_per_pair!r} differs from the spec's {spec.k_per_pair!r}")
    spec = replace(spec, k_per_pair=k_per_pair)
    return _one_pass(predictions, ground_truth, (k,), (), spec, num_predicates)[0][k]


def average_precision(
    predictions: dict[str, list[PredictedTriplet]],
    ground_truth: dict[str, list[ResolvedTriplet]],
    predicate: int,
    box_mode: str,
    spec: MatchSpec,
) -> float | None:
    """AP for one predicate, pooled over images.

    ``box_mode`` is "rel" (both boxes must match) or "phr" (the union
    boxes must match). Returns None when the predicate has no ground
    truth.
    """
    table = _one_pass(predictions, ground_truth, (), (box_mode,), spec)[1][box_mode]
    return table.get(predicate)


def mean_average_precision(
    predictions: dict[str, list[PredictedTriplet]],
    ground_truth: dict[str, list[ResolvedTriplet]],
    num_predicates: int,
    box_mode: str,
    spec: MatchSpec,
) -> tuple[float, dict[int, float]]:
    """Mean AP over predicates with ground truth, plus the per-predicate table."""
    table = _one_pass(predictions, ground_truth, (), (box_mode,), spec)[1][box_mode]
    return _mean_ap(table, num_predicates)


def _mean_ap(table: dict[int, float], num_predicates: int) -> tuple[float, dict[int, float]]:
    per_predicate = {p: table[p] for p in range(1, num_predicates + 1) if p in table}
    return _mean(list(per_predicate.values())), per_predicate


def _mean(values: list[float]) -> float:
    """The mean by a left fold of ``+`` (0.0 of none), so the same bits on every Python:
    from 3.12 on, builtin ``sum()`` adds floats with compensated summation."""
    return functools.reduce(operator.add, values, 0.0) / len(values) if values else 0.0


def oi_score(r50: float, map_rel: float, map_phr: float) -> float:
    """Challenge score: 0.2*R@50 + 0.4*mAP_rel + 0.4*mAP_phr (percent scale)."""
    return 0.2 * r50 + 0.4 * map_rel + 0.4 * map_phr


@dataclass
class EvalReport:
    """Full evaluation output; values stored in [0, 1], displayed x100."""

    mode: str
    recall_at: dict[int, float]
    map_rel: float
    map_phr: float
    oi_score: float
    ap_rel: dict[int, float] = field(default_factory=dict)
    ap_phr: dict[int, float] = field(default_factory=dict)

    def to_json(self, vocab: Vocabulary) -> dict:
        names = vocab.predicates
        return {
            "mode": self.mode,
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
            "map_rel": self.map_rel,
            "map_phr": self.map_phr,
            "oi_score": self.oi_score,
            "ap_rel": {names[p]: v for p, v in sorted(self.ap_rel.items())},
            "ap_phr": {names[p]: v for p, v in sorted(self.ap_phr.items())},
        }

    def format_table(self, vocab: Vocabulary) -> str:
        lines = [f"mode: {self.mode}"]
        for k, v in sorted(self.recall_at.items()):
            lines.append(f"  R@{k:<4d} {100 * v:7.2f}")
        lines.append(f"  mAP_rel {100 * self.map_rel:6.2f}")
        lines.append(f"  mAP_phr {100 * self.map_phr:6.2f}")
        lines.append(f"  score   {100 * self.oi_score:6.2f}")
        if self.ap_rel:
            lines.append("  per-predicate AP (rel / phr):")
            for p in sorted(self.ap_rel):
                name = vocab.predicates[p]
                phr = self.ap_phr.get(p, 0.0)
                lines.append(f"    {name:<20s} {100 * self.ap_rel[p]:6.2f} {100 * phr:6.2f}")
        return "\n".join(lines)


def evaluate(
    predictions: dict[str, list[PredictedTriplet]],
    dataset: list[ImageRecord],
    vocab: Vocabulary,
    mode: str = "sgdet",
    spec: MatchSpec = MatchSpec(),
) -> EvalReport:
    """Score a prediction set against a dataset's ground truth, with R@{20, 50, 100}."""
    known = {r.image_id for r in dataset}
    unknown = set(predictions) - known
    if unknown:
        raise DataError(f"predictions reference unknown image ids: {sorted(unknown)[:5]}")
    classes, num_predicates = len(vocab.object_classes), vocab.num_predicates
    for image_id, triplets in predictions.items():
        r = Ranking.of(triplets)
        if r.predicates and not (0 <= min(r.labels) <= max(r.labels) < classes
                                 and 1 <= min(r.predicates) <= max(r.predicates) <= num_predicates):
            for i, t in enumerate(triplets):  # walked only to name the first bad triplet
                if not (0 <= t.sub_label < classes and 0 <= t.obj_label < classes
                        and 1 <= t.predicate <= num_predicates):
                    raise DataError(f"image {image_id!r} triplet {i}: labels ({t.sub_label}, "
                                    f"{t.predicate}, {t.obj_label}) outside object classes "
                                    f"0..{classes - 1} and predicates 1..{num_predicates}")

    ground_truth = {r.image_id: r.resolved_triplets() for r in dataset}

    ks, modes = (20, 50, 100), ("rel", "phr")
    recall, tables = _one_pass(predictions, ground_truth, ks, modes, spec, num_predicates)
    map_rel, ap_rel = _mean_ap(tables["rel"], num_predicates)
    map_phr, ap_phr = _mean_ap(tables["phr"], num_predicates)
    score = oi_score(100 * recall[50], 100 * map_rel, 100 * map_phr) / 100.0
    return EvalReport(mode=mode, recall_at=recall, map_rel=map_rel, map_phr=map_phr,
                      oi_score=score, ap_rel=ap_rel, ap_phr=ap_phr)
