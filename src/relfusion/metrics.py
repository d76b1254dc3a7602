"""Scene-graph evaluation: Recall@K, mAP variants, weighted score.

Matching rules, pinned so results are reproducible bit for bit:

- A prediction matches a ground-truth triplet when all three labels agree
  and both boxes overlap their counterparts with IoU >= threshold
  (inclusive). Phrase-mode matching replaces the two box tests with one
  IoU test on the enclosing boxes.
- One greedy matcher serves R@K, free-k and both AP box modes: in score
  order (stable), each prediction takes the first unmatched ground-truth
  entry with its three labels (annotation order) it can match, and
  consumes that entry. One pass ranks each image once, matches it once
  per AP box mode and once per distinct list a per-pair budget keeps,
  and reads every R@k off that list's match.
- The variable-k protocol keeps the top k predicates per ordered
  localization pair (same subject box+label and object box+label);
  free-k reports the best fixed k in 1..P. The graph constraint is the
  per-pair budget 1, so it takes no other budget.
- Average precision integrates the precision envelope over all recall
  points; predicates without ground truth are excluded from the mean.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from .datamodel import (
    DataError,
    ImageRecord,
    PredictedTriplet,
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
            raise ValueError("iou threshold must be in (0, 1]")
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


def _phrase_match(pred: PredictedTriplet, gt: ResolvedTriplet, spec: MatchSpec) -> bool:
    """IoU of the enclosing boxes; ``_greedy_hits`` only offers same-label ground truth."""
    union = union_box(gt.sub_box, gt.obj_box)
    return iou(union_box(pred.sub_box, pred.obj_box), union) >= spec.iou_threshold


def _greedy_hits(
    preds: list[PredictedTriplet], gts: list[ResolvedTriplet], match, spec: MatchSpec
) -> list[bool]:
    """Per ranked prediction: did it consume a still-unmatched ground-truth entry.

    Only ground truth with the prediction's three labels can match it, so
    each prediction tries just that label's unmatched entries, in
    annotation order.
    """
    unmatched: dict[tuple[int, int, int], list[ResolvedTriplet]] = {}
    for gt in gts:
        unmatched.setdefault((gt.sub_label, gt.predicate, gt.obj_label), []).append(gt)
    hits = [False] * len(preds)
    for pi, pred in enumerate(preds):
        candidates = unmatched.get((pred.sub_label, pred.predicate, pred.obj_label), ())
        for gi, gt in enumerate(candidates):
            if match(pred, gt, spec):
                del candidates[gi]
                hits[pi] = True
                break
    return hits


def _pair_ranks(ranked: list[PredictedTriplet]) -> list[int]:
    """Per prediction: how many earlier ones share its localization pair."""
    seen: dict[tuple, int] = {}
    ranks = []
    for t in ranked:
        s, o = t.sub_box, t.obj_box
        pair = (t.sub_label, s.xmin, s.ymin, s.xmax, s.ymax,
                t.obj_label, o.xmin, o.ymin, o.xmax, o.ymax)
        ranks.append(seen.get(pair, 0))
        seen[pair] = ranks[-1] + 1
    return ranks


def _average_precision(hits: list[tuple[float, bool]], npos: int) -> float:
    """All-points-interpolated AP of one predicate's pooled (score, hit) pairs."""
    hits.sort(key=lambda it: -it[0])
    mrec, mpre, tp = [0.0], [0.0], 0
    for rank, (_, hit) in enumerate(hits, start=1):
        tp += 1 if hit else 0
        mrec.append(tp / npos)
        mpre.append(tp / rank)
    mrec.append(1.0)
    mpre.append(0.0)
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    ap = 0.0
    for i in range(len(mrec) - 1):
        if mrec[i + 1] != mrec[i]:
            ap += (mrec[i + 1] - mrec[i]) * mpre[i + 1]
    return ap


def _one_pass(
    predictions: dict[str, list[PredictedTriplet]],
    ground_truth: dict[str, list[ResolvedTriplet]],
    ks: tuple[int, ...],
    box_modes: tuple[str, ...],
    spec: MatchSpec,
    num_predicates: int | None = None,
) -> tuple[dict[int, float], dict[str, dict[int, float]]]:
    """Mean recall per k under the spec's budgets, and each box mode's AP table.

    The budget rule: the graph constraint is the budget 1, an integer k per pair or
    None (keep all) is used as is, and "free" sweeps 1..``num_predicates``, each k
    taking its best. Budget b keeps the predictions whose pair rank is below b. Kept
    lists grow with b, so each image is sorted once and each distinct length is matched
    once, down to ``max(ks)``: the matcher walks a list in order, so its first k hits
    ignore what follows. The whole ranking's rel match also serves mAP_rel. AP pools
    each prediction's (score, hit) under its predicate, which equals matching that
    predicate's predictions alone; it applies no budget.
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
    pooled = {mode: {p: [] for p in npos} for mode in box_modes}
    per_image: list[list[list[float]]] = [[[] for _ in ks] for _ in budgets]
    for image_id, gts in ground_truth.items():
        # Stable, so the caller-provided order breaks score ties.
        ranked = sorted(predictions.get(image_id, []), key=lambda t: -t.score)
        matches: dict[tuple[str, int], list[bool]] = {}  # (box mode, list length) -> hits
        for mode in box_modes:
            match = triplet_match if mode == "rel" else _phrase_match
            hits = matches[mode, len(ranked)] = _greedy_hits(ranked, gts, match, spec)
            for t, hit in zip(ranked, hits):
                if t.predicate in pooled[mode]:
                    pooled[mode][t.predicate].append((t.score, hit))
        if not (gts and ks):
            continue
        ranks = _pair_ranks(ranked) if any(b is not None for b in budgets) else []
        for recalls, budget in zip(per_image, budgets):
            kept = ranked if budget is None else [t for t, r in zip(ranked, ranks) if r < budget]
            if ("rel", len(kept)) not in matches:
                matches["rel", len(kept)] = _greedy_hits(kept[: max(ks)], gts, triplet_match, spec)
            for out, k in zip(recalls, ks):
                out.append(sum(matches["rel", len(kept)][:k]) / len(gts))
    means = [[sum(r) / len(r) if r else 0.0 for r in recalls] for recalls in per_image]
    return {k: max(m[i] for m in means) for i, k in enumerate(ks)}, {
        mode: {p: _average_precision(hits, npos[p]) for p, hits in table.items()}
        for mode, table in pooled.items()
    }


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
    mean = sum(per_predicate.values()) / len(per_predicate) if per_predicate else 0.0
    return mean, per_predicate


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
        for i, t in enumerate(triplets):
            if not (0 <= t.sub_label < classes and 0 <= t.obj_label < classes
                    and 1 <= t.predicate <= num_predicates):
                raise DataError(
                    f"image {image_id!r} triplet {i}: labels ({t.sub_label}, {t.predicate}, "
                    f"{t.obj_label}) outside object classes 0..{classes - 1} and "
                    f"predicates 1..{num_predicates}"
                )

    ground_truth = {r.image_id: r.resolved_triplets() for r in dataset}

    ks, modes = (20, 50, 100), ("rel", "phr")
    recall, tables = _one_pass(predictions, ground_truth, ks, modes, spec, num_predicates)
    map_rel, ap_rel = _mean_ap(tables["rel"], num_predicates)
    map_phr, ap_phr = _mean_ap(tables["phr"], num_predicates)
    score = oi_score(100 * recall[50], 100 * map_rel, 100 * map_phr) / 100.0
    return EvalReport(mode=mode, recall_at=recall, map_rel=map_rel, map_phr=map_phr,
                      oi_score=score, ap_rel=ap_rel, ap_phr=ap_phr)
