"""Scene-graph evaluation: Recall@K, mAP variants, weighted score.

Matching rules, pinned so results are reproducible bit for bit:

- A prediction matches a ground-truth triplet when all three labels agree
  and both boxes overlap their counterparts with IoU >= threshold
  (inclusive). Phrase-mode matching replaces the two box tests with one
  IoU test on the enclosing boxes.
- Matching is greedy in score order; each ground-truth triplet is
  consumed at most once; a prediction takes the first unmatched
  ground-truth entry (annotation order) it can match.
- The graph constraint keeps only the highest-scoring predicate per
  ordered localization pair (same subject box+label and object
  box+label); the variable-k protocol generalizes this to the top k
  predicates per pair, and free-k reports the best fixed k in 1..P.
- Average precision integrates the precision envelope over all recall
  points; predicates without ground truth are excluded from the mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if isinstance(self.k_per_pair, int) and self.k_per_pair < 1:
            raise ValueError("k per pair must be >= 1")
        if isinstance(self.k_per_pair, str) and self.k_per_pair != "free":
            raise ValueError("k per pair must be an integer or 'free'")


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
    return (
        pred.sub_label == gt.sub_label
        and pred.predicate == gt.predicate
        and pred.obj_label == gt.obj_label
        and iou(union_box(pred.sub_box, pred.obj_box), union_box(gt.sub_box, gt.obj_box))
        >= spec.iou_threshold
    )


def _sorted_desc(predictions: list[PredictedTriplet]) -> list[PredictedTriplet]:
    # Stable, so the caller-provided order breaks score ties.
    return sorted(predictions, key=lambda t: -t.score)


def _pair_key(t: PredictedTriplet):
    return (
        t.sub_label,
        t.sub_box.xmin,
        t.sub_box.ymin,
        t.sub_box.xmax,
        t.sub_box.ymax,
        t.obj_label,
        t.obj_box.xmin,
        t.obj_box.ymin,
        t.obj_box.xmax,
        t.obj_box.ymax,
    )


def _per_pair_topk(sorted_preds: list[PredictedTriplet], k: int) -> list[PredictedTriplet]:
    """Keep at most k predicates per ordered localization pair identity."""
    seen: dict[tuple, int] = {}
    kept = []
    for t in sorted_preds:
        key = _pair_key(t)
        count = seen.get(key, 0)
        if count < k:
            kept.append(t)
            seen[key] = count + 1
    return kept


def _greedy_matched(
    preds: list[PredictedTriplet], gts: list[ResolvedTriplet], spec: MatchSpec
) -> int:
    matched = [False] * len(gts)
    hits = 0
    for pred in preds:
        for gi, gt in enumerate(gts):
            if not matched[gi] and triplet_match(pred, gt, spec):
                matched[gi] = True
                hits += 1
                break
    return hits


def _mean_recall(
    predictions: dict[str, list[PredictedTriplet]],
    ground_truth: dict[str, list[ResolvedTriplet]],
    k: int,
    k_per_pair: int | None,
    spec: MatchSpec,
) -> float:
    """Mean per-image recall of the top k, after a per-pair budget unless None."""
    recalls = []
    for image_id, gts in ground_truth.items():
        if not gts:
            continue
        preds = _sorted_desc(predictions.get(image_id, []))
        if k_per_pair is not None:
            preds = _per_pair_topk(preds, k_per_pair)
        recalls.append(_greedy_matched(preds[:k], gts, spec) / len(gts))
    return sum(recalls) / len(recalls) if recalls else 0.0


def recall_at_k(
    predictions: dict[str, list[PredictedTriplet]],
    ground_truth: dict[str, list[ResolvedTriplet]],
    k: int,
    spec: MatchSpec,
) -> float:
    """Mean per-image fraction of ground-truth triplets found in the top k."""
    if k <= 0:
        raise ValueError("k must be positive")
    return _mean_recall(
        predictions, ground_truth, k, 1 if spec.graph_constraint else None, spec
    )


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
    best, treating the budget as a tunable hyperparameter.
    """
    if k_per_pair == "free":
        if num_predicates is None:
            num_predicates = max(
                (t.predicate for preds in predictions.values() for t in preds),
                default=1,
            )
        return max(
            vrd_recall(predictions, ground_truth, k, budget, spec)
            for budget in range(1, num_predicates + 1)
        )
    if not isinstance(k_per_pair, int) or k_per_pair < 1:
        raise ValueError(f"k_per_pair must be a positive integer or 'free', got {k_per_pair!r}")
    return _mean_recall(predictions, ground_truth, k, k_per_pair, spec)


def average_precision(
    predictions: dict[str, list[PredictedTriplet]],
    ground_truth: dict[str, list[ResolvedTriplet]],
    predicate: int,
    box_mode: str,
    spec: MatchSpec,
) -> float | None:
    """All-points-interpolated AP for one predicate, pooled over images.

    ``box_mode`` is "rel" (both boxes must match) or "phr" (the union
    boxes must match). Returns None when the predicate has no ground
    truth.
    """
    if box_mode not in ("rel", "phr"):
        raise ValueError(f"box_mode must be 'rel' or 'phr', got {box_mode!r}")
    match = triplet_match if box_mode == "rel" else _phrase_match

    gt_lists = {
        image_id: [g for g in gts if g.predicate == predicate]
        for image_id, gts in ground_truth.items()
    }
    npos = sum(len(g) for g in gt_lists.values())
    if npos == 0:
        return None

    pooled: list[tuple[str, PredictedTriplet]] = []
    for image_id in ground_truth:
        for t in predictions.get(image_id, []):
            if t.predicate == predicate:
                pooled.append((image_id, t))
    pooled.sort(key=lambda it: -it[1].score)

    matched = {image_id: [False] * len(gts) for image_id, gts in gt_lists.items()}
    tps = []
    for image_id, pred in pooled:
        hit = False
        for gi, gt in enumerate(gt_lists[image_id]):
            if not matched[image_id][gi] and match(pred, gt, spec):
                matched[image_id][gi] = True
                hit = True
                break
        tps.append(hit)

    # Precision envelope over all recall points.
    mrec = [0.0]
    mpre = [0.0]
    tp = 0
    for rank, hit in enumerate(tps, start=1):
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


def mean_average_precision(
    predictions: dict[str, list[PredictedTriplet]],
    ground_truth: dict[str, list[ResolvedTriplet]],
    num_predicates: int,
    box_mode: str,
    spec: MatchSpec,
) -> tuple[float, dict[int, float]]:
    """Mean AP over predicates with ground truth, plus the per-predicate table."""
    per_predicate = {}
    for p in range(1, num_predicates + 1):
        ap = average_precision(predictions, ground_truth, p, box_mode, spec)
        if ap is not None:
            per_predicate[p] = ap
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

    def to_json(self, vocab: Vocabulary | None = None) -> dict:
        name = (lambda p: vocab.predicates[p]) if vocab else str
        return {
            "mode": self.mode,
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
            "map_rel": self.map_rel,
            "map_phr": self.map_phr,
            "oi_score": self.oi_score,
            "ap_rel": {name(p): v for p, v in sorted(self.ap_rel.items())},
            "ap_phr": {name(p): v for p, v in sorted(self.ap_phr.items())},
        }

    def format_table(self, vocab: Vocabulary | None = None) -> str:
        lines = [f"mode: {self.mode}"]
        for k, v in sorted(self.recall_at.items()):
            lines.append(f"  R@{k:<4d} {100 * v:7.2f}")
        lines.append(f"  mAP_rel {100 * self.map_rel:6.2f}")
        lines.append(f"  mAP_phr {100 * self.map_phr:6.2f}")
        lines.append(f"  score   {100 * self.oi_score:6.2f}")
        if self.ap_rel:
            lines.append("  per-predicate AP (rel / phr):")
            for p in sorted(self.ap_rel):
                name = vocab.predicates[p] if vocab else f"predicate {p}"
                phr = self.ap_phr.get(p, 0.0)
                lines.append(f"    {name:<20s} {100 * self.ap_rel[p]:6.2f} {100 * phr:6.2f}")
        return "\n".join(lines)


def evaluate(
    predictions: dict[str, list[PredictedTriplet]],
    dataset: list[ImageRecord],
    vocab: Vocabulary,
    mode: str = "sgdet",
    spec: MatchSpec = MatchSpec(),
    ks: tuple[int, ...] = (20, 50, 100),
) -> EvalReport:
    """Score a prediction set against a dataset's ground truth."""
    known = {r.image_id for r in dataset}
    unknown = set(predictions) - known
    if unknown:
        raise DataError(f"predictions reference unknown image ids: {sorted(unknown)[:5]}")

    ground_truth = {r.image_id: r.resolved_triplets() for r in dataset}
    preds = {image_id: predictions.get(image_id, []) for image_id in ground_truth}

    recall_ks = tuple(ks) if 50 in ks else tuple(ks) + (50,)
    recall = {}
    for k in recall_ks:
        if spec.k_per_pair is None:
            recall[k] = recall_at_k(preds, ground_truth, k, spec)
        else:
            recall[k] = vrd_recall(
                preds, ground_truth, k, spec.k_per_pair, spec, vocab.num_predicates
            )

    map_rel, ap_rel = mean_average_precision(
        preds, ground_truth, vocab.num_predicates, "rel", spec
    )
    map_phr, ap_phr = mean_average_precision(
        preds, ground_truth, vocab.num_predicates, "phr", spec
    )
    score = oi_score(100 * recall[50], 100 * map_rel, 100 * map_phr) / 100.0
    return EvalReport(
        mode=mode,
        recall_at={k: recall[k] for k in ks},
        map_rel=map_rel,
        map_phr=map_phr,
        oi_score=score,
        ap_rel=ap_rel,
        ap_phr=ap_phr,
    )
