"""Late-fusion relationship model: branch assembly, training, prediction.

Each enabled branch maps a detection pair to a (P+1)-vector of predicate
logits; the fused score is their elementwise sum, normalized by softmax
at the end. The frequency branch is frozen; the spatial MLP and visual
heads train against softmax cross-entropy where matched ground-truth
triplets provide positive labels and sampled unmatched pairs carry the
no-relationship class.

A branch is defined in one place, the :data:`BRANCHES` table: the
per-pair inputs it reads, its forward and backward pass and its
parameters. The table's order is both the summation order of the fused
logits and the order of :func:`trainable_params`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, astuple, dataclass, replace
from typing import Callable

import numpy as np

from .datamodel import (
    Box,
    DataError,
    Detection,
    ImageRecord,
    PredictedTriplet,
    Vocabulary,
    atomic_write_text,
    iou,
)
from . import numcore
from .numcore import Mlp, NumericError, OptimizerState, forward, layer_forward, sgd_step, softmax
from .semantic import FrequencyTable, semantic_logits, table_from_json, table_to_json
from .spatial import spatial_feature
from .visual import (
    AttributeHead,
    VisualBranch,
    init_visual_branch,
    predicate_feature,
)

CHECKPOINT_FORMAT = "relfusion-checkpoint-v1"

EVAL_MODES = ("prdcls", "sgcls", "sgdet")


@dataclass(frozen=True)
class BranchMask:
    """Which branches contribute logits; at least one must be enabled."""

    semantic: bool = True
    spatial: bool = True
    visual_spo: bool = True
    visual_subobj: bool = True

    def __post_init__(self):
        if not any(astuple(self)):
            raise ValueError("at least one branch must be enabled")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 0.01
    momentum: float = 0.9
    negative_ratio: float = 3.0
    seed: int = 0
    iou_threshold: float = 0.5

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size <= 0:
            raise ValueError("epochs must be >= 0 and batch size positive")
        if self.negative_ratio < 0:
            raise ValueError("negative ratio must be >= 0")


@dataclass
class FusionModel:
    """Frozen frequency prior plus the trainable spatial and visual branches."""

    freq: FrequencyTable
    spatial_mlp: Mlp
    visual: VisualBranch
    mask: BranchMask
    vocab_hash: str
    attribute_head: AttributeHead | None = None

    @property
    def num_predicates(self) -> int:
        return self.freq.num_predicates

    @property
    def feature_dim(self) -> int:
        return self.visual.feature_dim


def init_fusion_model(
    freq: FrequencyTable,
    feature_dim: int,
    vocab: Vocabulary,
    rng: np.random.Generator,
    mask: BranchMask = BranchMask(),
    spatial_hidden: tuple[int, int] = (64, 64),
    spo_hidden: tuple[int, int] = (256, 256),
) -> FusionModel:
    """Randomly initialize the trainable branches around a fitted prior."""
    out = freq.num_predicates + 1
    spatial_mlp = numcore.init_mlp([22, *spatial_hidden, out], rng)
    visual = init_visual_branch(feature_dim, freq.num_predicates, rng, spo_hidden)
    return FusionModel(
        freq=freq,
        spatial_mlp=spatial_mlp,
        visual=visual,
        mask=mask,
        vocab_hash=vocab.digest(),
    )


def pair_proposals(record: ImageRecord) -> list[tuple[int, int]]:
    """All ordered index pairs over non-degenerate detections."""
    valid = [i for i, d in enumerate(record.detections) if not d.box.is_degenerate()]
    return [(i, j) for i in valid for j in valid if i != j]


@dataclass
class PairInputs:
    """Per-pair inputs of the enabled branches by name, stacked over N pairs."""

    arrays: dict[str, np.ndarray]
    targets: np.ndarray | None = None

    def __len__(self) -> int:
        return next(iter(self.arrays.values())).shape[0]

    def take(self, idx: np.ndarray) -> PairInputs:
        """The rows ``idx`` of every input and of the targets."""
        return PairInputs(
            {name: arr[idx] for name, arr in self.arrays.items()},
            None if self.targets is None else self.targets[idx],
        )


@dataclass(frozen=True)
class Branch:
    """One fusion branch: the per-pair inputs it reads and how it scores them.

    ``forward(model, *inputs)`` gives the (N, P+1) logits and a cache, and
    ``backward(model, cache, dlogits)`` one (dW, db) per ``layers(model)``.
    """

    name: str  # the BranchMask field that enables it
    inputs: tuple[str, ...]
    forward: Callable
    backward: Callable = lambda model, cache, dlogits: []
    layers: Callable = lambda model: []


def _mlp_branch(name: str, inputs: tuple[str, ...], net: Callable) -> Branch:
    """A branch that feeds its inputs, side by side, to the MLP ``net(model)``."""
    return Branch(
        name,
        inputs,
        lambda model, *xs: forward(net(model), np.concatenate(xs, axis=1)),
        lambda model, cache, dlogits: numcore.backward(net(model), cache, dlogits)[0],
        lambda model: net(model).layers,
    )


def _subobj_forward(model: FusionModel, v_sub: np.ndarray, v_obj: np.ndarray):
    out = layer_forward(model.visual.sub_head, v_sub) + layer_forward(
        model.visual.obj_head, v_obj
    )
    return out, (v_sub, v_obj)


def _subobj_backward(model: FusionModel, cache, dlogits: np.ndarray):
    return [(dlogits.T @ v, dlogits.sum(axis=0)) for v in cache]


BRANCHES = (
    Branch("semantic", ("sem",), lambda model, sem: (sem, None)),
    _mlp_branch("spatial", ("spat",), lambda model: model.spatial_mlp),
    _mlp_branch("visual_spo", ("v_sub", "v_pred", "v_obj"), lambda model: model.visual.spo_head),
    Branch(
        "visual_subobj",
        ("v_sub", "v_obj"),
        _subobj_forward,
        _subobj_backward,
        lambda model: [model.visual.sub_head, model.visual.obj_head],
    ),
)


def _layer_params(layers) -> list[np.ndarray]:
    return [p for layer in layers for p in (layer.weights, layer.bias)]


def enabled_branches(mask: BranchMask) -> list[Branch]:
    """The branches the mask switches on, in table order."""
    return [branch for branch in BRANCHES if getattr(mask, branch.name)]


def pair_inputs(
    model: FusionModel, record: ImageRecord, pairs: list[tuple[int, int]]
) -> PairInputs:
    """Assemble the enabled branches' inputs for a non-empty list of proposals."""
    dets = record.detections
    rows = {
        "sem": lambda i, j: semantic_logits(model.freq, dets[i].label, dets[j].label),
        "spat": lambda i, j: spatial_feature(
            dets[i].box, dets[j].box, record.width, record.height
        ),
        "v_sub": lambda i, j: dets[i].feature,
        "v_pred": lambda i, j: predicate_feature(
            dets[i].feature, dets[j].feature, record, (i, j)
        ),
        "v_obj": lambda i, j: dets[j].feature,
    }
    arrays: dict[str, np.ndarray] = {}
    for branch in enabled_branches(model.mask):
        for name in branch.inputs:
            if name not in arrays:
                arrays[name] = np.stack([rows[name](i, j) for i, j in pairs])
    return PairInputs(arrays)


def batch_logits(model: FusionModel, inputs: PairInputs) -> tuple[np.ndarray, list]:
    """Fused logits for a batch of pairs plus the per-branch caches backward needs."""
    vectors: list[np.ndarray] = []
    caches: list = []
    for branch in enabled_branches(model.mask):
        out, cache = branch.forward(model, *(inputs.arrays[name] for name in branch.inputs))
        vectors.append(out)
        caches.append(cache)
    # Right fold so that peeling branches off the front of the canonical
    # order splits the sum without any re-rounding.
    logits = np.zeros((len(inputs), model.num_predicates + 1))
    for out in reversed(vectors):
        logits = out + logits
    return logits, caches


def pair_logits(
    model: FusionModel, record: ImageRecord, pair: tuple[int, int]
) -> np.ndarray:
    """Fused (P+1)-vector for one ordered detection pair."""
    logits, _ = batch_logits(model, pair_inputs(model, record, [pair]))
    return logits[0]


def trainable_params(model: FusionModel) -> list[np.ndarray]:
    """Parameter arrays of the enabled trainable branches, canonical order."""
    return _layer_params(
        layer for branch in enabled_branches(model.mask) for layer in branch.layers(model)
    )


def loss_and_grads(
    model: FusionModel, inputs: PairInputs
) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy over a labeled batch and the gradients of it.

    The gradient list aligns with :func:`trainable_params`.
    """
    n = len(inputs)
    logits, caches = batch_logits(model, inputs)
    losses, dlogits = numcore.softmax_xent(logits, inputs.targets)
    loss = float(losses.mean())
    dlogits = dlogits / n
    grads: list[np.ndarray] = []
    for branch, cache in zip(enabled_branches(model.mask), caches):
        for dw_db in branch.backward(model, cache, dlogits):
            grads.extend(dw_db)
    return loss, grads


def match_positive_pairs(
    record: ImageRecord, iou_threshold: float = 0.5
) -> list[tuple[tuple[int, int], int]]:
    """Assign ground-truth predicates to detection pairs.

    A pair is positive for predicate p when subject and object detections
    each overlap the triplet's gt box with IoU >= threshold and carry the
    gt labels. Every qualifying (pair, triplet) combination is kept.
    """
    positives = []
    proposals = pair_proposals(record)
    for sub_idx, pred, obj_idx in record.gt_triplets:
        sub_gt = record.gt_boxes[sub_idx]
        obj_gt = record.gt_boxes[obj_idx]
        for i, j in proposals:
            di, dj = record.detections[i], record.detections[j]
            if di.label != sub_gt.label or dj.label != obj_gt.label:
                continue
            if iou(di.box, sub_gt.box) >= iou_threshold and iou(dj.box, obj_gt.box) >= iou_threshold:
                positives.append(((i, j), pred))
    return positives


def build_training_inputs(
    model: FusionModel,
    dataset: list[ImageRecord],
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> PairInputs:
    """Positive examples plus per-image sampled no-relationship negatives."""
    per_record: list[PairInputs] = []
    total_positives = 0
    for record in dataset:
        positives = match_positive_pairs(record, cfg.iou_threshold)
        total_positives += len(positives)
        matched = {pair for pair, _ in positives}
        unmatched = [p for p in pair_proposals(record) if p not in matched]
        n_neg = min(len(unmatched), int(round(cfg.negative_ratio * len(positives))))
        chosen = []
        if n_neg > 0:
            idx = rng.choice(len(unmatched), size=n_neg, replace=False)
            chosen = [unmatched[k] for k in sorted(idx)]
        pairs = [pair for pair, _ in positives] + chosen
        targets = [pred for _, pred in positives] + [0] * len(chosen)
        if not pairs:
            continue
        inputs = pair_inputs(model, record, pairs)
        inputs.targets = np.asarray(targets, dtype=np.intp)
        per_record.append(inputs)
    if total_positives == 0:
        raise DataError("no positive training pairs: detections never match ground truth")

    return PairInputs(
        {
            name: np.concatenate([p.arrays[name] for p in per_record])
            for name in per_record[0].arrays
        },
        targets=np.concatenate([p.targets for p in per_record]),
    )


def _sgd_epochs(
    step, n: int, params: list[np.ndarray], cfg: TrainConfig, rng: np.random.Generator, what: str
) -> list[float]:
    """Shuffled mini-batch momentum SGD; returns the per-epoch mean loss.

    ``step(idx)`` gives the mean loss of examples ``idx`` and its gradients
    aligned with ``params``; ``what`` names the loss if it turns non-finite.
    """
    state = OptimizerState(learning_rate=cfg.learning_rate, momentum=cfg.momentum)
    history: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = step(idx)
            if not np.isfinite(loss):
                raise NumericError(f"{what} loss became non-finite ({loss})")
            epoch_loss += loss * len(idx)
            if params:
                sgd_step(params, grads, state)
        history.append(epoch_loss / n)
    return history


def train(
    model: FusionModel, dataset: list[ImageRecord], cfg: TrainConfig
) -> tuple[FusionModel, list[float]]:
    """Momentum-SGD training of the enabled trainable branches.

    The frequency table is never touched. Deterministic for a fixed
    config and seed. Returns the model and the per-epoch mean loss.
    """
    rng = np.random.default_rng(cfg.seed)
    inputs = build_training_inputs(model, dataset, cfg, rng)

    def step(idx):
        return loss_and_grads(model, inputs.take(idx))

    history = _sgd_epochs(step, len(inputs), trainable_params(model), cfg, rng, "training")
    return model, history


def predict_image(
    model: FusionModel, record: ImageRecord, top_n: int = 100
) -> list[PredictedTriplet]:
    """Ranked triplets for one image.

    Every (proposal pair, real predicate) combination is scored with
    softmax probability times both detector confidences; the global top_n
    survive. Ties break on (pair index, predicate index).
    """
    pairs = pair_proposals(record)
    if not pairs:
        return []
    inputs = pair_inputs(model, record, pairs)
    logits, _ = batch_logits(model, inputs)
    probs = softmax(logits)
    candidates = []
    for pair_idx, (i, j) in enumerate(pairs):
        di, dj = record.detections[i], record.detections[j]
        det_product = di.score * dj.score
        for p in range(1, model.num_predicates + 1):
            candidates.append((probs[pair_idx, p] * det_product, pair_idx, p, i, j))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    out = []
    for score, _, p, i, j in candidates[:top_n]:
        di, dj = record.detections[i], record.detections[j]
        out.append(
            PredictedTriplet(
                sub_box=di.box,
                sub_label=di.label,
                predicate=p,
                obj_box=dj.box,
                obj_label=dj.label,
                score=float(score),
            )
        )
    return out


def _best_iou_detection(record: ImageRecord, box: Box) -> int | None:
    if not record.detections:
        return None
    overlaps = [iou(d.box, box) for d in record.detections]
    return int(np.argmax(overlaps))


def gt_substitution(record: ImageRecord, mode: str) -> ImageRecord:
    """Evaluation-mode input view.

    prdcls replaces detections with ground-truth boxes and labels; sgcls
    keeps gt boxes but takes label, score and feature from the best-IoU
    detection; sgdet is the identity. Ground-truth annotations are shared
    unchanged, and per-pair features follow the gt -> detection
    assignment.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    if mode == "sgdet":
        return record

    detections: list[Detection] = []
    assigned: list[int | None] = []
    for gt in record.gt_boxes:
        match = _best_iou_detection(record, gt.box)
        assigned.append(match)
        if mode == "prdcls":
            if gt.feature is not None:
                feature = gt.feature
            elif match is not None:
                feature = record.detections[match].feature
            else:
                raise DataError(
                    f"image {record.image_id!r}: prdcls needs gt features or detections"
                )
            detections.append(Detection(label=gt.label, box=gt.box, score=1.0, feature=feature))
        else:  # sgcls
            if match is None:
                continue
            det = record.detections[match]
            feature = gt.feature if gt.feature is not None else det.feature
            detections.append(
                Detection(label=det.label, box=gt.box, score=det.score, feature=feature)
            )

    pair_features = {}
    for (i, j), feat in record.pair_features.items():
        for a, ma in enumerate(assigned):
            for b, mb in enumerate(assigned):
                if a != b and ma == i and mb == j:
                    pair_features[(a, b)] = feat
    return replace(record, detections=detections, pair_features=pair_features)


# --- attribute head ---------------------------------------------------------


def _attribute_examples(dataset: list[ImageRecord]) -> tuple[np.ndarray, np.ndarray]:
    feats, targets = [], []
    for record in dataset:
        for gt_idx, attr in record.gt_attributes:
            gt = record.gt_boxes[gt_idx]
            if gt.feature is not None:
                feats.append(gt.feature)
            else:
                match = _best_iou_detection(record, gt.box)
                if match is None:
                    continue
                feats.append(record.detections[match].feature)
            targets.append(attr)
    if not feats:
        raise DataError("no attribute annotations with usable features")
    return np.stack(feats), np.asarray(targets, dtype=np.intp)


def train_attribute_head(
    head: AttributeHead, dataset: list[ImageRecord], cfg: TrainConfig
) -> list[float]:
    """Separate single-object training pass for the attribute classifier."""
    rng = np.random.default_rng(cfg.seed)
    feats, targets = _attribute_examples(dataset)

    def step(idx):
        out, cache = forward(head.mlp, feats[idx])
        losses, dlogits = numcore.softmax_xent(out, targets[idx])
        layer_grads, _ = numcore.backward(head.mlp, cache, dlogits / len(idx))
        return float(losses.mean()), [g for dw_db in layer_grads for g in dw_db]

    return _sgd_epochs(step, feats.shape[0], _layer_params(head.mlp.layers), cfg, rng, "attribute")


def predict_attributes(
    head: AttributeHead, record: ImageRecord
) -> list[tuple[int, int, float]]:
    """Top attribute per detection: (detection index, attribute, score)."""
    out = []
    for idx, det in enumerate(record.detections):
        probs = softmax(forward(head.mlp, det.feature)[0])
        best = int(np.argmax(probs))
        out.append((idx, best, float(probs[best] * det.score)))
    return out


# --- checkpoint and prediction files ----------------------------------------


def save_checkpoint(model: FusionModel, path: str | os.PathLike) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "vocab_hash": model.vocab_hash,
        "feature_dim": model.feature_dim,
        "branch_mask": asdict(model.mask),
        "frequency": table_to_json(model.freq),
        "spatial_mlp": numcore.mlp_to_json(model.spatial_mlp),
        "visual": {
            "spo_head": numcore.mlp_to_json(model.visual.spo_head),
            "sub_head": numcore.layer_to_json(model.visual.sub_head),
            "obj_head": numcore.layer_to_json(model.visual.obj_head),
        },
        "attribute_head": (
            numcore.mlp_to_json(model.attribute_head.mlp) if model.attribute_head else None
        ),
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path: str | os.PathLike) -> FusionModel:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if raw.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    attr = raw.get("attribute_head")
    return FusionModel(
        freq=table_from_json(raw["frequency"]),
        spatial_mlp=numcore.mlp_from_json(raw["spatial_mlp"]),
        visual=VisualBranch(
            spo_head=numcore.mlp_from_json(raw["visual"]["spo_head"]),
            sub_head=numcore.layer_from_json(raw["visual"]["sub_head"]),
            obj_head=numcore.layer_from_json(raw["visual"]["obj_head"]),
        ),
        mask=BranchMask(**raw["branch_mask"]),
        vocab_hash=raw["vocab_hash"],
        attribute_head=AttributeHead(numcore.mlp_from_json(attr)) if attr else None,
    )


def save_predictions(
    predictions: dict[str, list[PredictedTriplet]],
    path: str | os.PathLike,
    is_triplets: dict[str, list[dict]] | None = None,
) -> None:
    """Write per-image prediction lines; optional attribute triplets ride along."""
    lines = []
    for image_id, triplets in predictions.items():
        row: dict = {
            "image_id": image_id,
            "triplets": [
                {
                    "sub_box": t.sub_box.to_list(),
                    "sub_label": t.sub_label,
                    "predicate": t.predicate,
                    "obj_box": t.obj_box.to_list(),
                    "obj_label": t.obj_label,
                    "score": t.score,
                }
                for t in triplets
            ],
        }
        if is_triplets and image_id in is_triplets:
            row["is_triplets"] = is_triplets[image_id]
        lines.append(json.dumps(row))
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def load_predictions(path: str | os.PathLike) -> dict[str, list[PredictedTriplet]]:
    out: dict[str, list[PredictedTriplet]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            triplets = []
            for t in raw.get("triplets", []):
                triplets.append(
                    PredictedTriplet(
                        sub_box=Box(*[float(v) for v in t["sub_box"]]),
                        sub_label=int(t["sub_label"]),
                        predicate=int(t["predicate"]),
                        obj_box=Box(*[float(v) for v in t["obj_box"]]),
                        obj_label=int(t["obj_label"]),
                        score=float(t["score"]),
                    )
                )
            out[raw["image_id"]] = triplets
    return out
