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
    DataError,
    Detection,
    ImageRecord,
    PredictedTriplet,
    Vocabulary,
    atomic_write_text,
    box_array,
    iou_matrix,
    parse_box,
    read_json,
    read_jsonl,
)
from . import numcore
from .numcore import Mlp, NumericError, OptimizerState, forward, layer_forward, sgd_step, softmax
from .semantic import FrequencyTable, semantic_logits, table_from_json, table_to_json
from .spatial import SPATIAL_DIM, spatial_features
from .visual import (
    AttributeHead,
    VisualBranch,
    init_visual_branch,
    predicate_features,
)

# The per-pair definitions that the array paths below reproduce.
# perfbench/tracing.py wraps them at this module's attributes.
from .datamodel import iou  # noqa: F401
from .spatial import spatial_feature  # noqa: F401
from .visual import predicate_feature  # noqa: F401

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
    spatial_mlp = numcore.init_mlp([SPATIAL_DIM, *spatial_hidden, out], rng)
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


def pair_inputs(model: FusionModel, record: ImageRecord, pairs) -> PairInputs:
    """Assemble the enabled branches' inputs for a non-empty list of proposals.

    ``pairs`` holds (subject, object) detection indices, as a list of
    tuples or an (N, 2) array. Each input is gathered image-wide by index
    arrays; the frequency prior is looked up once per distinct class pair.
    """
    sub, obj = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    dets = record.detections
    labels = np.array([d.label for d in dets])
    boxes = box_array(d.box for d in dets)
    feats = np.stack([d.feature for d in dets])

    def semantic_rows():
        classes, row = np.unique(
            np.column_stack([labels[sub], labels[obj]]), axis=0, return_inverse=True
        )
        logits = [semantic_logits(model.freq, s, o) for s, o in classes.tolist()]
        return np.stack(logits)[row.reshape(-1)]

    rows = {
        "sem": semantic_rows,
        "spat": lambda: spatial_features(boxes[sub], boxes[obj], record.width, record.height),
        "v_sub": lambda: feats[sub],
        "v_pred": lambda: predicate_features(feats, record, sub, obj),
        "v_obj": lambda: feats[obj],
    }
    arrays: dict[str, np.ndarray] = {}
    for branch in enabled_branches(model.mask):
        for name in branch.inputs:
            if name not in arrays:
                arrays[name] = rows[name]()
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
) -> tuple[np.ndarray, np.ndarray]:
    """Assign ground-truth predicates to detection pairs.

    A pair is positive for predicate p when subject and object detections
    each overlap the triplet's gt box with IoU >= threshold and carry the
    gt labels. Every qualifying (pair, triplet) combination is kept.
    Returns the (N, 2) detection index pairs and their N predicates,
    ordered by triplet and then in :func:`pair_proposals` order.
    """
    dets, gts = record.detections, record.gt_boxes
    triplets = np.array(record.gt_triplets, dtype=np.intp).reshape(-1, 3)
    overlaps = iou_matrix(box_array(d.box for d in dets), box_array(g.box for g in gts))
    same_label = np.equal.outer([d.label for d in dets], [g.label for g in gts])
    proposable = np.array([not d.box.is_degenerate() for d in dets], dtype=bool)
    # fits[k, g]: detection k may stand in for gt box g
    fits = (overlaps >= iou_threshold) & same_label & proposable[:, None]
    hits = fits.T[triplets[:, 0], :, None] & fits.T[triplets[:, 2], None, :]
    hits[:, np.arange(len(dets)), np.arange(len(dets))] = False
    t, i, j = np.nonzero(hits)
    return np.column_stack([i, j]), triplets[t, 1]


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
        positives, predicates = match_positive_pairs(record)
        total_positives += len(predicates)
        proposals = np.array(pair_proposals(record), dtype=np.intp).reshape(-1, 2)
        matched = np.zeros((len(record.detections),) * 2, dtype=bool)
        matched[positives[:, 0], positives[:, 1]] = True
        unmatched = proposals[~matched[proposals[:, 0], proposals[:, 1]]]
        n_neg = min(len(unmatched), int(round(cfg.negative_ratio * len(predicates))))
        chosen = unmatched[:0]
        if n_neg > 0:
            chosen = unmatched[np.sort(rng.choice(len(unmatched), size=n_neg, replace=False))]
        if len(positives) + n_neg == 0:
            continue
        inputs = pair_inputs(model, record, np.concatenate([positives, chosen]))
        inputs.targets = np.concatenate([predicates, np.zeros(n_neg, dtype=np.intp)])
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
    if top_n < 0:
        raise ValueError(f"top_n must be >= 0, got {top_n}")
    pairs = np.array(pair_proposals(record), dtype=np.intp).reshape(-1, 2)
    if not len(pairs):
        return []
    logits, _ = batch_logits(model, pair_inputs(model, record, pairs))
    det_scores = np.array([d.score for d in record.detections])
    det_product = det_scores[pairs[:, 0]] * det_scores[pairs[:, 1]]
    scores = (softmax(logits)[:, 1:] * det_product[:, None]).ravel()
    # A stable sort keeps tied scores in (pair, predicate) order.
    ranked = np.argsort(-scores, kind="stable")[:top_n]
    out = []
    for k in ranked.tolist():
        pair_idx, p = divmod(k, model.num_predicates)
        di, dj = (record.detections[d] for d in pairs[pair_idx].tolist())
        out.append(
            PredictedTriplet(
                sub_box=di.box,
                sub_label=di.label,
                predicate=p + 1,
                obj_box=dj.box,
                obj_label=dj.label,
                score=float(scores[k]),
            )
        )
    return out


def _best_iou_detections(record: ImageRecord) -> list[int | None]:
    """Per gt box, the index of the detection of highest IoU.

    The lowest index wins a tie; every entry is None without detections.
    """
    if not record.detections:
        return [None] * len(record.gt_boxes)
    overlaps = iou_matrix(
        box_array(g.box for g in record.gt_boxes), box_array(d.box for d in record.detections)
    )
    return overlaps.argmax(axis=1).tolist()


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
    assigned = _best_iou_detections(record)
    for gt, match in zip(record.gt_boxes, assigned):
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

    stand_ins: dict[int, list[int]] = {}  # detection -> the gt boxes assigned to it
    for a, match in enumerate(assigned):
        stand_ins.setdefault(match, []).append(a)
    pair_features = {}
    for (i, j), feat in record.pair_features.items():  # i != j, so a != b below
        for a in stand_ins.get(i, ()):
            for b in stand_ins.get(j, ()):
                pair_features[(a, b)] = feat
    return replace(record, detections=detections, pair_features=pair_features)


# --- attribute head ---------------------------------------------------------


def _attribute_examples(dataset: list[ImageRecord]) -> tuple[np.ndarray, np.ndarray]:
    feats, targets = [], []
    for record in dataset:
        if not record.gt_attributes:
            continue
        assigned = _best_iou_detections(record)
        for gt_idx, attr in record.gt_attributes:
            gt = record.gt_boxes[gt_idx]
            if gt.feature is not None:
                feats.append(gt.feature)
            elif assigned[gt_idx] is not None:
                feats.append(record.detections[assigned[gt_idx]].feature)
            else:
                continue
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
    raw = read_json(path)
    if raw.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    attr = raw.get("attribute_head")
    try:
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
    except KeyError as exc:
        raise DataError(f"checkpoint file {path} missing key {exc}") from exc


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


def _parse_triplet(t) -> PredictedTriplet:
    if type(t) is not dict:
        raise DataError("expected a JSON object")
    try:
        sub_box = parse_box(t["sub_box"], "sub_box")
        obj_box = parse_box(t["obj_box"], "obj_box")
        sub_label, predicate, obj_label = t["sub_label"], t["predicate"], t["obj_label"]
        score = t["score"]
    except KeyError as exc:
        raise DataError(f"missing key {exc}") from None
    # type(), not isinstance(): JSON true and false are not labels.
    if type(sub_label) is not int or type(predicate) is not int or type(obj_label) is not int:
        raise DataError("sub_label, predicate and obj_label must be integers")
    if type(score) not in (int, float):
        raise DataError(f"score must be a number, got {score!r}")
    return PredictedTriplet(sub_box, sub_label, predicate, obj_box, obj_label, float(score))


def load_predictions(path: str | os.PathLike) -> dict[str, list[PredictedTriplet]]:
    """Read a prediction file; a malformed line is a DataError naming it."""
    out: dict[str, list[PredictedTriplet]] = {}
    for lineno, raw in read_jsonl(path):
        try:
            image_id = raw.get("image_id")
            if not isinstance(image_id, str):
                raise DataError(f"image_id must be a string, got {image_id!r}")
            triplets = raw.get("triplets", [])
            if not isinstance(triplets, list):
                raise DataError(f"image {image_id!r}: triplets must be a list")
            parsed = []
            for k, t in enumerate(triplets):
                try:
                    parsed.append(_parse_triplet(t))
                except DataError as exc:
                    raise DataError(f"image {image_id!r} triplet {k}: {exc}") from exc
            out[image_id] = parsed
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return out
