"""Late-fusion relationship model: branch assembly, training, prediction.

Each enabled branch maps a detection pair to a (P+1)-vector of predicate
logits; the fused score is their elementwise sum, normalized by softmax
at the end. The frequency branch is frozen; the spatial MLP and visual
heads train against softmax cross-entropy where matched ground-truth
triplets provide positive labels and sampled unmatched pairs carry the
no-relationship class.

Every trainable net is an :class:`~relfusion.numcore.Mlp` field of
:class:`FusionModel`, named in :data:`NETS`. A branch is defined in one
place, the :data:`BRANCHES` table: its terms, each a net (or the frozen
prior) and the per-pair inputs it reads. The table's order is both the
summation order of the fused logits and the order of
:func:`trainable_params`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, astuple, dataclass, field, replace

import numpy as np

from .datamodel import (
    Box,
    DataError,
    Detection,
    ImageRecord,
    PredictedTriplet,
    Vocabulary,
    _json_scalar,
    atomic_write_text,
    box_array,
    check_settings,
    iou_matrix,
    is_list_of,
    json_number,
    parse_box,
    read_image_lines,
    read_json,
)
from . import numcore
from .numcore import Mlp, NumericError, forward, init_mlp, sgd_step, softmax
from .semantic import FrequencyTable, semantic_logits, table_from_json, table_to_json
from .spatial import SPATIAL_DIM, spatial_features
from .visual import predicate_features

# The per-pair definitions that the array paths below reproduce, and the
# single-layer step of numcore.forward. perfbench/tracing.py wraps them at
# this module's attributes.
from .datamodel import iou  # noqa: F401
from .numcore import layer_forward  # noqa: F401
from .spatial import spatial_feature  # noqa: F401
from .visual import predicate_feature  # noqa: F401

CHECKPOINT_FORMAT = "relfusion-checkpoint-v3"

# Width of the attribute head's one hidden layer.
ATTRIBUTE_HIDDEN = 64

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
        check_settings(self, (
            ("epochs", self.epochs >= 0, ">= 0"),
            ("batch_size", self.batch_size > 0, "positive"),
            ("learning_rate", 0 < self.learning_rate < math.inf, "finite and positive"),
            ("momentum", 0 <= self.momentum < 1, "in [0, 1)"),
            ("negative_ratio", 0 <= self.negative_ratio < math.inf, "finite and >= 0"),
            ("seed", self.seed >= 0, ">= 0"),  # np.random.default_rng takes no other
        ))


@dataclass
class FusionModel:
    """Frozen frequency prior plus the trainable nets, in :data:`NETS` order."""

    freq: FrequencyTable
    spatial_mlp: Mlp
    spo_head: Mlp  # over the subject, predicate and object features side by side
    sub_head: Mlp  # one layer
    obj_head: Mlp  # one layer
    mask: BranchMask
    vocab_hash: str
    attribute_head: Mlp | None = None  # separate single-object classifier
    # The prior's row per class pair, filled by pair_inputs; freq is frozen from then on.
    prior_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_predicates(self) -> int:
        return self.freq.num_predicates

    @property
    def feature_dim(self) -> int:
        return self.sub_head.in_dim


# Every trainable net of a FusionModel: the checkpoint keys, in the order
# init_fusion_model draws them (the attribute head comes later, if at all).
NETS = ("spatial_mlp", "spo_head", "sub_head", "obj_head", "attribute_head")


def init_fusion_model(
    freq: FrequencyTable,
    feature_dim: int,
    vocab: Vocabulary,
    rng: np.random.Generator,
    mask: BranchMask = BranchMask(),
    spatial_hidden: tuple[int, int] = (64, 64),
    spo_hidden: tuple[int, int] = (256, 256),
) -> FusionModel:
    """Randomly initialize the relationship nets around a fitted prior."""
    out = freq.num_predicates + 1
    # Drawn in table order; the sub and obj heads have no hidden layer.
    hidden = {"spatial_mlp": spatial_hidden, "spo_head": spo_hidden}
    nets = {
        net: init_mlp([width, *hidden.get(net, ()), out], rng)
        for net, width in net_input_widths(feature_dim).items()
    }
    return FusionModel(freq=freq, mask=mask, vocab_hash=vocab.digest(), **nets)


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
    """One fusion branch: the mask field that enables it and its terms.

    A term is a :data:`NETS` name, or None for the frozen prior, with the
    per-pair inputs it reads side by side. The branch's logits are its
    terms' outputs summed left to right.
    """

    name: str  # the BranchMask field that enables it
    terms: tuple[tuple[str | None, tuple[str, ...]], ...]


BRANCHES = (
    Branch("semantic", ((None, ("sem",)),)),
    Branch("spatial", (("spatial_mlp", ("spat",)),)),
    Branch("visual_spo", (("spo_head", ("v_sub", "v_pred", "v_obj")),)),
    Branch("visual_subobj", (("sub_head", ("v_sub",)), ("obj_head", ("v_obj",)))),
)


def net_input_widths(feature_dim: int) -> dict[str, int]:
    """Each net's input width in table order: ``spat`` is SPATIAL_DIM wide, each feature D."""
    terms = [(net, inputs) for branch in BRANCHES for net, inputs in branch.terms if net]
    return {net: sum(SPATIAL_DIM if name == "spat" else feature_dim for name in inputs)
            for net, inputs in terms}


def _layer_params(nets) -> list[np.ndarray]:
    return [p for net in nets for layer in net.layers for p in (layer.weights, layer.bias)]


def enabled_branches(mask: BranchMask) -> list[Branch]:
    """The branches the mask switches on, in table order."""
    return [branch for branch in BRANCHES if getattr(mask, branch.name)]


def _prior_row(model: FusionModel, sub_label: int, obj_label: int) -> np.ndarray:
    """:func:`semantic_logits` of the class pair, computed once per model."""
    row = model.prior_rows.get((sub_label, obj_label))
    if row is None:
        row = model.prior_rows[sub_label, obj_label] = semantic_logits(
            model.freq, sub_label, obj_label)
    return row


def pair_inputs(model: FusionModel, record: ImageRecord, pairs) -> PairInputs:
    """Assemble the enabled branches' inputs for a non-empty list of proposals.

    ``pairs`` holds (subject, object) detection indices, as a list of
    tuples or an (N, 2) array. Each input is gathered image-wide by index
    arrays. The frequency prior is looked up once per distinct class pair,
    in ``model.prior_rows``: a pair's :func:`semantic_logits` row is
    computed the first time any image of the model needs it.
    """
    sub, obj = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    dets = record.detections
    labels = np.array([d.label for d in dets])
    boxes = box_array(d.box for d in dets)
    feats = np.stack([d.feature for d in dets])

    def semantic_rows():
        # Distinct class pairs by a dict: np.unique(axis=0) sorts, at more cost than the lookups.
        distinct: dict[tuple[int, int], int] = {}
        row = [distinct.setdefault(pair, len(distinct))
               for pair in zip(labels[sub].tolist(), labels[obj].tolist())]
        return np.stack([_prior_row(model, s, o) for s, o in distinct])[row]

    def spatial_rows():
        # A box far smaller or larger than its partner overflows the pair's encoding:
        # a data error naming the first such pair, not a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            spat = spatial_features(boxes[sub], boxes[obj], record.width, record.height)
        finite = np.isfinite(spat).all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite))
            raise DataError(f"image {record.image_id!r} detection pair ({sub[k]}, {obj[k]}):"
                            " spatial encoding is not finite", record.line)
        return spat

    rows = {
        "sem": semantic_rows,
        "spat": spatial_rows,
        "v_sub": lambda: feats[sub],
        "v_pred": lambda: predicate_features(feats, record, sub, obj),
        "v_obj": lambda: feats[obj],
    }
    names = [n for b in enabled_branches(model.mask) for _, inputs in b.terms for n in inputs]
    return PairInputs({name: rows[name]() for name in dict.fromkeys(names)})


def batch_logits(model: FusionModel, inputs: PairInputs) -> tuple[np.ndarray, list]:
    """Fused logits for a batch of pairs plus (net, cache) of each enabled net."""
    vectors: list[np.ndarray] = []
    caches: list = []
    for branch in enabled_branches(model.mask):
        out = None
        for net, names in branch.terms:
            term = np.concatenate([inputs.arrays[name] for name in names], axis=1)
            if net is not None:
                mlp = getattr(model, net)
                term, cache = forward(mlp, term)
                caches.append((mlp, cache))
            out = term if out is None else np.add(out, term, out=out)
        vectors.append(out)
    # Right fold so that peeling branches off the front of the canonical
    # order splits the sum without any re-rounding.
    logits = np.zeros((len(inputs), model.num_predicates + 1))
    for out in reversed(vectors):
        np.add(out, logits, out=logits)
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
        getattr(model, net) for b in enabled_branches(model.mask) for net, _ in b.terms if net
    )


def _xent_and_grads(logits: np.ndarray, caches: list, targets: np.ndarray):
    """Mean softmax cross-entropy and its gradients through the (net, cache) pairs."""
    losses, dlogits = numcore.softmax_xent(logits, targets)
    dlogits /= len(targets)
    grads: list[np.ndarray] = []
    for net, cache in caches:
        for dw_db in numcore.backward(net, cache, dlogits):
            grads.extend(dw_db)
    return float(losses.mean()), grads


def loss_and_grads(
    model: FusionModel, inputs: PairInputs
) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy over a labeled batch and the gradients of it.

    The gradient list aligns with :func:`trainable_params`.
    """
    logits, caches = batch_logits(model, inputs)
    return _xent_and_grads(logits, caches, inputs.targets)


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
    gt_of, det_of = np.nonzero(fits.T)  # each gt box's fitting detections, in index order
    start = np.searchsorted(gt_of, np.arange(len(gts) + 1))
    n_sub, n_obj = np.diff(start)[triplets[:, [0, 2]]].T
    size = n_sub * n_obj  # candidate pairs per triplet
    # Triplet t's p-th pair is its subject's (p // n_obj)-th and object's (p % n_obj)-th fit.
    t = np.repeat(np.arange(len(triplets)), size)
    p = np.arange(len(t)) - (np.cumsum(size) - size)[t]
    i = det_of[start[triplets[t, 0]] + p // n_obj[t]]
    j = det_of[start[triplets[t, 2]] + p % n_obj[t]]
    return np.column_stack([i, j])[i != j], triplets[t[i != j], 1]


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
        # min first: a ratio past float64's range makes the product inf
        n_neg = round(min(cfg.negative_ratio * len(predicates), len(unmatched)))
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
    Overflow is no warning: a non-finite loss is the NumericError below.
    """
    velocities = [np.zeros_like(p) for p in params]
    history: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, grads = step(idx)
                if not np.isfinite(loss):
                    raise NumericError(f"{what} loss became non-finite ({loss})")
                epoch_loss += loss * len(idx)
                sgd_step(params, grads, velocities, cfg.learning_rate, cfg.momentum)
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
    pair_idx, p = np.divmod(ranked, model.num_predicates)
    sub, obj = pairs[pair_idx].T
    dets = record.detections
    return [
        PredictedTriplet(dets[i].box, dets[i].label, pred, dets[j].box, dets[j].label, score)
        for i, j, pred, score in zip(
            sub.tolist(), obj.tolist(), (p + 1).tolist(), scores[ranked].tolist()
        )
    ]


def _stand_ins(record: ImageRecord) -> list[int | None]:
    """Per gt box, its best-IoU detection (lowest index on a tie); None if none overlaps."""
    overlaps = iou_matrix(
        box_array(g.box for g in record.gt_boxes), box_array(d.box for d in record.detections)
    )
    # A leading zero column takes the argmax of a row without overlap.
    best = np.column_stack([np.zeros(len(overlaps)), overlaps]).argmax(axis=1) - 1
    return [None if k < 0 else k for k in best.tolist()]


def _gt_feature(record: ImageRecord, gt_idx: int, stand_in: int | None) -> np.ndarray | None:
    """The gt box's own feature, else its stand-in's; None without either."""
    feature = record.gt_boxes[gt_idx].feature
    if feature is None and stand_in is not None:
        feature = record.detections[stand_in].feature
    return feature


def gt_substitution(record: ImageRecord, mode: str) -> ImageRecord:
    """Evaluation-mode input view over the gt boxes and their :func:`_stand_ins`.

    prdcls takes the gt boxes and labels; sgcls keeps gt boxes but takes
    label and score from the stand-in, dropping a gt box without one;
    sgdet is the identity. Features follow :func:`_gt_feature`, per-pair
    features the stand-ins; gt annotations are shared unchanged.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    if mode == "sgdet":
        return record

    detections: list[Detection] = []
    stood_for: dict[int, list[int]] = {}  # detection -> the view detections it stands in for
    for gt_idx, (gt, match) in enumerate(zip(record.gt_boxes, _stand_ins(record))):
        feature = _gt_feature(record, gt_idx, match)
        if mode == "prdcls":
            if feature is None:
                raise DataError(
                    f"image {record.image_id!r} gt box {gt_idx}: prdcls needs its gt feature"
                    " or an overlapping detection", record.line
                )
            det = Detection(label=gt.label, box=gt.box, score=1.0, feature=feature)
        elif match is None:  # sgcls
            continue
        else:
            det = replace(record.detections[match], box=gt.box, feature=feature)
        if match is not None:
            stood_for.setdefault(match, []).append(len(detections))
        detections.append(det)

    pair_features = {
        (a, b): feat
        for (i, j), feat in record.pair_features.items()  # i != j, so a != b
        for a in stood_for.get(i, ())
        for b in stood_for.get(j, ())
    }
    return replace(record, detections=detections, pair_features=pair_features)


# --- attribute head ---------------------------------------------------------


def _attribute_examples(dataset: list[ImageRecord]) -> tuple[np.ndarray, np.ndarray]:
    feats, targets = [], []
    for record in dataset:
        if not record.gt_attributes:
            continue
        matches = _stand_ins(record)
        for gt_idx, attr in record.gt_attributes:
            feature = _gt_feature(record, gt_idx, matches[gt_idx])
            if feature is not None:
                feats.append(feature)
                targets.append(attr)
    if not feats:
        raise DataError("no attribute annotations with usable features")
    return np.stack(feats), np.asarray(targets, dtype=np.intp)


def train_attribute_head(head: Mlp, dataset: list[ImageRecord], cfg: TrainConfig) -> list[float]:
    """Separate single-object training pass for the attribute classifier."""
    rng = np.random.default_rng(cfg.seed)
    feats, targets = _attribute_examples(dataset)

    def step(idx):
        out, cache = forward(head, feats[idx])
        return _xent_and_grads(out, [(head, cache)], targets[idx])

    return _sgd_epochs(step, feats.shape[0], _layer_params([head]), cfg, rng, "attribute")


def predict_attributes(head: Mlp, record: ImageRecord) -> list[tuple[Detection, int, float]]:
    """Top attribute per detection: (detection, attribute, score)."""
    out = []
    for det in record.detections:
        probs = softmax(forward(head, det.feature)[0])
        best = int(np.argmax(probs))
        out.append((det, best, float(probs[best] * det.score)))
    return out


# --- checkpoint and prediction files ----------------------------------------


def save_checkpoint(model: FusionModel, path: str | os.PathLike) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "vocab_hash": model.vocab_hash,
        "branch_mask": asdict(model.mask),
        "frequency": table_to_json(model.freq),
    }
    for name in NETS:
        net = getattr(model, name)
        payload[name] = None if net is None else numcore.mlp_to_json(net)
    atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path: str | os.PathLike) -> FusionModel:
    """Read a checkpoint; a malformed or inconsistent one is a DataError naming the file."""
    raw = read_json(path)
    if raw.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"{path}: format {raw.get('format')!r} is not {CHECKPOINT_FORMAT!r}")
    for key in ("vocab_hash", "branch_mask", "frequency", *NETS):
        if key not in raw:
            raise DataError(f"checkpoint file {path} missing key {key!r}")
    if type(raw["vocab_hash"]) is not str:
        raise DataError(f"{path}: vocab_hash must be a string")
    mask = raw["branch_mask"]
    flags = asdict(BranchMask())
    if (
        not isinstance(mask, dict)
        or mask.keys() != flags.keys()
        or not is_list_of(list(mask.values()), bool)
        or not any(mask.values())
    ):
        raise DataError(f"{path}: branch_mask must set {', '.join(flags)} to true or false")
    try:
        freq = table_from_json(raw["frequency"])
    except DataError as exc:
        raise DataError(f"{path}: frequency: {exc}") from exc

    nets = {}
    for name in NETS:
        if name == "attribute_head" and raw[name] is None:
            nets[name] = None
            continue
        try:
            nets[name] = numcore.mlp_from_json(raw[name])
        except DataError as exc:
            raise DataError(f"{path}: {name}: {exc}") from exc
    # (input width, output width) of each net
    dim, out = nets["sub_head"].in_dim, freq.num_predicates + 1
    shapes = {net: (width, out) for net, width in net_input_widths(dim).items()}
    if nets["attribute_head"] is not None:
        shapes["attribute_head"] = (dim, nets["attribute_head"].out_dim)
    for name, want in shapes.items():
        got = (nets[name].in_dim, nets[name].out_dim)
        if got != want:
            raise DataError(
                f"{path}: {name} maps {got[0]} -> {got[1]} values, expected"
                f" {want[0]} -> {want[1]} (sub_head takes {dim} inputs)"
            )
    return FusionModel(freq=freq, mask=BranchMask(**mask), vocab_hash=raw["vocab_hash"], **nets)


def save_predictions(
    predictions: dict[str, list[PredictedTriplet]],
    path: str | os.PathLike,
    attributes: dict[str, list[tuple[Detection, int, float]]] | None = None,
) -> None:
    """Write prediction lines; an image's predict_attributes rows are its is_triplets.

    A line is ``json.dumps`` of the image's row. Its ``boxes`` table holds each
    distinct Box once, in order of first use; a box field is an index into it.
    """
    lines = []
    for image_id, triplets in predictions.items():
        is_triplets = attributes.get(image_id) if attributes else None
        used = [b for t in triplets for b in (t.sub_box, t.obj_box)]
        distinct = {id(b): b for b in used + [d.box for d, _, _ in is_triplets or []]}
        index = {key: k for k, key in enumerate(distinct)}
        items = ", ".join(
            f'{{"sub_box": {index[id(t.sub_box)]}, "sub_label": {_json_scalar(t.sub_label)}, '
            f'"predicate": {_json_scalar(t.predicate)}, "obj_box": {index[id(t.obj_box)]}, '
            f'"obj_label": {_json_scalar(t.obj_label)}, "score": {_json_scalar(t.score)}}}'
            for t in triplets
        )
        table = json.dumps([b.to_list() for b in distinct.values()])
        line = f'{{"image_id": {json.dumps(image_id)}, "boxes": {table}, "triplets": [{items}]'
        if is_triplets is not None:
            rows = [{"box": index[id(d.box)], "label": d.label, "attribute": a, "score": s}
                    for d, a, s in is_triplets]
            line += f', "is_triplets": {json.dumps(rows)}'
        lines.append(line + "}")
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def _box(value, key: str, table: list[Box]) -> Box:
    """A box field: a list of 4 numbers, or an index into its line's parsed ``boxes``."""
    if type(value) is list:
        return parse_box(value, key)
    if type(value) is int and 0 <= value < len(table):
        return table[value]
    raise DataError(f"{key}: box must be a list of 4 numbers or an index into the line's"
                    f" {len(table)} boxes, got {value!r:.40}")


def _score(value) -> float:
    """A score field as a float; a DataError unless it is a finite JSON number."""
    score = json_number(value)
    if score is None:
        raise DataError(f"score must be a finite number, got {value!r:.40}")
    return score


def _parse_triplet(item, table: list[Box]) -> PredictedTriplet:
    """A triplet item; else a DataError for its first bad field (boxes, keys, integers, score)."""
    if type(item) is not dict:
        raise DataError("expected a JSON object")
    try:
        sub_box = _box(item["sub_box"], "sub_box", table)
        obj_box = _box(item["obj_box"], "obj_box", table)
        sub, pred, obj = item["sub_label"], item["predicate"], item["obj_label"]
        score = item["score"]
    except KeyError as exc:
        raise DataError(f"missing key {exc}") from None
    if not (type(sub) is int and type(pred) is int and type(obj) is int):
        raise DataError("sub_label, predicate and obj_label must be integers")
    return PredictedTriplet(sub_box, sub, pred, obj_box, obj, _score(score))


def _parse_items(raw: dict, key: str, parse, image_id: str, table) -> list:
    """``raw[key]`` (default []) must be a list; each item goes through ``parse(item, table)``."""
    items = raw.get(key, [])
    if not isinstance(items, list):
        raise DataError(f"image {image_id!r}: {key} must be a list")
    parsed = []
    for k, item in enumerate(items):
        try:
            parsed.append(parse(item, table))
        except DataError as exc:  # "triplet 3", "is_triplet 0"
            raise DataError(f"image {image_id!r} {key[:-1]} {k}: {exc}") from exc
    return parsed


def load_predictions(
    path: str | os.PathLike, vocab: Vocabulary | None = None
) -> dict[str, list[PredictedTriplet]]:
    """Read a prediction file; a malformed line or a repeated image is a DataError naming it.

    Attribute output (``is_triplets``) is checked, with its labels and attributes in
    ``vocab``'s ranges when one is given, but not returned.
    """

    def check_is_triplet(item, table: list[Box]) -> None:
        if type(item) is not dict:
            raise DataError("expected a JSON object")
        try:
            _box(item["box"], "box", table)
            label, attribute, score = item["label"], item["attribute"], item["score"]
        except KeyError as exc:
            raise DataError(f"missing key {exc}") from None
        if not (type(label) is int and type(attribute) is int):
            raise DataError("label and attribute must be integers")
        _score(score)
        if vocab is None:
            return
        classes, attributes = len(vocab.object_classes), len(vocab.attributes)
        if not (0 <= label < classes and 0 <= attribute < attributes):
            raise DataError(
                f"label {label} or attribute {attribute} outside object classes "
                f"0..{classes - 1} and attributes 0..{attributes - 1}"
            )

    def parse(raw: dict, _line: int) -> tuple[str, list[PredictedTriplet]]:
        image_id = raw.get("image_id")
        if not isinstance(image_id, str):
            raise DataError(f"image_id must be a string, got {image_id!r}")
        boxes = raw.get("boxes", [])
        if type(boxes) is not list:
            raise DataError(f"image {image_id!r}: boxes must be a list")
        table = [parse_box(b, f"image {image_id!r} box {k}") for k, b in enumerate(boxes)]
        triplets = _parse_items(raw, "triplets", _parse_triplet, image_id, table)
        _parse_items(raw, "is_triplets", check_is_triplet, image_id, table)
        return image_id, triplets

    return read_image_lines(path, parse)
