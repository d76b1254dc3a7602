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

Featurization spans images: :func:`pair_inputs` stacks the inputs of
many images' pairs in one pass, which training makes once over all its
examples and prediction once per group of views
(:func:`featurized_views`). Prediction's forward pass runs once per run
of views with the same proposal count, on inputs shaped (views, rows, ·):
numpy's stacked matmul makes the same BLAS call per view that the view's
own 2-D product makes, so every view keeps its bits. Only a flattened
(rows, ·) product over several views may round a row differently, so
none is made. Matching, sampling and ranking stay per image.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, astuple, dataclass, replace

import numpy as np

from .datamodel import (
    Box,
    DataError,
    Detection,
    ImageRecord,
    PredictedTriplet,
    Ranking,
    Vocabulary,
    _NUMBER_TYPES,
    _index,
    _indices,
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
from .spatial import SPATIAL_DIM, image_size, spatial_features
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


def pair_proposals(record: ImageRecord) -> np.ndarray:
    """All ordered index pairs over non-degenerate detections, an (N, 2) array."""
    valid = [i for i, d in enumerate(record.detections) if not d.box.is_degenerate()]
    return np.array([(i, j) for i in valid for j in valid if i != j], dtype=np.intp).reshape(-1, 2)


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


def pair_inputs(model: FusionModel, records: list[ImageRecord], pairs) -> PairInputs:
    """Assemble the enabled branches' inputs for the proposals of several records.

    ``pairs`` holds each record's (subject, object) detection indices, as
    a list of tuples or an (N, 2) array, at least one pair in all. The
    rows are stacked in record order. Each input is gathered by index
    arrays from one table of all the records' detections, and the spatial
    encoding is one call with each row's image size. The frequency prior
    is one :func:`semantic_logits` call on the distinct class pairs of all
    the rows, computed afresh on every call, so an edit of
    ``model.freq.counts`` reaches the next call.
    """
    index = [np.asarray(p, dtype=np.intp).reshape(-1, 2) for p in pairs]
    starts = np.cumsum([0] + [len(r.detections) for r in records])
    rec = np.repeat(np.arange(len(records)), [len(p) for p in index])
    sub, obj = (np.concatenate(index) + starts[rec, None]).T
    dets = [d for r in records for d in r.detections]
    labels = np.array([d.label for d in dets])
    boxes = box_array(d.box for d in dets)
    feats = np.concatenate([d.feature for d in dets]).reshape(len(dets), -1)  # as np.stack

    def semantic_rows():
        # Distinct class pairs by a dict: np.unique(axis=0) sorts, at more cost than the lookups.
        distinct: dict[tuple[int, int], int] = {}
        row = [distinct.setdefault(pair, len(distinct))
               for pair in zip(labels[sub].tolist(), labels[obj].tolist())]
        subs, objs = zip(*distinct)
        return semantic_logits(model.freq, subs, objs)[row]

    def spatial_rows():
        sizes = np.array([image_size(r.width, r.height) for r in records])[rec]
        # A box far smaller or larger than its partner overflows the pair's encoding:
        # a data error naming the first such pair, not a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            spat = spatial_features(boxes[sub], boxes[obj], sizes)
        finite = np.isfinite(spat).all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite))
            record, start = records[rec[k]], starts[rec[k]]
            raise DataError(f"image {record.image_id!r} detection pair ({sub[k] - start},"
                            f" {obj[k] - start}): spatial encoding is not finite", record.line)
        return spat

    rows = {
        "sem": semantic_rows,
        "spat": spatial_rows,
        "v_sub": lambda: feats[sub],
        "v_pred": lambda: predicate_features(feats, sub, obj, records, starts),
        "v_obj": lambda: feats[obj],
    }
    names = [n for b in enabled_branches(model.mask) for _, inputs in b.terms for n in inputs]
    return PairInputs({name: rows[name]() for name in dict.fromkeys(names)})


def batch_logits(model: FusionModel, inputs: PairInputs) -> tuple[np.ndarray, list]:
    """Fused logits for a batch of pairs plus (net, cache) of each enabled net.

    The inputs are (N, ·) or stacked (..., N, ·); the logits are (..., N, P+1).
    """
    vectors: list[np.ndarray] = []
    caches: list = []
    for branch in enabled_branches(model.mask):
        out = None
        for net, names in branch.terms:
            term = np.concatenate([inputs.arrays[name] for name in names], axis=-1)
            if net is not None:
                mlp = getattr(model, net)
                term, cache = forward(mlp, term)
                caches.append((mlp, cache))
            out = term if out is None else np.add(out, term, out=out)
        vectors.append(out)
    # Right fold so that peeling branches off the front of the canonical
    # order splits the sum without any re-rounding.
    logits = np.zeros(vectors[0].shape[:-1] + (model.num_predicates + 1,))
    for out in reversed(vectors):
        np.add(out, logits, out=logits)
    return logits, caches


def pair_logits(
    model: FusionModel, record: ImageRecord, pair: tuple[int, int]
) -> np.ndarray:
    """Fused (P+1)-vector for one ordered detection pair."""
    logits, _ = batch_logits(model, pair_inputs(model, [record], [[pair]]))
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
    """Positive examples plus per-image sampled no-relationship negatives.

    Each image is matched and sampled on its own, in dataset order; then
    every image's examples are featurized by one :func:`pair_inputs` call.
    """
    records, examples, targets = [], [], []
    total_positives = 0
    for record in dataset:
        positives, predicates = match_positive_pairs(record)
        total_positives += len(predicates)
        proposals = pair_proposals(record)
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
        records.append(record)
        examples.append(np.concatenate([positives, chosen]))
        targets += [predicates, np.zeros(n_neg, dtype=np.intp)]
    if total_positives == 0:
        raise DataError("no positive training pairs: detections never match ground truth")
    inputs = pair_inputs(model, records, examples)
    inputs.targets = np.concatenate(targets)
    return inputs


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


class ScoreError(DataError):
    """A predicted score is not finite: the nets overflowed on an image."""


# The most proposal rows that predict featurizes in one pair_inputs call. A group's inputs
# stay allocated while its views run their forward passes, so the cap bounds that memory on
# any test set. It is small because big groups cost page faults: with six 462-pair views in
# one group, the spo head's (462, 256) hidden arrays were paged in afresh for every view.
PREDICT_GROUP_ROWS = 2**9
# The most proposal rows of one stacked forward pass in predict, so that the spo head's
# stacked hidden arrays are no larger than one view of this many rows allocates on its own.
# Stacks of three 156-row views made score-dense's predict slower, and so did groups capped
# at this size, so the two caps differ.
PREDICT_STACK_ROWS = 2**8


def featurized_views(model: FusionModel, views: list[ImageRecord]):
    """Yield each view with its proposals, an (N, 2) array, and their (N, P+1) fused logits.

    Consecutive views are featurized together, one :func:`pair_inputs`
    call per group of at most PREDICT_GROUP_ROWS proposal rows; a view with
    more is a group of its own. Within a group, each run of consecutive
    views with the same proposal count N, at most PREDICT_STACK_ROWS rows
    in all, is one :func:`batch_logits` call on inputs stacked (views, N, ·);
    a view with more rows is a run of its own. A stacked matmul makes one
    BLAS call per view, so each view's logits are the bits of its own
    forward pass. A view without proposals gets None logits. Views come out
    in order.
    """

    def featurize(group):
        inputs = None
        if any(len(pairs) for _, pairs in group):
            inputs = pair_inputs(model, [view for view, _ in group], [p for _, p in group])
        start = 0
        for n, same in itertools.groupby(group, key=lambda item: len(item[1])):
            same = list(same)
            if not n:
                yield from ((view, pairs, None) for view, pairs in same)
                continue
            per_run = max(1, PREDICT_STACK_ROWS // n)
            for k in range(0, len(same), per_run):
                run = same[k : k + per_run]
                stop = start + n * len(run)
                stacked = PairInputs({name: arr[start:stop].reshape(len(run), n, -1)
                                      for name, arr in inputs.arrays.items()})
                # Overflow is no warning: predict_image reports a non-finite score.
                with np.errstate(over="ignore", invalid="ignore"):
                    logits, _ = batch_logits(model, stacked)
                yield from ((view, pairs, block) for (view, pairs), block in zip(run, logits))
                start = stop

    group, rows = [], 0
    for view in views:
        pairs = pair_proposals(view)
        if group and rows + len(pairs) > PREDICT_GROUP_ROWS:
            yield from featurize(group)
            group, rows = [], 0
        group.append((view, pairs))
        rows += len(pairs)
    yield from featurize(group)


def predict_image(
    model: FusionModel, record: ImageRecord, pairs: np.ndarray, logits: np.ndarray | None,
    top_n: int = 100,
) -> Ranking:
    """Ranked triplets for one image from its proposals and their fused logits.

    ``pairs`` and ``logits`` are the image's as :func:`featurized_views`
    yields them: the logits are the view's block of its run's stacked
    forward pass, the bits of a forward pass of the view alone. Every
    (proposal pair, real predicate) combination is scored with softmax
    probability times both detector confidences; the global top_n survive.
    Ties break on (pair index, predicate index). A kept score that is not
    finite is a ScoreError, not a numpy warning.
    """
    if top_n < 0:
        raise ValueError(f"top_n must be >= 0, got {top_n}")
    boxes, labels = [d.box for d in record.detections], [d.label for d in record.detections]
    if not len(pairs):
        return Ranking(boxes, labels, [], [], [], [])
    det_scores = np.array([d.score for d in record.detections])
    det_product = det_scores[pairs[:, 0]] * det_scores[pairs[:, 1]]
    with np.errstate(over="ignore", invalid="ignore"):
        scores = (softmax(logits)[:, 1:] * det_product[:, None]).ravel()
    # A stable sort keeps tied scores in (pair, predicate) order.
    ranked = np.argsort(-scores, kind="stable")[:top_n]
    kept = scores[ranked]
    if not np.isfinite(kept).all():
        raise ScoreError(f"image {record.image_id!r}: prediction score is not finite", record.line)
    pair_idx, p = np.divmod(ranked, model.num_predicates)
    sub, obj = pairs[pair_idx].T
    return Ranking(boxes, labels, sub.tolist(), obj.tolist(), (p + 1).tolist(), kept.tolist())


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
    """Top attribute per detection: (detection, attribute, score); a ScoreError if not finite.

    The head runs once per image on the detections' features stacked
    (detections, 1, D): numpy makes one one-row BLAS call per detection, the
    bits of a forward pass per detection, where a flattened (detections, D)
    product may round a row otherwise. The softmax, argmax and scores are
    one pass over the image.
    """
    dets = record.detections
    if not dets:
        return []
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _ = forward(head, np.stack([det.feature for det in dets])[:, None, :])
        probs = softmax(logits.reshape(len(dets), -1))
        best = probs.argmax(axis=1)
        scores = probs[np.arange(len(dets)), best] * np.array([det.score for det in dets])
    finite = np.isfinite(scores)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ScoreError(f"image {record.image_id!r} detection {k}: attribute score is"
                         " not finite", record.line)
    return list(zip(dets, best.tolist(), scores.tolist()))


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
    predictions: dict[str, Ranking],
    path: str | os.PathLike,
    attributes: dict[str, list[tuple[Detection, int, float]]] | None = None,
) -> None:
    """Write each Ranking as a line; an image's predict_attributes rows are its is_triplets.

    A line is ``json.dumps`` of the image's row, written from templates with each label,
    attribute and score through ``_json_scalar``. Its ``boxes`` table holds each distinct
    Box object once, in order of first use; a box field is an index into it.
    """
    lines = []
    for image_id, ranking in predictions.items():
        is_triplets = attributes.get(image_id) if attributes else None
        used = dict.fromkeys([k for pair in zip(ranking.sub, ranking.obj) for k in pair])
        boxes = [ranking.boxes[k] for k in used] + [d.box for d, _, _ in is_triplets or []]
        distinct = {id(b): b for b in boxes}
        index = {key: k for k, key in enumerate(distinct)}
        # Per used detection, the text before a triplet's predicate and before its score.
        text = {k: (index[id(ranking.boxes[k])], _json_scalar(ranking.labels[k])) for k in used}
        heads = {k: '{"sub_box": %d, "sub_label": %s, "predicate": ' % t for k, t in text.items()}
        tails = {k: ', "obj_box": %d, "obj_label": %s, "score": ' % t for k, t in text.items()}
        items = ", ".join([f"{heads[i]}{p}{tails[j]}{s!r}}}" for i, j, p, s in zip(
            ranking.sub, ranking.obj, ranking.predicates, ranking.scores)])
        table = json.dumps([b.to_list() for b in distinct.values()])
        line = f'{{"image_id": {json.dumps(image_id)}, "boxes": {table}, "triplets": [{items}]'
        if is_triplets is not None:
            js = _json_scalar
            rows = ", ".join([f'{{"box": {index[id(d.box)]}, "label": {js(d.label)}, "attribute":'
                              f' {js(a)}, "score": {js(s)}}}' for d, a, s in is_triplets])
            line += f', "is_triplets": [{rows}]'
        lines.append(line + "}")
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def _box(value, key: str, table: list[Box]) -> Box:
    """A box field: a list of 4 numbers, or an index into its line's parsed ``boxes``."""
    if type(value) is list:
        return parse_box(value, key)
    if _index(value, len(table)):
        return table[value]
    raise DataError(f"{key}: box must be a list of 4 numbers or an index into the line's"
                    f" {len(table)} boxes, got {value!r:.40}")


def _fields(item, table: list[Box], box_keys: tuple, int_keys: tuple) -> tuple[list, list, float]:
    """An item's boxes, integers and score; else a DataError for its first bad field, in turn."""
    if type(item) is not dict:
        raise DataError("expected a JSON object")
    try:
        boxes = [_box(item[key], key, table) for key in box_keys]
        ints, score = [item[key] for key in int_keys], item["score"]
    except KeyError as exc:
        raise DataError(f"missing key {exc}") from None
    if not is_list_of(ints, int):
        raise DataError(f"{', '.join(int_keys[:-1])} and {int_keys[-1]} must be integers")
    if (number := json_number(score)) is None:
        raise DataError(f"score must be a finite number, got {score!r:.40}")
    return boxes, ints, number


def _parse_triplet(item, table: list[Box]) -> PredictedTriplet:
    """A triplet item; else a DataError for its first bad field."""
    (sub_box, obj_box), (sub, pred, obj), score = _fields(
        item, table, ("sub_box", "obj_box"), ("sub_label", "predicate", "obj_label"))
    return PredictedTriplet(sub_box, sub, pred, obj_box, obj, score)


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


def _columns(items, table: list[Box], box_keys: tuple, int_keys: tuple) -> list[list] | None:
    """Each key's column, scores as floats, if every item passes :func:`_fields` with index
    boxes, checked in builtin passes; else None."""
    try:
        *ints, scores = [[item[key] for item in items] for key in (*box_keys, *int_keys, "score")]
        valid = (type(items) is list and all(_indices(c, len(table)) for c in ints[:len(box_keys)])
                 and all(is_list_of(c, int) for c in ints[len(box_keys):])
                 and _NUMBER_TYPES.issuperset(map(type, scores))
                 and all(map(math.isfinite, scores := list(map(float, scores)))))
    except (KeyError, TypeError, OverflowError):  # no key, no object, an int past float range
        return None
    return [*ints, scores] if valid else None


def _ranking(raw: dict, image_id: str, table: list[Box]) -> Ranking:
    """A line's triplets as a Ranking, a detection per distinct (box index, label), when
    :func:`_columns` reads them and no predicate is below 1; else parsed item by item."""
    columns = _columns(raw.get("triplets", []), table, ("sub_box", "obj_box"),
                       ("sub_label", "obj_label", "predicate"))
    if columns is None or min(columns[4], default=1) < 1:
        return Ranking.of(_parse_items(raw, "triplets", _parse_triplet, image_id, table))
    sub_box, obj_box, sub, obj, predicates, scores = columns
    fields, labels = sub_box + obj_box, sub + obj
    index = {key: k for k, key in enumerate(dict.fromkeys(zip(fields, labels)))}
    ids = list(map(index.__getitem__, zip(fields, labels)))
    return Ranking([table[k] for k, _ in index], [label for _, label in index],
                   ids[:len(sub)], ids[len(sub):], predicates, scores)


def load_predictions(path: str | os.PathLike,
                     vocab: Vocabulary | None = None) -> dict[str, Ranking]:
    """Read a prediction file, a Ranking per image; a malformed line or a repeated image is a
    DataError naming it. Attribute output (``is_triplets``) is checked, with its labels and
    attributes in ``vocab``'s ranges when one is given, but not returned."""
    classes, attributes = (len(vocab.object_classes), len(vocab.attributes)) if vocab else (0, 0)

    def check_is_triplet(item, table: list[Box]) -> None:
        _, (label, attribute), _ = _fields(item, table, ("box",), ("label", "attribute"))
        if vocab and not (0 <= label < classes and 0 <= attribute < attributes):
            raise DataError(f"label {label} or attribute {attribute} outside object classes "
                            f"0..{classes - 1} and attributes 0..{attributes - 1}")

    def parse(raw: dict, _line: int) -> tuple[str, Ranking]:
        image_id = raw.get("image_id")
        if not isinstance(image_id, str):
            raise DataError(f"image_id must be a string, got {image_id!r}")
        boxes = raw.get("boxes", [])
        if type(boxes) is not list:
            raise DataError(f"image {image_id!r}: boxes must be a list")
        table = [parse_box(b, f"image {image_id!r} box {k}") for k, b in enumerate(boxes)]
        ranking = _ranking(raw, image_id, table)
        rows = _columns(raw.get("is_triplets", []), table, ("box",), ("label", "attribute"))
        if rows is None or vocab and not (_indices(rows[1], classes)
                                          and _indices(rows[2], attributes)):
            _parse_items(raw, "is_triplets", check_is_triplet, image_id, table)
        return image_id, ranking

    return read_image_lines(path, parse)
