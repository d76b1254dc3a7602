"""Per-layer spans and counters, recorded from outside the package.

The tracer replaces public functions of the relfusion modules with
wrappers, at the module attribute where the *calling* module looks them
up (``fusion`` imports ``spatial_feature`` by name, so the wrapper goes
on ``relfusion.fusion.spatial_feature``). Nothing under ``src/`` knows
about it. Spans and counts stay in memory; run.py turns them into
metrics and writes the span table out when the run ends.

Functions called once per pair, per IoU or per triplet match are "hot":
a wrapper costs a few microseconds, which would inflate their callers by
tens of percent. So a run traces iterations at two levels. A coarse
iteration wraps only the functions called at most a few hundred times
per command; a fine iteration wraps the hot ones as well. Each metric is
taken from the level that first measures it (``is_fine``), and the
coarse level is the one whose time shares are reported.

Span times are inclusive. A span's self time is its duration minus the
time of the spans it directly contains. A function that calls itself
through its module global (free-k ``vrd_recall``) is one span: only the
outermost call is timed.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter_ns

# (calling module, attribute, span name). The span name's prefix is the
# module that defines the function.
SPANS = [
    ("relfusion.cli", "train", "fusion.train"),
    ("relfusion.cli", "gt_substitution", "fusion.gt_substitution"),
    ("relfusion.cli", "train_attribute_head", "fusion.train_attribute_head"),
    ("relfusion.cli", "predict_image", "fusion.predict_image"),
    ("relfusion.cli", "predict_attributes", "fusion.predict_attributes"),
    ("relfusion.cli", "save_checkpoint", "fusion.save_checkpoint"),
    ("relfusion.cli", "load_checkpoint", "fusion.load_checkpoint"),
    ("relfusion.cli", "save_predictions", "fusion.save_predictions"),
    ("relfusion.cli", "load_predictions", "fusion.load_predictions"),
    ("relfusion.cli", "load_dataset", "datamodel.load_dataset"),
    ("relfusion.cli", "load_vocabulary", "datamodel.load_vocabulary"),
    ("relfusion.cli", "atomic_write_text", "datamodel.atomic_write_text"),
    ("relfusion.cli", "fit_frequency", "semantic.fit_frequency"),
    ("relfusion.cli", "evaluate", "metrics.evaluate"),
    ("relfusion.fusion", "build_training_inputs", "fusion.build_training_inputs"),
    ("relfusion.fusion", "match_positive_pairs", "fusion.match_positive_pairs"),
    ("relfusion.fusion", "pair_inputs", "fusion.pair_inputs"),
    ("relfusion.fusion", "batch_logits", "fusion.batch_logits"),
    ("relfusion.fusion", "loss_and_grads", "fusion.loss_and_grads"),
    ("relfusion.fusion", "spatial_feature", "spatial.spatial_feature"),
    ("relfusion.fusion", "semantic_logits", "semantic.semantic_logits"),
    ("relfusion.fusion", "predicate_feature", "visual.predicate_feature"),
    ("relfusion.fusion", "forward", "numcore.forward"),
    ("relfusion.fusion", "layer_forward", "numcore.layer_forward"),
    ("relfusion.fusion", "sgd_step", "numcore.sgd_step"),
    ("relfusion.numcore", "softmax_xent", "numcore.softmax_xent"),
    ("relfusion.numcore", "backward", "numcore.backward"),
    ("relfusion.metrics", "recall_at_k", "metrics.recall_at_k"),
    ("relfusion.metrics", "vrd_recall", "metrics.vrd_recall"),
    ("relfusion.metrics", "mean_average_precision", "metrics.mean_average_precision"),
]

HOT_SPANS = {"spatial.spatial_feature", "semantic.semantic_logits", "visual.predicate_feature"}

# Called too often even for a span: counted only, in fine iterations.
COUNTED = [
    ("relfusion.fusion", "iou", "datamodel.iou"),
    ("relfusion.metrics", "iou", "datamodel.iou"),
    ("relfusion.metrics", "triplet_match", "metrics.triplet_match"),
]
HOT = HOT_SPANS | {name for _, _, name in COUNTED}


def is_fine(metric: str) -> bool:
    """True for metrics measured only in fine iterations."""
    return any(metric.startswith(name + "_") for name in HOT)


# I/O functions: path argument position and the byte counter it feeds.
_IO = {
    "datamodel.load_dataset": (0, "datamodel.bytes_read.dataset"),
    "datamodel.load_vocabulary": (0, "datamodel.bytes_read.vocab"),
    "fusion.load_checkpoint": (0, "datamodel.bytes_read.checkpoint"),
    "fusion.load_predictions": (0, "datamodel.bytes_read.predictions"),
    "fusion.save_checkpoint": (1, "datamodel.bytes_written.checkpoint"),
    "fusion.save_predictions": (1, "datamodel.bytes_written.predictions"),
    "datamodel.atomic_write_text": (0, "datamodel.bytes_written.report"),
}


def _rows(x) -> int:
    return 1 if x.ndim == 1 else x.shape[0]


def _mlp_macs(mlp) -> int:
    return sum(layer.in_dim * layer.out_dim for layer in mlp.layers)


class Tracer:
    """Installs the wrappers and accumulates one iteration's spans and counts."""

    def __init__(self):
        self.phase: str | None = None
        self._originals: list[tuple[object, str, object]] = []
        self._active: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._in_free_k = 0
        self.reset()

    def reset(self) -> None:
        self.inclusive_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.parents: dict[str, str] = {}
        self.counts: dict[str, int] = defaultdict(int)

    # --- installation ---------------------------------------------------

    def install(self, fine: bool) -> None:
        for module_name, attr, name in SPANS:
            if fine or name not in HOT_SPANS:
                self._patch(module_name, attr, lambda fn, n=name: self._span(n, fn))
        if fine:
            for module_name, attr, name in COUNTED:
                self._patch(module_name, attr, lambda fn, n=name: self._counter(n, fn))
        self._patch(
            "relfusion.fusion", "pair_proposals", lambda fn: self._count_proposals(fn)
        )

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._originals.append((module, attr, original))
        setattr(module, attr, make(original))

    # --- wrappers -------------------------------------------------------

    def _span(self, name: str, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        io_arg, io_counter = _IO.get(name, (None, None))
        if name == "metrics.vrd_recall":
            fn = self._count_free_k(fn)

        def wrapper(*args, **kwargs):
            if self._active[name]:
                return fn(*args, **kwargs)
            self._active[name] += 1
            frame = [name, 0]
            self.parents.setdefault(
                name, self._stack[-1][0] if self._stack else str(self.phase)
            )
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self._stack.pop()
                self._active[name] -= 1
                if self._stack:
                    self._stack[-1][1] += elapsed
                self.inclusive_ns[(self.phase, name)] += elapsed
                self.self_ns[name] += elapsed - frame[1]
                self.calls[name] += 1
            if io_counter is not None:
                self.counts[io_counter] += os.path.getsize(args[io_arg])
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        key = name + "_calls"

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_proposals(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["fusion.proposals"] += len(result)
            return result

        return wrapper

    def _count_free_k(self, fn):
        """Free-k calls and the fixed-budget re-matches made inside them."""

        def wrapper(*args, **kwargs):
            budget = kwargs.get("k_per_pair", args[3] if len(args) > 3 else None)
            if budget != "free":
                if self._in_free_k:
                    self.counts["metrics.free_k_budgets"] += 1
                return fn(*args, **kwargs)
            self.counts["metrics.free_k_calls"] += 1
            self._in_free_k += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_free_k -= 1

        return wrapper

    # --- per-span hooks, looked up by span name -------------------------

    def _after_fusion_build_training_inputs(self, args, result):
        positives = int((result.targets != 0).sum())
        self.counts["fusion.positives"] += positives
        self.counts["fusion.negatives"] += len(result.targets) - positives

    def _after_fusion_predict_image(self, args, result):
        model, record = args[0], args[1]
        valid = sum(1 for d in record.detections if not d.box.is_degenerate())
        self.counts["fusion.kept"] += len(result)
        self.counts["fusion.scored"] += valid * (valid - 1) * model.num_predicates

    # Matmul FLOPs of training: 2 per multiply-add forward, 4 backward
    # (weight and input gradients).
    def _after_numcore_forward(self, args, result):
        if self.phase == "train":
            self.counts["numcore.train_flops"] += 2 * _rows(args[1]) * _mlp_macs(args[0])

    def _after_numcore_layer_forward(self, args, result):
        if self.phase == "train":
            layer = args[0]
            self.counts["numcore.train_flops"] += (
                2 * _rows(args[1]) * layer.in_dim * layer.out_dim
            )

    def _after_numcore_backward(self, args, result):
        if self.phase == "train":
            self.counts["numcore.train_flops"] += 4 * _rows(args[2]) * _mlp_macs(args[0])

    # --- results --------------------------------------------------------

    def span_seconds(self, name: str, phases=None) -> float:
        return sum(
            ns
            for (phase, span), ns in self.inclusive_ns.items()
            if span == name and (phases is None or phase in phases)
        ) / 1e9

    def span_table(self) -> list[dict]:
        """Every span name with its parent, calls, inclusive and self seconds."""
        names = sorted(self.calls)
        return [
            {
                "name": n,
                "parent": self.parents.get(n),
                "calls": self.calls[n],
                "inclusive_s": self.span_seconds(n),
                "self_s": self.self_ns[n] / 1e9,
            }
            for n in names
        ]


def layer_metrics(tracer: Tracer, walls: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one traced loop iteration.

    ``walls`` maps each CLI command of the iteration to its wall seconds;
    the ``share.*`` ratios divide layer time by them.
    """
    out: dict[str, float] = {}
    for _, _, name in SPANS:
        out[name + "_s"] = tracer.span_seconds(name)
        out[name + "_calls"] = tracer.calls.get(name, 0)
    counts = tracer.counts
    for _, _, name in COUNTED:
        counts[name + "_calls"] += 0
    out.update(counts)
    out["fusion.train_steps"] = tracer.calls.get("fusion.loss_and_grads", 0)
    out["fusion.kept_per_scored"] = counts["fusion.kept"] / max(counts["fusion.scored"], 1)
    budgets = counts["metrics.free_k_budgets"]
    # One budget per free-k call is kept; a one-pass sweep (no re-matches)
    # wastes nothing.
    out["metrics.free_k_useful_per_budget"] = (
        counts["metrics.free_k_calls"] / budgets if budgets else 1.0
    )

    train = {"train"}
    matmul_s = sum(
        tracer.span_seconds(n, train)
        for n in ("numcore.forward", "numcore.layer_forward", "numcore.backward")
    )
    out["numcore.gflops"] = counts["numcore.train_flops"] / matmul_s / 1e9 if matmul_s else 0.0
    numcore_s = matmul_s + sum(
        tracer.span_seconds(n, train) for n in ("numcore.softmax_xent", "numcore.sgd_step")
    )
    featurize_s = sum(
        tracer.span_seconds(n, train)
        for n in ("fusion.build_training_inputs", "fusion.gt_substitution")
    )
    evals = {"eval", "eval_gc", "eval_free"}
    metrics_s = sum(
        tracer.span_seconds(n, evals)
        for n in ("metrics.recall_at_k", "metrics.vrd_recall", "metrics.mean_average_precision")
    )
    out["share.featurize_match_of_train"] = featurize_s / walls["train"]
    out["share.numcore_of_train"] = numcore_s / walls["train"]
    out["share.metrics_of_eval"] = metrics_s / sum(walls[p] for p in evals)
    return out
