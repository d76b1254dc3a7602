"""Command-line front end: gen-synth, train, predict, eval, ablate.

Every subcommand is a thin wrapper over the library calls. A JSON config
file (--config) sets the chosen subcommand's flag defaults: its values
are parsed like flags, and explicitly passed flags win. Exit codes:
0 success, 1 usage error, 2 data validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from .datamodel import (
    DataError,
    atomic_write_text,
    json_number,
    load_dataset,
    load_vocabulary,
    read_json,
    save_dataset,
    save_vocabulary,
)
from .fusion import (
    ATTRIBUTE_HIDDEN,
    EVAL_MODES,
    BranchMask,
    ScoreError,
    TrainConfig,
    featurized_views,
    gt_substitution,
    init_fusion_model,
    load_checkpoint,
    load_predictions,
    predict_attributes,
    predict_image,
    save_checkpoint,
    save_predictions,
    train,
    train_attribute_head,
)
from .metrics import MatchSpec, evaluate
from .numcore import NumericError, init_mlp
from .semantic import fit_frequency
from .synth import SynthConfig, generate, save_oracle


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_BRANCH_TOKENS = {
    "s": "semantic",
    "p": "spatial",
    "v": "visual_spo",
    "so": "visual_subobj",
}


def _tokens(text: str, allowed, what: str) -> set[str]:
    """The stripped comma-separated tokens; an unknown one is a usage error."""
    tokens = [token.strip() for token in text.split(",")]
    for token in tokens:
        if token not in allowed:
            raise UsageError(f"unknown {what} token {token!r}; use {', '.join(allowed)}")
    return set(tokens)


def parse_branches(text: str) -> BranchMask:
    """Parse e.g. "s,p,v,so" (semantic, spatial, SPO head, sub/obj heads)."""
    tokens = _tokens(text, _BRANCH_TOKENS, "branch")
    return BranchMask(**{name: token in tokens for token, name in _BRANCH_TOKENS.items()})


def non_negative_int(text: str) -> int:
    """The --top-n type: an integer >= 0, checked before any file is read."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"top_n must be >= 0, got {value}")
    return value


def k_per_pair(text: str):
    """The --k-per-pair type: 'free' or an integer; MatchSpec checks the range."""
    return text if text == "free" else int(text)


# The flags that feed a config dataclass, as dest -> field. Each flag is
# --dest and takes its type and default from the field's default value.
_SYNTH_FLAGS = {name: name for name in (
    "num_images", "num_test_images", "num_classes", "num_predicates", "feature_dim", "seed",
    "noise", "num_attributes", "pair_density", "rule_weight", "appearance_weight",
    "existence_weight",
)}
_TRAIN_FLAGS = {
    {"learning_rate": "lr", "negative_ratio": "neg_ratio"}.get(f.name, f.name): f.name
    for f in dataclasses.fields(TrainConfig)
}

# Flags that several subcommands take: option string -> add_argument keywords.
_SHARED_FLAGS = {
    "--train": {"required": True, "dest": "train_path"},
    "--test": {"required": True, "dest": "test_path"},
    "--vocab": {"required": True},
    "--mode": {"choices": EVAL_MODES, "default": "sgdet"},
    "--top-n": {"type": non_negative_int, "default": 100},
    "--graph-constraint": {"choices": ("on", "off"), "default": "off"},
    "--smoothing": {"type": float, "default": 1.0},
}


def _add_flags(sub, *shared: str, fields: dict | None = None, defaults=None):
    """Add the named shared flags, then a flag per dest -> field of ``fields``."""
    for option in shared:
        sub.add_argument(option, **_SHARED_FLAGS[option])
    for dest, field in (fields or {}).items():
        default = getattr(defaults, field)
        sub.add_argument(f"--{dest.replace('_', '-')}", type=type(default), default=default)


def _config(cls, fields: dict, args, **extra):
    """A ``cls`` config from the flag values of ``fields`` (dest -> field) and ``extra``."""
    return cls(**{field: getattr(args, dest) for dest, field in fields.items()}, **extra)


def build_parser() -> _Parser:
    parser = _Parser(prog="relfusion")
    parser.add_argument("--config", help="JSON file of flag defaults; flags win")
    subs = parser.add_subparsers(dest="command", required=True)
    train_defaults = TrainConfig(seed=7)

    defaults = SynthConfig()
    gen = subs.add_parser("gen-synth", help="generate a synthetic dataset")
    gen.add_argument("--out", required=True, help="output directory")
    _add_flags(gen, fields=_SYNTH_FLAGS, defaults=defaults)
    gen.add_argument("--min-objects", type=int, default=defaults.objects_per_image[0])
    gen.add_argument("--max-objects", type=int, default=defaults.objects_per_image[1])
    gen.add_argument("--signals", default="s,p,v", help="enabled signals: s,p,v")

    tr = subs.add_parser("train", help="fit the frequency prior and train the branches")
    _add_flags(tr, "--train", "--vocab", "--mode", "--smoothing",
               fields=_TRAIN_FLAGS, defaults=train_defaults)
    tr.add_argument("--checkpoint", required=True, help="output checkpoint path")
    tr.add_argument("--branches", default="s,p,v,so")

    pr = subs.add_parser("predict", help="write ranked triplets for a dataset")
    _add_flags(pr, "--test", "--vocab", "--mode", "--top-n")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument(
        "--attributes",
        action="store_true",
        help="append per-object attribute predictions (OI output mode)",
    )

    ev = subs.add_parser("eval", help="score predictions against ground truth")
    _add_flags(ev, "--test", "--vocab", "--mode", "--graph-constraint")
    ev.add_argument("--predictions", required=True)
    ev.add_argument("--out", required=True, help="report JSON path")
    ev.add_argument("--k-per-pair", type=k_per_pair, help="per-pair budget: integer or 'free'")
    ev.add_argument("--iou-threshold", type=float, default=0.5)

    ab = subs.add_parser("ablate", help="train and score the four branch configurations")
    _add_flags(ab, "--train", "--test", "--vocab", "--mode", "--top-n", "--graph-constraint",
               "--smoothing", fields=_TRAIN_FLAGS, defaults=train_defaults)
    ab.add_argument("--out", required=True, help="ablation CSV path")
    parser.subcommands = subs.choices  # name -> subparser, for --config
    return parser


def _apply_config(parser: _Parser, args: argparse.Namespace, argv: list[str]):
    """Parse argv again with the config file's values as the subcommand's defaults.

    So explicit flags win and every value goes through its flag's type. A
    key that is not one of the subcommand's flags (``command`` and
    ``config`` included) is a usage error.
    """
    try:
        config = read_json(args.config)
    except DataError as exc:
        raise UsageError(f"config {exc}") from exc
    subparser = parser.subcommands[args.command]
    # -h has no value to default.
    actions = {a.dest: a for a in subparser._actions if a.default is not argparse.SUPPRESS}
    for key, value in config.items():
        action = actions.get(key)
        if action is None:
            raise UsageError(f"{args.config}: {key!r} is not a flag of {args.command}")
        if not isinstance(value, (str, int, float)):  # bool is an int
            raise UsageError(f"{args.config}: {key!r} must be a string, number or boolean")
        # A switch takes only true or false, and only a switch takes them;
        # main() names the config.
        switch = action.nargs == 0
        if (type(value) is bool) != switch:
            kind = "true or false" if switch else "a string or number, not a boolean"
            raise UsageError(f"{key!r} must be {kind}, got {json.dumps(value)}")
        if type(value) in (int, float) and json_number(value) is None:
            raise UsageError(f"{key!r} must be a finite number, got {value!r:.40}")
        # argparse checks choices only for command-line tokens; the flags with
        # choices take strings, so the config value is what it would compare.
        if action.choices and value not in action.choices:
            raise UsageError(f"{args.config}: {key!r} must be one of "
                             f"{', '.join(map(str, action.choices))}, got {value!r}")
    # argparse applies a flag's type to string defaults only.
    defaults = {k: str(v) if type(v) in (int, float) else v for k, v in config.items()}
    subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


def cmd_gen_synth(args) -> int:
    signals = _tokens(args.signals, ("s", "p", "v"), "signal")
    cfg = _config(
        SynthConfig, _SYNTH_FLAGS, args,
        objects_per_image=(args.min_objects, args.max_objects),
        semantic_signal="s" in signals,
        spatial_signal="p" in signals,
        visual_signal="v" in signals,
    )
    os.makedirs(args.out, exist_ok=True)  # an --out that cannot be a directory fails here
    result = generate(cfg)
    save_dataset(result.train, os.path.join(args.out, "train.jsonl"))
    save_dataset(result.test, os.path.join(args.out, "test.jsonl"))
    save_vocabulary(result.vocab, os.path.join(args.out, "vocab.json"))
    save_oracle(result.oracle, os.path.join(args.out, "oracle.json"))
    print(
        f"wrote {len(result.train)} train / {len(result.test)} test images to {args.out}"
    )
    return 0


@contextlib.contextmanager
def _naming(path):
    """A DataError raised in the block names ``path``, the file whose data it is about,
    and the line of that file when the error knows it."""
    try:
        yield
    except DataError as exc:
        where = path if exc.line is None else f"{path}:{exc.line}"
        raise type(exc)(f"{where}: {exc}") from exc


def _views(path, vocab, mode: str, dim: int | None = None, of: str = "checkpoint"):
    """A dataset file's records, their mode views and the views' feature dim.

    The dim is None without detections. A DataError names the file, and
    so does a dim other than a given ``dim``, which is ``of``'s.
    """
    dataset = load_dataset(path, vocab)
    with _naming(path):
        views = [gt_substitution(r, mode) for r in dataset]
    found = next((d.feature.shape[0] for r in views for d in r.detections), None)
    if dim is not None and found not in (None, dim):
        raise DataError(f"{path}: feature dimension {found} != {of}'s {dim}")
    return dataset, views, found


def _training_setup(args, vocab):
    """The training set's records, mode views and feature dim, and the fitted prior."""
    dataset, views, dim = _views(args.train_path, vocab, args.mode)
    if dim is None:
        raise DataError(f"{args.train_path}: training dataset contains no detections")
    return dataset, views, dim, fit_frequency(dataset, vocab, smoothing=args.smoothing)


def _predict(model, views, top_n: int, path) -> dict:
    """Each view's Ranking, by image id; a DataError names ``path``, the views' file."""
    with _naming(path):
        return {view.image_id: predict_image(model, view, pairs, inputs, top_n)
                for view, pairs, inputs in featurized_views(model, views)}


def _check_output(path) -> None:
    """Checked before any work: ``path`` names a file in an existing directory."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"cannot write {path}: not a file in an existing directory")


def cmd_train(args) -> int:
    _check_output(args.checkpoint)
    cfg, mask = _config(TrainConfig, _TRAIN_FLAGS, args), parse_branches(args.branches)
    vocab = load_vocabulary(args.vocab)
    dataset, views, dim, freq = _training_setup(args, vocab)
    rng = np.random.default_rng(cfg.seed)
    with _naming(args.train_path):
        model, history = train(init_fusion_model(freq, dim, vocab, rng, mask=mask), views, cfg)
        if vocab.attributes and any(r.gt_attributes for r in dataset):
            model.attribute_head = init_mlp([dim, ATTRIBUTE_HIDDEN, len(vocab.attributes)], rng)
            train_attribute_head(model.attribute_head, dataset, cfg)

    save_checkpoint(model, args.checkpoint)
    csv_lines = ["epoch,loss"] + [f"{i},{v:.6f}" for i, v in enumerate(history)]
    atomic_write_text(f"{args.checkpoint}.loss.csv", "\n".join(csv_lines) + "\n")
    final = history[-1] if history else float("nan")
    print(f"final train loss: {final:.6f}")
    return 0


def cmd_predict(args) -> int:
    _check_output(args.out)
    vocab = load_vocabulary(args.vocab)
    model = load_checkpoint(args.checkpoint)
    if model.vocab_hash != vocab.digest():
        raise DataError(f"{args.checkpoint} was trained with a vocabulary other than {args.vocab}")
    classes, head = len(vocab.object_classes), model.attribute_head
    if any(max(pair) >= classes for pair in model.freq.counts):
        raise DataError(f"{args.checkpoint}: frequency: class ids must be in 0..{classes - 1},"
                        f" the object classes of {args.vocab}")
    if head is not None and head.out_dim != len(vocab.attributes):
        raise DataError(f"{args.checkpoint}: attribute_head has {head.out_dim} outputs, not the"
                        f" {len(vocab.attributes)} attributes of {args.vocab}")
    if args.attributes and head is None:
        raise DataError(f"{args.checkpoint}: --attributes needs an attribute_head, and the"
                        " checkpoint has none")
    _, views, _ = _views(args.test_path, vocab, args.mode, model.feature_dim)
    try:
        predictions = _predict(model, views, args.top_n, args.test_path)
        with _naming(args.test_path):  # empty without --attributes
            attributes = {v.image_id: predict_attributes(head, v) for v in views if args.attributes}
    except ScoreError as exc:  # the nets overflow on these inputs: name the checkpoint too
        raise DataError(f"{exc} (checkpoint {args.checkpoint})") from exc
    save_predictions(predictions, args.out, attributes)
    print(f"wrote predictions for {len(predictions)} images to {args.out}")
    return 0


def cmd_eval(args) -> int:
    _check_output(args.out)
    spec = MatchSpec(
        iou_threshold=args.iou_threshold,
        graph_constraint=args.graph_constraint == "on",
        k_per_pair=args.k_per_pair,
    )
    vocab = load_vocabulary(args.vocab)
    dataset = load_dataset(args.test_path, vocab)
    predictions = load_predictions(args.predictions, vocab)
    try:
        report = evaluate(predictions, dataset, vocab, mode=args.mode, spec=spec)
    except DataError as exc:  # images the test set lacks, labels the vocabulary lacks
        where = f"test set {args.test_path}, vocabulary {args.vocab}"
        raise DataError(f"{args.predictions}: {exc} ({where})") from exc
    atomic_write_text(args.out, json.dumps(report.to_json(vocab), indent=2) + "\n")
    print(report.format_table(vocab))
    return 0


# Each row's --branches tokens.
ABLATION_ROWS = [
    ("baseline", "s"),
    ("<SPO>", "s,v"),
    ("<SPO>+S+O", "s,v,so"),
    ("<SPO>+S+O+spt", "s,p,v,so"),
]


def cmd_ablate(args) -> int:
    _check_output(args.out)
    cfg = _config(TrainConfig, _TRAIN_FLAGS, args)
    spec = MatchSpec(graph_constraint=args.graph_constraint == "on")
    vocab = load_vocabulary(args.vocab)
    _, views, dim, freq = _training_setup(args, vocab)
    test_set, test_views, _ = _views(args.test_path, vocab, args.mode, dim, args.train_path)

    csv_lines = ["config,r50,map_rel,map_phr,score"]
    table = [f"{'config':<18s} {'R@50':>7s} {'mAP_rel':>8s} {'mAP_phr':>8s} {'score':>7s}"]
    for name, branches in ABLATION_ROWS:
        rng = np.random.default_rng(cfg.seed)
        with _naming(args.train_path):
            mask = parse_branches(branches)
            model, _ = train(init_fusion_model(freq, dim, vocab, rng, mask=mask), views, cfg)
        predictions = _predict(model, test_views, args.top_n, args.test_path)
        report = evaluate(predictions, test_set, vocab, mode=args.mode, spec=spec)
        r50, mrel, mphr, score = (
            100 * v for v in (report.recall_at[50], report.map_rel, report.map_phr, report.oi_score)
        )
        csv_lines.append(f"{name},{r50:.4f},{mrel:.4f},{mphr:.4f},{score:.4f}")
        table.append(f"{name:<18s} {r50:7.2f} {mrel:8.2f} {mphr:8.2f} {score:7.2f}")
    print("\n".join(table))
    atomic_write_text(args.out, "\n".join(csv_lines) + "\n")
    return 0


_COMMANDS = {
    "gen-synth": cmd_gen_synth,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    config = None
    try:
        args = parser.parse_args(argv)
        if args.config:
            config = args.config
            args = _apply_config(parser, args, argv)
        return _COMMANDS[args.command](args)
    except DataError as exc:  # a ValueError, so caught first
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, OSError, ValueError) as exc:
        # The bad value may have come from the config file: name it.
        where = f" (flag defaults from {config})" if config and config not in str(exc) else ""
        print(f"usage error: {exc}{where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
