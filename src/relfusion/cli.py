"""Command-line front end: gen-synth, train, predict, eval, ablate.

Every subcommand is a thin wrapper over the library calls. Flags may be
preloaded from a JSON config file via --config; explicitly passed flags
win. Exit codes: 0 success, 1 usage error, 2 data validation error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .datamodel import (
    DataError,
    atomic_write_text,
    load_dataset,
    load_vocabulary,
    save_dataset,
    save_vocabulary,
)
from .fusion import (
    BranchMask,
    TrainConfig,
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
from .numcore import NumericError
from .semantic import fit_frequency
from .synth import SynthConfig, generate, save_oracle
from .visual import init_attribute_head


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


def parse_branches(text: str) -> BranchMask:
    """Parse e.g. "s,p,v,so" (semantic, spatial, SPO head, sub/obj heads)."""
    fields = {name: False for name in _BRANCH_TOKENS.values()}
    for token in text.split(","):
        token = token.strip()
        if token not in _BRANCH_TOKENS:
            raise UsageError(f"unknown branch token {token!r}; use s, p, v, so")
        fields[_BRANCH_TOKENS[token]] = True
    return BranchMask(**fields)


def _parse_k_per_pair(text: str):
    if text == "free":
        return "free"
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"--k-per-pair expects an integer or 'free', got {text!r}")
    if value < 1:
        raise UsageError("--k-per-pair must be at least 1")
    return value


def _add_train_flags(sub):
    base = TrainConfig()
    sub.add_argument("--epochs", type=int, default=base.epochs)
    sub.add_argument("--batch-size", type=int, default=base.batch_size)
    sub.add_argument("--lr", type=float, default=base.learning_rate)
    sub.add_argument("--momentum", type=float, default=base.momentum)
    sub.add_argument("--neg-ratio", type=float, default=base.negative_ratio)
    sub.add_argument("--smoothing", type=float, default=1.0)


def build_parser() -> _Parser:
    parser = _Parser(prog="relfusion")
    parser.add_argument("--config", help="JSON file of flag defaults; flags win")
    subs = parser.add_subparsers(dest="command", required=True)

    defaults = SynthConfig()
    gen = subs.add_parser("gen-synth", help="generate a synthetic dataset")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=defaults.seed)
    gen.add_argument("--num-images", type=int, default=defaults.num_images)
    gen.add_argument("--num-test-images", type=int, default=defaults.num_test_images)
    gen.add_argument("--min-objects", type=int, default=defaults.objects_per_image[0])
    gen.add_argument("--max-objects", type=int, default=defaults.objects_per_image[1])
    gen.add_argument("--num-classes", type=int, default=defaults.num_classes)
    gen.add_argument("--num-predicates", type=int, default=defaults.num_predicates)
    gen.add_argument("--feature-dim", type=int, default=defaults.feature_dim)
    gen.add_argument("--num-attributes", type=int, default=defaults.num_attributes)
    gen.add_argument("--noise", type=float, default=defaults.noise)
    gen.add_argument("--pair-density", type=float, default=defaults.pair_density)
    gen.add_argument("--rule-weight", type=float, default=defaults.rule_weight)
    gen.add_argument("--appearance-weight", type=float, default=defaults.appearance_weight)
    gen.add_argument("--existence-weight", type=float, default=defaults.existence_weight)
    gen.add_argument("--signals", default="s,p,v", help="enabled signals: s,p,v")

    tr = subs.add_parser("train", help="fit the frequency prior and train the branches")
    tr.add_argument("--train", required=True, dest="train_path")
    tr.add_argument("--vocab", required=True)
    tr.add_argument("--checkpoint", required=True, help="output checkpoint path")
    tr.add_argument("--mode", choices=("prdcls", "sgcls", "sgdet"), default="sgdet")
    tr.add_argument("--branches", default="s,p,v,so")
    tr.add_argument("--seed", type=int, default=7)
    _add_train_flags(tr)

    pr = subs.add_parser("predict", help="write ranked triplets for a dataset")
    pr.add_argument("--test", required=True, dest="test_path")
    pr.add_argument("--vocab", required=True)
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--mode", choices=("prdcls", "sgcls", "sgdet"), default="sgdet")
    pr.add_argument("--top-n", type=int, default=100)
    pr.add_argument(
        "--attributes",
        action="store_true",
        help="append per-object attribute predictions (OI output mode)",
    )

    ev = subs.add_parser("eval", help="score predictions against ground truth")
    ev.add_argument("--test", required=True, dest="test_path")
    ev.add_argument("--vocab", required=True)
    ev.add_argument("--predictions", required=True)
    ev.add_argument("--out", required=True, help="report JSON path")
    ev.add_argument("--mode", choices=("prdcls", "sgcls", "sgdet"), default="sgdet")
    ev.add_argument("--graph-constraint", choices=("on", "off"), default="off")
    ev.add_argument("--k-per-pair", default=None, help="per-pair budget: integer or 'free'")
    ev.add_argument("--iou-threshold", type=float, default=0.5)

    ab = subs.add_parser("ablate", help="train and score the four branch configurations")
    ab.add_argument("--train", required=True, dest="train_path")
    ab.add_argument("--test", required=True, dest="test_path")
    ab.add_argument("--vocab", required=True)
    ab.add_argument("--out", required=True, help="ablation CSV path")
    ab.add_argument("--mode", choices=("prdcls", "sgcls", "sgdet"), default="sgdet")
    ab.add_argument("--seed", type=int, default=7)
    ab.add_argument("--top-n", type=int, default=100)
    ab.add_argument("--graph-constraint", choices=("on", "off"), default="off")
    _add_train_flags(ab)
    return parser


def _apply_config(args: argparse.Namespace, config_path: str, argv: list[str]) -> None:
    with open(config_path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise UsageError(f"{config_path}: config file must hold a JSON object")
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if not hasattr(args, key):
            raise UsageError(f"{config_path}: unknown config key {key!r}")
        if flag not in argv:
            setattr(args, key, value)


def cmd_gen_synth(args) -> int:
    cfg = SynthConfig(
        num_images=args.num_images,
        num_test_images=args.num_test_images,
        objects_per_image=(args.min_objects, args.max_objects),
        num_classes=args.num_classes,
        num_predicates=args.num_predicates,
        feature_dim=args.feature_dim,
        seed=args.seed,
        semantic_signal="s" in args.signals.split(","),
        spatial_signal="p" in args.signals.split(","),
        visual_signal="v" in args.signals.split(","),
        noise=args.noise,
        num_attributes=args.num_attributes,
        pair_density=args.pair_density,
        rule_weight=args.rule_weight,
        appearance_weight=args.appearance_weight,
        existence_weight=args.existence_weight,
    )
    result = generate(cfg)
    os.makedirs(args.out, exist_ok=True)
    save_dataset(result.train, os.path.join(args.out, "train.jsonl"))
    save_dataset(result.test, os.path.join(args.out, "test.jsonl"))
    save_vocabulary(result.vocab, os.path.join(args.out, "vocab.json"))
    save_oracle(result.oracle, os.path.join(args.out, "oracle.json"))
    print(
        f"wrote {len(result.train)} train / {len(result.test)} test images to {args.out}"
    )
    return 0


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        momentum=args.momentum,
        negative_ratio=args.neg_ratio,
        seed=args.seed,
    )


def _training_setup(args, vocab, dataset):
    """Mode views of a training set, its feature dim and the fitted prior."""
    views = [gt_substitution(r, args.mode) for r in dataset]
    feature_dim = next(
        (d.feature.shape[0] for r in views for d in r.detections), None
    )
    if feature_dim is None:
        raise DataError("training dataset contains no detections")
    return views, feature_dim, fit_frequency(dataset, vocab, smoothing=args.smoothing)


def cmd_train(args) -> int:
    vocab = load_vocabulary(args.vocab)
    dataset = load_dataset(args.train_path, vocab)
    views, feature_dim, freq = _training_setup(args, vocab, dataset)
    rng = np.random.default_rng(args.seed)
    model = init_fusion_model(
        freq, feature_dim, vocab, rng, mask=parse_branches(args.branches)
    )
    cfg = _train_config(args)
    model, history = train(model, views, cfg)

    if vocab.attributes and any(r.gt_attributes for r in dataset):
        model.attribute_head = init_attribute_head(
            feature_dim, len(vocab.attributes), rng
        )
        train_attribute_head(model.attribute_head, dataset, cfg)

    save_checkpoint(model, args.checkpoint)
    csv_lines = ["epoch,loss"] + [f"{i},{v:.6f}" for i, v in enumerate(history)]
    atomic_write_text(f"{args.checkpoint}.loss.csv", "\n".join(csv_lines) + "\n")
    final = history[-1] if history else float("nan")
    print(f"final train loss: {final:.6f}")
    return 0


def cmd_predict(args) -> int:
    vocab = load_vocabulary(args.vocab)
    model = load_checkpoint(args.checkpoint)
    if model.vocab_hash != vocab.digest():
        raise DataError("checkpoint was trained with a different vocabulary")
    dataset = load_dataset(args.test_path, vocab)
    predictions = {}
    is_triplets = {}
    for record in dataset:
        view = gt_substitution(record, args.mode)
        predictions[record.image_id] = predict_image(model, view, top_n=args.top_n)
        if args.attributes and model.attribute_head is not None:
            is_triplets[record.image_id] = [
                {
                    "box": view.detections[idx].box.to_list(),
                    "label": view.detections[idx].label,
                    "attribute": attr,
                    "score": score,
                }
                for idx, attr, score in predict_attributes(model.attribute_head, view)
            ]
    save_predictions(predictions, args.out, is_triplets if is_triplets else None)
    print(f"wrote predictions for {len(predictions)} images to {args.out}")
    return 0


def cmd_eval(args) -> int:
    vocab = load_vocabulary(args.vocab)
    dataset = load_dataset(args.test_path, vocab)
    predictions = load_predictions(args.predictions)
    spec = MatchSpec(
        iou_threshold=args.iou_threshold,
        graph_constraint=args.graph_constraint == "on",
        k_per_pair=_parse_k_per_pair(args.k_per_pair) if args.k_per_pair else None,
    )
    report = evaluate(predictions, dataset, vocab, mode=args.mode, spec=spec)
    atomic_write_text(args.out, json.dumps(report.to_json(vocab), indent=2) + "\n")
    print(report.format_table(vocab))
    return 0


ABLATION_ROWS = [
    ("baseline", BranchMask(True, False, False, False)),
    ("<SPO>", BranchMask(True, False, True, False)),
    ("<SPO>+S+O", BranchMask(True, False, True, True)),
    ("<SPO>+S+O+spt", BranchMask(True, True, True, True)),
]


def cmd_ablate(args) -> int:
    vocab = load_vocabulary(args.vocab)
    train_set = load_dataset(args.train_path, vocab)
    test_set = load_dataset(args.test_path, vocab)
    train_views, feature_dim, freq = _training_setup(args, vocab, train_set)
    test_views = [gt_substitution(r, args.mode) for r in test_set]
    cfg = _train_config(args)
    spec = MatchSpec(graph_constraint=args.graph_constraint == "on")

    rows = []
    for name, mask in ABLATION_ROWS:
        rng = np.random.default_rng(args.seed)
        model = init_fusion_model(freq, feature_dim, vocab, rng, mask=mask)
        model, _ = train(model, train_views, cfg)
        predictions = {
            r.image_id: predict_image(model, r, top_n=args.top_n) for r in test_views
        }
        report = evaluate(predictions, test_set, vocab, mode=args.mode, spec=spec)
        rows.append(
            (
                name,
                100 * report.recall_at[50],
                100 * report.map_rel,
                100 * report.map_phr,
                100 * report.oi_score,
            )
        )

    csv_lines = ["config,r50,map_rel,map_phr,score"]
    print(f"{'config':<18s} {'R@50':>7s} {'mAP_rel':>8s} {'mAP_phr':>8s} {'score':>7s}")
    for name, r50, mrel, mphr, score in rows:
        csv_lines.append(f"{name},{r50:.4f},{mrel:.4f},{mphr:.4f},{score:.4f}")
        print(f"{name:<18s} {r50:7.2f} {mrel:8.2f} {mphr:8.2f} {score:7.2f}")
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
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(args, args.config, argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
