"""relfusion benchmark: a closed train -> predict -> eval loop through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload train-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

One run:

1. Sets the workload up SETUPS times, each in its own process
   (perfbench/setup_data.py): synthetic data from ``--seed``, written as
   train/test/vocab files. ``setup_s`` is the median.
2. Runs one untimed warm-up iteration, then calls ``relfusion.cli.main``
   in this process, one client, one call after the other: ``train``,
   ``predict --top-n 100 --attributes``, ``eval``,
   ``eval --graph-constraint on``, ``eval --k-per-pair free``, repeating
   that loop for ``--seconds``. Each command's time is one sample: its
   wall time scaled to the reference host speed (perfbench/calibrate.py).
3. Checks the outputs outside the timed region (perfbench/checks.py) and
   the sha256 digests of checkpoint, predictions and reports: identical
   in every iteration, and identical to earlier runs with the same
   workload, seed and source tree.

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json, each the median of its samples. With ``--trace 1``
iterations cycle untraced, coarse-traced and fine-traced
(perfbench/tracing.py); the last line holds the per-layer metrics,
medians over traced iterations, and ``trace.overhead_s`` is a traced
minus an untraced iteration. Every run appends a record with its
samples, raw wall times, digests and environment to ``--out``;
``--compare`` summarises two such files.

BLAS threads are pinned (BLAS_THREADS below) before numpy loads: the
OpenBLAS pool otherwise competes with the interpreter for the cores.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S, kernel_seconds
from tracing import Tracer, is_fine, layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TOP_N = 100
SETUPS = 5  # set-up repetitions per run; setup_s is their median
EVAL_VARIANTS = {
    "eval": [],
    "eval_gc": ["--graph-constraint", "on"],
    "eval_free": ["--k-per-pair", "free"],
}
PHASES = ["train", "predict", *EVAL_VARIANTS]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- statistics -------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile with at
    least ten samples beyond it (None below 20 samples)."""
    n = len(values)
    q1, med, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    tail = None
    for pct in (99, 95, 90, 75, 60, 50):
        if n * (100 - pct) / 100 >= 10:
            tail = {"pct": pct, "value": statistics.quantiles(values, n=100)[pct - 1]}
            break
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": n, "tail": tail}


# --- environment ------------------------------------------------------------


def _src_files() -> list[str]:
    files = []
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        files += [os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".py")]
    return files


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in _src_files():
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def environment(numpy) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = 0
    for path in _src_files():
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "platform": platform.platform(),
    }


# --- set-up -----------------------------------------------------------------


def run_setups(workload: str, seed: int, data_dir: str, count: int) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=SRC)
    results = []
    for _ in range(count):
        proc = subprocess.run(
            [
                sys.executable,
                os.path.join(HERE, "setup_data.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--out", data_dir,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=170,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed (exit {proc.returncode}): {proc.stderr.strip()}")
        timing = json.loads(proc.stdout.strip().splitlines()[-1])
        timing["digests"] = {
            name: file_digest(os.path.join(data_dir, name))
            for name in ("train.jsonl", "test.jsonl", "vocab.json")
        }
        results.append(timing)
    return results


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --- the measured loop ------------------------------------------------------


def commands(workload, seed: int, data: str, out: str) -> dict[str, list[str]]:
    vocab = ["--vocab", os.path.join(data, "vocab.json")]
    test = ["--test", os.path.join(data, "test.jsonl")]
    mode = ["--mode", workload.mode]
    checkpoint = os.path.join(out, "checkpoint.json")
    predictions = os.path.join(out, "predictions.jsonl")
    cmds = {
        "train": [
            "train", "--train", os.path.join(data, "train.jsonl"), *vocab,
            "--checkpoint", checkpoint, *mode,
            "--epochs", str(workload.epochs), "--seed", str(seed),
        ],
        "predict": [
            "predict", *test, *vocab, "--checkpoint", checkpoint, "--out", predictions,
            *mode, "--top-n", str(TOP_N), "--attributes",
        ],
    }
    for variant, flags in EVAL_VARIANTS.items():
        cmds[variant] = [
            "eval", *test, *vocab, "--predictions", predictions,
            "--out", os.path.join(out, f"report_{variant}.json"), *mode, *flags,
        ]
    return cmds


def output_files(out: str) -> list[str]:
    return [os.path.join(out, "checkpoint.json"), os.path.join(out, "predictions.jsonl")] + [
        os.path.join(out, f"report_{v}.json") for v in EVAL_VARIANTS
    ]


TRACE_LEVELS = [None, "coarse", "fine"]


def measure(cli_main, cmds, out: str, seconds: float, tracer: Tracer | None) -> dict:
    """One untimed warm-up iteration, then the loop for ``seconds``.

    With a tracer, iterations cycle untraced, coarse, fine.
    """

    def iterate(level):
        if level is not None:
            tracer.reset()
            tracer.install(fine=level == "fine")
        walls, scaled, codes = {}, {}, {}
        speed = kernel_seconds()
        try:
            for phase, argv in cmds.items():
                if level is not None:
                    tracer.phase = phase
                sink = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    codes[phase] = cli_main(argv)
                walls[phase] = time.perf_counter() - t0
                speed_after = kernel_seconds()
                scaled[phase] = walls[phase] * REFERENCE_S / ((speed + speed_after) / 2)
                speed = speed_after
        finally:
            if level is not None:
                tracer.uninstall()
        iteration = {
            "level": level,
            "walls": walls,
            "scaled": scaled,
            "codes": codes,
            "digests": {
                os.path.basename(p): file_digest(p) if os.path.exists(p) else None
                for p in output_files(out)
            },
        }
        if level is not None:
            iteration["layers"] = layer_metrics(tracer, walls)
            iteration["spans"] = tracer.span_table()
        return iteration

    warmup = iterate(None)
    iterations = []
    levels = TRACE_LEVELS if tracer else [None]
    start = time.perf_counter()
    while len(iterations) < 2 * len(levels) or time.perf_counter() - start < seconds:
        iterations.append(iterate(levels[len(iterations) % len(levels)]))
    return {
        "warmup": warmup,
        "iterations": iterations,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


# --- checks -----------------------------------------------------------------


def _guarded(name: str, check, *args) -> list:
    """Run one check; missing or malformed output fails it, not the run."""
    try:
        result = check(*args)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [(name, False, f"{type(exc).__name__}: {exc}")]
    return result if isinstance(result, list) else [result]


def run_checks(workload, data, out, setups, loop, reference, registry_key) -> list:
    import checks

    results = []
    setup_digests = [s["digests"] for s in setups]
    results.append(
        ("setup_deterministic", all(d == setup_digests[0] for d in setup_digests), "")
    )
    digests = [it["digests"] for it in [loop["warmup"], *loop["iterations"]]]
    results.append(
        (
            "outputs_identical_across_iterations",
            all(d == digests[0] for d in digests) and None not in digests[0].values(),
            f"{len(digests)} iterations",
        )
    )
    registry_path = os.path.join(WORK, "digests.json")
    registry = {}
    if os.path.exists(registry_path):
        with open(registry_path, "r", encoding="utf-8") as fh:
            registry = json.load(fh)
    previous = registry.get(registry_key)
    results.append(
        (
            "outputs_identical_across_runs",
            previous is None or previous == digests[0],
            "first run of this key" if previous is None else "compared with earlier run",
        )
    )
    if previous is None:
        registry[registry_key] = digests[0]
        tmp = registry_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(registry, fh, indent=1, sort_keys=True)
        os.replace(tmp, registry_path)

    predictions = os.path.join(out, "predictions.jsonl")
    with open(os.path.join(data, "test.jsonl"), "r", encoding="utf-8") as fh:
        image_ids = [json.loads(line)["image_id"] for line in fh]
    reports = {v: os.path.join(out, f"report_{v}.json") for v in EVAL_VARIANTS}
    results += _guarded(
        "loss_history_finite",
        checks.check_loss_history,
        os.path.join(out, "checkpoint.json.loss.csv"),
        workload.epochs,
    )
    results += _guarded(
        "predictions_top_n_ordered", checks.check_prediction_order, predictions, image_ids, TOP_N
    )
    results += _guarded(
        "reports_match_reference", checks.check_reports, reference, data, predictions, reports
    )

    for level in TRACE_LEVELS[1:]:
        traced = [it for it in loop["iterations"] if it["level"] == level]
        if traced:
            first = traced[0]["layers"]
            exact = [k for k, v in first.items() if isinstance(v, int)]
            results.append(
                (
                    f"{level}_layer_counts_repeat_exactly",
                    all(it["layers"][k] == first[k] for it in traced for k in exact),
                    f"{len(exact)} counters over {len(traced)} iterations",
                )
            )
    return results


# --- reporting --------------------------------------------------------------


def load_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(setups, loop, out, failed, attempted) -> dict[str, list[float]]:
    """Samples of every end-to-end metric."""
    samples = {"setup_s": [s["setup_s"] for s in setups]}
    for phase in PHASES:
        samples[f"{phase}_s"] = [it["scaled"][phase] for it in loop["iterations"]]
    samples["peak_rss_mb"] = [loop["peak_rss_kb"] / 1024.0]
    with open(os.path.join(out, "report_eval.json"), "r", encoding="utf-8") as fh:
        report = json.load(fh)
    samples["oi_score"] = [report["oi_score"]]
    samples["r50"] = [report["recall_at"]["50"]]
    samples["success_rate"] = [1.0 - failed / attempted]
    return samples


def per_layer(setups, loop) -> dict[str, list[float]]:
    by_level = {
        level: [it for it in loop["iterations"] if it["level"] == level]
        for level in TRACE_LEVELS
    }
    samples = {
        k: [it["layers"][k] for it in by_level["fine" if is_fine(k) else "coarse"]]
        for k in by_level["coarse"][0]["layers"]
    }
    samples["synth.generate_s"] = [s["generate_s"] for s in setups]
    total = lambda it: sum(it["scaled"].values())
    untraced = statistics.median(map(total, by_level[None]))
    for level, prefix in (("coarse", "trace.overhead"), ("fine", "trace.fine_overhead")):
        overhead = statistics.median(map(total, by_level[level])) - untraced
        samples[prefix + "_s"] = [overhead]
        samples[prefix + "_share"] = [overhead / untraced]
    return samples


def print_table(title: str, summaries: dict, units: dict) -> None:
    print(title)
    print(f"  {'metric':<40s} {'unit':>8s} {'median':>14s} {'tail':>20s} {'n':>5s}")
    for name, s in summaries.items():
        tail = f"p{s['tail']['pct']}={s['tail']['value']:.6g}" if s["tail"] else "-"
        print(f"  {name:<40s} {units.get(name, ''):>8s} {s['median']:>14.6g} {tail:>20s} {s['n']:>5d}")


def run_benchmark(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "relfusion", "cli.py")):
        raise BenchError(f"relfusion sources not found under {SRC}")
    reference_path = os.path.join(ROOT, "tests", "reference_eval.py")
    if not os.path.isfile(reference_path):
        raise BenchError(f"reference evaluator not found at {reference_path}")
    workload = WORKLOADS[args.workload]
    specs = load_specs()
    metric_specs = specs["per_layer" if args.trace else "end_to_end"]

    run_dir = os.path.join(WORK, f"{workload.name}-seed{args.seed}")
    data = os.path.join(run_dir, "data")
    out = os.path.join(run_dir, f"out-trace{args.trace}")
    os.makedirs(out, exist_ok=True)
    setups = run_setups(workload.name, args.seed, data, SETUPS)

    sys.path.insert(0, SRC)
    import numpy
    from relfusion.cli import main as cli_main

    spec = importlib.util.spec_from_file_location("reference_eval", reference_path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)

    cmds = commands(workload, args.seed, data, out)
    tracer = Tracer() if args.trace else None
    loop = measure(cli_main, cmds, out, args.seconds, tracer)

    env = environment(numpy)
    sizes = hashlib.sha256(json.dumps(workload.sizes(args.seed), sort_keys=True).encode())
    key = f"{workload.name}/{sizes.hexdigest()[:16]}/{env['source_sha256'][:16]}"
    check_results = run_checks(workload, data, out, setups, loop, reference, key)
    calls = [
        code for it in [loop["warmup"], *loop["iterations"]] for code in it["codes"].values()
    ]
    attempted = len(calls) + len(check_results)
    failed = sum(code != 0 for code in calls) + sum(not ok for _, ok, _ in check_results)

    samples = per_layer(setups, loop) if args.trace else end_to_end(
        setups, loop, out, failed, attempted
    )
    units = {m["name"]: m["unit"] for m in metric_specs}
    missing = sorted(set(units) - set(samples))
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    summaries = {name: summarize(samples[name]) for name in units}

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(loop['iterations'])}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, ok, detail in check_results:
        print(f"check {name:<40s} {'ok' if ok else 'FAILED'}  {detail}")
    print(f"operations attempted {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.6g}")
    print_table("per-layer metrics" if args.trace else "end-to-end metrics", summaries, units)

    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "sizes": workload.sizes(args.seed),
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "checks": check_results,
        "digests": loop["iterations"][0]["digests"],
        "metrics": {name: {"unit": units[name], **summaries[name]} for name in units},
        "samples": {name: samples[name] for name in units},
        "wall_s": {
            phase: summarize([it["walls"][phase] for it in loop["iterations"]])
            for phase in PHASES
        },
    }
    if args.trace:
        record["spans"] = {it["level"]: it["spans"] for it in loop["iterations"][1:3]}
        with open(os.path.join(out, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump(record["spans"], fh, indent=1)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": summaries[name]["median"], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


# --- compare ----------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Per workload and metric: median, quartiles and run count of each file."""

    def load(path):
        runs: dict[tuple, dict[str, list[float]]] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                per = runs.setdefault((rec["workload"], rec["trace"]), {})
                for name, m in rec["metrics"].items():
                    per.setdefault(name, []).append(m["median"])
        return runs

    a, b = load(path_a), load(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    for key in sorted(set(a) | set(b)):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        print(f"  {'metric':<40s} {'A median [q1, q3] n':>34s} {'B median [q1, q3] n':>34s} {'B/A':>7s}")
        ma, mb = a.get(key, {}), b.get(key, {})
        for name in sorted(set(ma) | set(mb)):
            cells = []
            for values in (ma.get(name), mb.get(name)):
                if values:
                    s = summarize(values)
                    cells.append(f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {s['n']}")
                else:
                    cells.append("-")
            ratio = "-"
            if ma.get(name) and mb.get(name) and statistics.median(ma[name]):
                ratio = f"{statistics.median(mb[name]) / statistics.median(ma[name]):.3f}"
            print(f"  {name:<40s} {cells[0]:>34s} {cells[1]:>34s} {ratio:>7s}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(WORK, "results.jsonl"),
                        help="JSONL file each run appends its record to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="summarise two result files instead of running")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run_benchmark(args)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
