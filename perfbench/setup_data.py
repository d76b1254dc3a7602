"""One set-up of a workload, run as its own process by run.py.

Generates the synthetic set from the workload seed and writes the
train/test JSONL and the vocabulary into ``--out``. Prints one JSON line
with the set-up time (scaled to the reference host speed, see
calibrate.py, and raw) and the raw part of it spent in
``relfusion.synth.generate``. A separate process keeps set-up out of the
peak RSS of the process that runs the CLI commands.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from relfusion.datamodel import save_dataset, save_vocabulary
from relfusion.synth import SynthConfig, generate

from calibrate import REFERENCE_S, kernel_seconds
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    speed = kernel_seconds()
    start = time.perf_counter()
    result = generate(SynthConfig(**workload.synth_kwargs(args.seed)))
    generated = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    save_dataset(result.train, os.path.join(args.out, "train.jsonl"))
    save_dataset(result.test, os.path.join(args.out, "test.jsonl"))
    save_vocabulary(result.vocab, os.path.join(args.out, "vocab.json"))
    end = time.perf_counter()
    speed = (speed + kernel_seconds()) / 2
    print(
        json.dumps(
            {
                "setup_s": (end - start) * REFERENCE_S / speed,
                "setup_wall_s": end - start,
                "generate_s": generated - start,
            }
        )
    )


if __name__ == "__main__":
    main()
