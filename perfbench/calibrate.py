"""Host-speed calibration for the reported times.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds; a fixed pure-Python loop was measured between 8.2 and
12.0 ms per half-second window on one 2-CPU guest. Each timed command is
therefore bracketed by this fixed kernel, and its wall time is scaled to
the reference speed:

    reported = wall * REFERENCE_S / mean(kernel before, kernel after)

The kernel mixes the kinds of work relfusion does (interpreter
arithmetic, pointer-chasing over a few MB of Python objects, JSON
encoding and decoding, many small numpy operations, BLAS matrix
products of a training step's size), so host slowdowns hit both alike. It shares no code with relfusion: a change to the
program cannot move it. The raw wall times are kept in the result
record next to the scaled ones.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np

# Kernel time at the reference speed; scaled values read as seconds at it.
REFERENCE_S = 0.010

_rng = random.Random(0)
_floats = [float(i) for i in range(150_000)]
_walk = _rng.sample(range(len(_floats)), 15_000)
_doc = {
    "rows": [
        {"a": [_rng.random() for _ in range(16)], "b": _rng.random(), "c": [1, 2, 3, 4]}
        for _ in range(150)
    ]
}
_vectors = [np.arange(4.0) + i for i in range(150)]
_lhs = np.linspace(-1.0, 1.0, 64 * 192).reshape(64, 192)
_rhs = np.linspace(-1.0, 1.0, 192 * 256).reshape(192, 256)


def _kernel() -> None:
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    total = 0.0
    for i in _walk:
        total += _floats[i]
    json.loads(json.dumps(_doc))
    np.stack([np.concatenate([v * 0.5, np.log(v + 1.0), v / 3.0]) for v in _vectors])
    for _ in range(10):
        _lhs @ _rhs


def kernel_seconds(repeats: int = 2) -> float:
    """Fastest of ``repeats`` kernel runs: the host's current speed."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best
