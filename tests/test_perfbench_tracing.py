"""The benchmark's tracer finds every package attribute it wraps.

``perfbench/tracing.py`` patches functions at the module attribute where
the calling module looks them up. A refactor that drops or renames one
of them must fail here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fine_tracer_wraps_and_restores_every_attribute():
    tracing = _load_tracing()
    targets = [(m, a) for m, a, _ in tracing.SPANS + tracing.COUNTED]
    targets.append(("relfusion.fusion", "pair_proposals"))
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a in targets}
    tracer = tracing.Tracer()
    tracer.install(fine=True)
    try:
        for (m, a), original in originals.items():
            assert getattr(importlib.import_module(m), a) is not original, f"{m}.{a}"
    finally:
        tracer.uninstall()
    for (m, a), original in originals.items():
        assert getattr(importlib.import_module(m), a) is original, f"{m}.{a}"
