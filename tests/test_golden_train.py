"""Golden train and predict outputs: ``train`` then ``predict --top-n 20 --attributes`` on
the small set in tests/golden_train must give the committed results, in sgdet, sgcls and
prdcls.

Labels, predicates, box indices, attributes and the order of images and triplets must be
equal; weights, losses and scores must agree within 1e-12 relative. Exact bytes would tie
the test to one CPU's BLAS kernels. A checkpoint is over 1 MB whatever the data (the SPO
head has two 256-wide hidden layers), so ``<mode>.weights.json`` keeps the checkpoint's
non-net fields verbatim and, per layer, correctly rounded sums (``math.fsum``) and a few
entries of the weights and biases.

The files were written by running this module as a script on Python 3.11:

    PYTHONPATH=src python tests/test_golden_train.py

Regenerate them only in a change that names the numbers it moves, and by how much.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from relfusion.cli import main
from relfusion.datamodel import array_from_json
from relfusion.fusion import NETS

GOLDEN = Path(__file__).parent / "golden_train"
MODES = ("sgdet", "sgcls", "prdcls")
SYNTH = ["--num-images", "12", "--num-test-images", "4", "--num-classes", "4",
         "--num-predicates", "4", "--feature-dim", "8", "--min-objects", "3",
         "--max-objects", "5", "--seed", "11"]
TRAIN = ["--epochs", "3", "--seed", "7"]
TOP_N = 20
REL = 1e-12
TIE_GAP = 1e-9  # the least gap between consecutive kept scores at generation


def _train_and_predict(out: Path, mode: str, top_n: int = TOP_N) -> tuple[Path, Path]:
    """Checkpoint and prediction file of ``mode`` on the golden set, written into ``out``."""
    data = ["--vocab", str(GOLDEN / "vocab.json"), "--mode", mode]
    ckpt, pred = out / f"{mode}.json", out / f"{mode}.predictions.jsonl"
    assert main(["train", "--train", str(GOLDEN / "train.jsonl"), *data,
                 "--checkpoint", str(ckpt), *TRAIN]) == 0
    assert main(["predict", "--test", str(GOLDEN / "test.jsonl"), *data, "--checkpoint",
                 str(ckpt), "--out", str(pred), "--top-n", str(top_n), "--attributes"]) == 0
    return ckpt, pred


def _entries(values: list[float]) -> list[float]:
    """Four entries of a flat array: first, last and two in between."""
    n = len(values)
    return [values[k] for k in (0, n // 3, (2 * n) // 3, n - 1)]


def _array_summary(arr: np.ndarray) -> dict:
    values = arr.ravel().tolist()
    return {
        "shape": list(arr.shape),
        "sum": math.fsum(values),
        "abs_sum": math.fsum(abs(v) for v in values),
        "square_sum": math.fsum(v * v for v in values),
        "entries": _entries(values),
    }


def weights_summary(ckpt: Path) -> dict:
    """The checkpoint's non-net fields verbatim, and each layer's weight and bias summary."""
    raw = json.loads(ckpt.read_text())
    out = {key: value for key, value in raw.items() if key not in NETS}
    for net in NETS:
        out[net] = None if raw[net] is None else [
            {part: _array_summary(array_from_json(layer[part], ndim, part))
             for part, ndim in (("weights", 2), ("bias", 1))}
            for layer in raw[net]["layers"]
        ]
    return out


def _close(a: float, b: float, scale: float) -> bool:
    """Within REL of the larger magnitude, or of ``scale`` for a sum that cancels."""
    return abs(a - b) <= REL * max(abs(a), abs(b), scale)


def _assert_summaries_close(got: dict, want: dict, where: str) -> None:
    assert got["shape"] == want["shape"], where
    scale = want["abs_sum"]
    mean = scale / max(1, math.prod(want["shape"]))
    for key in ("sum", "abs_sum", "square_sum"):
        assert _close(got[key], want[key], scale), (where, key, got[key], want[key])
    for k, (a, b) in enumerate(zip(got["entries"], want["entries"], strict=True)):
        assert _close(a, b, mean), (where, "entry", k, a, b)


@pytest.fixture(scope="module", params=MODES)
def run(request, tmp_path_factory):
    mode = request.param
    ckpt, pred = _train_and_predict(tmp_path_factory.mktemp(mode), mode)
    return mode, ckpt, pred


def test_checkpoint_weights(run):
    mode, ckpt, _ = run
    got = weights_summary(ckpt)
    want = json.loads((GOLDEN / f"{mode}.weights.json").read_text())
    assert got.keys() == want.keys()
    for key in want:
        if key not in NETS or want[key] is None:
            assert got[key] == want[key], key
            continue
        assert len(got[key]) == len(want[key]), key
        for i, (g, w) in enumerate(zip(got[key], want[key])):
            for part in ("weights", "bias"):
                _assert_summaries_close(g[part], w[part], f"{mode} {key} layer {i} {part}")


def test_loss_history(run):
    mode, ckpt, _ = run
    got = Path(f"{ckpt}.loss.csv").read_text().splitlines()
    want = (GOLDEN / f"{mode}.loss.csv").read_text().splitlines()
    assert got[0] == want[0] == "epoch,loss"
    assert len(got) == len(want) == 1 + int(TRAIN[TRAIN.index("--epochs") + 1])
    for g, w in zip(got[1:], want[1:]):
        (ge, gl), (we, wl) = g.split(","), w.split(",")
        assert ge == we and _close(float(gl), float(wl), 0.0), (g, w)


def _score_free(item: dict) -> dict:
    return {key: value for key, value in item.items() if key != "score"}


def test_predictions(run):
    mode, _, pred = run
    got = [json.loads(line) for line in pred.read_text().splitlines()]
    want = [json.loads(line) for line in
            (GOLDEN / f"{mode}.predictions.jsonl").read_text().splitlines()]
    assert [row["image_id"] for row in got] == [row["image_id"] for row in want]
    assert sum(len(row["triplets"]) for row in want) >= 3 * TOP_N
    for g, w in zip(got, want):
        assert g.keys() == w.keys() == {"image_id", "boxes", "triplets", "is_triplets"}
        assert g["boxes"] == w["boxes"], w["image_id"]
        for key in ("triplets", "is_triplets"):
            assert [_score_free(t) for t in g[key]] == [_score_free(t) for t in w[key]], key
            for a, b in zip(g[key], w[key]):
                assert _close(a["score"], b["score"], 0.0), (w["image_id"], key, a, b)


def _check_no_near_ties(pred: Path) -> None:
    """Consecutive scores of each image's top TOP_N + 1 differ by more than TIE_GAP."""
    for line in pred.read_text().splitlines():
        scores = [t["score"] for t in json.loads(line)["triplets"]]
        gaps = [a - b for a, b in zip(scores, scores[1:])]
        if gaps and min(gaps) <= TIE_GAP:
            raise SystemExit(f"near-tie in {pred}: gap {min(gaps)!r}; choose other data")


def regenerate() -> None:
    """Write the golden set and the expected outputs of every mode into GOLDEN."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert main(["gen-synth", "--out", str(tmp), *SYNTH]) == 0
        for name in ("train.jsonl", "test.jsonl", "vocab.json"):
            shutil.copyfile(tmp / name, GOLDEN / name)
        for mode in MODES:
            ties = tmp / f"{mode}-ties"
            ties.mkdir()
            _check_no_near_ties(_train_and_predict(ties, mode, TOP_N + 1)[1])
            ckpt, pred = _train_and_predict(tmp, mode)
            shutil.copyfile(f"{ckpt}.loss.csv", GOLDEN / f"{mode}.loss.csv")
            shutil.copyfile(pred, GOLDEN / f"{mode}.predictions.jsonl")
            (GOLDEN / f"{mode}.weights.json").write_text(
                json.dumps(weights_summary(ckpt), indent=1, sort_keys=True) + "\n")
    size = sum(p.stat().st_size for p in GOLDEN.iterdir())
    print(f"wrote {GOLDEN} ({size} bytes)")
    if size >= 100_000:
        raise SystemExit("the golden set must stay under 100 KB")


if __name__ == "__main__":
    sys.exit(regenerate())
