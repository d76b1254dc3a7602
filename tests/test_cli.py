"""Command-line behavior: wiring, determinism, exit codes."""

import json
import warnings

import numpy as np
import pytest

from relfusion.cli import main, parse_branches
from relfusion.datamodel import (
    GtObject,
    load_dataset,
    load_vocabulary,
    save_dataset,
    save_vocabulary,
)
from relfusion.fusion import (
    TrainConfig,
    init_fusion_model,
    load_checkpoint,
    load_predictions,
    trainable_params,
)
from relfusion.metrics import MatchSpec, evaluate
from relfusion.semantic import fit_frequency
from relfusion.synth import SynthConfig

from util import box, edit_array, make_detection, make_record, tiny_vocab


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(
        [
            "gen-synth",
            "--out",
            str(out),
            "--num-images",
            "30",
            "--num-test-images",
            "10",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    return out


def _train(synth_dir, tmp_path, name="model.json", extra=()):
    ckpt = tmp_path / name
    code = main(
        [
            "train",
            "--train",
            str(synth_dir / "train.jsonl"),
            "--vocab",
            str(synth_dir / "vocab.json"),
            "--checkpoint",
            str(ckpt),
            "--seed",
            "7",
            "--epochs",
            "3",
            *extra,
        ]
    )
    assert code == 0
    return ckpt


def _never_called(*args):
    raise AssertionError("a step that the output check comes before was called")


class TestBranchesFlag:
    def test_tokens(self):
        mask = parse_branches("s,v")
        assert mask.semantic and mask.visual_spo
        assert not mask.spatial and not mask.visual_subobj

    def test_unknown_token(self):
        assert main(["train", "--train", "x", "--vocab", "y", "--checkpoint", "z",
                     "--branches", "zz"]) == 1


class TestGenSynth:
    def test_writes_all_files(self, synth_dir):
        for name in ("train.jsonl", "test.jsonl", "vocab.json", "oracle.json"):
            assert (synth_dir / name).exists()
        vocab = load_vocabulary(synth_dir / "vocab.json")
        assert len(load_dataset(synth_dir / "train.jsonl", vocab)) == 30

    def test_signal_tokens_are_stripped_and_checked(self, tmp_path, capsys):
        def gen(signals):
            out = tmp_path / signals.replace(",", "_").replace(" ", "-")
            code = main(["gen-synth", "--out", str(out), "--num-images", "4",
                         "--num-test-images", "1", "--signals", signals])
            return code, out

        (code, plain), (spaced_code, spaced) = gen("s,p"), gen("s, p")
        assert code == spaced_code == 0
        for name in ("train.jsonl", "test.jsonl", "oracle.json"):
            assert (plain / name).read_bytes() == (spaced / name).read_bytes()
        capsys.readouterr()
        assert gen("s,q")[0] == 1
        assert "unknown signal token 'q'; use s, p, v" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--num-classes", "0"], "num classes must be >= 1, got 0"),
            (["--min-objects", "5", "--max-objects", "2"],
             "objects per image must be a (min, max) pair with 0 <= min <= max, got (5, 2)"),
            (["--num-predicates", "0", "--signals", "s,v"], "num predicates must be >= 1, got 0"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
            (["--noise", "nan"], "noise must be finite and >= 0, got nan"),
            (["--appearance-weight", "nan"], "appearance weight must be finite and >= 0, got nan"),
            (["--existence-weight", "inf"], "existence weight must be finite and >= 0, got inf"),
            (["--num-images", "-3"], "num images must be >= 0, got -3"),
            (["--feature-dim", "0"], "feature dim must be >= 1, got 0"),
            (["--num-attributes", "-1"], "num attributes must be >= 0, got -1"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "message",
    )
    def test_bad_value_exits_1_and_writes_nothing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert main(["gen-synth", "--out", str(out), *flags]) == 1
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("weight", ["800", "1e308"])
    def test_existence_weight_past_exp_range_generates(self, tmp_path, capsys, weight):
        # exp overflows to inf: the existence factor is its limit, 0, with no warning.
        out = tmp_path / "out"
        assert main(["gen-synth", "--out", str(out), "--num-images", "4",
                     "--num-test-images", "1", "--existence-weight", weight]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "train.jsonl").exists()

    def test_appearance_weight_past_float_range_is_named(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-synth", "--out", str(out), "--appearance-weight", "1e308"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: appearance weight 1e+308 is too large: pair "), err
        assert list(out.iterdir()) == []

    def test_noise_past_float_range_is_named(self, tmp_path, capsys):
        # Such a noise draws infinite pair features, which the dataset loader rejects.
        out = tmp_path / "out"
        assert main(["gen-synth", "--out", str(out), "--noise", "1e308"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: noise 1e+308 is too large: pair ("), err
        assert "of image 'train_0000' has a non-finite pair feature" in err, err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("where", ["a file", "under a file"])
    def test_out_that_cannot_be_a_directory_exits_1_before_generating(
            self, tmp_path, capsys, monkeypatch, where):
        monkeypatch.setattr("relfusion.cli.generate", _never_called)
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile if where == "a file" else afile / "out"
        assert main(["gen-synth", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and str(out) in err, err
        assert afile.read_text() == ""


class TestTrain:
    def test_writes_checkpoint_and_history(self, synth_dir, tmp_path):
        ckpt = _train(synth_dir, tmp_path)
        assert ckpt.exists()
        history = (tmp_path / "model.json.loss.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,loss"
        assert len(history) == 4

    def test_zero_epochs_equals_initialization(self, synth_dir, tmp_path):
        ckpt = _train(synth_dir, tmp_path, "zero.json", extra=["--epochs", "0"])
        model = load_checkpoint(ckpt)
        vocab = load_vocabulary(synth_dir / "vocab.json")
        dataset = load_dataset(synth_dir / "train.jsonl", vocab)
        freq = fit_frequency(dataset, vocab)
        reference = init_fusion_model(
            freq, dataset[0].detections[0].feature.shape[0], vocab,
            np.random.default_rng(7),
        )
        for a, b in zip(trainable_params(model), trainable_params(reference)):
            assert np.array_equal(a, b)

    def test_byte_identical_checkpoints(self, synth_dir, tmp_path):
        c1 = _train(synth_dir, tmp_path, "m1.json")
        c2 = _train(synth_dir, tmp_path, "m2.json")
        assert c1.read_bytes() == c2.read_bytes()

    def test_missing_dataset_is_usage_error(self, synth_dir, tmp_path):
        code = main(
            [
                "train",
                "--train",
                str(tmp_path / "nope.jsonl"),
                "--vocab",
                str(synth_dir / "vocab.json"),
                "--checkpoint",
                str(tmp_path / "m.json"),
            ]
        )
        assert code == 1

    def test_neg_ratio_past_float_range_samples_every_unmatched_pair(self, synth_dir, tmp_path):
        huge = _train(synth_dir, tmp_path, "huge.json", extra=["--neg-ratio", "1e308"])
        every = _train(synth_dir, tmp_path, "every.json", extra=["--neg-ratio", "1000000"])
        assert huge.read_bytes() == every.read_bytes()

    @pytest.mark.parametrize("smoothing", ["1e308", "5e-324"])
    def test_smoothing_leaving_a_zero_prior_probability_is_named(
            self, synth_dir, tmp_path, capsys, recwarn, smoothing):
        ckpt = tmp_path / "m.json"
        assert main(["train", "--train", str(synth_dir / "train.jsonl"), "--vocab",
                     str(synth_dir / "vocab.json"), "--checkpoint", str(ckpt),
                     "--smoothing", smoothing]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: smoothing {float(smoothing)!r} leaves a prior row "
                              "with a zero or non-finite probability"), err
        assert not ckpt.exists()
        assert not recwarn.list, [str(w.message) for w in recwarn.list]

    def test_divergent_loss_exits_3(self, synth_dir, tmp_path):
        code = main(
            [
                "train",
                "--train",
                str(synth_dir / "train.jsonl"),
                "--vocab",
                str(synth_dir / "vocab.json"),
                "--checkpoint",
                str(tmp_path / "diverged.json"),
                "--seed",
                "7",
                "--epochs",
                "6",
                "--lr",
                "1e9",
            ]
        )
        assert code == 3

    def test_huge_noise_set_exits_3_without_a_warning(self, tmp_path, capsys):
        # Such a set loads, but its features overflow the forward pass: a numeric error.
        data = tmp_path / "data"
        assert main(["gen-synth", "--out", str(data), "--noise", "1e150",
                     "--num-images", "6"]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--train", str(data / "train.jsonl"), "--vocab",
                         str(data / "vocab.json"), "--checkpoint", str(tmp_path / "m.json"),
                         "--epochs", "1"])
        assert (code, capsys.readouterr().err) == (
            3, "numeric error: training loss became non-finite (nan)\n")
        assert not (tmp_path / "m.json").exists()


class TestPredictAndEval:
    def test_predict_roundtrip_and_determinism(self, synth_dir, tmp_path):
        ckpt = _train(synth_dir, tmp_path)
        outs = []
        for name in ("p1.jsonl", "p2.jsonl"):
            out = tmp_path / name
            code = main(
                [
                    "predict",
                    "--test",
                    str(synth_dir / "test.jsonl"),
                    "--vocab",
                    str(synth_dir / "vocab.json"),
                    "--checkpoint",
                    str(ckpt),
                    "--out",
                    str(out),
                    "--attributes",
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

        vocab = load_vocabulary(synth_dir / "vocab.json")
        dataset = load_dataset(synth_dir / "test.jsonl", vocab)
        predictions = load_predictions(tmp_path / "p1.jsonl")
        report_path = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--test",
                str(synth_dir / "test.jsonl"),
                "--vocab",
                str(synth_dir / "vocab.json"),
                "--predictions",
                str(tmp_path / "p1.jsonl"),
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        written = json.loads(report_path.read_text())
        direct = evaluate(predictions, dataset, vocab, spec=MatchSpec()).to_json(vocab)
        assert written == direct

    def test_attribute_lines_present(self, synth_dir, tmp_path):
        ckpt = _train(synth_dir, tmp_path)
        out = tmp_path / "attrs.jsonl"
        main(
            [
                "predict",
                "--test",
                str(synth_dir / "test.jsonl"),
                "--vocab",
                str(synth_dir / "vocab.json"),
                "--checkpoint",
                str(ckpt),
                "--out",
                str(out),
                "--attributes",
            ]
        )
        first = json.loads(out.read_text().splitlines()[0])
        assert "is_triplets" in first
        entry = first["is_triplets"][0]
        assert set(entry) == {"box", "label", "attribute", "score"}

    def test_attributes_without_an_attribute_head_exits_2(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        assert main(["gen-synth", "--out", str(data), "--num-images", "10",
                     "--num-test-images", "3", "--num-attributes", "0", "--seed", "3"]) == 0
        ckpt = _train(data, tmp_path)
        assert json.loads(ckpt.read_text())["attribute_head"] is None
        monkeypatch.setattr("relfusion.cli.predict_image", _never_called)
        out = tmp_path / "p.jsonl"
        code = main(["predict", "--test", str(data / "test.jsonl"), "--vocab",
                     str(data / "vocab.json"), "--checkpoint", str(ckpt), "--out", str(out),
                     "--attributes"])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"data error: {ckpt}: --attributes needs an attribute_head, and the checkpoint"
            " has none\n")

    def test_vocab_mismatch_exits_2(self, synth_dir, tmp_path):
        ckpt = _train(synth_dir, tmp_path)
        other_vocab = tmp_path / "other_vocab.json"
        vocab = load_vocabulary(synth_dir / "vocab.json")
        save_vocabulary(
            type(vocab)(
                object_classes=vocab.object_classes + ("stranger",),
                predicates=vocab.predicates,
                attributes=vocab.attributes,
            ),
            other_vocab,
        )
        code = main(
            [
                "predict",
                "--test",
                str(synth_dir / "test.jsonl"),
                "--vocab",
                str(other_vocab),
                "--checkpoint",
                str(ckpt),
                "--out",
                str(tmp_path / "x.jsonl"),
            ]
        )
        assert code == 2

    def _eval(self, synth_dir, tmp_path, vocab, extra=()):
        predictions = tmp_path / "none.jsonl"
        predictions.write_text("")
        return main(
            [
                "eval",
                "--test",
                str(synth_dir / "test.jsonl"),
                "--vocab",
                str(vocab),
                "--predictions",
                str(predictions),
                "--out",
                str(tmp_path / "report.json"),
                *extra,
            ]
        )

    def test_graph_constraint_with_k_per_pair_is_usage_error(self, synth_dir, tmp_path):
        vocab = synth_dir / "vocab.json"
        assert self._eval(synth_dir, tmp_path, vocab, ["--graph-constraint", "on"]) == 0
        both = ["--graph-constraint", "on", "--k-per-pair", "2"]
        assert self._eval(synth_dir, tmp_path, vocab, both) == 1

    def test_bad_vocabulary_json_exits_2(self, synth_dir, tmp_path, capsys):
        vocab = tmp_path / "vocab.json"
        vocab.write_text('{"objects": [\n')
        assert self._eval(synth_dir, tmp_path, vocab) == 2
        assert f"{vocab}:2: invalid JSON" in capsys.readouterr().err

    # damage -> (edit of the parsed checkpoint, or None to cut the text in
    # half; a fragment of the message)
    CHECKPOINT_DAMAGE = {
        "truncate": (None, "invalid JSON"),
        "drop_key": (lambda raw: raw.pop("spatial_mlp"), "missing key 'spatial_mlp'"),
        "v1_format": (
            lambda raw: raw.update(format="relfusion-checkpoint-v1"),
            "is not 'relfusion-checkpoint-v3'",
        ),
        "v2_format": (
            lambda raw: raw.update(format="relfusion-checkpoint-v2"),
            "is not 'relfusion-checkpoint-v3'",
        ),
        "spatial_input_21": (
            lambda raw: edit_array(raw["spatial_mlp"]["layers"][0]["weights"], lambda w: w[:, :-1]),
            "spatial_mlp maps 21 -> 9 values, expected 22 -> 9",
        ),
        "sub_head_input_8": (
            lambda raw: edit_array(raw["sub_head"]["layers"][0]["weights"], lambda w: w[:, :8]),
            "spo_head maps 48 -> 9 values, expected 24 -> 9",
        ),
        "obj_head_output_8": (
            lambda raw: edit_array(raw["obj_head"]["layers"][0]["weights"], lambda w: w[:-1]),
            "obj_head: layer 0: 9 biases for 8 outputs",
        ),
        "attribute_head_input_15": (
            lambda raw: edit_array(raw["attribute_head"]["layers"][0]["weights"],
                                   lambda w: w[:, :-1]),
            "attribute_head maps 15 -> 4 values, expected 16 -> 4",
        ),
        # A v3 array cannot be ragged: its rows are cut from the data by the shape.
        "ragged_weights": (
            lambda raw: raw["spo_head"]["layers"][1]["weights"]["shape"].__setitem__(1, 255),
            "spo_head: layer 1 weights: not an array of shape [256, 255]",
        ),
        "invalid_base64": (
            lambda raw: raw["spo_head"]["layers"][0]["weights"].update(data="!AAA"),
            "spo_head: layer 0 weights: data is not base64",
        ),
        "byte_count": (
            lambda raw: raw["spo_head"]["layers"][0]["bias"].update(data="AAAAAAAAAAA="),
            "spo_head: layer 0 bias: not an array of shape [256]: 8 bytes of data, expected 2048",
        ),
        "non_finite": (
            lambda raw: edit_array(raw["spatial_mlp"]["layers"][1]["bias"],
                                   lambda b: np.append(b[:-1], np.inf)),
            "spatial_mlp: layer 1 bias: non-finite values",
        ),
        "wrong_dtype": (
            lambda raw: raw["obj_head"]["layers"][0]["weights"].update(dtype="<f4"),
            "obj_head: layer 0 weights: dtype '<f4' is not '<f8'",
        ),
        "unknown_mask_key": (lambda raw: raw["branch_mask"].update(bogus=True), "branch_mask"),
        "mask_not_object": (lambda raw: raw.update(branch_mask=3), "branch_mask"),
        "mask_not_boolean": (lambda raw: raw["branch_mask"].update(spatial=1), "branch_mask"),
        "layers_not_list": (lambda raw: raw.update(spatial_mlp={"layers": 5}), "spatial_mlp"),
        "net_null": (lambda raw: raw.update(spo_head=None), "spo_head"),
        "string_weight": (
            lambda raw: raw["sub_head"]["layers"][0]["weights"].update(data="x"),
            "sub_head: layer 0 weights: data is not base64",
        ),
        "string_count": (
            lambda raw: raw["frequency"]["entries"][0][2].__setitem__(0, "x"),
            "frequency:",
        ),
        "short_counts": (lambda raw: raw["frequency"]["entries"][0][2].pop(), "frequency:"),
        "frequency_not_object": (lambda raw: raw.update(frequency=[]),
                                 "frequency: expected a JSON object"),
        "frequency_without_entries": (lambda raw: raw["frequency"].pop("entries"),
                                      "frequency: missing key 'entries'"),
        "entries_not_list": (
            lambda raw: raw["frequency"].update(entries={}),
            "frequency: entries must be a list of [subject, object, counts] lists",
        ),
        "repeated_class_pair": (
            lambda raw: raw["frequency"]["entries"].insert(1, raw["frequency"]["entries"][0]),
            "frequency: entry 1: repeats entry 0's class pair",
        ),
        "vocab_hash_number": (lambda raw: raw.update(vocab_hash=7), "vocab_hash must be a string"),
        "other_vocab_hash": (
            lambda raw: raw.update(vocab_hash="0" * 64),
            "was trained with a vocabulary other than",
        ),
        "count_minus_5": (
            lambda raw: raw["frequency"]["entries"][0][2].__setitem__(1, -5),
            "frequency: entry 0: counts must be >= 0",
        ),
        "count_minus_1": (
            lambda raw: raw["frequency"]["entries"][0][2].__setitem__(1, -1),
            "frequency: entry 0: counts must be >= 0",
        ),
        "float_count": (
            lambda raw: raw["frequency"]["entries"][0][2].__setitem__(1, 1.5),
            "frequency: entry 0: counts must be a list of 9 JSON integers",
        ),
        "boolean_count": (
            lambda raw: raw["frequency"]["entries"][0][2].__setitem__(1, True),
            "frequency: entry 0: counts must be a list of 9 JSON integers",
        ),
        "string_smoothing": (
            lambda raw: raw["frequency"].update(smoothing="2"),
            "frequency: smoothing must be a finite positive number",
        ),
        "nan_smoothing": (
            lambda raw: raw["frequency"].update(smoothing=float("nan")),
            "frequency: smoothing must be a finite positive number",
        ),
        "zero_smoothing": (
            lambda raw: raw["frequency"].update(smoothing=0),
            "frequency: smoothing must be a finite positive number",
        ),
        "float_num_predicates": (
            lambda raw: raw["frequency"].update(num_predicates=8.9),
            "frequency: num_predicates must be a positive integer",
        ),
        "float_class_id": (
            lambda raw: raw["frequency"]["entries"][0].__setitem__(0, 0.5),
            "frequency: entry 0: expected [subject, object, counts] with class ids >= 0",
        ),
        "negative_class_id": (
            lambda raw: raw["frequency"]["entries"][0].__setitem__(1, -1),
            "frequency: entry 0: expected [subject, object, counts] with class ids >= 0",
        ),
        "boolean_bias": (
            lambda raw: raw["sub_head"]["layers"][0]["bias"]["shape"].__setitem__(0, True),
            "sub_head: layer 0 bias: shape must be a 1-item list of integers",
        ),
        "overflowing_bias": (
            lambda raw: raw["sub_head"]["layers"][0]["bias"]["shape"].__setitem__(0, 10**400),
            "sub_head: layer 0 bias: shape must be a 1-item list of integers",
        ),
        "overflowing_smoothing": (
            lambda raw: raw["frequency"].update(smoothing=10**400),
            "frequency: smoothing must be a finite positive number",
        ),
        "smoothing_past_float_range": (
            lambda raw: raw["frequency"].update(smoothing=1e308),
            "frequency: smoothing 1e+308 leaves a prior row with a zero or non-finite",
        ),
        "class_ids_outside_vocabulary": (
            lambda raw: raw["frequency"]["entries"].append(
                [10**400, 99, raw["frequency"]["entries"][0][2]]
            ),
            "frequency: class ids must be in 0..",
        ),
        "attribute_head_one_output_too_many": (
            lambda raw: [edit_array(raw["attribute_head"]["layers"][-1][key],
                                    lambda a: np.concatenate([a, a[:1]]))
                         for key in ("weights", "bias")],
            "attribute_head has 5 outputs, not the 4 attributes of",
        ),
    }

    def _predict(self, synth_dir, tmp_path, ckpt, test_dir=None):
        return main(
            [
                "predict",
                "--test",
                str((test_dir or synth_dir) / "test.jsonl"),
                "--vocab",
                str(synth_dir / "vocab.json"),
                "--checkpoint",
                str(ckpt),
                "--out",
                str(tmp_path / "x.jsonl"),
            ]
        )

    @pytest.mark.parametrize("damage", list(CHECKPOINT_DAMAGE))
    def test_damaged_checkpoint_exits_2(self, synth_dir, tmp_path, capsys, recwarn, damage):
        ckpt = _train(synth_dir, tmp_path)
        recwarn.clear()
        text = ckpt.read_text()
        edit, expected = self.CHECKPOINT_DAMAGE[damage]
        if edit is None:
            ckpt.write_text(text[: len(text) // 2])
        else:
            raw = json.loads(text)
            edit(raw)
            ckpt.write_text(json.dumps(raw))
        code = self._predict(synth_dir, tmp_path, ckpt)
        err = capsys.readouterr().err
        assert code == 2
        assert str(ckpt) in err and expected in err, err
        assert "Traceback" not in err
        assert not recwarn.list, [str(w.message) for w in recwarn.list]

    @pytest.mark.parametrize("case", ["eval --test dir", "predict --checkpoint dir",
                                      "train --checkpoint dir", "train --checkpoint under a file",
                                      "ablate --out under a file", "predict --out under a file",
                                      "eval --out dir"])
    def test_os_error_exits_1_naming_the_path(self, synth_dir, tmp_path, capsys, monkeypatch,
                                              case):
        # An output that cannot be written is found before any training or loading.
        monkeypatch.setattr("relfusion.cli.train", _never_called)
        path = tmp_path / "dir"
        path.mkdir()
        data = ["--vocab", str(synth_dir / "vocab.json")]
        (tmp_path / "none.jsonl").write_text("")
        if case == "eval --test dir":
            argv = ["eval", "--test", str(path), *data, "--predictions",
                    str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "r.json")]
        elif case == "eval --out dir":
            monkeypatch.setattr("relfusion.cli.load_dataset", _never_called)
            argv = ["eval", "--test", str(synth_dir / "test.jsonl"), *data, "--predictions",
                    str(tmp_path / "none.jsonl"), "--out", str(path)]
        elif case == "predict --checkpoint dir":
            argv = ["predict", "--test", str(synth_dir / "test.jsonl"), *data,
                    "--checkpoint", str(path), "--out", str(tmp_path / "p.jsonl")]
        elif case == "predict --out under a file":
            monkeypatch.setattr("relfusion.cli.load_checkpoint", _never_called)
            path = tmp_path / "file" / "p.jsonl"
            path.parent.write_text("")
            argv = ["predict", "--test", str(synth_dir / "test.jsonl"), *data,
                    "--checkpoint", str(tmp_path / "none.jsonl"), "--out", str(path)]
        elif case.startswith("train"):
            if case == "train --checkpoint under a file":
                path = tmp_path / "file" / "m.json"
                path.parent.write_text("")
            argv = ["train", "--train", str(synth_dir / "train.jsonl"), *data,
                    "--checkpoint", str(path), "--epochs", "0"]
        else:
            path = tmp_path / "file" / "x.csv"
            path.parent.write_text("")
            argv = ["ablate", "--train", str(synth_dir / "train.jsonl"),
                    "--test", str(synth_dir / "test.jsonl"), *data, "--out", str(path)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1 and str(path) in err and "Traceback" not in err, err
        assert ".tmp" not in err, err

    @pytest.mark.parametrize("name", ["test.jsonl", "vocab.json"])
    def test_non_utf8_input_exits_2_naming_the_line(self, synth_dir, tmp_path, capsys, name):
        lines = (synth_dir / name).read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:5] + b"\xae" + lines[2][5:]
        path = tmp_path / name
        path.write_bytes(b"".join(lines))
        test = path if name == "test.jsonl" else synth_dir / "test.jsonl"
        vocab = path if name == "vocab.json" else synth_dir / "vocab.json"
        (tmp_path / "none.jsonl").write_text("")
        code = main(["eval", "--test", str(test), "--vocab", str(vocab),
                     "--predictions", str(tmp_path / "none.jsonl"),
                     "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}:3: not UTF-8 text (invalid start byte)" in err, err

    def test_feature_dim_mismatch_exits_2(self, synth_dir, tmp_path, capsys):
        # The same seed and vocabulary with narrower features.
        narrow = tmp_path / "narrow"
        assert main(["gen-synth", "--out", str(narrow), "--num-images", "2",
                     "--num-test-images", "2", "--seed", "7", "--feature-dim", "8"]) == 0
        code = self._predict(synth_dir, tmp_path, _train(synth_dir, tmp_path), test_dir=narrow)
        err = capsys.readouterr().err
        assert code == 2
        assert "feature dimension 8 != checkpoint's 16" in err, err

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"triplets": []}, "image_id must be a string"),
            ({"image_id": "x", "triplets": 5}, "triplets must be a list"),
            ({"image_id": "x", "triplets": [{"sub_box": [0, 0, 1, 1]}]}, "triplet 0: missing key"),
            ({"image_id": "x", "triplets": ["t"]}, "triplet 0: expected a JSON object"),
            (
                {"image_id": "x", "triplets": [
                    {"sub_box": [0, 0, 1, 1], "sub_label": 0, "predicate": 1,
                     "obj_box": ["a", 0, 1, 1], "obj_label": 0, "score": 0.5}
                ]},
                "triplet 0: obj_box",
            ),
            (
                {"image_id": "x", "triplets": [
                    {"sub_box": [0, 0, 1, 1], "sub_label": "0", "predicate": 1,
                     "obj_box": [0, 0, 1, 1], "obj_label": 0, "score": 0.5}
                ]},
                "must be integers",
            ),
            (
                {"image_id": "x", "triplets": [
                    {"sub_box": [0, 0, 1, 1], "sub_label": 0, "predicate": 1,
                     "obj_box": [0, 0, 1, 1], "obj_label": 0, "score": 10**400}
                ]},
                "image 'x' triplet 0: score must be a finite number",
            ),
        ],
        ids=["no image_id", "triplets not a list", "missing key", "non-object triplet",
             "non-numeric box", "string label", "overflowing score"],
    )
    def test_malformed_prediction_line_exits_2(self, synth_dir, tmp_path, capsys, row, message):
        predictions = tmp_path / "bad.jsonl"
        predictions.write_text(json.dumps({"image_id": "ok", "triplets": []}) + "\n"
                               + json.dumps(row) + "\n")
        code = main(
            [
                "eval",
                "--test",
                str(synth_dir / "test.jsonl"),
                "--vocab",
                str(synth_dir / "vocab.json"),
                "--predictions",
                str(predictions),
                "--out",
                str(tmp_path / "report.json"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{predictions}:2: " in err and message in err
        assert "Traceback" not in err

    def test_unknown_image_id_names_the_predictions_file(self, synth_dir, tmp_path, capsys):
        predictions = tmp_path / "stray.jsonl"
        predictions.write_text(json.dumps({"image_id": "x", "triplets": []}) + "\n")
        code = main(["eval", "--test", str(synth_dir / "test.jsonl"),
                     "--vocab", str(synth_dir / "vocab.json"),
                     "--predictions", str(predictions), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{predictions}: predictions reference unknown image ids: ['x']" in err, err

    def _eval_lines(self, synth_dir, tmp_path, capsys, rows):
        predictions = tmp_path / "pred.jsonl"
        predictions.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code = main(["eval", "--test", str(synth_dir / "test.jsonl"),
                     "--vocab", str(synth_dir / "vocab.json"),
                     "--predictions", str(predictions), "--out", str(tmp_path / "r.json")])
        return code, predictions, capsys.readouterr().err

    def test_repeated_prediction_image_exits_2(self, synth_dir, tmp_path, capsys):
        image_id = json.loads((synth_dir / "test.jsonl").read_text().splitlines()[0])["image_id"]
        triplet = {"sub_box": [0, 0, 10, 10], "sub_label": 0, "predicate": 1,
                   "obj_box": [5, 5, 20, 20], "obj_label": 1, "score": 0.5}
        code, predictions, err = self._eval_lines(synth_dir, tmp_path, capsys, [
            {"image_id": image_id, "triplets": [triplet] * 100},
            {"image_id": image_id, "triplets": []},
        ])
        assert code == 2
        assert f"{predictions}:2: image {image_id!r} already on line 1" in err, err

    def test_repeated_dataset_image_exits_2(self, synth_dir, tmp_path, capsys):
        first = (synth_dir / "test.jsonl").read_text().splitlines()[0]
        test = tmp_path / "test.jsonl"
        test.write_text(first + "\n" + first + "\n")
        predictions = tmp_path / "pred.jsonl"
        predictions.write_text("")
        code = main(["eval", "--test", str(test), "--vocab", str(synth_dir / "vocab.json"),
                     "--predictions", str(predictions), "--out", str(tmp_path / "r.json")])
        image_id = json.loads(first)["image_id"]
        assert code == 2
        assert f"{test}:2: image {image_id!r} already on line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "is_triplets, message",
        [(5, "is_triplets must be a list"),
         ([{"box": [0, 0, 1]}], "is_triplet 0: box: box must be a list of 4 numbers"),
         ([{"box": [0, 0, 1, 1], "label": 0, "attribute": 1, "score": 10**400}],
          "is_triplet 0: score must be a finite number"),
         ([{"box": [0, 0, 1, 1], "label": 0, "attribute": 0, "score": 0.5},
           {"box": [0, 0, 1, 1], "label": -5, "attribute": 99, "score": 0.5}],
          "is_triplet 1: label -5 or attribute 99 outside object classes 0..")],
        ids=["not a list", "three-number box", "overflowing score", "out-of-range labels"],
    )
    def test_malformed_attribute_output_exits_2(self, synth_dir, tmp_path, capsys,
                                                is_triplets, message):
        image_id = json.loads((synth_dir / "test.jsonl").read_text().splitlines()[0])["image_id"]
        code, predictions, err = self._eval_lines(synth_dir, tmp_path, capsys, [
            {"image_id": image_id, "triplets": [], "is_triplets": is_triplets},
        ])
        assert code == 2, err
        assert f"{predictions}:1: image {image_id!r}" in err and message in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "sub_box, message",
        [(["0", True, "1e1", 5], "box must be a list of 4 numbers"),
         ([0, 0, 10**400, 1], "int too large to convert to float")],
        ids=["strings and a boolean", "overflowing integer"],
    )
    def test_non_number_box_coordinate_in_predictions_exits_2(self, synth_dir, tmp_path, capsys,
                                                              sub_box, message):
        image_id = json.loads((synth_dir / "test.jsonl").read_text().splitlines()[0])["image_id"]
        triplet = {"sub_box": sub_box, "sub_label": 0, "predicate": 1,
                   "obj_box": [5, 5, 20, 20], "obj_label": 1, "score": 0.5}
        code, predictions, err = self._eval_lines(synth_dir, tmp_path, capsys, [
            {"image_id": image_id, "triplets": [triplet]},
        ])
        assert code == 2, err
        assert f"{predictions}:1: image {image_id!r} triplet 0: sub_box: {message}" in err, err
        assert "Traceback" not in err

    def test_non_number_box_coordinate_in_dataset_exits_2(self, synth_dir, tmp_path, capsys):
        row = json.loads((synth_dir / "test.jsonl").read_text().splitlines()[0])
        row["detections"][0]["box"] = ["0", True, "1e1", 5]
        test = tmp_path / "test.jsonl"
        test.write_text(json.dumps(row) + "\n")
        predictions = tmp_path / "pred.jsonl"
        predictions.write_text("")
        code = main(["eval", "--test", str(test), "--vocab", str(synth_dir / "vocab.json"),
                     "--predictions", str(predictions), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{test}:1: " in err and "detection 0: box must be a list of 4 numbers" in err, err

    @pytest.mark.parametrize("field, value", [("sub_label", -7), ("obj_label", 6),
                                              ("predicate", 99), ("predicate", 9)])
    def test_label_outside_vocabulary_exits_2(self, synth_dir, tmp_path, capsys, field, value):
        vocab = load_vocabulary(synth_dir / "vocab.json")
        assert (len(vocab.object_classes), vocab.num_predicates) == (6, 8)
        image_id = json.loads((synth_dir / "test.jsonl").read_text().splitlines()[0])["image_id"]
        good = {"sub_box": [0, 0, 10, 10], "sub_label": 5, "predicate": 8,
                "obj_box": [5, 5, 20, 20], "obj_label": 0, "score": 0.5}
        code, predictions, err = self._eval_lines(synth_dir, tmp_path, capsys, [
            {"image_id": image_id, "triplets": [good, good | {field: value}]},
        ])
        assert code == 2, err
        assert f"{predictions}: image {image_id!r} triplet 1: labels" in err, err
        assert "object classes 0..5 and predicates 1..8" in err
        assert "Traceback" not in err

    def test_negative_top_n_is_usage_error(self, synth_dir, tmp_path, capsys):
        ckpt = _train(synth_dir, tmp_path)

        def predict(top_n):
            out = tmp_path / f"top{top_n}.jsonl"
            code = main(
                [
                    "predict",
                    "--test",
                    str(synth_dir / "test.jsonl"),
                    "--vocab",
                    str(synth_dir / "vocab.json"),
                    "--checkpoint",
                    str(ckpt),
                    "--out",
                    str(out),
                    "--top-n",
                    str(top_n),
                ]
            )
            return code, out

        code, out = predict(-1)
        assert code == 1 and not out.exists()
        assert "top_n must be >= 0" in capsys.readouterr().err
        code, out = predict(0)
        assert code == 0
        assert all(json.loads(line)["triplets"] == [] for line in out.read_text().splitlines())

    @pytest.mark.parametrize("command", ["predict", "ablate"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_top_n_on_empty_test_set_exits_1_before_any_file_is_read(
            self, tmp_path, monkeypatch, capsys, command, source):
        # With no test image, no per-image check would ever see the value.
        for loader in ("load_vocabulary", "load_dataset", "load_checkpoint"):
            monkeypatch.setattr(f"relfusion.cli.{loader}", _never_called)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "out"
        inputs = {"predict": ["--checkpoint", str(tmp_path / "m.json")],
                  "ablate": ["--train", str(empty)]}[command]
        argv = [command, "--test", str(empty), "--vocab", str(tmp_path / "vocab.json"),
                *inputs, "--out", str(out)]
        if source == "flag":
            argv += ["--top-n", "-1"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"top_n": -1}))
            argv = ["--config", str(config), *argv]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1 and "usage error: argument --top-n: top_n must be >= 0, got -1" in err
        assert not out.exists()

    def test_empty_dataset_empty_predictions(self, synth_dir, tmp_path):
        ckpt = _train(synth_dir, tmp_path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "eo.jsonl"
        code = main(
            [
                "predict",
                "--test",
                str(empty),
                "--vocab",
                str(synth_dir / "vocab.json"),
                "--checkpoint",
                str(ckpt),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == ""

    def test_prdcls_mode_round_trips(self, synth_dir, tmp_path):
        ckpt = _train(synth_dir, tmp_path)
        out = tmp_path / "prdcls.jsonl"
        code = main(
            [
                "predict",
                "--test",
                str(synth_dir / "test.jsonl"),
                "--vocab",
                str(synth_dir / "vocab.json"),
                "--checkpoint",
                str(ckpt),
                "--out",
                str(out),
                "--mode",
                "prdcls",
            ]
        )
        assert code == 0
        code = main(
            [
                "eval",
                "--test",
                str(synth_dir / "test.jsonl"),
                "--vocab",
                str(synth_dir / "vocab.json"),
                "--predictions",
                str(out),
                "--out",
                str(tmp_path / "prdcls_report.json"),
                "--mode",
                "prdcls",
                "--k-per-pair",
                "free",
            ]
        )
        assert code == 0

    def test_prdcls_gt_box_without_feature_or_stand_in_exits_2(self, tmp_path, capsys):
        # The one detection misses the gt box, which carries no feature.
        record = make_record(
            detections=[make_detection(label=3, b=box(0, 0, 10, 10))],
            gt=[GtObject(label=1, box=box(50, 50, 60, 60))],
        )
        save_dataset([record], tmp_path / "train.jsonl")
        save_vocabulary(tiny_vocab(), tmp_path / "vocab.json")
        code = main(["train", "--train", str(tmp_path / "train.jsonl"),
                     "--vocab", str(tmp_path / "vocab.json"),
                     "--checkpoint", str(tmp_path / "m.json"), "--mode", "prdcls"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{tmp_path / 'train.jsonl'}:1: image 'img' gt box 0: prdcls needs" in err, err


def _never_read(*args):
    raise AssertionError("a file was read before the settings were checked")


class TestSettingsCheckedBeforeAnyFile:
    # (command, flags, message)
    CASES = [
        ("train", ["--lr", "0"], "learning rate must be finite and positive, got 0.0"),
        ("train", ["--lr", "nan"], "learning rate must be finite and positive, got nan"),
        ("train", ["--momentum", "1"], "momentum must be in [0, 1), got 1.0"),
        ("train", ["--batch-size", "0"], "batch size must be positive, got 0"),
        ("train", ["--epochs", "-1"], "epochs must be >= 0, got -1"),
        ("train", ["--neg-ratio", "-1"], "negative ratio must be finite and >= 0, got -1.0"),
        ("train", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("train", ["--branches", "x"], "unknown branch token 'x'"),
        ("ablate", ["--lr", "0"], "learning rate must be finite and positive, got 0.0"),
        ("eval", ["--iou-threshold", "0"], "iou threshold must be in (0, 1], got 0.0"),
        ("eval", ["--iou-threshold", "1.5"], "iou threshold must be in (0, 1], got 1.5"),
        ("eval", ["--iou-threshold", "-0.5"], "iou threshold must be in (0, 1], got -0.5"),
        ("eval", ["--k-per-pair", "0"],
         "k per pair must be a positive integer or 'free', got 0"),
        ("eval", ["--graph-constraint", "on", "--k-per-pair", "2"],
         "the graph constraint is the per-pair budget 1; set no k per pair"),
    ]

    @pytest.mark.parametrize("command, flags, message", CASES,
                             ids=[f"{c} {' '.join(f)}" for c, f, _ in CASES])
    def test_bad_setting_exits_1_before_any_file_is_read(self, tmp_path, monkeypatch, capsys,
                                                         command, flags, message):
        for loader in ("load_vocabulary", "load_dataset", "load_checkpoint", "load_predictions"):
            monkeypatch.setattr(f"relfusion.cli.{loader}", _never_read)
        absent = str(tmp_path / "absent.jsonl")
        inputs = {"train": ["--train", absent, "--checkpoint", str(tmp_path / "m.json")],
                  "ablate": ["--train", absent, "--test", absent, "--out", str(tmp_path / "a.csv")],
                  "eval": ["--test", absent, "--predictions", absent,
                           "--out", str(tmp_path / "r.json")]}[command]
        code = main([command, "--vocab", absent, *inputs, *flags])
        err = capsys.readouterr().err
        assert code == 1 and f"usage error: {message}" in err, err
        assert not any(tmp_path.iterdir())


class TestTrainingDataErrorsNameTheFile:
    @staticmethod
    def _record(dets, attributes=()):
        """Gt boxes 0 and 1 are related, and box 2 has attribute 1; only ``dets`` have features."""
        gt = [GtObject(0, box(0, 0, 10, 10)), GtObject(1, box(5, 5, 20, 20)),
              GtObject(2, box(60, 60, 90, 90))]
        return make_record(detections=dets, gt=gt, triplets=[(0, 1, 1)], attributes=attributes)

    MATCHING = [make_detection(0, box(0, 0, 10, 10)), make_detection(1, box(5, 5, 20, 20))]
    MISSING = [make_detection(0, box(60, 60, 70, 70)), make_detection(1, box(80, 80, 90, 90))]
    NO_POSITIVES = "no positive training pairs: detections never match ground truth"

    # ablate trains no attribute head, so only train reaches the last message.
    @pytest.mark.parametrize(
        "command, dets, attributes, message",
        [
            ("train", [], (), "training dataset contains no detections"),
            ("ablate", [], (), "training dataset contains no detections"),
            ("train", MISSING, (), NO_POSITIVES),
            ("ablate", MISSING, (), NO_POSITIVES),
            ("train", MATCHING, [(2, 1)], "no attribute annotations with usable features"),
        ],
        ids=["train no detections", "ablate no detections", "train no positives",
             "ablate no positives", "train no usable attribute"],
    )
    def test_message_names_the_training_file(self, tmp_path, capsys, command, dets, attributes,
                                             message):
        train_path, vocab = tmp_path / "train.jsonl", tmp_path / "vocab.json"
        save_dataset([self._record(dets, attributes)], train_path)
        save_vocabulary(tiny_vocab(num_attributes=2), vocab)
        out = ["--checkpoint", str(tmp_path / "m.json")] if command == "train" else [
            "--test", str(train_path), "--out", str(tmp_path / "a.csv")]
        code = main([command, "--train", str(train_path), "--vocab", str(vocab), *out,
                     "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 2 and f"data error: {train_path}: {message}" in err, err


@pytest.mark.parametrize(
    "key, item, message",
    [("gt_triplets", [0, 1], "gt triplet 0: expected [sub_idx, pred_id, obj_idx]"),
     ("gt_attributes", [0, 1, 2], "gt attribute 0: expected [gt_idx, attr_id]")],
    ids=["two-item triplet", "three-item attribute"],
)
def test_short_gt_item_exits_2_naming_the_line(synth_dir, tmp_path, capsys, key, item, message):
    lines = (synth_dir / "test.jsonl").read_text().splitlines(keepends=True)
    row = json.loads(lines[1])
    row[key] = [item]
    lines[1] = json.dumps(row) + "\n"
    test = tmp_path / "test.jsonl"
    test.write_text("".join(lines))
    (tmp_path / "none.jsonl").write_text("")
    code = main(["eval", "--test", str(test), "--vocab", str(synth_dir / "vocab.json"),
                 "--predictions", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"{test}:2: image {row['image_id']!r} {message}" in err, err


class TestOverflowingSpatialEncoding:
    """A detection box with a positive but subnormal height overflows its pairs' encoding."""

    @staticmethod
    def _damaged_copy(path, tmp_path):
        """``path`` with line 2's detection 0 that tall; the copy and that line's image id."""
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[1])
        x0, _, x1, _ = row["detections"][0]["box"]
        row["detections"][0]["box"] = [x0, 0.0, x1, 5e-324]
        lines[1] = json.dumps(row) + "\n"
        copy = tmp_path / path.name
        copy.write_text("".join(lines))
        return copy, row["image_id"]

    def test_predict_exits_2_naming_the_file_image_and_pair(self, synth_dir, tmp_path, capsys):
        ckpt = _train(synth_dir, tmp_path)
        test, image_id = self._damaged_copy(synth_dir / "test.jsonl", tmp_path)
        code = main(["predict", "--test", str(test), "--vocab", str(synth_dir / "vocab.json"),
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "p.jsonl")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err == (f"data error: {test}:2: image {image_id!r} detection pair (0, 1):"
                       " spatial encoding is not finite\n")

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_training_exits_2_naming_the_file_image_and_pair(self, synth_dir, tmp_path, capsys,
                                                             command):
        train, image_id = self._damaged_copy(synth_dir / "train.jsonl", tmp_path)
        out = ["--checkpoint", str(tmp_path / "m.json")] if command == "train" else [
            "--test", str(synth_dir / "test.jsonl"), "--out", str(tmp_path / "a.csv")]
        code = main([command, "--train", str(train), "--vocab", str(synth_dir / "vocab.json"),
                     *out, "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"data error: {train}:2: image {image_id!r} detection pair ("), err
        assert err.endswith("): spatial encoding is not finite\n"), err


class TestNonFiniteScores:
    """A checkpoint head whose weights are scaled by 1e200 overflows on every test image:
    predict exits 2 with one data error naming the test file's line, the image and the
    checkpoint. Tier-1 makes a numpy RuntimeWarning an error, so a warning fails here too."""

    @pytest.mark.parametrize("net, what", [
        ("spo_head", ": prediction score"),
        ("attribute_head", " detection 0: attribute score"),
    ])
    def test_predict_exits_2_naming_the_line_image_and_checkpoint(self, synth_dir, tmp_path,
                                                                  capsys, net, what):
        raw = json.loads(_train(synth_dir, tmp_path).read_text())
        for layer in raw[net]["layers"]:
            edit_array(layer["weights"], lambda w: w * 1e200)
        ckpt, out, test = tmp_path / "scaled.json", tmp_path / "p.jsonl", synth_dir / "test.jsonl"
        ckpt.write_text(json.dumps(raw))
        code = main(["predict", "--test", str(test), "--vocab", str(synth_dir / "vocab.json"),
                     "--checkpoint", str(ckpt), "--out", str(out), "--attributes"])
        err = capsys.readouterr().err
        assert code == 2, err
        image_id = json.loads(test.read_text().splitlines()[0])["image_id"]
        assert err == (f"data error: {test}:1: image {image_id!r}{what} is not finite"
                       f" (checkpoint {ckpt})\n")
        assert not out.exists()


class TestOverflowingBoxSide:
    """A box whose width overflows the float range is a data error on input."""

    BOX_MESSAGE = "box width or height overflows the float range, got [-1e+308, {}, 1e+308, {}]"

    @staticmethod
    def _widen(box):
        return [-1e308, box[1], 1e308, box[3]]

    @pytest.mark.parametrize("mode", ["sgcls", "sgdet"])
    def test_training_exits_2_naming_the_line_and_detection(self, synth_dir, tmp_path, capsys,
                                                            mode):
        lines = (synth_dir / "train.jsonl").read_text().splitlines(keepends=True)
        row = json.loads(lines[1])
        box = row["detections"][0]["box"] = self._widen(row["detections"][0]["box"])
        lines[1] = json.dumps(row) + "\n"
        train = tmp_path / "train.jsonl"
        train.write_text("".join(lines))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = main(["train", "--train", str(train), "--vocab", str(synth_dir / "vocab.json"),
                         "--checkpoint", str(tmp_path / "m.json"), "--mode", mode,
                         "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert not seen, [str(w.message) for w in seen]
        assert err == (f"data error: {train}:2: image {row['image_id']!r} detection 0: "
                       f"{self.BOX_MESSAGE.format(box[1], box[3])}\n")
        assert not (tmp_path / "m.json").exists()

    def test_eval_exits_2_naming_the_line_and_box(self, synth_dir, tmp_path, capsys):
        ckpt = _train(synth_dir, tmp_path)
        pred = tmp_path / "p.jsonl"
        assert main(["predict", "--test", str(synth_dir / "test.jsonl"),
                     "--vocab", str(synth_dir / "vocab.json"), "--checkpoint", str(ckpt),
                     "--out", str(pred), "--attributes"]) == 0
        lines = pred.read_text().splitlines(keepends=True)
        row = json.loads(lines[0])
        box = row["boxes"][1] = self._widen(row["boxes"][1])
        lines[0] = json.dumps(row) + "\n"
        pred.write_text("".join(lines))
        code = main(["eval", "--test", str(synth_dir / "test.jsonl"),
                     "--vocab", str(synth_dir / "vocab.json"), "--predictions", str(pred),
                     "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err == (f"data error: {pred}:1: image {row['image_id']!r} box 1: "
                       f"{self.BOX_MESSAGE.format(box[1], box[3])}\n")


class TestBoxAreaPastTheFloatRange(TestOverflowingBoxSide):
    """A box with finite sides but an area past the float range is a data error on input:
    its far corner lies beyond 2**510. The same train (sgcls, sgdet) and eval runs apply."""

    BOX_MESSAGE = "box coordinate beyond +-2**510, got [0, {}, 1e+308, {}]"

    @staticmethod
    def _widen(box):
        return [0, box[1], 1e308, 1e308]


def _train_with_config(synth_dir, tmp_path, config, extra=()):
    """Exit code of a train run under ``config``, and its epoch count."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    ckpt = tmp_path / "m.json"
    code = main(
        [
            "--config",
            str(config_path),
            "train",
            "--train",
            str(synth_dir / "train.jsonl"),
            "--vocab",
            str(synth_dir / "vocab.json"),
            "--checkpoint",
            str(ckpt),
            *extra,
        ]
    )
    history = tmp_path / "m.json.loss.csv"
    epochs = len(history.read_text().splitlines()) - 1 if code == 0 else None
    return code, epochs


class TestConfigFile:
    def test_flags_win_over_config(self, synth_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 1, "seed": 3}))
        ckpt1 = tmp_path / "c1.json"
        code = main(
            [
                "--config",
                str(config),
                "train",
                "--train",
                str(synth_dir / "train.jsonl"),
                "--vocab",
                str(synth_dir / "vocab.json"),
                "--checkpoint",
                str(ckpt1),
                "--seed",
                "7",
            ]
        )
        assert code == 0
        # flag seed (7) won; config epochs (1) applied
        history = (tmp_path / "c1.json.loss.csv").read_text().strip().splitlines()
        assert len(history) == 2
        ckpt2 = _train(synth_dir, tmp_path, "c2.json", extra=["--epochs", "1"])
        assert ckpt1.read_bytes() == ckpt2.read_bytes()

    def test_unknown_config_key_is_usage_error(self, synth_dir, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"not_a_flag": 1}))
        code = main(
            [
                "--config",
                str(config),
                "train",
                "--train",
                str(synth_dir / "train.jsonl"),
                "--vocab",
                str(synth_dir / "vocab.json"),
                "--checkpoint",
                str(tmp_path / "m.json"),
            ]
        )
        assert code == 1


    @pytest.mark.parametrize("flag", [["--epochs=3"], ["--epo", "3"]])
    def test_every_flag_spelling_wins_over_config(self, synth_dir, tmp_path, flag):
        assert _train_with_config(synth_dir, tmp_path, {"epochs": 1}, flag) == (0, 3)

    def test_string_value_goes_through_flag_type(self, synth_dir, tmp_path):
        assert _train_with_config(synth_dir, tmp_path, {"epochs": "3"}) == (0, 3)

    @pytest.mark.parametrize(
        "config", [{"command": "eval"}, {"config": "other.json"}, {"epochs": [3]}]
    )
    def test_non_flag_keys_and_values_are_usage_errors(self, synth_dir, tmp_path, config):
        assert _train_with_config(synth_dir, tmp_path, config) == (1, None)

    @pytest.mark.parametrize(
        "config",
        [{"epochs": -1}, {"epochs": "x"}, {"lr": float("nan")}, {"neg_ratio": float("inf")},
         {"smoothing": 0}, {"epochs": True}, {"lr": True}],
        ids=["negative epochs", "string epochs", "nan lr", "infinite neg_ratio", "zero smoothing",
             "boolean epochs", "boolean lr"],
    )
    def test_bad_value_names_the_config(self, synth_dir, tmp_path, capsys, config):
        assert _train_with_config(synth_dir, tmp_path, config) == (1, None)
        assert f"(flag defaults from {tmp_path / 'config.json'})" in capsys.readouterr().err

    @staticmethod
    def _eval_with_config(synth_dir, tmp_path, config, *flags):
        """Exit code, config path and report path of an eval under ``config`` and ``flags``."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        predictions = tmp_path / "none.jsonl"
        predictions.write_text("")
        report = tmp_path / "report.json"
        code = main(["--config", str(config_path), "eval",
                     "--test", str(synth_dir / "test.jsonl"),
                     "--vocab", str(synth_dir / "vocab.json"),
                     "--predictions", str(predictions), "--out", str(report), *flags])
        return code, config_path, report

    @pytest.mark.parametrize(
        "config",
        [{"mode": "bogus"}, {"graph_constraint": "maybe"}],
        ids=["mode", "graph_constraint"],
    )
    def test_value_outside_choices_is_usage_error(self, synth_dir, tmp_path, capsys, config):
        code, config_path, report = self._eval_with_config(synth_dir, tmp_path, config)
        err = capsys.readouterr().err
        assert code == 1 and not report.exists()
        (key,) = config
        assert f"{config_path}: {key!r} must be one of" in err

    @pytest.mark.parametrize(
        "config",
        [{"mode": "bogus"}, {"graph_constraint": "maybe"},
         {"mode": "bogus", "graph_constraint": "maybe"}],
        ids=["mode", "graph_constraint", "both"],
    )
    def test_value_outside_choices_is_usage_error_when_a_flag_wins(
            self, synth_dir, tmp_path, capsys, config):
        # The config value is checked, not the value that wins.
        code, config_path, report = self._eval_with_config(
            synth_dir, tmp_path, config, "--mode", "sgdet", "--graph-constraint", "off")
        err = capsys.readouterr().err
        assert code == 1 and not report.exists()
        key, value = next(iter(config.items()))
        choices = "prdcls, sgcls, sgdet" if key == "mode" else "on, off"
        assert f"{config_path}: {key!r} must be one of {choices}, got {value!r}" in err

    def _predict_with_config(self, synth_dir, tmp_path, config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "pred.jsonl"
        code = main(["--config", str(config_path), "predict",
                     "--test", str(synth_dir / "test.jsonl"),
                     "--vocab", str(synth_dir / "vocab.json"),
                     "--checkpoint", str(_train(synth_dir, tmp_path)), "--out", str(out)])
        return code, config_path, out

    @pytest.mark.parametrize(
        "config",
        [{"attributes": 1}, {"attributes": "true"}, {"top_n": True}],
        ids=["number switch", "string switch", "boolean top_n"],
    )
    def test_switch_takes_only_a_boolean(self, synth_dir, tmp_path, capsys, config):
        code, config_path, out = self._predict_with_config(synth_dir, tmp_path, config)
        assert code == 1 and not out.exists()
        assert f"(flag defaults from {config_path})" in capsys.readouterr().err

    def test_boolean_switch_still_works(self, synth_dir, tmp_path):
        code, _, out = self._predict_with_config(synth_dir, tmp_path, {"attributes": True})
        assert code == 0
        assert "is_triplets" in json.loads(out.read_text().splitlines()[0])
        assert main(["eval", "--test", str(synth_dir / "test.jsonl"),
                     "--vocab", str(synth_dir / "vocab.json"),
                     "--predictions", str(out), "--out", str(tmp_path / "r.json")]) == 0


class TestAblate:
    def test_four_rows_and_format(self, synth_dir, tmp_path):
        out = tmp_path / "ablation.csv"
        code = main(
            [
                "ablate",
                "--train",
                str(synth_dir / "train.jsonl"),
                "--test",
                str(synth_dir / "test.jsonl"),
                "--vocab",
                str(synth_dir / "vocab.json"),
                "--out",
                str(out),
                "--seed",
                "7",
                "--epochs",
                "2",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "config,r50,map_rel,map_phr,score"
        assert len(lines) == 5
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["baseline", "<SPO>", "<SPO>+S+O", "<SPO>+S+O+spt"]

    def test_neg_ratio_past_float_range_samples_every_unmatched_pair(self, synth_dir, tmp_path):
        def ablate(ratio):
            out = tmp_path / f"ablation_{ratio}.csv"
            assert main(["ablate", "--train", str(synth_dir / "train.jsonl"), "--test",
                         str(synth_dir / "test.jsonl"), "--vocab", str(synth_dir / "vocab.json"),
                         "--out", str(out), "--epochs", "1", "--neg-ratio", ratio]) == 0
            return out.read_bytes()

        assert ablate("1e308") == ablate("1000000")

    def test_feature_dim_mismatch_exits_2_before_training(self, synth_dir, tmp_path, capsys,
                                                          monkeypatch):
        # The same seed and vocabulary as synth_dir, with 8-d features.
        narrow = tmp_path / "narrow"
        assert main(["gen-synth", "--out", str(narrow), "--num-images", "2",
                     "--num-test-images", "2", "--seed", "7", "--feature-dim", "8"]) == 0
        monkeypatch.setattr("relfusion.cli.train", _never_called)
        test = narrow / "test.jsonl"
        code = main(["ablate", "--train", str(synth_dir / "train.jsonl"), "--test", str(test),
                     "--vocab", str(synth_dir / "vocab.json"), "--out", str(tmp_path / "a.csv")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{test}: feature dimension 8 != {synth_dir / 'train.jsonl'}'s 16" in err, err
        assert not (tmp_path / "a.csv").exists()


class _Captured(Exception):
    """Raised by a stand-in for generate or train; holds the config it was given."""


def _captured_config(monkeypatch, name, argv):
    """The config that ``main(argv)`` passes to ``relfusion.cli.<name>`` (its last argument)."""
    def capture(*args):
        raise _Captured(args[-1])

    monkeypatch.setattr(f"relfusion.cli.{name}", capture)
    with pytest.raises(_Captured) as info:
        main(argv)
    return info.value.args[0]


class TestFlagsFeedConfigFields:
    # (flag, value, config field, the field's expected value)
    SYNTH_FLAGS = [
        ("--num-images", "11", "num_images", 11),
        ("--num-test-images", "3", "num_test_images", 3),
        ("--min-objects", "2", "objects_per_image", (2, 7)),
        ("--max-objects", "9", "objects_per_image", (4, 9)),
        ("--num-classes", "5", "num_classes", 5),
        ("--num-predicates", "4", "num_predicates", 4),
        ("--feature-dim", "8", "feature_dim", 8),
        ("--seed", "3", "seed", 3),
        ("--num-attributes", "2", "num_attributes", 2),
        ("--noise", "0.25", "noise", 0.25),
        ("--pair-density", "0.5", "pair_density", 0.5),
        ("--rule-weight", "0.5", "rule_weight", 0.5),
        ("--appearance-weight", "1.5", "appearance_weight", 1.5),
        ("--existence-weight", "0.5", "existence_weight", 0.5),
        ("--signals", "p,v", "semantic_signal", False),
        ("--signals", "s,v", "spatial_signal", False),
        ("--signals", "s,p", "visual_signal", False),
    ]
    TRAIN_FLAGS = [
        ("--epochs", "2", "epochs", 2),
        ("--batch-size", "8", "batch_size", 8),
        ("--lr", "0.05", "learning_rate", 0.05),
        ("--momentum", "0.5", "momentum", 0.5),
        ("--neg-ratio", "1.5", "negative_ratio", 1.5),
        ("--seed", "11", "seed", 11),
    ]

    @staticmethod
    def _train_argv(synth_dir, tmp_path, command):
        argv = [command, "--train", str(synth_dir / "train.jsonl"),
                "--vocab", str(synth_dir / "vocab.json")]
        if command == "train":
            return argv + ["--checkpoint", str(tmp_path / "m.json")]
        return argv + ["--test", str(synth_dir / "test.jsonl"), "--out", str(tmp_path / "a.csv")]

    @pytest.mark.parametrize("flag, value, field, expected", SYNTH_FLAGS)
    def test_gen_synth_flag_sets_its_field(self, monkeypatch, tmp_path, flag, value, field,
                                           expected):
        argv = ["gen-synth", "--out", str(tmp_path), flag, value]
        got = getattr(_captured_config(monkeypatch, "generate", argv), field)
        assert got == expected and type(got) is type(expected)

    def test_gen_synth_defaults_are_synth_config(self, monkeypatch, tmp_path):
        argv = ["gen-synth", "--out", str(tmp_path)]
        assert _captured_config(monkeypatch, "generate", argv) == SynthConfig()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("flag, value, field, expected", TRAIN_FLAGS)
    def test_train_flag_sets_its_field(self, synth_dir, monkeypatch, tmp_path, command, flag,
                                       value, field, expected):
        argv = self._train_argv(synth_dir, tmp_path, command) + [flag, value]
        got = getattr(_captured_config(monkeypatch, "train", argv), field)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_train_defaults_are_train_config_with_seed_7(self, synth_dir, monkeypatch, tmp_path,
                                                         command):
        argv = self._train_argv(synth_dir, tmp_path, command)
        assert _captured_config(monkeypatch, "train", argv) == TrainConfig(seed=7)
