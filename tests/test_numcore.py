"""Dense-layer machinery: forward, backward, loss, optimizer, init."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from relfusion.datamodel import DataError
from relfusion.numcore import (
    DenseLayer,
    Mlp,
    backward,
    fd_gradient,
    forward,
    init_layer,
    init_mlp,
    max_relative_error,
    mlp_from_json,
    mlp_to_json,
    sgd_step,
    softmax,
    softmax_xent,
)

from util import array_json


def _layer(weights, bias):
    return DenseLayer(np.asarray(weights, dtype=float), np.asarray(bias, dtype=float))


class TestForward:
    def test_zero_layer_maps_to_zero(self):
        mlp = Mlp([_layer(np.zeros((3, 2)), np.zeros(3))])
        out, _ = forward(mlp, np.array([5.0, -7.0]))
        assert np.array_equal(out, np.zeros(3))

    def test_identity_layer(self):
        mlp = Mlp([_layer(np.eye(4), np.zeros(4))])
        x = np.array([1.0, -2.0, 3.0, -4.0])
        out, _ = forward(mlp, x)
        assert np.array_equal(out, x)

    def test_two_layer_hand_evaluation(self):
        w1 = [[1.0, 2.0], [3.0, -4.0]]
        b1 = [0.5, -0.5]
        w2 = [[2.0, 1.0], [0.0, -1.0]]
        b2 = [1.0, 2.0]
        mlp = Mlp([_layer(w1, b1), _layer(w2, b2)])
        x = np.array([1.0, -1.0])
        # By hand: z1 = (1-2+0.5, 3+4-0.5) = (-0.5, 6.5); relu -> (0, 6.5)
        # z2 = (2*0 + 1*6.5 + 1, 0 - 6.5 + 2) = (7.5, -4.5)
        out, _ = forward(mlp, x)
        assert np.allclose(out, [7.5, -4.5], atol=1e-15)

    def test_dimension_mismatch(self):
        mlp = Mlp([_layer(np.zeros((2, 3)), np.zeros(2))])
        with pytest.raises(ValueError):
            forward(mlp, np.zeros(4))

    def test_chain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Mlp([_layer(np.zeros((2, 3)), np.zeros(2)), _layer(np.zeros((2, 3)), np.zeros(2))])

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        mlp = init_mlp([5, 8, 4], rng)
        x = rng.normal(size=5)
        a, _ = forward(mlp, x)
        b, _ = forward(mlp, x)
        assert np.array_equal(a, b)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        mlp = init_mlp([5, 8, 4], rng)
        xs = rng.normal(size=(6, 5))
        batch, _ = forward(mlp, xs)
        for i in range(6):
            single, _ = forward(mlp, xs[i])
            assert np.allclose(batch[i], single, atol=1e-12)


class TestBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(5)
        mlp = init_mlp([4, 6, 3], rng)
        x = rng.normal(size=4)
        _, cache = forward(mlp, x)
        grads = backward(mlp, cache, np.zeros(3))
        assert all(np.all(dw == 0) and np.all(db == 0) for dw, db in grads)

    def test_single_linear_layer_closed_form(self):
        rng = np.random.default_rng(6)
        mlp = init_mlp([4, 3], rng)
        x = rng.normal(size=4)
        g = rng.normal(size=3)
        _, cache = forward(mlp, x)
        grads = backward(mlp, cache, g)
        dw, db = grads[0]
        assert np.allclose(dw, np.outer(g, x), atol=1e-15)
        assert np.allclose(db, g, atol=1e-15)

    def test_three_layer_finite_difference(self):
        rng = np.random.default_rng(7)
        mlp = init_mlp([5, 7, 6, 3], rng)
        x = rng.normal(size=5)
        target_dir = rng.normal(size=3)

        def loss():
            out, _ = forward(mlp, x)
            return float(out @ target_dir)

        _, cache = forward(mlp, x)
        grads = backward(mlp, cache, target_dir)
        for layer, (dw, db) in zip(mlp.layers, grads):
            fd_w = fd_gradient(loss, layer.weights)
            fd_b = fd_gradient(loss, layer.bias)
            assert max_relative_error(dw, fd_w) < 1e-4
            assert max_relative_error(db, fd_b) < 1e-4

    @pytest.mark.parametrize(
        "dims", [[22, 64, 64, 9], [48, 256, 256, 9], [16, 9]]
    )
    def test_branch_sized_configurations_spot_checked(self, dims):
        """Each layer stack shape the relationship heads use, spot-checked
        against finite differences on a random subset of parameters."""
        rng = np.random.default_rng(sum(dims))
        mlp = init_mlp(dims, rng)
        x = rng.normal(size=dims[0])
        target = int(rng.integers(0, dims[-1]))

        def loss():
            out, _ = forward(mlp, x)
            return float(softmax_xent(out, target)[0])

        out, cache = forward(mlp, x)
        _, dlogits = softmax_xent(out, target)
        grads = backward(mlp, cache, dlogits)
        for layer, (dw, _) in zip(mlp.layers, grads):
            flat = layer.weights.reshape(-1)
            picks = rng.choice(flat.size, size=min(25, flat.size), replace=False)
            for idx in picks:
                orig = flat[idx]
                h = 1e-5
                flat[idx] = orig + h
                up = loss()
                flat[idx] = orig - h
                down = loss()
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                assert max_relative_error(
                    np.array([dw.reshape(-1)[idx]]), np.array([fd])
                ) < 1e-4


def _same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: -0.0 differs from 0.0, a NaN equals its own bits."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _reference_forward(mlp, x):
    """The plain formula, relu(x @ W.T + b) per hidden layer, keeping each pre-activation."""
    h = np.atleast_2d(x)
    inputs, preacts = [], []
    for i, layer in enumerate(mlp.layers):
        inputs.append(h)
        z = h @ layer.weights.T + layer.bias
        preacts.append(z)
        h = np.maximum(z, 0.0) if i < len(mlp.layers) - 1 else z
    return h, inputs, preacts


def _reference_backward(mlp, inputs, preacts, g):
    """The plain reverse pass, masking each propagated gradient by its pre-activation."""
    grads = [None] * len(mlp.layers)
    for i in range(len(mlp.layers) - 1, -1, -1):
        grads[i] = (g.T @ inputs[i], g.sum(axis=0))
        if i > 0:
            g = (g @ mlp.layers[i].weights) * (preacts[i - 1] > 0.0)
    return grads


def _boundary_case(seed: int):
    """An mlp and a batch whose pre-activations hit the rectifier's edge.

    Weights and inputs are small integers (so many pre-activations are exactly
    zero), inputs and biases hold -0.0, some rows are integer multiples of the
    smallest subnormal, and one row holds a NaN.
    """
    rng = np.random.default_rng(seed)
    dims = [6, 7, 5, 3]
    layers = [
        DenseLayer(rng.integers(-1, 2, size=(b, a)).astype(float),
                   np.concatenate([[0.0, -0.0], rng.choice([0.0, -0.0, 1.0, -1.0], size=b - 2)]))
        for a, b in zip(dims, dims[1:])
    ]
    x = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=(12, dims[0]))
    x[4:8] *= 5e-324
    x[9, 2] = np.nan
    g = rng.choice([-1.0, -0.0, 0.0, 0.5, 5e-324, -5e-324], size=(12, dims[-1]))
    return Mlp(layers), x, g


class TestLeanPasses:
    """forward, backward and sgd_step give the bits of their plain formulas."""

    @pytest.mark.parametrize("seed", range(5))
    def test_forward_and_backward_match_the_pre_activation_formulas(self, seed):
        mlp, x, g = _boundary_case(seed)
        x_before, g_before = x.copy(), g.copy()
        ref_out, ref_inputs, ref_preacts = _reference_forward(mlp, x)
        assert any(np.any(z == 0.0) for z in ref_preacts)
        assert any(np.any((z != 0.0) & (np.abs(z) < 1e-300)) for z in ref_preacts)
        out, cache = forward(mlp, x)
        assert _same_bits(out, ref_out)
        assert set(cache) == {"inputs"}
        assert all(_same_bits(a, b) for a, b in zip(cache["inputs"], ref_inputs, strict=True))
        grads = backward(mlp, cache, g)
        expected = _reference_backward(mlp, ref_inputs, ref_preacts, g)
        for (dw, db), (rw, rb) in zip(grads, expected, strict=True):
            assert _same_bits(dw, rw) and _same_bits(db, rb)
        assert _same_bits(x, x_before) and _same_bits(g, g_before)

    def test_a_single_vector_matches_its_batch_formula(self):
        mlp, x, g = _boundary_case(7)
        out, cache = forward(mlp, x[5])
        ref_out, ref_inputs, ref_preacts = _reference_forward(mlp, x[5])
        assert _same_bits(out, ref_out[0])
        for (dw, db), (rw, rb) in zip(backward(mlp, cache, g[5]),
                                      _reference_backward(mlp, ref_inputs, ref_preacts,
                                                          g[5:6])):
            assert _same_bits(dw, rw) and _same_bits(db, rb)

    def test_branch_sized_net_matches_bit_for_bit(self):
        rng = np.random.default_rng(21)
        mlp = init_mlp([48, 256, 256, 15], rng)
        x = rng.normal(size=(462, 48))
        g = rng.normal(size=(462, 15))
        out, cache = forward(mlp, x)
        ref_out, ref_inputs, ref_preacts = _reference_forward(mlp, x)
        assert _same_bits(out, ref_out)
        for (dw, db), (rw, rb) in zip(backward(mlp, cache, g),
                                      _reference_backward(mlp, ref_inputs, ref_preacts, g)):
            assert _same_bits(dw, rw) and _same_bits(db, rb)

    def test_sgd_step_matches_the_momentum_formula_and_consumes_grads(self):
        rng = np.random.default_rng(22)
        shapes = [(7, 5), (7,), (3, 7), (3,)]
        params = [rng.normal(size=s) for s in shapes]
        params[0][0, :3] = [-0.0, 0.0, 5e-324]
        velocities = [rng.normal(scale=1e-3, size=s) for s in shapes]
        velocities[1][:2] = [-0.0, 5e-324]
        grads = [rng.normal(size=s) for s in shapes]
        grads[2][0, :3] = [-0.0, 0.0, -5e-324]
        lr, momentum = 0.03, 0.9
        v_ref = [momentum * v - lr * g for v, g in zip(velocities, grads)]
        p_ref = [p + v for p, v in zip(params, v_ref)]
        scaled = [lr * g for g in grads]
        sgd_step(params, grads, velocities, lr, momentum)
        assert all(_same_bits(a, b) for a, b in zip(velocities, v_ref))
        assert all(_same_bits(a, b) for a, b in zip(params, p_ref))
        # The gradients are consumed: each holds lr * grad afterwards.
        assert all(_same_bits(a, b) for a, b in zip(grads, scaled))

    def test_forward_keeps_no_pre_activation_copies(self):
        """One spo_head-sized forward peaks under 2.5 activations (462 x 256 floats).

        The output and cache alive at the end are two; a pass that also keeps
        each pre-activation peaks at about four.
        """
        rng = np.random.default_rng(23)
        mlp = init_mlp([48, 256, 256, 15], rng)
        x = rng.normal(size=(462, 48))
        forward(mlp, x)  # first-call allocations of numpy and BLAS stay out of the count
        tracemalloc.start()
        try:
            out, cache = forward(mlp, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 462 * 256 * 8


class TestSoftmaxXent:
    def test_uniform_logits_loss(self):
        for n in (2, 5, 10):
            loss, _ = softmax_xent(np.zeros(n), 0)
            assert loss == pytest.approx(math.log(n), abs=1e-12)

    def test_grad_sums_to_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            z = rng.normal(scale=10, size=6)
            _, grad = softmax_xent(z, int(rng.integers(0, 6)))
            assert abs(grad.sum()) < 1e-12

    def test_extreme_logits_stable(self):
        loss, grad = softmax_xent(np.array([1000.0, 0.0]), 0)
        assert 0.0 <= loss < 1e-9
        assert np.all(np.isfinite(grad))

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_xent(np.zeros(3), 3)

    def test_grad_is_softmax_minus_one_hot_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for scale in (0.1, 10.0, 300.0):
            z = rng.normal(scale=scale, size=(50, 9))
            t = rng.integers(0, 9, size=50)
            expected = softmax(z)
            expected[np.arange(50), t] -= 1.0
            assert np.array_equal(softmax_xent(z, t)[1], expected)
            assert np.array_equal(softmax_xent(z[3], int(t[3]))[1], expected[3])

    def test_batch_mode(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(4, 5))
        t = np.array([0, 1, 2, 3])
        losses, grads = softmax_xent(z, t)
        for i in range(4):
            li, gi = softmax_xent(z[i], int(t[i]))
            assert losses[i] == pytest.approx(li, abs=1e-14)
            assert np.allclose(grads[i], gi, atol=1e-14)


class TestSoftmax:
    def test_sums_to_one(self):
        rng = np.random.default_rng(10)
        z = rng.normal(scale=50, size=(200, 7))
        s = softmax(z)
        assert np.all(np.abs(s.sum(axis=1) - 1.0) < 1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            z = rng.normal(scale=10, size=9)
            c = float(rng.uniform(-100, 100))
            assert np.all(np.abs(softmax(z + c) - softmax(z)) < 1e-12)


class TestSgd:
    def test_zero_grad_no_change(self):
        p = np.array([1.0, 2.0])
        sgd_step([p], [np.zeros(2)], [np.zeros(2)], 0.1, 0.9)
        assert np.array_equal(p, [1.0, 2.0])

    def test_plain_gradient_descent(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        sgd_step([p], [g], [np.zeros(2)], 0.1, 0.0)
        assert np.allclose(p, [0.95, 2.05], atol=1e-15)

    def test_quadratic_converges_geometrically(self):
        # f(w) = ||w||^2, grad = 2w, lr 0.1 -> w scales by 0.8 per step
        w = np.array([1.0, 1.0])
        velocities = [np.zeros(2)]
        for _ in range(100):
            sgd_step([w], [2.0 * w], velocities, 0.1, 0.0)
        assert np.linalg.norm(w) < 1e-6
        assert np.allclose(w, 0.8**100 * np.ones(2), rtol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step([np.zeros(2)], [np.zeros(3)], [np.zeros(2)], 0.1, 0.0)

    def test_momentum_accumulates(self):
        p = np.zeros(1)
        velocities = [np.zeros(1)]
        # A fresh gradient per call: sgd_step consumes the one it is given.
        sgd_step([p], [np.ones(1)], velocities, 0.5, 0.5)  # v = -0.5, p = -0.5
        sgd_step([p], [np.ones(1)], velocities, 0.5, 0.5)  # v = -0.75, p = -1.25
        assert p[0] == pytest.approx(-1.25, abs=1e-15)

    def test_a_reused_gradient_is_the_scaled_one(self):
        """sgd_step scales ``grads`` in place, so a reused array steps by lr * lr * g."""
        p = np.zeros(1)
        g = np.ones(1)
        velocities = [np.zeros(1)]
        sgd_step([p], [g], velocities, 0.5, 0.0)
        assert g[0] == 0.5 and p[0] == -0.5
        sgd_step([p], [g], velocities, 0.5, 0.0)
        assert g[0] == 0.25 and p[0] == -0.75


class TestInitLayer:
    def test_same_seed_identical(self):
        a = init_layer(8, 4, np.random.default_rng(42))
        b = init_layer(8, 4, np.random.default_rng(42))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_variance_matches_rectifier_scaling(self):
        rng = np.random.default_rng(12)
        layer = init_layer(50, 200, rng)
        sample = layer.weights.reshape(-1)
        assert sample.size == 10000
        assert abs(sample.var() - 2.0 / 50) < 0.1 * (2.0 / 50)

    def test_bias_zero(self):
        layer = init_layer(5, 3, np.random.default_rng(1))
        assert np.all(layer.bias == 0.0)


def _net(*layers):
    return {"layers": [{"weights": w, "bias": b} for w, b in layers]}


W1, B1 = array_json([[1.0]]), array_json([0.0])


class TestSerialization:
    def test_mlp_json_roundtrip(self):
        mlp = init_mlp([4, 6, 2], np.random.default_rng(2))
        again = mlp_from_json(mlp_to_json(mlp))
        for l1, l2 in zip(mlp.layers, again.layers):
            assert np.array_equal(l1.weights, l2.weights)
            assert np.array_equal(l1.bias, l2.bias)

    def test_golden_encoding(self):
        # Little-endian bytes, the standard base64 alphabet ("/"), with padding.
        mlp = Mlp([_layer([[1.0, -2.0]], [-1.7976931348623157e308])])
        assert mlp_to_json(mlp) == {
            "layers": [
                {
                    "weights": {"dtype": "<f8", "shape": [1, 2],
                                "data": "AAAAAAAA8D8AAAAAAAAAwA=="},
                    "bias": {"dtype": "<f8", "shape": [1], "data": "////////7/8="},
                }
            ]
        }

    def test_roundtrip_is_bitwise_for_extreme_values(self):
        values = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        mlp = Mlp([_layer([values], [-0.0])])
        again = mlp_from_json(json.loads(json.dumps(mlp_to_json(mlp))))
        for before, after in ((mlp.layers[0].weights, again.layers[0].weights),
                              (mlp.layers[0].bias, again.layers[0].bias)):
            assert np.array_equal(before, after)
            assert np.array_equal(before.view(np.uint64), after.view(np.uint64))
        again.layers[0].weights += 1.0  # a loaded net is writable, as training needs

    @pytest.mark.parametrize(
        "raw, message",
        [
            (None, "non-empty list of objects"),
            ({"layers": 5}, "non-empty list of objects"),
            ({"layers": []}, "non-empty list of objects"),
            ({"layers": [[1.0]]}, "non-empty list of objects"),
            ({"layers": [{"bias": B1}]}, "layer 0 weights: expected a 2-d array"),
            (_net((W1, array_json([], shape=[1]))), "layer 0 bias: not an array"),
            (_net((array_json([1.0, 1.0, 2.0], shape=[2, 2]), B1)), "not an array"),
            (_net((W1, array_json([0.0, 0.0]))), "2 biases for 1 outputs"),
            (_net((W1, array_json([math.nan]))), "layer 0 bias: non-finite"),
            (_net((W1, B1), (array_json([[1.0, 1.0]]), B1)), "do not chain"),
            pytest.param(_net((W1, array_json([0.0], shape=[True]))),
                         "layer 0 bias: shape must be a 1-item list of integers",
                         id="boolean bias"),
            pytest.param(_net((W1, array_json([0.0], shape=[10**400]))),
                         "layer 0 bias: shape must be a 1-item list of integers",
                         id="overflowing bias"),
            pytest.param(_net((array_json([[1.0]], shape=["1", "1"]), B1)),
                         "layer 0 weights: shape must be a 2-item list of integers",
                         id="numeric string weight"),
            pytest.param(_net((W1, array_json([0.0], shape=[-1]))),
                         "layer 0 bias: shape must be", id="negative dimension"),
            pytest.param(_net((array_json([1.0], shape=[1]), B1)),
                         "layer 0 weights: shape must be a 2-item list", id="wrong ndim"),
            pytest.param(_net((array_json([], shape=[0, 10**18]), B1)),
                         "layer 0 weights: shape must be", id="zero-size shape beyond numpy"),
            pytest.param(_net((array_json([[1.0]], shape=[1.0, 1.0]), B1)),
                         "layer 0 weights: shape must be", id="float dimension"),
            pytest.param(_net((W1, array_json([0.0, 0.0], shape=[1]))),
                         r"layer 0 bias: not an array of shape \[1\]: 16 bytes of data, expected 8",
                         id="byte count"),
            pytest.param(_net((W1, B1 | {"data": "AAAAAAAA8D!="})),
                         r"layer 0 bias: data is not base64 \(Only base64 data is allowed\)",
                         id="bad base64 alphabet"),
            pytest.param(_net((W1, B1 | {"data": "AAAAAAAAAAA"})),
                         r"layer 0 bias: data is not base64 \(Incorrect padding\)",
                         id="bad base64 padding"),
            pytest.param(_net((W1, B1 | {"data": "AAAAAAAAAA\u00e9="})),
                         "layer 0 bias: data is not base64", id="non-ASCII data"),
            pytest.param(_net((W1, B1 | {"data": [0.0]})),
                         "layer 0 bias: data must be a base64 string", id="data not a string"),
            pytest.param(_net((W1, array_json([math.inf]))),
                         "layer 0 bias: non-finite", id="inf bytes"),
            pytest.param(_net((array_json([[-math.inf]]), B1)),
                         "layer 0 weights: non-finite", id="-inf bytes"),
            pytest.param(_net((W1, array_json([0.0], dtype=">f8"))),
                         "layer 0 bias: dtype '>f8' is not '<f8'", id="big-endian dtype"),
            pytest.param(_net((array_json([[1.0]], dtype="<f4"), B1)),
                         "layer 0 weights: dtype '<f4' is not '<f8'", id="float32 dtype"),
            pytest.param(_net((W1, {"shape": [1], "data": B1["data"]})),
                         "layer 0 bias: dtype None is not '<f8'", id="missing dtype"),
        ],
    )
    def test_malformed_mlp_is_a_data_error(self, raw, message):
        with pytest.raises(DataError, match=message):
            mlp_from_json(raw)
