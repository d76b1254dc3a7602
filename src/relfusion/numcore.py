"""Minimal dense-network machinery for the trainable branches.

Everything runs in float64. Layers apply ``y = x @ W.T + b`` with a rectifier
between layers (never after the last), which is all the relationship heads need.
Gradients are exact reverse-mode; a central finite-difference helper provides the
independent check. The passes allocate only what they keep: the forward cache holds
layer inputs only, and bias, rectifier, backward mask and SGD scaling run in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import DataError, array_from_json, array_to_json, is_list_of


class NumericError(RuntimeError):
    """Raised when training produces non-finite values."""


@dataclass
class DenseLayer:
    """Affine layer: weights (out, in) and bias (out,)."""

    weights: np.ndarray
    bias: np.ndarray

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class Mlp:
    """Stack of dense layers with a rectifier after all but the last."""

    layers: list[DenseLayer]

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


def init_layer(in_dim: int, out_dim: int, rng: np.random.Generator) -> DenseLayer:
    """Rectifier-scaled init: weights ~ N(0, 2/in_dim), bias zero."""
    if in_dim <= 0 or out_dim <= 0:
        raise ValueError("layer dimensions must be positive")
    std = np.sqrt(2.0 / in_dim)
    weights = rng.normal(0.0, std, size=(out_dim, in_dim))
    return DenseLayer(weights=weights, bias=np.zeros(out_dim))


def init_mlp(dims: list[int], rng: np.random.Generator) -> Mlp:
    """Build an Mlp from a chain of dimensions, e.g. [22, 64, 64, 10]."""
    return Mlp([init_layer(a, b, rng) for a, b in zip(dims, dims[1:])])


def layer_forward(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    """``x @ W.T + b``, the bias added in place on the fresh matmul output."""
    z = x @ layer.weights.T
    z += layer.bias
    return z


def forward(mlp: Mlp, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run the affine/rectifier chain.

    ``x`` is a single vector (in_dim,) or a batch (N, in_dim). Returns the
    output plus the cache :func:`backward` reads: ``{"inputs": [...]}``, each
    layer's input only (``x``, unwritten, then each hidden output, rectified in place).
    """
    single = x.ndim == 1
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if h.shape[1] != mlp.in_dim:
        raise ValueError(f"input dim {h.shape[1]} != mlp input dim {mlp.in_dim}")
    inputs = []
    for i, layer in enumerate(mlp.layers):
        inputs.append(h)
        h = layer_forward(layer, h)
        if i < len(mlp.layers) - 1:
            np.maximum(h, 0.0, out=h)
    return (h[0] if single else h), {"inputs": inputs}


def backward(mlp: Mlp, cache: dict, grad_out: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact reverse-mode parameter gradients of :func:`forward`: (dW, db) per layer.

    Each fresh ``g @ W`` is masked in place by its cached rectified input: ``relu(z) > 0``
    is ``z > 0`` bit for bit, NaN included. ``grad_out`` and the cache are not written."""
    if len(cache["inputs"]) != len(mlp.layers):
        raise ValueError("cache does not match the mlp it came from")
    g = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(mlp.layers)
    for i in range(len(mlp.layers) - 1, -1, -1):
        x = cache["inputs"][i]
        if g.shape != (x.shape[0], mlp.layers[i].out_dim):
            raise ValueError("gradient shape does not match cached activations")
        grads[i] = (g.T @ x, g.sum(axis=0))
        if i > 0:
            g = g @ mlp.layers[i].weights
            g *= x > 0.0
    return grads


def softmax(z: np.ndarray) -> np.ndarray:
    """Stabilized softmax along the last axis."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(logits: np.ndarray, target) -> tuple[np.ndarray, np.ndarray]:
    """Softmax cross-entropy of a (N, C) batch with N integer targets: the
    per-example losses and the (N, C) gradient of their (unscaled) sum."""
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(target, dtype=np.intp)
    if np.any(t < 0) or np.any(t >= z.shape[1]):
        raise ValueError(f"target outside 0..{z.shape[1] - 1}")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1)
    rows = np.arange(z.shape[0])
    losses = np.log(total) - shifted[rows, t]
    grad = e / total[:, None]  # softmax(z), bit for bit
    grad[rows, t] -= 1.0
    return losses, grad


def sgd_step(params: list[np.ndarray], grads: list[np.ndarray], velocities: list[np.ndarray],
             learning_rate: float, momentum: float) -> None:
    """In place: v = momentum*v - lr*grad; param += v. Consumes ``grads``: each ends as lr*grad."""
    if len(params) != len(grads) or len(params) != len(velocities):
        raise ValueError("params/grads/velocities length mismatch")
    for p, g, v in zip(params, grads, velocities):
        if not p.shape == g.shape == v.shape:
            raise ValueError(f"shape mismatch: param {p.shape}, grad {g.shape}, velocity {v.shape}")
        v *= momentum
        g *= learning_rate
        v -= g
        p += v


def fd_gradient(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise in x.

    Mutates entries of ``x`` temporarily, so ``fn`` must read the same
    array object.
    """
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = fn()
        flat[i] = orig - h
        f_minus = fn()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    """Worst-case |a-n| / max(|a|, |n|, floor) over all entries.

    The floor keeps near-zero gradients from amplifying finite-difference
    round-off into spurious failures.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def mlp_to_json(mlp: Mlp) -> dict:
    return {"layers": [{"weights": array_to_json(l.weights), "bias": array_to_json(l.bias)}
                       for l in mlp.layers]}


def mlp_from_json(raw) -> Mlp:
    """Inverse of :func:`mlp_to_json`; malformed input is a DataError."""
    layers = raw.get("layers") if isinstance(raw, dict) else None
    if not is_list_of(layers, dict) or not layers:
        raise DataError('expected {"layers": [...]}, a non-empty list of objects')
    out = []
    for i, layer in enumerate(layers):
        weights = array_from_json(layer.get("weights"), 2, f"layer {i} weights")
        bias = array_from_json(layer.get("bias"), 1, f"layer {i} bias")
        if bias.shape != weights.shape[:1]:
            raise DataError(f"layer {i}: {bias.shape[0]} biases for {weights.shape[0]} outputs")
        out.append(DenseLayer(weights, bias))
    try:
        return Mlp(out)
    except ValueError as exc:
        raise DataError(str(exc)) from None
