"""Box-pair encoding and the spatial classifier head."""

import math

import numpy as np
import pytest

from relfusion.datamodel import Box
from relfusion.numcore import (
    OptimizerState,
    backward,
    forward,
    init_mlp,
    sgd_step,
    softmax_xent,
)
from relfusion.spatial import (
    SPATIAL_DIM,
    box_delta,
    normalized_coords,
    spatial_feature,
)

from util import box, random_box


def _delta_oracle(b1: Box, b2: Box):
    # Literal transcription of the delta definition, coded separately.
    x1, y1 = (b1.xmin + b1.xmax) / 2, (b1.ymin + b1.ymax) / 2
    x2, y2 = (b2.xmin + b2.xmax) / 2, (b2.ymin + b2.ymax) / 2
    w1, h1 = b1.xmax - b1.xmin, b1.ymax - b1.ymin
    w2, h2 = b2.xmax - b2.xmin, b2.ymax - b2.ymin
    return np.array(
        [(x1 - x2) / w2, (y1 - y2) / h2, math.log(w1 / w2), math.log(h1 / h2)]
    )


class TestBoxDelta:
    def test_identity(self):
        b = box(3, 4, 13, 24)
        assert np.array_equal(box_delta(b, b), np.zeros(4))

    def test_hand_example(self):
        b1 = box(20, 35, 40, 45)  # center (30, 40), size (20, 10)
        b2 = box(0, 10, 20, 30)  # center (10, 20), size (20, 20)
        expected = np.array([1.0, 1.0, 0.0, math.log(0.5)])
        assert np.all(np.abs(box_delta(b1, b2) - expected) < 1e-12)
        assert box_delta(b1, b2)[3] == pytest.approx(-0.69315, abs=1e-5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            b1, b2 = random_box(rng), random_box(rng)
            s = float(rng.uniform(0.1, 10))
            scaled = box_delta(
                box(s * b1.xmin, s * b1.ymin, s * b1.xmax, s * b1.ymax),
                box(s * b2.xmin, s * b2.ymin, s * b2.xmax, s * b2.ymax),
            )
            assert np.all(np.abs(scaled - box_delta(b1, b2)) < 1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            b1, b2 = random_box(rng), random_box(rng)
            dx, dy = rng.uniform(-50, 50, size=2)
            shifted = box_delta(
                box(b1.xmin + dx, b1.ymin + dy, b1.xmax + dx, b1.ymax + dy),
                box(b2.xmin + dx, b2.ymin + dy, b2.xmax + dx, b2.ymax + dy),
            )
            assert np.all(np.abs(shifted - box_delta(b1, b2)) < 1e-9)

    def test_position_antisymmetry_against_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            fwd = box_delta(a, b)
            rev = box_delta(b, a)
            assert np.allclose(fwd, _delta_oracle(a, b), atol=1e-12)
            # first two components flip sign under swap, rescaled by the
            # size ratio of the two anchors
            assert fwd[0] == pytest.approx(-rev[0] * a.width / b.width, rel=1e-9)
            assert fwd[1] == pytest.approx(-rev[1] * a.height / b.height, rel=1e-9)

    def test_degenerate_boxes_rejected(self):
        with pytest.raises(ValueError):
            box_delta(box(0, 0, 0, 10), box(0, 0, 10, 10))
        with pytest.raises(ValueError):
            box_delta(box(0, 0, 10, 10), box(0, 0, 10, 0))


class TestNormalizedCoords:
    def test_full_image_box(self):
        assert np.array_equal(
            normalized_coords(box(0, 0, 100, 50), 100, 50), [0, 0, 1, 1, 1]
        )

    def test_quarter_box(self):
        out = normalized_coords(box(25, 25, 75, 75), 100, 100)
        assert np.all(np.abs(out - [0.25, 0.25, 0.75, 0.75, 0.25]) < 1e-12)

    def test_zero_area_box(self):
        out = normalized_coords(box(30, 40, 30, 40), 100, 200)
        assert np.array_equal(out, [0.3, 0.2, 0.3, 0.2, 0.0])


class TestSpatialFeature:
    def test_equal_boxes_zero_deltas(self):
        b = box(10, 10, 40, 30)
        feat = spatial_feature(b, b, 100, 100)
        assert feat.shape == (SPATIAL_DIM,)
        assert np.array_equal(feat[:12], np.zeros(12))

    def test_worked_example(self):
        # subject (0,0,10,10), object (10,0,20,10) in a 20x10 image;
        # enclosing box (0,0,20,10). All values derived by hand from the
        # center-offset/log-ratio and normalized-coordinate definitions.
        feat = spatial_feature(box(0, 0, 10, 10), box(10, 0, 20, 10), 20, 10)
        expected = np.array(
            [-1.0, 0.0, 0.0, 0.0]  # subject vs object
            + [-0.25, 0.0, math.log(0.5), 0.0]  # subject vs enclosing
            + [-0.5, 0.0, math.log(2.0), 0.0]  # enclosing vs object
            + [0.0, 0.0, 0.5, 1.0, 0.5]  # subject coords
            + [0.5, 0.0, 1.0, 1.0, 0.5]  # object coords
        )
        assert np.all(np.abs(feat - expected) < 1e-12)

    def test_joint_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            b1, b2 = random_box(rng), random_box(rng)
            w, h = 120.0, 90.0
            s = float(rng.uniform(0.05, 20))
            base = spatial_feature(b1, b2, w, h)
            scaled = spatial_feature(
                box(s * b1.xmin, s * b1.ymin, s * b1.xmax, s * b1.ymax),
                box(s * b2.xmin, s * b2.ymin, s * b2.xmax, s * b2.ymax),
                s * w,
                s * h,
            )
            assert np.all(np.abs(scaled - base) < 1e-9)


class TestSpatialLogits:
    def test_zero_final_layer_zero_logits(self):
        rng = np.random.default_rng(4)
        mlp = init_mlp([22, 8, 5], rng)
        mlp.layers[-1].weights[:] = 0.0
        mlp.layers[-1].bias[:] = 0.0
        feat = spatial_feature(box(0, 0, 10, 10), box(5, 5, 20, 20), 50, 50)
        assert np.array_equal(forward(mlp, feat)[0], np.zeros(5))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        mlp = init_mlp([22, 16, 4], rng)
        feat = spatial_feature(box(0, 0, 10, 10), box(5, 5, 20, 20), 50, 50)
        assert np.array_equal(forward(mlp, feat)[0], forward(mlp, feat)[0])

    def test_wrong_input_dim_rejected(self):
        mlp = init_mlp([21, 4], np.random.default_rng(6))
        feat = spatial_feature(box(0, 0, 10, 10), box(5, 5, 20, 20), 50, 50)
        with pytest.raises(ValueError):
            forward(mlp, feat)

    def test_swapping_boxes_flips_learned_vertical_relation(self):
        """Train on above->class1 / below->class2; swapping must flip."""
        rng = np.random.default_rng(7)
        mlp = init_mlp([22, 32, 3], rng)
        params = [p for layer in mlp.layers for p in (layer.weights, layer.bias)]
        state = OptimizerState(learning_rate=0.05, momentum=0.9)

        def sample_pair():
            x0, y0 = rng.uniform(0, 60, size=2)
            top = box(x0, y0, x0 + 30, y0 + 30)
            bottom = box(x0 + rng.uniform(-5, 5), y0 + 20, x0 + 32, y0 + 55)
            return top, bottom

        for _ in range(300):
            top, bottom = sample_pair()
            if rng.random() < 0.5:
                feat, target = spatial_feature(top, bottom, 120, 120), 1
            else:
                feat, target = spatial_feature(bottom, top, 120, 120), 2
            out, cache = forward(mlp, feat)
            _, dlogits = softmax_xent(out, target)
            grads, _ = backward(mlp, cache, dlogits)
            sgd_step(params, [g for dw_db in grads for g in dw_db], state)

        flips = 0
        trials = 50
        for _ in range(trials):
            top, bottom = sample_pair()
            up, _ = forward(mlp, spatial_feature(top, bottom, 120, 120))
            down, _ = forward(mlp, spatial_feature(bottom, top, 120, 120))
            if np.argmax(up[1:]) == 0 and np.argmax(down[1:]) == 1:
                flips += 1
        assert flips >= int(0.9 * trials)
