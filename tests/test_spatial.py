"""Box-pair encoding and the spatial classifier head."""

import math

import numpy as np
import pytest

from relfusion.datamodel import Box, box_array
from relfusion.numcore import (
    backward,
    forward,
    init_mlp,
    sgd_step,
    softmax_xent,
)
from relfusion.spatial import (
    SPATIAL_DIM,
    box_deltas,
    image_size,
    normalized_corners,
    spatial_feature,
    spatial_features,
)

from util import box, random_box, spatial_reference


def _delta_oracle(b1: Box, b2: Box):
    # Literal transcription of the delta definition, coded separately.
    x1, y1 = (b1.xmin + b1.xmax) / 2, (b1.ymin + b1.ymax) / 2
    x2, y2 = (b2.xmin + b2.xmax) / 2, (b2.ymin + b2.ymax) / 2
    w1, h1 = b1.xmax - b1.xmin, b1.ymax - b1.ymin
    w2, h2 = b2.xmax - b2.xmin, b2.ymax - b2.ymin
    return np.array(
        [(x1 - x2) / w2, (y1 - y2) / h2, math.log(w1 / w2), math.log(h1 / h2)]
    )


class TestBoxDeltas:
    def test_identity(self):
        b = box_array([box(3, 4, 13, 24)])
        assert np.array_equal(box_deltas(b, b), np.zeros((1, 4)))

    def test_hand_example(self):
        b1 = box_array([box(20, 35, 40, 45)])  # center (30, 40), size (20, 10)
        b2 = box_array([box(0, 10, 20, 30)])  # center (10, 20), size (20, 20)
        expected = np.array([1.0, 1.0, 0.0, math.log(0.5)])
        (delta,) = box_deltas(b1, b2)
        assert np.all(np.abs(delta - expected) < 1e-12)
        assert delta[3] == pytest.approx(-0.69315, abs=1e-5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        b1s, b2s, scales = [], [], []
        for _ in range(200):
            b1s.append(random_box(rng))
            b2s.append(random_box(rng))
            scales.append(float(rng.uniform(0.1, 10)))
        b1, b2 = box_array(b1s), box_array(b2s)
        s = np.array(scales)[:, None]
        assert np.all(np.abs(box_deltas(s * b1, s * b2) - box_deltas(b1, b2)) < 1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        b1s, b2s, shifts = [], [], []
        for _ in range(200):
            b1s.append(random_box(rng))
            b2s.append(random_box(rng))
            shifts.append(rng.uniform(-50, 50, size=2))
        b1, b2 = box_array(b1s), box_array(b2s)
        d = np.tile(np.array(shifts), 2)  # (dx, dy, dx, dy) per row
        assert np.all(np.abs(box_deltas(b1 + d, b2 + d) - box_deltas(b1, b2)) < 1e-9)

    def test_position_antisymmetry_against_oracle(self):
        rng = np.random.default_rng(2)
        pairs = [(random_box(rng), random_box(rng)) for _ in range(500)]
        subs, objs = box_array([a for a, _ in pairs]), box_array([b for _, b in pairs])
        for (a, b), fwd, rev in zip(pairs, box_deltas(subs, objs), box_deltas(objs, subs)):
            assert np.allclose(fwd, _delta_oracle(a, b), atol=1e-12)
            # first two components flip sign under swap, rescaled by the
            # size ratio of the two anchors
            assert fwd[0] == pytest.approx(-rev[0] * a.width / b.width, rel=1e-9)
            assert fwd[1] == pytest.approx(-rev[1] * a.height / b.height, rel=1e-9)

    def test_degenerate_boxes_rejected(self):
        with pytest.raises(ValueError):
            box_deltas(box_array([box(0, 0, 0, 10)]), box_array([box(0, 0, 10, 10)]))
        with pytest.raises(ValueError):
            box_deltas(box_array([box(0, 0, 10, 10)]), box_array([box(0, 0, 10, 0)]))


class TestNormalizedCorners:
    def test_full_image_box(self):
        assert np.array_equal(
            normalized_corners(box_array([box(0, 0, 100, 50)]), image_size(100, 50)),
            [[0, 0, 1, 1, 1]],
        )

    def test_quarter_box(self):
        out = normalized_corners(box_array([box(25, 25, 75, 75)]), image_size(100, 100))
        assert np.all(np.abs(out - [0.25, 0.25, 0.75, 0.75, 0.25]) < 1e-12)

    def test_zero_area_box(self):
        out = normalized_corners(box_array([box(30, 40, 30, 40)]), image_size(100, 200))
        assert np.array_equal(out, [[0.3, 0.2, 0.3, 0.2, 0.0]])


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


class TestSpatialFeatures:
    def test_batch_equals_per_pair_and_scalar_reference(self):
        rng = np.random.default_rng(12)
        grid = np.arange(0.0, 60.0, 7.5)
        subs, objs = [], []
        for k in range(1000):
            # every third pair on a coarse grid: shared edges, equal and nested boxes
            grid_or_none = grid if k % 3 == 0 else None
            subs.append(random_box(rng, hi=400.0, grid=grid_or_none))
            objs.append(random_box(rng, hi=400.0, grid=grid_or_none))
        batch = spatial_features(box_array(subs), box_array(objs), image_size(640, 480))
        assert batch.shape == (1000, SPATIAL_DIM)
        per_pair = np.stack([spatial_feature(s, o, 640, 480) for s, o in zip(subs, objs)])
        scalar = np.stack([spatial_reference(s, o, 640, 480) for s, o in zip(subs, objs)])
        assert np.array_equal(batch, per_pair)
        assert np.array_equal(batch, scalar)

    def test_zero_size_box_or_image_rejected(self):
        good = box_array([box(0, 0, 10, 10), box(5, 5, 20, 20)])
        flat = box_array([box(0, 0, 10, 10), box(5, 5, 5, 20)])
        with pytest.raises(ValueError, match="zero-size"):
            spatial_features(good, flat, image_size(50, 50))
        with pytest.raises(ValueError, match="image dimensions"):
            spatial_features(good, good[::-1], image_size(50, 0))

    def test_empty_batch(self):
        empty = box_array([])
        assert spatial_features(empty, empty, image_size(50, 50)).shape == (0, SPATIAL_DIM)


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
        velocities = [np.zeros_like(p) for p in params]

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
            _, dlogits = softmax_xent(out[None], [target])
            grads = backward(mlp, cache, dlogits)
            sgd_step(params, [g for dw_db in grads for g in dw_db], velocities, 0.05, 0.9)

        flips = 0
        trials = 50
        for _ in range(trials):
            top, bottom = sample_pair()
            up, _ = forward(mlp, spatial_feature(top, bottom, 120, 120))
            down, _ = forward(mlp, spatial_feature(bottom, top, 120, 120))
            if np.argmax(up[1:]) == 0 and np.argmax(down[1:]) == 1:
                flips += 1
        assert flips >= int(0.9 * trials)
