import math

import numpy as np
import pytest

from adaptsmooth.classifier import (
    ClassifierWeights,
    accuracy,
    backward,
    bce_loss,
    forward,
    l2_penalty,
    load_weights,
    save_weights,
    xavier_init,
)
from adaptsmooth.errors import DataError


def _batch_from_logits(logits):
    """One-voxel volumes with unit weight reproduce the requested logits."""
    w = ClassifierWeights(np.array([1.0]), 0.0)
    vols = [np.full((1, 1, 1), v) for v in logits]
    return vols, w


class TestForward:
    def test_equal_logits_degenerate_batch(self):
        vols, w = _batch_from_logits([0.8, 0.8, 0.8])
        probs, cache = forward(vols, w)
        assert cache["std"] < 1e-12
        np.testing.assert_allclose(probs, 0.5, atol=1e-9)

    def test_plus_minus_one_logits(self):
        vols, w = _batch_from_logits([-1.0, 1.0])
        probs, cache = forward(vols, w)
        assert cache["std"] == pytest.approx(1.0)  # population std
        np.testing.assert_allclose(probs, [0.2689, 0.7311], atol=1e-4)

    def test_standardized_mean_zero(self):
        rng = np.random.default_rng(0)
        vols = [rng.normal(size=(3, 3, 3)) for _ in range(6)]
        w = ClassifierWeights(rng.normal(size=27), 0.3)
        _, cache = forward(vols, w)
        assert abs(cache["s"].mean()) < 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        vols = [rng.normal(size=(3, 3, 3)) for _ in range(5)]
        w1 = ClassifierWeights(rng.normal(size=27), 0.0)
        w2 = ClassifierWeights(w1.w.copy(), 7.3)
        p1, _ = forward(vols, w1)
        p2, _ = forward(vols, w2)
        np.testing.assert_allclose(p1, p2, rtol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        vols = [rng.normal(size=(3, 3, 3)) for _ in range(5)]
        w1 = ClassifierWeights(rng.normal(size=27), 0.4)
        w2 = ClassifierWeights(3.0 * w1.w, 3.0 * w1.bias)
        p1, _ = forward(vols, w1)
        p2, _ = forward(vols, w2)
        np.testing.assert_allclose(p1, p2, atol=1e-4)  # epsilon breaks exactness

    def test_probabilities_in_open_interval(self):
        rng = np.random.default_rng(3)
        vols = [rng.normal(scale=50, size=(2, 2, 2)) for _ in range(4)]
        probs, _ = forward(vols, ClassifierWeights(rng.normal(size=8), 0.0))
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_batch_of_one_rejected(self):
        vols, w = _batch_from_logits([1.0])
        with pytest.raises(DataError):
            forward(vols, w)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DataError):
            forward([np.zeros((2, 2, 2))] * 2, ClassifierWeights(np.zeros(9), 0.0))


class TestBceLoss:
    def test_half_probabilities(self):
        assert bce_loss(np.full(4, 0.5), np.array([0, 1, 0, 1])) == \
            pytest.approx(math.log(2), abs=1e-9)

    def test_perfect_predictions_hit_clamp_floor(self):
        loss = bce_loss(np.array([1.0, 0.0]), np.array([1, 0]))
        assert loss == pytest.approx(-math.log(1 - 1e-7), rel=1e-6)

    def test_hand_example(self):
        loss = bce_loss(np.array([0.9, 0.2]), np.array([1, 0]))
        assert loss == pytest.approx(-(math.log(0.9) + math.log(0.8)) / 2, abs=1e-9)
        assert loss == pytest.approx(0.16425, abs=1e-4)


class TestBackward:
    def test_symmetric_batch_zero_bias_gradient(self):
        vols, w = _batch_from_logits([-0.7, 0.7])
        _, cache = forward(vols, w)
        _, dbias, _ = backward(cache, np.array([0, 1]))
        assert abs(dbias) < 1e-12

    def test_full_jacobian_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        vols = [rng.normal(0, 1, (4, 4, 4)) for _ in range(4)]
        labels = np.array([0, 1, 1, 0])
        w = xavier_init((4, 4, 4), seed=2)
        _, cache = forward(vols, w)
        dw, dbias, dz = backward(cache, labels)

        h = 1e-6

        def loss_with(weights, batch=vols):
            probs, _ = forward(batch, weights)
            return bce_loss(probs, labels)

        idxs = rng.choice(w.w.size, size=12, replace=False)
        for i in idxs:
            wp = ClassifierWeights(w.w.copy(), w.bias)
            wm = ClassifierWeights(w.w.copy(), w.bias)
            wp.w[i] += h
            wm.w[i] -= h
            fd = (loss_with(wp) - loss_with(wm)) / (2 * h)
            assert abs(fd - dw[i]) / max(abs(fd), 1e-10) < 1e-5

        wp = ClassifierWeights(w.w.copy(), w.bias + h)
        wm = ClassifierWeights(w.w.copy(), w.bias - h)
        fd = (loss_with(wp) - loss_with(wm)) / (2 * h)
        assert abs(fd - dbias) / max(abs(fd), 1e-10) < 1e-5

        # per-volume input gradients, coupled through the batch statistics
        for vi in (0, 2):
            flat = vols[vi].ravel()
            for j in rng.choice(flat.size, size=5, replace=False):
                bp = [v.copy() for v in vols]
                bm = [v.copy() for v in vols]
                bp[vi].ravel()[j] += h
                bm[vi].ravel()[j] -= h
                fd = (loss_with(w, bp) - loss_with(w, bm)) / (2 * h)
                assert abs(fd - dz[vi, j]) / max(abs(fd), 1e-10) < 1e-5

    def test_degenerate_batch_zero_weight_gradient(self):
        vols = [np.full((2, 2, 2), 0.3)] * 3
        w = ClassifierWeights(np.ones(8), 0.0)
        _, cache = forward(vols, w)
        dw, _, _ = backward(cache, np.array([1, 1, 1]))
        np.testing.assert_allclose(dw, 0.0, atol=1e-15)


class TestL2Penalty:
    def test_zero_lambda(self):
        pen, grad = l2_penalty(ClassifierWeights(np.array([1.0, 2.0]), 0.0), 0.0)
        assert pen == 0.0 and not grad.any()

    def test_hand_value(self):
        pen, _ = l2_penalty(ClassifierWeights(np.array([1.0, -2.0]), 5.0), 0.5)
        assert pen == pytest.approx(2.5)  # bias excluded

    def test_gradient_vs_finite_differences(self):
        w = ClassifierWeights(np.array([0.3, -1.1, 2.2]), 0.0)
        lam = 0.37
        _, grad = l2_penalty(w, lam)
        h = 1e-7
        for i in range(3):
            wp, wm = w.w.copy(), w.w.copy()
            wp[i] += h
            wm[i] -= h
            fd = (lam * np.sum(wp ** 2) - lam * np.sum(wm ** 2)) / (2 * h)
            assert abs(fd - grad[i]) / max(abs(fd), 1e-12) < 1e-8

    def test_negative_lambda_rejected(self):
        with pytest.raises(DataError):
            l2_penalty(ClassifierWeights(np.zeros(2), 0.0), -0.1)


def test_xavier_init_variance():
    dims = (12, 12, 12)  # fan_in 1728
    w = xavier_init(dims, seed=3)
    fan_in = 12 ** 3
    expected = 2.0 / (fan_in + 1)
    assert abs(w.w.var() - expected) / expected < 0.1
    limit = math.sqrt(6.0 / (fan_in + 1))
    assert np.all(np.abs(w.w) <= limit)


def test_accuracy_ties_count_as_incorrect():
    probs = np.array([0.5, 0.6, 0.4])
    labels = np.array([1, 1, 0])
    assert accuracy(probs, labels) == pytest.approx(2 / 3)


def test_array_batch_is_flattened_as_a_view():
    rng = np.random.default_rng(3)
    vols = rng.normal(size=(4, 3, 2, 5))
    w = xavier_init((3, 2, 5), 1)
    probs, cache = forward(vols, w)
    assert np.shares_memory(cache["x"], vols)
    probs_list, cache_list = forward(list(vols), w)
    np.testing.assert_array_equal(cache["x"], cache_list["x"])
    np.testing.assert_array_equal(probs, probs_list)


def test_checkpoint_round_trip(tmp_path):
    w = xavier_init((3, 4, 5), seed=1)
    w.bias = -0.25
    p = tmp_path / "cls.txt"
    save_weights(w, (3, 4, 5), p)
    back, dims = load_weights(p)
    assert dims == (3, 4, 5)
    np.testing.assert_array_equal(back.w, w.w)
    assert back.bias == w.bias
