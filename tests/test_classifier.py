import math

import numpy as np
import pytest

from adaptsmooth.classifier import (
    EPSILON,
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


class TestForward:
    def test_equal_logits_degenerate_batch(self):
        probs, cache = forward(np.full(3, 0.8))
        assert cache["std"] < 1e-12
        np.testing.assert_allclose(probs, 0.5, atol=1e-9)

    def test_plus_minus_one_logits(self):
        probs, cache = forward(np.array([-1.0, 1.0]))
        assert cache["std"] == pytest.approx(1.0)  # population std
        np.testing.assert_allclose(probs, [0.2689, 0.7311], atol=1e-4)

    def test_standardized_mean_zero(self):
        logits = np.random.default_rng(0).normal(size=6)
        _, cache = forward(logits)
        assert abs(cache["s"].mean()) < 1e-9

    def test_shift_invariance(self):
        logits = np.random.default_rng(1).normal(size=5)
        p1, _ = forward(logits)
        p2, _ = forward(logits + 7.3)
        np.testing.assert_allclose(p1, p2, rtol=1e-12)

    def test_scale_invariance(self):
        logits = np.random.default_rng(2).normal(size=5)
        p1, _ = forward(logits)
        p2, _ = forward(3.0 * logits)
        np.testing.assert_allclose(p1, p2, atol=1e-4)  # epsilon breaks exactness

    def test_shift_and_scale_leave_probabilities_unchanged(self):
        # forward(a z + b) = forward(z): the standardization cancels every
        # shift b, which is why the classifier has no bias, and every scale
        # a > 0 up to the epsilon in std + epsilon
        logits = np.random.default_rng(6).normal(size=7)
        probs, cache = forward(logits)
        std, s_max = cache["std"], float(np.max(np.abs(cache["s"])))
        z_max = float(np.max(np.abs(logits)))
        for a in (1e-3, 0.5, 1.0, 3.0, 7.0, 1e3):
            for b in (-123.0, -1e-3, 0.0, 0.5, 7.3, 123.0):
                # a sigmoid's slope is at most 1/4; the scale changes s by
                # the factor (std + eps) / (std + eps / a), and rounding a z + b
                # moves it by a few ulps of |b| + a |z| over a std
                tol = 0.25 * (s_max * EPSILON * abs(1.0 - 1.0 / a) / std
                              + 8 * np.finfo(float).eps * (abs(b) + a * z_max) / (a * std))
                got = forward(a * logits + b)[0]
                np.testing.assert_allclose(got, probs, rtol=0, atol=tol)
                assert np.array_equal(got > 0.5, probs > 0.5)

    def test_probabilities_in_open_interval(self):
        probs, _ = forward(np.random.default_rng(3).normal(scale=50, size=4))
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_batch_of_one_rejected(self):
        for logits in ([1.0], []):
            with pytest.raises(DataError, match="batch size must be >= 2"):
                forward(np.array(logits))


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
    def test_full_jacobian_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(0, 1, 5)
        labels = np.array([0, 1, 1, 0, 1])
        _, cache = forward(logits)
        dl_dlogit = backward(cache, labels)

        def loss_with(z):
            return bce_loss(forward(z)[0], labels)

        h = 1e-6
        for i in range(logits.size):
            zp, zm = logits.copy(), logits.copy()
            zp[i] += h
            zm[i] -= h
            fd = (loss_with(zp) - loss_with(zm)) / (2 * h)
            # coupled through the batch statistics: every logit moves them
            assert abs(fd - dl_dlogit[i]) / max(abs(fd), 1e-10) < 1e-5

    def test_degenerate_batch_zero_weight_gradient(self):
        # equal logits: no logit gradient, so no weight gradient either
        _, cache = forward(np.full(3, 0.3))
        dl_dlogit = backward(cache, np.array([1, 1, 1]))
        np.testing.assert_allclose(dl_dlogit, 0.0, atol=1e-15)


class TestL2Penalty:
    def test_zero_lambda(self):
        pen, grad = l2_penalty(ClassifierWeights(np.array([1.0, 2.0])), 0.0)
        assert pen == 0.0 and not grad.any()

    def test_hand_value(self):
        pen, _ = l2_penalty(ClassifierWeights(np.array([1.0, -2.0])), 0.5)
        assert pen == pytest.approx(2.5)

    def test_gradient_vs_finite_differences(self):
        w = ClassifierWeights(np.array([0.3, -1.1, 2.2]))
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
            l2_penalty(ClassifierWeights(np.zeros(2)), -0.1)


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


def test_checkpoint_round_trip(tmp_path):
    w = xavier_init((3, 4, 5), seed=1)
    p = tmp_path / "cls.txt"
    save_weights(w, (3, 4, 5), p)
    back, dims = load_weights(p)
    assert dims == (3, 4, 5)
    np.testing.assert_array_equal(back.w, w.w)


GOLDEN_CLASSIFIER = ("1 2 3\n0.10000000000000001 -2.5 9.9999999999999995e-21 3 "
                     "-0.69999999999999996 7\n")


def test_checkpoint_golden_layout(tmp_path):
    """A dims line, then w, every number as %.17g.  A file of the earlier
    layout, with a third row for a bias, is refused by its line count."""
    p = tmp_path / "cls.txt"
    w = [0.1, -2.5, 1e-20, 3.0, -0.7, 7.0]
    save_weights(ClassifierWeights(np.array(w)), (1, 2, 3), p)
    assert p.read_text() == GOLDEN_CLASSIFIER
    back, dims = load_weights(p)
    assert dims == (1, 2, 3) and all(type(d) is int for d in dims)
    assert back.w.tolist() == w
    p.write_text(GOLDEN_CLASSIFIER + "-0.33333333333333331\n")
    with pytest.raises(DataError, match="expected 2 lines, got 3"):
        load_weights(p)


def test_checkpoint_weight_row_is_c_order_of_h_w_d(tmp_path):
    """The weight row is the (H, W, D) array in C order, as in memory, not
    the x-fastest order of a volume file's payload."""
    w = np.zeros((2, 3, 4))
    w[1, 2, 0] = 1.0
    p = tmp_path / "cls.txt"
    save_weights(ClassifierWeights(w), (2, 3, 4), p)
    row = [float(x) for x in p.read_text().splitlines()[1].split()]
    # C order: (1 * 3 + 2) * 4 + 0 = 20; x-fastest would put it at 2 + 3 * 1 = 5
    assert np.flatnonzero(row).tolist() == [20]
    back, dims = load_weights(p)
    np.testing.assert_array_equal(back.w.reshape(dims), w)


@pytest.mark.parametrize("text, match", [
    ("1 1 2\n", "expected 2 lines, got 1"),
    # the earlier layout's bias row
    ("1 1 2\n1 2\n3\n", "expected 2 lines, got 3"),
    ("1 1 2\n1 two\n", "could not convert"),
    ("1 1 2.5\n1 2\n", "dims must be three positive integers"),
    ("1 2\n1 2\n", "dims must be three positive integers"),
    ("-1 -1 2\n1 2\n", "dims must be three positive integers"),
    ("1 1 3\n1 2\n", "weight length does not match dims"),
    ("1 1 2\n1 2 3\n", "weight length does not match dims"),
    # dims whose float64 product overflows: no numpy warning before the error
    ("1e200 1e200 1e200\n1 2\n", "weight length does not match dims"),
    ("1 1 2\n1 nan\n", "non-finite value"),
])
def test_bad_checkpoint_is_data_error_naming_file(tmp_path, text, match):
    p = tmp_path / "cls.txt"
    p.write_text(text)
    with pytest.raises(DataError, match=f"{p}: {match}"):
        load_weights(p)
