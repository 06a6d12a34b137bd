import math
from collections import Counter

import numpy as np
import pytest

from adaptsmooth import phantom
from adaptsmooth.errors import DataError
from adaptsmooth.params_net import (
    LAPLACIAN_KERNEL,
    NOISE_CALIBRATION,
    ParamsNetWeights,
    calibrated_noise_estimate,
    init_weights,
    load_weights,
    map_to_sigma,
    map_to_sigma_backward,
    noise_feature,
    save_weights,
)


def test_laplacian_kernel_structure():
    assert LAPLACIAN_KERNEL.shape == (3, 3, 3)
    assert LAPLACIAN_KERNEL.sum() == 0.0
    assert np.sum(LAPLACIAN_KERNEL ** 2) == 216.0


class TestNoiseFeature:
    def test_constant_volume_is_zero(self):
        assert noise_feature(np.full((5, 5, 5), 3.7)) == 0.0

    def test_linear_ramp_is_zero(self):
        h = np.arange(6, dtype=float)
        ramp = np.broadcast_to(h[:, None, None], (6, 6, 6)).copy()
        assert noise_feature(ramp) == 0.0

    def test_iid_noise_expectation(self):
        # mean over seeds of the feature at sigma=0.2 ~ 0.2*sqrt(216)*sqrt(2/pi)
        feats = [noise_feature(np.random.default_rng(s).normal(0, 0.2, (32, 32, 32)))
                 for s in range(20)]
        expected = 0.2 * NOISE_CALIBRATION
        assert abs(np.mean(feats) - expected) / expected < 0.05

    def test_translation_invariant(self):
        # integer voxels + integer shift keep the additions exact in fp,
        # so the invariance can be asserted bit for bit
        x = np.random.default_rng(1).integers(-50, 50, size=(8, 8, 8)).astype(float)
        assert noise_feature(x) == noise_feature(x + 16.0)
        y = np.random.default_rng(2).normal(size=(8, 8, 8))
        assert noise_feature(y) == pytest.approx(noise_feature(y + 11.5), rel=1e-12)

    def test_monotone_in_noise_level(self):
        base = phantom._anatomy((16, 16, 16))
        means = []
        for sigma in (0.1, 0.2, 0.3):
            feats = [noise_feature(base + np.random.default_rng(100 + s).normal(0, sigma, base.shape))
                     for s in range(20)]
            means.append(np.mean(feats))
        assert means[0] < means[1] < means[2]

    def test_small_volume_rejected(self):
        with pytest.raises(DataError):
            noise_feature(np.zeros((2, 5, 5)))


class TestCalibratedEstimate:
    def test_recovers_noise_grid(self):
        for sigma in (0.1, 0.2, 0.3):
            ests = [calibrated_noise_estimate(
                np.random.default_rng(10 * int(sigma * 10) + s).normal(0, sigma, (32, 32, 32)))
                for s in range(20)]
            assert abs(np.mean(ests) - sigma) / sigma < 0.05

    def test_zero_volume(self):
        assert calibrated_noise_estimate(np.zeros((4, 4, 4))) == 0.0

    def test_phantom_signal_bias(self):
        spec = phantom.PhantomSpec()
        clean = phantom._anatomy(spec.dims) + spec.amplitude * phantom._blob(
            spec.dims, (12, 6, 12), spec.blob_radius, spec.support_radius)
        bias = calibrated_noise_estimate(clean)
        noisy = clean + np.random.default_rng(3).normal(0, 0.3, spec.dims)
        est = calibrated_noise_estimate(noisy)
        assert 0.3 * 0.95 <= est <= 0.3 * 1.05 + bias


class TestMapToSigma:
    def _zero(self, m=3):
        z = np.zeros(m)
        return ParamsNetWeights(z, z.copy(), z.copy(), 0.0)

    def test_zero_weights_give_unit_sigma(self):
        assert map_to_sigma(5.0, self._zero()) == 1.0

    def test_bias_only(self):
        w = self._zero()
        w.c = math.log(2.0)
        assert map_to_sigma(0.7, w) == pytest.approx(2.0)

    def test_hand_example(self):
        w = ParamsNetWeights(np.array([1.0, -1.0]), np.array([0.0, 1.0]),
                             np.array([0.5, 0.5]), 0.0)
        # u = (2, -1); 0.5*2 + 0.5*(-1) = 0.5
        assert map_to_sigma(2.0, w) == pytest.approx(math.exp(0.5), abs=1e-4)

    def test_always_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = ParamsNetWeights(rng.normal(0, 2, 4), rng.normal(0, 2, 4),
                                 rng.normal(0, 2, 4), float(rng.normal(0, 2)))
            assert map_to_sigma(float(rng.normal(0, 3)), w) > 0

    def test_clamp_counts_events(self):
        w = self._zero()
        w.c = 50.0
        stats = Counter()
        assert map_to_sigma(0.0, w, stats) == pytest.approx(math.exp(6.0))
        w.c = -50.0
        assert map_to_sigma(0.0, w, stats) == pytest.approx(math.exp(-10.0))
        assert stats["clamp"] == 2

    def test_non_finite_feature_rejected(self):
        with pytest.raises(DataError):
            map_to_sigma(float("nan"), self._zero())


class TestMapToSigmaBackward:
    def test_zero_upstream(self):
        w = init_weights(4, seed=1)
        da, db, dv, dc = map_to_sigma_backward(1.0, w, 0.0)
        assert not da.any() and not db.any() and not dv.any()
        assert dc == 0.0

    def test_zero_weights_dc(self):
        z = np.zeros(3)
        w = ParamsNetWeights(z, z.copy(), z.copy(), 0.0)
        _, _, _, dc = map_to_sigma_backward(2.0, w, 1.0)
        assert dc == pytest.approx(1.0)  # sigma = 1, d exp/d pre = 1

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w = ParamsNetWeights(rng.normal(0, 0.3, 5), rng.normal(0, 0.3, 5),
                             rng.normal(0, 0.3, 5), 0.2)
        feat = 1.7
        up = 0.83
        da, db, dv, dc = map_to_sigma_backward(feat, w, up)
        h = 1e-6

        def loss(w2):
            return up * map_to_sigma(feat, w2)

        for name, grad in (("a", da), ("b", db), ("v", dv)):
            for i in range(5):
                wp = ParamsNetWeights(w.a.copy(), w.b.copy(), w.v.copy(), w.c)
                wm = ParamsNetWeights(w.a.copy(), w.b.copy(), w.v.copy(), w.c)
                getattr(wp, name)[i] += h
                getattr(wm, name)[i] -= h
                fd = (loss(wp) - loss(wm)) / (2 * h)
                assert abs(fd - grad[i]) / max(abs(fd), 1e-12) < 1e-5
        wp = ParamsNetWeights(w.a.copy(), w.b.copy(), w.v.copy(), w.c + h)
        wm = ParamsNetWeights(w.a.copy(), w.b.copy(), w.v.copy(), w.c - h)
        assert abs((loss(wp) - loss(wm)) / (2 * h) - dc) < 1e-5 * max(abs(dc), 1)

    def test_clamped_preactivation_has_zero_gradient(self):
        z = np.zeros(2)
        w = ParamsNetWeights(z, z.copy(), z.copy(), 100.0)
        da, db, dv, dc = map_to_sigma_backward(1.0, w, 1.0)
        assert dc == 0.0 and not dv.any()


def test_init_distribution():
    w = init_weights(m=50, seed=0)
    assert w.m == 50
    pooled = np.concatenate([w.a, w.b, w.v])
    assert abs(pooled.std() - 0.3) < 0.1


def test_checkpoint_round_trip(tmp_path):
    w = init_weights(m=7, seed=5)
    p = tmp_path / "pn.txt"
    save_weights(w, p)
    back = load_weights(p)
    np.testing.assert_array_equal(back.a, w.a)
    np.testing.assert_array_equal(back.b, w.b)
    np.testing.assert_array_equal(back.v, w.v)
    assert back.c == w.c
