import math

import numpy as np
import pytest

from adaptsmooth import phantom
from adaptsmooth.errors import DataError
from adaptsmooth.params_net import (
    LAPLACIAN_1D,
    NOISE_CALIBRATION,
    PREACT_MAX,
    PREACT_MIN,
    ParamsNetWeights,
    init_weights,
    load_weights,
    map_to_sigma,
    map_to_sigmas,
    map_to_sigmas_backward,
    noise_feature,
    save_weights,
)


def test_laplacian_kernel_structure():
    kernel = LAPLACIAN_1D[:, None, None] * LAPLACIAN_1D[None, :, None] \
        * LAPLACIAN_1D[None, None, :]
    assert kernel.shape == (3, 3, 3)
    assert kernel.sum() == 0.0
    assert np.sum(kernel ** 2) == 216.0
    assert NOISE_CALIBRATION == math.sqrt(np.sum(kernel ** 2)) * math.sqrt(2.0 / math.pi)


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
    """The feature over its unit-noise expectation, which `estimate-noise`
    prints as the calibrated noise sigma."""

    def test_recovers_noise_grid(self):
        for sigma in (0.1, 0.2, 0.3):
            ests = [noise_feature(
                np.random.default_rng(10 * int(sigma * 10) + s).normal(0, sigma, (32, 32, 32)))
                / NOISE_CALIBRATION for s in range(20)]
            assert abs(np.mean(ests) - sigma) / sigma < 0.05

    def test_zero_volume(self):
        assert noise_feature(np.zeros((4, 4, 4))) / NOISE_CALIBRATION == 0.0

    def test_phantom_signal_bias(self):
        spec = phantom.PhantomSpec()
        clean = phantom._anatomy(spec.dims) + spec.amplitude * phantom._blob(
            spec.dims, (12, 6, 12), spec.blob_radius, spec.support_radius)
        bias = noise_feature(clean) / NOISE_CALIBRATION
        noisy = clean + np.random.default_rng(3).normal(0, 0.3, spec.dims)
        est = noise_feature(noisy) / NOISE_CALIBRATION
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
        widths, clamps = map_to_sigmas([0.0, 0.0], w)
        assert widths.tolist() == pytest.approx([math.exp(6.0)] * 2) and clamps == 2
        w.c = -50.0
        assert map_to_sigma(0.0, w) == pytest.approx(math.exp(-10.0))
        assert map_to_sigmas([0.0], w)[1] == 1
        w.c = 0.0
        assert map_to_sigmas([0.0], w)[1] == 0

    def test_non_finite_feature_rejected(self):
        with pytest.raises(DataError):
            map_to_sigma(float("nan"), self._zero())


class TestMapToSigmaBackward:
    def test_zero_upstream(self):
        w = init_weights(4, seed=1)
        da, db, dv, dc = map_to_sigmas_backward([1.0], w, [0.0])
        assert not da.any() and not db.any() and not dv.any()
        assert dc == 0.0

    def test_zero_weights_dc(self):
        z = np.zeros(3)
        w = ParamsNetWeights(z, z.copy(), z.copy(), 0.0)
        _, _, _, dc = map_to_sigmas_backward([2.0], w, [1.0])
        assert dc == pytest.approx(1.0)  # sigma = 1, d exp/d pre = 1

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w = ParamsNetWeights(rng.normal(0, 0.3, 5), rng.normal(0, 0.3, 5),
                             rng.normal(0, 0.3, 5), 0.2)
        feat = 1.7
        up = 0.83
        da, db, dv, dc = map_to_sigmas_backward([feat], w, [up])
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
        da, db, dv, dc = map_to_sigmas_backward([1.0], w, [1.0])
        assert dc == 0.0 and not dv.any()


class TestBatchHead:
    """The batch head equals the one-feature formulas bit for bit: a per-row
    np.dot for the pre-activation, math.exp per width and the gradient rows
    added in order (a matrix-vector product, np.exp and a pairwise sum each
    round some of these 200 features differently)."""

    @staticmethod
    def _case():
        rng = np.random.default_rng(3)
        # -100 and 100 clamp the pre-activation, one at each end
        feats = np.concatenate([rng.uniform(0.0, 5.0, 198), [-100.0, 100.0]])
        return init_weights(50, 43), feats, rng.normal(size=feats.size)

    @staticmethod
    def _pre(feature, w):
        return float(np.dot(w.v, w.a * feature + w.b) + w.c)

    def test_widths_equal_one_feature_formula(self):
        w, feats, _ = self._case()
        got, clamps = map_to_sigmas(feats, w)
        want = [math.exp(min(max(self._pre(f, w), PREACT_MIN), PREACT_MAX))
                for f in feats.tolist()]
        assert got.tolist() == want
        assert clamps == 2

    def test_gradient_rows_summed_in_order(self):
        w, feats, upstream = self._case()
        head = [np.zeros(w.m), np.zeros(w.m), np.zeros(w.m), 0.0]
        for f, up in zip(feats.tolist(), upstream.tolist()):
            pre = self._pre(f, w)
            if PREACT_MIN <= pre <= PREACT_MAX:
                g = up * math.exp(pre)
                row = (g * w.v * f, g * w.v, g * (w.a * f + w.b), g)
                head = [h + r for h, r in zip(head, row)]
        got = map_to_sigmas_backward(feats, w, upstream)
        for a, b in zip(got, head):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_first_non_finite_feature_is_named(self):
        with pytest.raises(DataError, match="non-finite feature inf"):
            map_to_sigmas([0.5, math.inf, math.nan], init_weights(4, 0))


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


GOLDEN_PARAMS_NET = ("2\n0.10000000000000001 -2.5\n0 9.9999999999999995e-21\n"
                     "3 -0.69999999999999996\n0.33333333333333331\n")


def test_checkpoint_golden_layout(tmp_path):
    """Line 1 is M, then a, b, v, then c, every number as %.17g: the layout
    of every model directory saved so far."""
    p = tmp_path / "pn.txt"
    save_weights(ParamsNetWeights([0.1, -2.5], [0.0, 1e-20], [3.0, -0.7], 1 / 3), p)
    assert p.read_text() == GOLDEN_PARAMS_NET
    back = load_weights(p)
    assert back.a.tolist() == [0.1, -2.5] and back.b.tolist() == [0.0, 1e-20]
    assert back.v.tolist() == [3.0, -0.7] and back.c == 1 / 3


@pytest.mark.parametrize("text, match", [
    ("2\n1 2\n3 4\n5 6\n", "expected 5 lines, got 4"),
    ("2\n1 2\n3 four\n5 6\n7\n", "could not convert"),
    ("3\n1 2\n3 4\n5 6\n7\n", "layer width mismatch"),
    ("2\n1 2\n3 4\n5\n7\n", "layer width mismatch"),
    ("2.5\n1 2\n3 4\n5 6\n7\n", "layer width mismatch"),
    ("2\n1 2\n3 4\n5 6\n7 8\n", "layer width mismatch"),
    ("2\n1 2\n3 nan\n5 6\n7\n", "non-finite value"),
])
def test_bad_checkpoint_is_data_error_naming_file(tmp_path, text, match):
    p = tmp_path / "pn.txt"
    p.write_text(text)
    with pytest.raises(DataError, match=f"{p}: {match}"):
        load_weights(p)
