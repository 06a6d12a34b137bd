import math

import numpy as np
import pytest

from adaptsmooth import phantom
from adaptsmooth.errors import DataError
from adaptsmooth.gaussian_filter import check_width, width_range
from adaptsmooth.params_net import (
    LAPLACIAN_1D,
    NOISE_CALIBRATION,
    ParamsNetWeights,
    head_forward,
    init_weights,
    load_weights,
    map_to_sigma,
    map_to_sigmas,
    map_to_sigmas_backward,
    noise_feature,
    save_weights,
)

# the width range of the criterion-7 phantom's 24^3 volumes at t = 4
LO, HI = width_range((24, 24, 24), 4.0)
assert (LO, HI) == (0.375, 5.85)


def _weights(a, b, v, c, lo=LO, hi=HI):
    return ParamsNetWeights(a, b, v, c, lo, hi)


def _offset(lo, hi):
    """The shift that maps pre-activation 0 to width 1 (or the midpoint)."""
    s0 = 1.0 if lo < 1.0 < hi else 0.5 * (lo + hi)
    return math.log((s0 - lo) / (hi - s0))


def _logistic_width(pre, lo=LO, hi=HI):
    """The documented map, written with the plain logistic function."""
    return lo + (hi - lo) / (1.0 + math.exp(-(pre + _offset(lo, hi))))


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
        return _weights(z, z.copy(), z.copy(), 0.0)

    def test_zero_weights_give_unit_sigma(self):
        # pre-activation 0 maps to width 1
        assert map_to_sigma(5.0, self._zero()) == pytest.approx(1.0, abs=1e-15)

    def test_bias_only(self):
        w = self._zero()
        q = (2.0 - LO) / (HI - LO)
        w.c = math.log(q / (1.0 - q)) - _offset(LO, HI)
        assert map_to_sigma(0.7, w) == pytest.approx(2.0, rel=1e-14)

    def test_hand_example(self):
        w = _weights(np.array([1.0, -1.0]), np.array([0.0, 1.0]),
                     np.array([0.5, 0.5]), 0.0)
        # u = (2, -1); 0.5*2 + 0.5*(-1) = 0.5
        assert map_to_sigma(2.0, w) == pytest.approx(_logistic_width(0.5), rel=1e-14)

    def test_always_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = _weights(rng.normal(0, 2, 4), rng.normal(0, 2, 4),
                         rng.normal(0, 2, 4), float(rng.normal(0, 2)))
            assert 0 < LO <= map_to_sigma(float(rng.normal(0, 3)), w) <= HI

    def test_non_finite_feature_rejected(self):
        with pytest.raises(DataError):
            map_to_sigma(float("nan"), self._zero())


class TestMapToSigmaBackward:
    def test_zero_upstream(self):
        w = init_weights(4, 1, LO, HI)
        da, db, dv, dc = map_to_sigmas_backward([1.0], w, [0.0])
        assert not da.any() and not db.any() and not dv.any()
        assert dc == 0.0

    def test_zero_weights_dc(self):
        z = np.zeros(3)
        w = _weights(z, z.copy(), z.copy(), 0.0)
        _, _, _, dc = map_to_sigmas_backward([2.0], w, [1.0])
        # sigma = 1: dsigma/dpre = (hi - lo) q (1 - q), q = (1 - lo) / (hi - lo)
        assert dc == pytest.approx((1.0 - LO) * (HI - 1.0) / (HI - LO), rel=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w = _weights(rng.normal(0, 0.3, 5), rng.normal(0, 0.3, 5),
                     rng.normal(0, 0.3, 5), 0.2)
        feat = 1.7
        up = 0.83
        da, db, dv, dc = map_to_sigmas_backward([feat], w, [up])
        h = 1e-6

        def loss(w2):
            return up * map_to_sigma(feat, w2)

        for name, grad in (("a", da), ("b", db), ("v", dv)):
            for i in range(5):
                wp = _weights(w.a.copy(), w.b.copy(), w.v.copy(), w.c)
                wm = _weights(w.a.copy(), w.b.copy(), w.v.copy(), w.c)
                getattr(wp, name)[i] += h
                getattr(wm, name)[i] -= h
                fd = (loss(wp) - loss(wm)) / (2 * h)
                assert abs(fd - grad[i]) / max(abs(fd), 1e-12) < 1e-5
        wp = _weights(w.a.copy(), w.b.copy(), w.v.copy(), w.c + h)
        wm = _weights(w.a.copy(), w.b.copy(), w.v.copy(), w.c - h)
        assert abs((loss(wp) - loss(wm)) / (2 * h) - dc) < 1e-5 * max(abs(dc), 1)

    def test_clamped_preactivation_has_zero_gradient(self):
        # the sigmoid saturates: the width is exactly hi and has no gradient
        z = np.zeros(2)
        w = _weights(z, z.copy(), z.copy(), 100.0)
        assert map_to_sigma(1.0, w) == HI
        da, db, dv, dc = map_to_sigmas_backward([1.0], w, [1.0])
        assert dc == 0.0 and not dv.any()


class TestBoundedMap:
    """sigma = lo + (hi - lo) sigmoid(pre + off): every pre-activation gives
    a width of radius >= 1 whose filter fits the volume (up to the rounding
    of lo itself, `TestWidthRange`)."""

    DIMS = [(4, 4, 4), (8, 8, 8), (24, 24, 24), (9, 16, 11)]

    @staticmethod
    def _identity_head(lo, hi):
        # pre-activation = 1 * (1 * f + 0) + 0 = f, so each feature is its
        # own pre-activation
        return ParamsNetWeights([1.0], [0.0], [1.0], 0.0, lo, hi)

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("t", [2.19, 4.0])
    def test_every_preactivation_maps_into_the_range(self, dims, t):
        lo, hi = width_range(dims, t)
        pre = np.concatenate([np.linspace(-1e3, 1e3, 20001), np.linspace(-40, 40, 8001),
                              [-1e3, -0.0, 0.0, 1e3]])
        with np.errstate(all="raise"):
            sigmas = map_to_sigmas(pre, self._identity_head(lo, hi))
        assert lo <= sigmas.min() and sigmas.max() <= hi
        assert sigmas[0] == lo and sigmas[-1] == hi
        # every filter fits: check_width refuses a side above min(dims)
        radii = [check_width(s, t, min(dims)) for s in sigmas.tolist()]
        assert max(radii) == (min(dims) - 1) // 2

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("t", [2.19, 4.0])
    def test_zero_preactivation_gives_unit_width(self, dims, t):
        lo, hi = width_range(dims, t)
        sigma = map_to_sigma(0.0, self._identity_head(lo, hi))
        if lo < 1.0 < hi:
            assert sigma == pytest.approx(1.0, abs=1e-15)
        else:  # 4^3 at t = 4: hi = 0.85, so the midpoint
            assert (dims, t) == ((4, 4, 4), 4.0)
            assert sigma == pytest.approx(0.5 * (lo + hi), abs=1e-15)

    @pytest.mark.parametrize("pre", [-30.0, -6.0, -1.0, 0.0, 0.7, 4.0, 25.0])
    def test_slope_matches_central_differences(self, pre):
        w = self._identity_head(LO, HI)
        h = 1e-6
        _, _, _, dc = map_to_sigmas_backward([pre], w, [1.0])
        fd = (map_to_sigma(pre + h, w) - map_to_sigma(pre - h, w)) / (2 * h)
        assert dc > 0
        assert abs(fd - dc) <= 1e-6 * dc + 1e-9

    def test_saturated_tails_have_zero_slope_without_overflow(self):
        w = self._identity_head(LO, HI)
        tails = [-1e3, -800.0, -100.0, 100.0, 800.0, 1e3]
        with np.errstate(all="raise"):
            widths = map_to_sigmas(tails, w)
            grads = [map_to_sigmas_backward([p], w, [1.0]) for p in tails]
        assert widths.tolist() == [LO] * 3 + [HI] * 3
        for da, db, dv, dc in grads:
            assert dc == 0.0 and not (da.any() or db.any() or dv.any())

    def test_one_feature_equals_its_row_of_the_batch(self):
        w = init_weights(50, 43, LO, HI)
        feats = np.random.default_rng(3).uniform(-2.0, 5.0, 200)
        batch = map_to_sigmas(feats, w)
        assert [map_to_sigma(f, w) for f in feats.tolist()] == batch.tolist()


class TestBatchHead:
    """The batch head equals the one-feature formulas bit for bit: a per-row
    np.dot for the pre-activation, math.tanh per width and the gradient rows
    added in order (a matrix-vector product, np.tanh and a pairwise sum each
    round some of these 200 features differently)."""

    @staticmethod
    def _case():
        rng = np.random.default_rng(3)
        # -1e4 and 1e4 saturate the sigmoid, one at each end
        feats = np.concatenate([rng.uniform(0.0, 5.0, 198), [-1e4, 1e4]])
        return init_weights(50, 43, LO, HI), feats, rng.normal(size=feats.size)

    @staticmethod
    def _q(feature, w):
        pre = float(np.dot(w.v, w.a * feature + w.b) + w.c)
        return 0.5 * (1.0 + math.tanh(0.5 * (pre + _offset(w.lo, w.hi))))

    def test_widths_equal_one_feature_formula(self):
        w, feats, _ = self._case()
        got = map_to_sigmas(feats, w)
        want = [w.lo + (w.hi - w.lo) * self._q(f, w) for f in feats.tolist()]
        assert got.tolist() == want
        assert sorted(got[-2:].tolist()) == [LO, HI]

    def test_gradient_rows_summed_in_order(self):
        w, feats, upstream = self._case()
        head = [np.zeros(w.m), np.zeros(w.m), np.zeros(w.m), 0.0]
        for f, up in zip(feats.tolist(), upstream.tolist()):
            q = self._q(f, w)
            g = up * ((w.hi - w.lo) * q * (1.0 - q))
            row = (g * w.v * f, g * w.v, g * (w.a * f + w.b), g)
            head = [h + r for h, r in zip(head, row)]
        got = map_to_sigmas_backward(feats, w, upstream)
        for a, b in zip(got, head):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("ends", [(), (-1e4,), (1e4,), (-1e4, 1e4)])
    def test_gradients_from_saved_state_equal_recomputed(self, ends):
        # the forward pass's hidden rows and sigmoids give the gradients of
        # a fresh backward pass bit for bit, with widths inside the range
        # and saturated at lo, at hi, or at both
        w, feats, upstream = self._case()
        feats = np.concatenate([feats[:198], ends])
        upstream = upstream[:feats.size]
        sigmas, state = head_forward(feats, w)
        assert sigmas.tobytes() == map_to_sigmas(feats, w).tobytes()
        assert ({LO, HI} & set(sigmas.tolist())) == {LO if e < 0 else HI for e in ends}
        got = map_to_sigmas_backward(feats, w, upstream, state)
        want = map_to_sigmas_backward(feats, w, upstream)
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_first_non_finite_feature_is_named(self):
        with pytest.raises(DataError, match="non-finite feature inf"):
            map_to_sigmas([0.5, math.inf, math.nan], init_weights(4, 0, LO, HI))


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.5, 1.0), (1.0, 1.0), (2.0, 1.0),
                                    (math.nan, 1.0), (0.5, math.inf), (0.5, math.nan)])
def test_width_range_refused(lo, hi):
    with pytest.raises(DataError, match="width range must be finite with 0 < lo < hi"):
        _weights([1.0], [0.0], [1.0], 0.0, lo, hi)


def test_init_distribution():
    w = init_weights(m=50, seed=0, lo=LO, hi=HI)
    assert w.m == 50
    pooled = np.concatenate([w.a, w.b, w.v])
    assert abs(pooled.std() - 0.3) < 0.1


def test_checkpoint_round_trip(tmp_path):
    w = init_weights(m=7, seed=5, lo=0.1 / 3, hi=2 / 3)
    p = tmp_path / "pn.txt"
    save_weights(w, p)
    back = load_weights(p)
    np.testing.assert_array_equal(back.a, w.a)
    np.testing.assert_array_equal(back.b, w.b)
    np.testing.assert_array_equal(back.v, w.v)
    assert (back.c, back.lo, back.hi) == (w.c, w.lo, w.hi)


GOLDEN_PARAMS_NET = ("2\n0.10000000000000001 -2.5\n0 9.9999999999999995e-21\n"
                     "3 -0.69999999999999996\n0.33333333333333331\n"
                     "0.375 5.8499999999999996\n")


def test_checkpoint_golden_layout(tmp_path):
    """Line 1 is M, then a, b, v, then c, then the width range "lo hi",
    every number as %.17g."""
    p = tmp_path / "pn.txt"
    save_weights(_weights([0.1, -2.5], [0.0, 1e-20], [3.0, -0.7], 1 / 3), p)
    assert p.read_text() == GOLDEN_PARAMS_NET
    back = load_weights(p)
    assert back.a.tolist() == [0.1, -2.5] and back.b.tolist() == [0.0, 1e-20]
    assert back.v.tolist() == [3.0, -0.7] and back.c == 1 / 3
    assert (back.lo, back.hi) == (0.375, 5.85)


def test_checkpoint_without_width_range_refused(tmp_path):
    # the 5-line layout saved before the width range was stored
    p = tmp_path / "pn.txt"
    p.write_text(GOLDEN_PARAMS_NET.rsplit("0.375", 1)[0])
    with pytest.raises(DataError, match=f"^{p}: expected 6 lines, got 5$"):
        load_weights(p)


@pytest.mark.parametrize("row, match", [
    ("0.375", "expected the width range"),
    ("0.375 5.85 7", "expected the width range"),
    ("0 5.85", "width range must be finite with 0 < lo < hi"),
    ("-0.375 5.85", "width range must be finite with 0 < lo < hi"),
    ("5.85 0.375", "width range must be finite with 0 < lo < hi"),
    ("0.375 0.375", "width range must be finite with 0 < lo < hi"),
    ("0.375 inf", "non-finite value"),
    ("nan 5.85", "non-finite value"),
])
def test_bad_width_range_is_data_error_naming_file(tmp_path, row, match):
    p = tmp_path / "pn.txt"
    p.write_text(GOLDEN_PARAMS_NET.rsplit("0.375", 1)[0] + row + "\n")
    with pytest.raises(DataError, match=f"^{p}: {match}"):
        load_weights(p)


# each a bad block of weight rows, followed by a valid width range
@pytest.mark.parametrize("text, match", [
    ("2\n1 2\n3 four\n5 6\n7\n", "could not convert"),
    ("3\n1 2\n3 4\n5 6\n7\n", "layer width mismatch"),
    ("2\n1 2\n3 4\n5\n7\n", "layer width mismatch"),
    ("2.5\n1 2\n3 4\n5 6\n7\n", "layer width mismatch"),
    ("2\n1 2\n3 4\n5 6\n7 8\n", "layer width mismatch"),
    ("2\n1 2\n3 nan\n5 6\n7\n", "non-finite value"),
])
def test_bad_checkpoint_is_data_error_naming_file(tmp_path, text, match):
    p = tmp_path / "pn.txt"
    p.write_text(text + "0.375 5.85\n")
    with pytest.raises(DataError, match=f"{p}: {match}"):
        load_weights(p)
