import itertools
import math

import numpy as np
import pytest

from adaptsmooth.errors import DataError
from adaptsmooth.gaussian_filter import (
    apply_degenerate_policy,
    build_filter,
    dump_filter,
    filter_radius,
    fwhm_mm_to_sigma,
    sigma_to_fwhm_mm,
    single_cell_threshold,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def brute_force_weights(sigma, r):
    """Independent oracle: evaluate the continuous Gaussian (with its full
    normalizing prefactor) cell by cell and renormalize by direct summation."""
    side = 2 * r + 1
    q = np.empty((side, side, side))
    pref = 1.0 / (math.sqrt(2 * math.pi) * sigma) ** 3
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            for z in range(-r, r + 1):
                q[x + r, y + r, z + r] = pref * math.exp(
                    -(x * x + y * y + z * z) / (2 * sigma * sigma))
    return q / q.sum()


def support_stable(sigma, t, h):
    return filter_radius(sigma - h, t) == filter_radius(sigma + h, t)


class TestBuildFilter:
    def test_single_cell_regime(self):
        f = build_filter(0.3, 4.0)
        assert f.radius == 0
        np.testing.assert_array_equal(f.weights, np.ones((1, 1, 1)))
        np.testing.assert_array_equal(f.d_weights_d_sigma, np.zeros((1, 1, 1)))

    def test_sigma_one_against_brute_force(self):
        f = build_filter(1.0, 4.0)
        assert f.radius == 2
        assert f.weights.shape == (5, 5, 5)
        np.testing.assert_allclose(f.weights, brute_force_weights(1.0, 2), rtol=1e-12)

    def test_sum_one_over_log_grid(self):
        for sigma in np.logspace(np.log10(0.4), np.log10(4.0), 25):
            f = build_filter(float(sigma), 4.0)
            assert abs(f.weights.sum() - 1.0) < 1e-9
            assert abs(f.d_weights_d_sigma.sum()) < 1e-9

    def test_symmetries_exact(self):
        f = build_filter(1.3, 4.0)
        for perm in itertools.permutations((0, 1, 2)):
            for flips in itertools.product((False, True), repeat=3):
                w = np.transpose(f.weights, perm)
                for ax, do in enumerate(flips):
                    if do:
                        w = np.flip(w, axis=ax)
                np.testing.assert_array_equal(w, f.weights)

    def test_radius_formula_and_monotonicity(self):
        prev = -1
        for sigma in np.linspace(0.1, 5.0, 200):
            r = build_filter(float(sigma), 4.0).radius
            assert r == math.floor((4.0 * sigma + 0.5) / 2.0)
            assert r >= prev
            prev = r

    def test_single_cell_threshold_consistency(self):
        t = 4.0
        for sigma in np.linspace(0.05, 1.0, 97):
            r = filter_radius(float(sigma), t)
            assert (r == 0) == (sigma < single_cell_threshold(t))

    def test_invalid_inputs(self):
        with pytest.raises(DataError):
            build_filter(0.0, 4.0)
        with pytest.raises(DataError):
            build_filter(1.0, -1.0)
        # non-finite, or finite with t * sigma overflowing
        for sigma, t in ((math.nan, 4.0), (math.inf, 4.0), (1.0, math.nan),
                         (1.0, math.inf), (1e308, 4.0)):
            with pytest.raises(DataError, match="finite|overflows"):
                build_filter(sigma, t)


class TestDerivative:
    def test_matches_finite_differences(self):
        h = 1e-5
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 20:
            sigma = float(rng.uniform(0.45, 4.0))
            if not support_stable(sigma, 4.0, h):
                continue
            f = build_filter(sigma, 4.0)
            if f.radius == 0:
                continue
            qp = build_filter(sigma + h, 4.0).weights
            qm = build_filter(sigma - h, 4.0).weights
            fd = (qp - qm) / (2 * h)
            an = f.d_weights_d_sigma
            denom = np.maximum(np.abs(fd), 1e-10)
            assert np.max(np.abs(fd - an) / denom) < 1e-5
            checked += 1

    def test_center_derivative_negative(self):
        f = build_filter(1.2, 4.0)
        r = f.radius
        assert f.d_weights_d_sigma[r, r, r] < 0  # widening flattens the peak


class TestDegeneratePolicy:
    def test_forced_bump(self):
        assert apply_degenerate_policy(0.2, 4.0, 1.0, _rng()) == pytest.approx(1.2)

    def test_above_threshold_untouched(self):
        assert apply_degenerate_policy(2.0, 4.0, 1.0, _rng()) == 2.0

    def test_eval_mode_never_bumps(self):
        assert apply_degenerate_policy(0.2, 4.0, 1.0) == 0.2

    def test_p_zero_never_bumps(self):
        assert apply_degenerate_policy(0.2, 4.0, 0.0, _rng()) == 0.2

    def test_deterministic_under_seed(self):
        outs = {apply_degenerate_policy(0.2, 4.0, 0.5, _rng(42)) for _ in range(5)}
        assert len(outs) == 1

    def test_bad_probability(self):
        with pytest.raises(DataError):
            apply_degenerate_policy(0.2, 4.0, 1.5, _rng())

    # "degenerate" is the radius-0 filter that gets no gradient, not the
    # rounded threshold sigma_f < 1.5 / t, which disagrees with it here
    def test_single_cell_filter_below_rounded_threshold_bumps(self):
        sigma, t = 0.5555555555555555, 2.7
        assert sigma >= single_cell_threshold(t) and filter_radius(sigma, t) == 0
        assert apply_degenerate_policy(sigma, t, 1.0, _rng()) == sigma + 1.0

    def test_three_tap_filter_above_rounded_threshold_untouched(self):
        sigma, t = 0.23076923076923075, 6.5
        assert sigma < single_cell_threshold(t) and filter_radius(sigma, t) == 1
        assert apply_degenerate_policy(sigma, t, 1.0, _rng()) == sigma


class TestFwhm:
    def test_sigma_one_at_3mm(self):
        assert sigma_to_fwhm_mm(1.0, 3.0) == pytest.approx(7.0642, abs=1e-3)

    def test_8mm_baseline_inverse(self):
        assert fwhm_mm_to_sigma(8.0, 3.0) == pytest.approx(1.13243, abs=1e-4)

    def test_round_trip(self):
        for sigma in (0.3, 1.0, 2.7):
            back = fwhm_mm_to_sigma(sigma_to_fwhm_mm(sigma, 3.0), 3.0)
            assert abs(back - sigma) < 1e-12

    def test_positive_inputs_required(self):
        with pytest.raises(DataError):
            sigma_to_fwhm_mm(-1.0, 3.0)
        with pytest.raises(DataError):
            fwhm_mm_to_sigma(8.0, 0.0)
        for a, b in ((math.nan, 3.0), (math.inf, 3.0), (1.0, math.nan), (1.0, math.inf)):
            for convert in (sigma_to_fwhm_mm, fwhm_mm_to_sigma):
                with pytest.raises(DataError, match="finite"):
                    convert(a, b)


def test_dump_format():
    f = build_filter(0.5, 4.0)
    lines = dump_filter(f).splitlines()
    head = lines[0].split()
    assert float(head[0]) == 0.5 and float(head[1]) == 4.0 and int(head[2]) == f.radius
    assert len(lines) == 1 + f.side ** 3
    assert sum(float(x) for x in lines[1:]) == pytest.approx(1.0, abs=1e-12)
