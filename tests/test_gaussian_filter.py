import itertools
import math
import re

import numpy as np
import pytest

from adaptsmooth.conv3d import separable_product
from adaptsmooth.errors import DataError
from adaptsmooth.gaussian_filter import (
    build_filter,
    check_width,
    dump_filter,
    filter_radius,
    fwhm_mm_to_sigma,
    heat_gains,
    heat_kernel,
    sigma_to_fwhm_mm,
    sine_basis,
    width_range,
)


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


class TestBuildFilter:
    def test_single_cell_regime(self):
        f = build_filter(0.3, 4.0)
        assert f.radius == 0
        np.testing.assert_array_equal(f.weights, np.ones((1, 1, 1)))

    def test_sigma_one_against_brute_force(self):
        f = build_filter(1.0, 4.0)
        assert f.radius == 2
        assert f.weights.shape == (5, 5, 5)
        np.testing.assert_allclose(f.weights, brute_force_weights(1.0, 2), rtol=1e-12)

    def test_sum_one_over_log_grid(self):
        for sigma in np.logspace(np.log10(0.4), np.log10(4.0), 25):
            f = build_filter(float(sigma), 4.0)
            assert abs(f.weights.sum() - 1.0) < 1e-9

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

    @pytest.mark.parametrize("sigma, t", [(1e-120, 4.0), (1e-300, 4.0), (1e-100, 1e105),
                                          (1.0, 1e300), (1e200, 1e-200)])
    def test_derivative_overflowing_float64_rejected(self, sigma, t):
        # sigma^3 underflows to 0 or overflows, or r^2 / sigma^3 overflows:
        # was a NaN derivative, a ZeroDivisionError or an OverflowError
        with pytest.raises(DataError, match=re.escape(
                f"sigma_f {sigma} at t={t}: the filter derivative does not fit float64")):
            build_filter(sigma, t)

    @pytest.mark.parametrize("sigma, t", [(1e-100, 4.0), (1e-100, 1e101)])
    def test_tiny_width_within_float64_accepted(self, sigma, t):
        f = build_filter(sigma, t)
        assert f.profile_1d[f.radius] == 1.0 and f.profile_1d.sum() == 1.0

    def test_max_side_refused_before_any_array(self):
        assert build_filter(1.0, 4.0, max_side=5).radius == 2
        with pytest.raises(DataError, match="filter side 5 exceeds 3"):
            build_filter(1.0, 4.0, max_side=3)
        # a side whose profile alone no machine could hold
        with pytest.raises(DataError, match="exceeds 24"):
            build_filter(1.0, 1e15, max_side=24)

    @pytest.mark.parametrize("dims", [(3, 3, 3), (8, 8, 8), (24, 9, 30)])
    @pytest.mark.parametrize("t", [1.0, 2.5, 4.0, 6.5])
    def test_max_fitting_sigma_is_largest_odd_side(self, dims, t):
        side = min(dims) - 1 + min(dims) % 2  # the largest odd side that fits
        f = build_filter(width_range(dims, t)[1], t, max_side=min(dims))
        assert 2 * f.radius + 1 == side


def one_width_profile(sigma, t):
    """The profile of one width, summed over that width's own taps."""
    r = filter_radius(sigma, t)
    g1 = np.exp(-np.arange(-r, r + 1) ** 2 * (1.0 / (2.0 * sigma * sigma)))
    return g1 / g1.sum()


class TestBuildProfiles:
    """Every profile `build_filter` builds equals the one-width formula bit
    for bit."""

    @staticmethod
    def _widths(t):
        # the radius turns k at t * sigma + 0.5 = 2k; one ulp either side of
        # each turn for radii 0-11, among a grid, shuffled so that the radius
        # groups interleave
        turns = [(2 * k - 0.5) / t for k in range(1, 12)]
        near = [np.nextafter(s, to) for s in turns for to in (0.0, math.inf)]
        grid = np.concatenate([np.linspace(0.05, 5.8, 97), turns, near])
        return np.random.default_rng(0).permutation(grid)

    @pytest.mark.parametrize("t", [4.0, 2.7])
    def test_rows_equal_one_width_formula(self, t):
        radii = set()
        for sigma in self._widths(t).tolist():
            f = build_filter(sigma, t)
            assert f.radius == filter_radius(sigma, t) == check_width(sigma, t)
            assert f.profile_1d.tobytes() == one_width_profile(sigma, t).tobytes()
            radii.add(f.radius)
        assert radii == set(range(12))


def _laplacian(n):
    """The zero-padded [1, -2, 1] matrix of an axis of length n."""
    return -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)


def _eigh_kernel(sigma, n):
    """exp(sigma^2 L / 2) from `np.linalg.eigh` of L: a reference for the
    heat kernel that does not use the closed-form sine basis."""
    lam, v = np.linalg.eigh(_laplacian(n))
    return (v * np.exp(0.5 * sigma * sigma * lam)) @ v.T


class TestHeatKernel:
    """The discrete Gaussian exp(sigma^2 L / 2) per axis, through the sine
    basis, against a dense eigendecomposition of L."""

    @pytest.mark.parametrize("n", [1, 2, 7, 9, 11, 24, 109])
    def test_sine_basis_is_orthonormal_and_its_own_inverse(self, n):
        s, lam = sine_basis(n)
        np.testing.assert_array_equal(s, s.T)
        assert np.max(np.abs(s @ s - np.eye(n))) < 1e-14
        # it diagonalizes L, with L's eigenvalues in increasing magnitude
        assert np.max(np.abs((s * lam) @ s - _laplacian(n))) < 1e-14
        assert np.all(np.diff(lam) < 0) and np.all((-4 < lam) & (lam < 0))

    def test_smoothing_in_the_sine_basis_matches_dense_reference(self):
        # a non-cubic volume: transform, one gain per coefficient, transform back
        rng = np.random.default_rng(6)
        x = rng.normal(size=(9, 11, 7))
        for sigma in (0.375, 1.3, 4.0):
            bases = [sine_basis(n) for n in x.shape]
            gains = [heat_gains(sigma, lam) for _, lam in bases]
            mats = [s for s, _ in bases]
            coeffs = separable_product(x, mats)
            z = separable_product(coeffs * np.einsum("i,j,k", *gains), mats)
            ref = np.einsum("ai,bj,ck,ijk->abc",
                            *(_eigh_kernel(sigma, n) for n in x.shape), x)
            assert np.max(np.abs(z - ref)) < 1e-12 * np.max(np.abs(ref))
            for n in set(x.shape):
                k = heat_kernel(sigma, n)
                assert np.max(np.abs(k - _eigh_kernel(sigma, n))) < 1e-14

    def test_edge_rows_lose_mass(self):
        # Dirichlet edges: at sigma 1.5 the first row keeps about half its
        # mass, as the eigh reference does; an interior row keeps all of it
        k, ref = heat_kernel(1.5, 24), _eigh_kernel(1.5, 24)
        lost = 1.0 - k.sum(axis=1)
        np.testing.assert_allclose(lost[[0, -1]], (1.0 - ref.sum(axis=1))[[0, -1]],
                                   rtol=1e-12)
        assert lost[0] == pytest.approx(0.5014, abs=1e-4)
        assert lost[-1] == pytest.approx(lost[0], rel=1e-12)
        assert abs(lost[12]) < 1e-6


class TestDerivative:
    """The width derivative of the heat kernel the trainer differentiates,
    dK/dsigma = sigma L K, the logit derivative's rule."""

    def test_matches_finite_differences(self):
        h = 1e-5
        rng = np.random.default_rng(9)
        for n in (9, 24):
            lap = _laplacian(n)
            for sigma in rng.uniform(*width_range((n, n, n), 4.0), 10):
                fd = (heat_kernel(sigma + h, n) - heat_kernel(sigma - h, n)) / (2 * h)
                an = sigma * lap @ heat_kernel(sigma, n)
                assert np.max(np.abs(fd - an)) < 1e-7 * np.max(np.abs(an))

    def test_center_derivative_negative(self):
        k = heat_kernel(1.2, 9)
        # widening flattens the peak
        assert (_laplacian(9) @ k)[4, 4] * 1.2 < 0


class TestWidthRange:
    T = (2.19, 2.35, 2.7, 4.0, 4.38, 6.5)

    @pytest.mark.parametrize("t", T)
    def test_lo_is_the_smallest_width_of_radius_one(self, t):
        # 1.5 / t, or the next float up where t * (1.5 / t) rounds below
        # 1.5, as it does for 2.19, 2.35, 2.7 and 4.38
        lo, _ = width_range((24, 24, 24), t)
        assert lo in (1.5 / t, math.nextafter(1.5 / t, math.inf))
        assert filter_radius(lo, t) == 1
        assert filter_radius(lo * (1 - 1e-12), t) == 0
        assert filter_radius(lo * (1 + 1e-12), t) == 1

    def test_lo_has_radius_one_and_hi_the_largest_that_fits(self):
        # a width saturated at lo must not get the single cell, which has
        # no gradient; lo stays exactly 1.5 / t where that has radius 1
        for t in np.linspace(0.5, 8.0, 7501).tolist() + [0.59, 0.65, 0.66, 0.68, 0.72]:
            for dims in ((3, 3, 3), (9, 16, 11), (24, 24, 24)):
                lo, hi = width_range(dims, t)
                assert filter_radius(lo, t) == 1, t
                assert filter_radius(hi, t) == (min(dims) - 1) // 2, (t, dims)
        assert width_range((24, 24, 24), 4.0)[0] == 0.375

    @pytest.mark.parametrize("dims", [(3, 3, 3), (4, 4, 4), (9, 16, 11), (24, 24, 24)])
    @pytest.mark.parametrize("t", T)
    def test_range_is_not_empty(self, dims, t):
        lo, hi = width_range(dims, t)
        assert 0 < lo < hi

    def test_volume_too_thin_for_radius_one_refused(self):
        with pytest.raises(DataError, match=r"no filter of radius 1 fits volumes of "
                                            r"dims \(9, 2, 9\); every dim must be >= 3"):
            width_range((9, 2, 9), 4.0)


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
    assert len(lines) == 1 + (2 * f.radius + 1) ** 3
    assert sum(float(x) for x in lines[1:]) == pytest.approx(1.0, abs=1e-12)
