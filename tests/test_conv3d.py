import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import adaptsmooth
from adaptsmooth.conv3d import (
    convolve,
    convolve_separable,
    smooth_with_dsigma,
)
from adaptsmooth.errors import DataError
from adaptsmooth.gaussian_filter import build_filter


def test_impulse_response_places_filter():
    f = build_filter(1.0, 4.0)
    x = np.zeros((9, 9, 9))
    x[4, 4, 4] = 1.0
    z = convolve(x, f.weights)
    r = f.radius
    np.testing.assert_allclose(z[4 - r:4 + r + 1, 4 - r:4 + r + 1, 4 - r:4 + r + 1],
                               f.weights, atol=1e-15)
    inner = z[4 - r:4 + r + 1, 4 - r:4 + r + 1, 4 - r:4 + r + 1].sum()
    assert z.sum() == pytest.approx(inner)


def test_partition_of_unity_on_constant_volume():
    f = build_filter(0.8, 4.0)
    r = f.radius
    x = np.ones((9, 9, 9))
    z = convolve(x, f.weights)
    interior = z[r:-r, r:-r, r:-r]
    np.testing.assert_allclose(interior, 1.0, atol=1e-9)
    assert z[0, 4, 4] < 1.0  # zero padding bleeds in at the faces
    assert z[r - 1, 4, 4] < 1.0 - 1e-12


def test_direct_vs_separable_agree():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(12, 12, 12))
    f = build_filter(1.0, 4.0)
    z_direct = convolve(x, f.weights)
    z_sep = convolve_separable(x, f.profile_1d)
    assert np.max(np.abs(z_direct - z_sep)) < 1e-5


class TestMatrixPasses:
    """Each separable pass is a product with the axis's banded correlation
    matrix; the direct tap loop is the reference."""

    @pytest.mark.parametrize("shape", ["cubic", "non-cubic", "filter side == min dim"])
    @pytest.mark.parametrize("sigma, radius", [(0.3, 0), (0.6, 1), (1.1, 2), (1.6, 3)])
    def test_agrees_with_direct(self, sigma, radius, shape):
        side = 2 * radius + 1
        dims = {"cubic": (8, 8, 8), "non-cubic": (9, 11, 7),
                "filter side == min dim": (side + 3, side, side + 1)}[shape]
        x = np.random.default_rng(radius).normal(size=dims)
        f = build_filter(sigma, 4.0)
        assert f.radius == radius
        z = convolve_separable(x, f.profile_1d)
        assert np.max(np.abs(z - convolve(x, f.weights))) < 1e-12

    def test_asymmetric_profiles_per_axis(self):
        # every profile of the package is symmetric, so only this case tells
        # a correlation matrix from its transpose (a convolution)
        rng = np.random.default_rng(5)
        p_h, p_w, p_d = rng.normal(size=5), rng.normal(size=3), rng.normal(size=1)
        x = rng.normal(size=(9, 11, 7))
        cube = np.einsum("i,j,k", p_h, np.pad(p_w, 1), np.pad(p_d, 2))
        z = convolve_separable(x, (p_h, p_w, p_d))
        assert np.max(np.abs(z - convolve(x, cube))) < 1e-12

    @pytest.mark.parametrize("lengths", [(1, 5, 3), (3, 1, 5)])
    def test_rotated_passes_on_non_cube(self, lengths):
        # each pass moves its axis last, so a 1-tap axis (a scale) must
        # rotate too; the test above has it last, these first and second
        rng = np.random.default_rng(sum(i * n for i, n in enumerate(lengths)))
        profiles = [rng.normal(size=n) for n in lengths]
        x = rng.normal(size=(9, 11, 7))
        cube = np.einsum("i,j,k", *(np.pad(p, (5 - p.size) // 2) for p in profiles))
        z = convolve_separable(x, profiles)
        assert z.shape == x.shape
        assert np.max(np.abs(z - convolve(x, cube))) < 1e-12


_DIGESTS = """
import hashlib
import numpy as np
from adaptsmooth.conv3d import convolve_separable, smooth_with_dsigma
from adaptsmooth.gaussian_filter import build_filter
f = build_filter(1.6, 4.0)
for dims in [(24, 24, 24), (9, 11, 7), (61, 73, 61)]:
    x = np.random.default_rng(0).normal(size=dims)
    z, dz = smooth_with_dsigma(x, f.profile_1d, f.d_profile_1d)
    for out in (convolve_separable(x, f.profile_1d), z, dz):
        print(hashlib.sha256(out.tobytes()).hexdigest())
x = np.random.default_rng(1).normal(size=(9, 11, 7))
out = convolve_separable(x, (f.profile_1d[1:-1], np.ones(1) / 3, f.profile_1d))
print(hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_output_does_not_depend_on_blas_threads():
    src = str(Path(adaptsmooth.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", _DIGESTS], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.split())
    assert len(digests[0]) == 10
    assert digests[0] == digests[1]


def test_linearity():
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(6, 6, 6)), rng.normal(size=(6, 6, 6))
    q = build_filter(0.7, 4.0).weights
    lhs = convolve(2.5 * x - 1.5 * y, q)
    rhs = 2.5 * convolve(x, q) - 1.5 * convolve(y, q)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestValidation:
    def test_even_filter_side_rejected(self):
        with pytest.raises(DataError):
            convolve(np.zeros((4, 4, 4)), np.zeros((2, 2, 2)))

    def test_filter_larger_than_volume_rejected(self):
        with pytest.raises(DataError):
            convolve(np.zeros((4, 4, 4)), np.zeros((5, 5, 5)))
        with pytest.raises(DataError):
            convolve_separable(np.zeros((4, 4, 4)), np.ones(5))


class TestSmoothWithDsigma:
    @pytest.mark.parametrize("dims", [(8, 8, 8), (9, 11, 7)])
    @pytest.mark.parametrize("sigma, radius", [(0.6, 1), (1.1, 2), (1.6, 3)])
    def test_bitwise_equal_to_separate_convolutions(self, sigma, radius, dims):
        x = np.random.default_rng(radius).normal(size=dims)
        f = build_filter(sigma, 4.0)
        assert f.radius == radius
        p, dp = f.profile_1d, f.d_profile_1d
        z, dz = smooth_with_dsigma(x, p, dp)
        np.testing.assert_array_equal(z, convolve_separable(x, p))
        three_terms = (convolve_separable(x, (dp, p, p))
                       + convolve_separable(x, (p, dp, p))
                       + convolve_separable(x, (p, p, dp)))
        np.testing.assert_array_equal(dz, three_terms)
        assert np.max(np.abs(dz - convolve(x, f.d_weights_d_sigma))) < 1e-12

    def test_bad_profiles_rejected(self):
        x = np.zeros((4, 4, 4))
        with pytest.raises(DataError, match="odd"):
            smooth_with_dsigma(x, np.ones(2), np.ones(2))
        with pytest.raises(DataError, match="exceeds"):
            smooth_with_dsigma(x, np.ones(5), np.ones(5))


class TestSymmetricSmoothing:
    """Zero-padded same-size smoothing K with a symmetric profile is a
    symmetric matrix: w . (K x) == (K w) . x, which lets a shared width
    smooth the classifier weight instead of every volume."""

    @pytest.mark.parametrize("shape", ["cubic", "non-cubic", "filter side == min dim"])
    @pytest.mark.parametrize("sigma, radius", [(0.3, 0), (0.6, 1), (1.1, 2), (1.6, 3)])
    def test_adjoint_identity(self, sigma, radius, shape):
        side = 2 * radius + 1
        dims = {"cubic": (8, 8, 8), "non-cubic": (9, 11, 7),
                "filter side == min dim": (side + 3, side, side + 1)}[shape]
        rng = np.random.default_rng(radius)
        x, w = rng.normal(size=dims), rng.normal(size=dims)
        p = build_filter(sigma, 4.0).profile_1d
        assert p.size == side
        lhs = float(np.sum(w * convolve_separable(x, p)))
        rhs = float(np.sum(convolve_separable(w, p) * x))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_separable_faster_than_direct():
    x = np.random.default_rng(9).normal(size=(64, 64, 64))
    f = build_filter(1.0, 4.0)  # r = 2
    t0 = time.perf_counter()
    convolve(x, f.weights)
    direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    convolve_separable(x, f.profile_1d)
    separable = time.perf_counter() - t0
    assert separable < direct
