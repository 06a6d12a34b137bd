import time

import numpy as np
import pytest

from adaptsmooth.conv3d import (
    convolve,
    convolve_backward_filter,
    convolve_backward_input,
    convolve_separable,
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


def test_linearity():
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(6, 6, 6)), rng.normal(size=(6, 6, 6))
    q = build_filter(0.7, 4.0).weights
    lhs = convolve(2.5 * x - 1.5 * y, q)
    rhs = 2.5 * convolve(x, q) - 1.5 * convolve(y, q)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_adjoint_dot_product():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 8, 8))
    u = rng.normal(size=(8, 8, 8))
    q = build_filter(1.2, 4.0).weights
    lhs = float(np.sum(convolve(x, q) * u))
    rhs = float(np.sum(x * convolve_backward_input(u, q)))
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-7


class TestBackwardFilter:
    def test_zero_upstream(self):
        x = np.random.default_rng(0).normal(size=(5, 5, 5))
        g = convolve_backward_filter(np.zeros_like(x), x, radius=1)
        np.testing.assert_array_equal(g, np.zeros((3, 3, 3)))

    def test_radius_zero_reduction(self):
        rng = np.random.default_rng(4)
        x, u = rng.normal(size=(4, 4, 4)), rng.normal(size=(4, 4, 4))
        g = convolve_backward_filter(u, x, radius=0)
        assert g[0, 0, 0] == pytest.approx(float(np.sum(u * x)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 8, 8))
        u = rng.normal(size=(8, 8, 8))
        q = build_filter(0.8, 4.0).weights.copy()
        r = q.shape[0] // 2
        grad = convolve_backward_filter(u, x, radius=r)
        h = 1e-5
        for idx in [(0, 0, 0), (r, r, r), (1, 2, 0), (2, 1, 2)]:
            qp, qm = q.copy(), q.copy()
            qp[idx] += h
            qm[idx] -= h
            fd = (np.sum(convolve(x, qp) * u) - np.sum(convolve(x, qm) * u)) / (2 * h)
            assert abs(fd - grad[idx]) / max(abs(fd), 1e-12) < 1e-4

    def test_dim_mismatch(self):
        with pytest.raises(DataError):
            convolve_backward_filter(np.zeros((3, 3, 3)), np.zeros((4, 4, 4)), 1)


class TestBackwardInput:
    def test_identity_filter(self):
        u = np.random.default_rng(6).normal(size=(4, 4, 4))
        q = np.zeros((3, 3, 3))
        q[1, 1, 1] = 1.0
        np.testing.assert_allclose(convolve_backward_input(u, q), u)

    def test_zero_upstream(self):
        q = build_filter(0.8, 4.0).weights
        out = convolve_backward_input(np.zeros((5, 5, 5)), q)
        np.testing.assert_array_equal(out, np.zeros((5, 5, 5)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 8, 8))
        u = rng.normal(size=(8, 8, 8))
        q = build_filter(0.8, 4.0).weights
        grad = convolve_backward_input(u, q)
        h = 1e-5
        for idx in [(0, 0, 0), (4, 4, 4), (7, 2, 5)]:
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            fd = (np.sum(convolve(xp, q) * u) - np.sum(convolve(xm, q) * u)) / (2 * h)
            assert abs(fd - grad[idx]) / max(abs(fd), 1e-12) < 1e-4


class TestValidation:
    def test_even_filter_side_rejected(self):
        with pytest.raises(DataError):
            convolve(np.zeros((4, 4, 4)), np.zeros((2, 2, 2)))

    def test_filter_larger_than_volume_rejected(self):
        with pytest.raises(DataError):
            convolve(np.zeros((4, 4, 4)), np.zeros((5, 5, 5)))
        with pytest.raises(DataError):
            convolve_separable(np.zeros((4, 4, 4)), np.ones(5))


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
