"""Same-size 3D convolution with zero padding.

The separable path for rank-1 kernels built from a 1D profile is the one the
package runs.  Each of its passes correlates one axis of length n with an
odd-length profile p of radius r as one dense BLAS product with the n x n
banded matrix M[i, j] = p[j - i + r] (zero outside the band, which is the
zero padding); at the package's volume sizes a dense product in BLAS beats a
tap loop over the band.  Each distinct (profile, axis length) matrix is
built once per call.  The direct loop over filter taps is the reference
implementation that tests and benchmark checks compare against.
Both kernels used in this package (the Gaussian and the Laplacian) are exact
outer products, and both are symmetric, so correlation equals convolution
throughout.

All accumulation is in double precision.  Results depend on the BLAS build
but not on its thread count.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def _check_cube(q: np.ndarray, dims):
    if q.ndim != 3 or len(set(q.shape)) != 1:
        raise DataError(f"filter must be a cube, got shape {q.shape}")
    side = q.shape[0]
    if side % 2 == 0:
        raise DataError(f"filter side must be odd, got {side}")
    if dims is not None and side > min(dims):
        raise DataError(f"filter side {side} exceeds volume dims {dims}")
    return side // 2


def convolve(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Direct zero-padded same-size convolution: one vectorized pass per tap."""
    x = np.asarray(x, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    r = _check_cube(q, x.shape)
    if r == 0:
        return x * q[0, 0, 0]
    h, w, d = x.shape
    xp = np.pad(x, r)
    z = np.zeros_like(x)
    for a in range(2 * r + 1):
        for b in range(2 * r + 1):
            for c in range(2 * r + 1):
                z += q[a, b, c] * xp[a:a + h, b:b + w, c:c + d]
    return z


def _matrix(p, n: int):
    """The correlation with the odd-length profile `p` along an axis of
    length `n`: the scale p[0] for a 1-tap profile, else the zero-padded
    banded n x n matrix M[i, j] = p[j - i + r]."""
    p = np.asarray(p, dtype=np.float64)
    if p.size % 2 == 0:
        raise DataError(f"profile length must be odd, got {p.size}")
    if p.size > n:
        raise DataError(f"profile length {p.size} exceeds dim {n}")
    if p.size == 1:
        return p[0]
    # row i of M is q[n-1-i : 2n-1-i] of the profile zero-padded to 2n - 1:
    # a view of q with row stride -1 element, copied to C order
    q = np.zeros(2 * n - 1)
    r = p.size // 2
    q[n - 1 - r:n + r] = p
    return np.ndarray((n, n), buffer=q, offset=(n - 1) * q.itemsize,
                      strides=(-q.itemsize, q.itemsize)).copy()


def _matrices(profiles, dims) -> list:
    """One `_matrix` per axis, built once per distinct (profile, length)."""
    built = {}
    for p, n in zip(profiles, dims):
        if (id(p), n) not in built:
            built[id(p), n] = _matrix(p, n)
    return [built[id(p), n] for p, n in zip(profiles, dims)]


def _pass(x: np.ndarray, m, axis: int) -> np.ndarray:
    """Apply the `_matrix` `m` along `axis` of the 3D `x`.  Each axis uses
    a product form whose bits do not depend on the BLAS thread count; the
    plain axis-0 form `m @ x.reshape(n, -1)` differs between 1 and 2
    OpenBLAS threads for some n (61 among them)."""
    if np.ndim(m) == 0:
        return x * m
    n = x.shape[axis]
    if axis == 0:
        return (x.reshape(n, -1).T @ m.T).T.reshape(x.shape)
    if axis == 1:
        return np.matmul(m, x)
    return (x.reshape(-1, n) @ m.T).reshape(x.shape)


def convolve_separable(x: np.ndarray, profiles) -> np.ndarray:
    """Fast path for rank-1 kernels.

    `profiles` is either a single 1D profile shared by all three axes or a
    (p_h, p_w, p_d) triple; each must be odd-length.  Each axis is
    correlated with its own profile, which for the symmetric kernels of
    this package equals convolution.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if isinstance(profiles, np.ndarray) and profiles.ndim == 1:
        profiles = (profiles, profiles, profiles)
    out = x
    for axis, m in enumerate(_matrices(profiles, x.shape)):
        out = _pass(out, m, axis)
    return out


def smooth_with_dsigma(x: np.ndarray, p, dp):
    """Smoothing of `x` by the rank-1 kernel p(x)p(y)p(z) and its derivative
    with respect to the width, in one pass chain of 9 passes.

    With P and D the passes of `p` and `dp` along each axis (h, w, d) and the
    shared intermediates a = P_h x and b = P_w a, returns

        z  = P_d b
        dz = P_d P_w D_h x  +  P_d D_w a  +  D_d b

    which equal `convolve_separable(x, p)` and the three-term product-rule
    sum of `convolve_separable` calls bit for bit: each pass and the order
    of the sums are the same.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    ph, pw, pd = _matrices((p, p, p), x.shape)
    dh, dw, dd = _matrices((dp, dp, dp), x.shape)
    a = _pass(x, ph, 0)
    b = _pass(a, pw, 1)
    z = _pass(b, pd, 2)
    dz = (_pass(_pass(_pass(x, dh, 0), pw, 1), pd, 2)
          + _pass(_pass(a, dw, 1), pd, 2)
          + _pass(b, dd, 2))
    return z, dz
