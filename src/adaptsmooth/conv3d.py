"""Same-size 3D convolution with zero padding.

The separable path for rank-1 kernels built from a 1D profile is the one the
package runs.  Each of its passes correlates the leading axis, of length n,
with an odd-length profile p of radius r as one dense BLAS product with the
n x n banded matrix M[i, j] = p[j - i + r] (zero outside the band, which is
the zero padding) and leaves that axis last, so three passes visit h, w and
d and end in (h, w, d) order; at the package's volume sizes a dense product
in BLAS beats a tap loop over the band.  Each distinct (profile, axis
length) matrix is built once per call.  The direct loop over filter taps is
the reference implementation that tests and benchmark checks compare against.
Both kernels used in this package (the Gaussian and the Laplacian) are exact
outer products, and both are symmetric, so correlation equals convolution
throughout.

All accumulation is in double precision.  Every pass is the one product
form the BLAS-thread test pins: results depend on the BLAS build but not on
its thread count.
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


def _pass(x: np.ndarray, m) -> np.ndarray:
    """Apply the `_matrix` `m` along the leading axis of the 3D `x`, moving
    that axis last: (h, w, d) in, (w, d, h) out, as the C-ordered (rest, n)
    product.  Its bits do not depend on the BLAS thread count, where those
    of `m @ x.reshape(n, -1)` differ between 1 and 2 OpenBLAS threads for
    some n (61 among them).  A 1-tap `m` scales and rotates."""
    n = x.shape[0]
    rows = x.reshape(n, -1).T
    return (rows * m if np.ndim(m) == 0 else rows @ m.T).reshape(*x.shape[1:], n)


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
    for m in _matrices(profiles, x.shape):
        out = _pass(out, m)
    return out


def smooth_with_dsigma(x: np.ndarray, p, dp):
    """Smoothing of `x` by the rank-1 kernel p(x)p(y)p(z) and its derivative
    with respect to the width, in one pass chain of 9 passes.

    With P and D the passes of `p` and `dp` along each axis (h, w, d) and the
    shared intermediates a = P_h x and b = P_w a (rotated to (w, d, h) and
    (d, h, w) order by `_pass`), returns

        z  = P_d b
        dz = P_d P_w D_h x  +  P_d D_w a  +  D_d b

    which equal `convolve_separable(x, p)` and the three-term product-rule
    sum of `convolve_separable` calls bit for bit: each pass and the order
    of the sums are the same.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    ph, pw, pd = _matrices((p, p, p), x.shape)
    dh, dw, dd = _matrices((dp, dp, dp), x.shape)
    a = _pass(x, ph)
    b = _pass(a, pw)
    z = _pass(b, pd)
    dz = (_pass(_pass(_pass(x, dh), pw), pd)
          + _pass(_pass(a, dw), pd)
          + _pass(b, dd))
    return z, dz
