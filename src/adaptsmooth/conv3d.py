"""Same-size 3D convolution with zero padding.

The separable path for rank-1 kernels built from a 1D profile is the one the
package runs.  The direct loop over filter taps is the reference
implementation that tests and benchmark checks compare against.
Both kernels used in this package (the Gaussian and the Laplacian) are exact
outer products, and both are symmetric, so correlation equals convolution
throughout.

All accumulation is in double precision.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import correlate1d

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


def _pass(x: np.ndarray, p, axis: int) -> np.ndarray:
    """One zero-padded correlation of `x` with the odd-length profile `p`
    along `axis`; a 1-tap profile is a scale."""
    p = np.asarray(p, dtype=np.float64)
    if p.size % 2 == 0:
        raise DataError(f"profile length must be odd, got {p.size}")
    if p.size > x.shape[axis]:
        raise DataError(f"profile length {p.size} exceeds dim {x.shape[axis]}")
    if p.size == 1:
        return x * p[0]
    return correlate1d(x, p, axis=axis, mode="constant", cval=0.0)


def convolve_separable(x: np.ndarray, profiles) -> np.ndarray:
    """Fast path for rank-1 kernels.

    `profiles` is either a single 1D profile shared by all three axes or a
    (p_h, p_w, p_d) triple; each must be odd-length and symmetric kernels are
    assumed (correlation == convolution).
    """
    x = np.asarray(x, dtype=np.float64)
    if isinstance(profiles, np.ndarray) and profiles.ndim == 1:
        profiles = (profiles, profiles, profiles)
    out = x
    for axis, p in enumerate(profiles):
        out = _pass(out, p, axis)
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
    x = np.asarray(x, dtype=np.float64)
    a = _pass(x, p, 0)
    b = _pass(a, p, 1)
    z = _pass(b, p, 2)
    dz = (_pass(_pass(_pass(x, dp, 0), p, 1), p, 2)
          + _pass(_pass(a, dp, 1), p, 2)
          + _pass(b, dp, 2))
    return z, dz
