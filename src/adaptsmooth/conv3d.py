"""Same-size 3D convolution with zero padding, forward and backward.

The separable path for rank-1 kernels built from a 1D profile is the one the
package runs.  The direct loop over filter taps and its adjoints are the
reference implementation that tests and benchmark checks compare against.
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
        p = np.asarray(p, dtype=np.float64)
        if p.size % 2 == 0:
            raise DataError(f"profile length must be odd, got {p.size}")
        if p.size > x.shape[axis]:
            raise DataError(f"profile length {p.size} exceeds dim {x.shape[axis]}")
        if p.size == 1:
            out = out * p[0]
        else:
            out = correlate1d(out, p, axis=axis, mode="constant", cval=0.0)
    return out


def convolve_backward_filter(upstream: np.ndarray, x: np.ndarray, radius: int) -> np.ndarray:
    """Gradient of sum(upstream * convolve(x, q)) with respect to the filter cube."""
    upstream = np.asarray(upstream, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if upstream.shape != x.shape:
        raise DataError(f"dim mismatch: {upstream.shape} vs {x.shape}")
    r = radius
    h, w, d = x.shape
    xp = np.pad(x, r)
    grad = np.empty((2 * r + 1,) * 3)
    for a in range(2 * r + 1):
        for b in range(2 * r + 1):
            for c in range(2 * r + 1):
                grad[a, b, c] = np.sum(upstream * xp[a:a + h, b:b + w, c:c + d])
    return grad


def convolve_backward_input(upstream: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Gradient of sum(upstream * convolve(x, q)) with respect to the input.

    This is the adjoint of `convolve`: correlation of the upstream gradient
    with the flipped filter, zero-padded to the same size.
    """
    return convolve(upstream, np.asarray(q, dtype=np.float64)[::-1, ::-1, ::-1])
