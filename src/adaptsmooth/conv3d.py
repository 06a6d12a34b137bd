"""Same-size 3D convolution with zero padding, and separable products.

Every product of the package along the axes of a volume is a separable
product (`separable_product`): each axis, of length n, is multiplied by its
own n x n matrix in one dense BLAS product (`_pass`) that leaves that axis
last, so three passes visit h, w and d and end in (h, w, d) order.
`convolve_separable` correlates each axis with an odd-length profile p of
radius r through the banded matrix M[i, j] = p[j - i + r] (zero outside the
band, which is the zero padding): the noise feature's Laplacian and the
`smooth` command run it, and at the package's volume sizes a dense product
in BLAS beats a tap loop over the band.  The trainer multiplies by the sine
basis S and the heat kernel K_sigma (`gaussian_filter.sine_basis`) the same
way.  The direct loop over filter taps is the reference implementation that
tests and benchmark checks compare against.  Both kernels of the truncated
family used in this package (the Gaussian and the Laplacian) are exact outer
products, and both are symmetric, so correlation equals convolution
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
    if side > min(dims):
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


def _matrix(p, n: int) -> np.ndarray:
    """The correlation with the odd-length profile `p` along an axis of
    length `n`, the zero-padded banded n x n matrix M[i, j] = p[j - i + r],
    stored transposed and C-ordered, as the right operand of `_pass`'s
    product: BLAS reads it faster than a transposed view of M, with the same
    bits.  Row i of M.T is q[i : n + i] reversed, of the profile zero-padded
    to 2n - 1, so it is a view of the padded profile with column stride -1
    element, copied to C order once."""
    p = np.asarray(p, dtype=np.float64)
    # None would pass as a 0-d NaN
    if p.ndim != 1 or p.size % 2 == 0:
        raise DataError(f"profile must be 1-D of odd length, got shape {p.shape}")
    if p.size > n:
        raise DataError(f"profile length {p.size} exceeds dim {n}")
    r = p.size // 2
    q = np.zeros(2 * n - 1)
    q[n - 1 - r:n + r] = p
    return np.ndarray((n, n), buffer=q, offset=(n - 1) * q.itemsize,
                      strides=(q.itemsize, -q.itemsize)).copy()


def _pass(x: np.ndarray, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply M along the leading axis of the volume `x`, of length n,
    moving that axis last: (h, w, d) in, (w, d, h) out, as the C-ordered
    (w d, n) product of x's rows with `m` = M.T, written into `out` if
    given.  Its bits do not depend on the BLAS thread count, where those of
    `M @ x.reshape(n, -1)` differ between 1 and 2 OpenBLAS threads for some n
    (61 among them), nor on `out`: matmul writes the bits it would
    allocate."""
    n = x.shape[0]
    rows = x.reshape(n, -1).T
    res = np.matmul(rows, m, out=None if out is None else out.reshape(rows.shape))
    return res.reshape(*x.shape[1:], n)


def separable_product(x: np.ndarray, mats, out: np.ndarray | None = None) -> np.ndarray:
    """(M_h kron M_w kron M_d) x of the volume `x`, `mats` holding each
    axis's matrix transposed and C-ordered (for a symmetric matrix such as
    S or K_sigma, the matrix itself), the last pass written into `out` if
    given, which must not be the input of that pass: `out=x` transforms `x`
    in place.  Each intermediate is freed once the next pass has read it, so
    its memory, still in cache, is reused."""
    for m in mats[:-1]:
        x = _pass(x, m)
    return _pass(x, mats[-1], out)


def convolve_separable(x: np.ndarray, profile) -> np.ndarray:
    """Correlate each axis of the volume `x` with the odd-length 1D
    `profile`, which for the symmetric kernels of this package equals
    convolution: the rank-1 kernel's fast path."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    built = {n: _matrix(profile, n) for n in set(x.shape)}
    return separable_product(x, [built[n] for n in x.shape])
