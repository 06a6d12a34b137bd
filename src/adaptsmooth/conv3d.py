"""Same-size 3D convolution with zero padding.

The separable path for rank-1 kernels built from a 1D profile is the one the
package runs.  Each of its passes correlates the leading axis, of length n,
with an odd-length profile p of radius r as one dense BLAS product with the
n x n banded matrix M[i, j] = p[j - i + r] (zero outside the band, which is
the zero padding) and leaves that axis last, so three passes visit h, w and
d and end in (h, w, d) order; at the package's volume sizes a dense product
in BLAS beats a tap loop over the band.  The matrices of one call are built
once, one (N, n, n) stack per distinct axis length.  `smooth_batch` smooths
a batch, each volume with its own profile, and in the same chain of passes,
which write into scratch rows reused across its volumes, gives the width
derivative of each volume given a derivative profile.  The direct loop over
filter taps is the reference implementation that tests and benchmark checks
compare against.
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


def _matrices(profiles, n: int) -> list:
    """The correlation with each odd-length profile along an axis of length
    `n`: the scale p[0] for a 1-tap profile, else the zero-padded banded
    n x n matrix M[i, j] = p[j - i + r]; None stays None.  All matrices are
    one (N, n, n) stack: row i of M is q[n-1-i : 2n-1-i] of its profile
    zero-padded to 2n - 1, so the stack is a view of the padded profiles
    with row stride -1 element, copied to C order once."""
    profiles = [None if p is None else np.asarray(p, dtype=np.float64) for p in profiles]
    q = np.zeros((len(profiles), 2 * n - 1))
    for k, p in enumerate(profiles):
        if p is None:
            continue
        if p.size % 2 == 0:
            raise DataError(f"profile length must be odd, got {p.size}")
        if p.size > n:
            raise DataError(f"profile length {p.size} exceeds dim {n}")
        r = p.size // 2
        q[k, n - 1 - r:n + r] = p
    stack = np.ndarray((len(profiles), n, n), buffer=q, offset=(n - 1) * q.itemsize,
                       strides=(q.strides[0], -q.itemsize, q.itemsize)).copy()
    return [p if p is None else p[0] if p.size == 1 else m
            for p, m in zip(profiles, stack)]


def _pass(x: np.ndarray, m, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the `_matrices` entry `m` along the leading axis of the 3D `x`,
    moving that axis last: (h, w, d) in, (w, d, h) out, as the C-ordered
    (rest, n) product, written into the contiguous `out` if given.  Its bits
    do not depend on the BLAS thread count, where those of
    `m @ x.reshape(n, -1)` differ between 1 and 2 OpenBLAS threads for some
    n (61 among them), nor on `out`: matmul writes the bits it would
    allocate.  A 1-tap `m` scales and rotates."""
    n = x.shape[0]
    rows = x.reshape(n, -1).T
    out = None if out is None else out.reshape(rows.shape)
    if m.ndim == 0:
        res = np.multiply(rows, m, out=out)
    else:
        res = np.matmul(rows, m.T, out=out)
    return res.reshape(*x.shape[1:], n)


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
    built = {}  # one matrix per distinct (profile, axis length)
    out = x
    for p, n in zip(profiles, x.shape):
        if (id(p), n) not in built:
            built[id(p), n] = _matrices([p], n)[0]
        # each intermediate is freed once the next pass has read it, so its
        # memory, still in cache, is reused: keeping all three alive made
        # the fixed-width training step measurably slower
        out = _pass(out, built[id(p), n])
    return out


def smooth_batch(volumes: np.ndarray, profiles, d_profiles, weight: np.ndarray):
    """Smooth volume i of the (N, H, W, D) batch `volumes` with `profiles[i]`
    along every axis, the last pass writing into the volume's row of the
    result.  Where `d_profiles[i]`, that profile's width derivative, is not
    None, the same chain of 9 passes gives the volume's width derivative

        dz = P_d P_w D_h x  +  P_d D_w a  +  D_d b

    from the intermediates a = P_h x and b = P_w a, summed in place in that
    order: bit for bit the three-term product-rule sum of
    `convolve_separable` calls.  Only its contraction with the (H, W, D)
    `weight` is kept, None where the derivative profile is.  The operators
    are built once per batch, and the other passes write into scratch rows
    reused across volumes.  Returns the smoothed batch and the contractions.
    """
    dims = volumes.shape[1:]
    ops = {n: _matrices(profiles, n) for n in set(dims)}
    d_ops = {n: _matrices(d_profiles, n) for n in set(dims)}
    smoothed = np.empty(volumes.shape)
    ws = np.empty((5, smoothed[0].size))
    dots = [None] * len(volumes)
    for i, x in enumerate(volumes):
        ph, pw, pd = (ops[n][i] for n in dims)
        a = _pass(x, ph, ws[0])
        b = _pass(a, pw, ws[1])
        _pass(b, pd, smoothed[i])
        if d_profiles[i] is None:
            continue
        dh, dw, dd = (d_ops[n][i] for n in dims)
        dz = _pass(_pass(_pass(x, dh, ws[2]), pw, ws[3]), pd, ws[4])
        dz += _pass(_pass(a, dw, ws[2]), pd, ws[3])
        dz += _pass(b, dd, ws[2])
        # einsum, because BLAS dot sums a long vector in per-thread
        # parts and its bits follow the thread count
        dots[i] = float(np.einsum("ijk,ijk->", weight, dz))
    return smoothed, dots
