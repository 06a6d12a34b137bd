"""Same-size 3D convolution with zero padding.

The separable path for rank-1 kernels built from a 1D profile is the one the
package runs.  Each of its passes correlates the leading axis, of length n,
with an odd-length profile p of radius r as one dense BLAS product with the
n x n banded matrix M[i, j] = p[j - i + r] (zero outside the band, which is
the zero padding) and leaves that axis last, so three passes visit h, w and
d and end in (h, w, d) order; at the package's volume sizes a dense product
in BLAS beats a tap loop over the band.  The matrices of one call are built
once, one stack per distinct axis length.  Two products that read the same
input run as one broadcast product with a (2, n, n) pair of matrices, which
numpy computes as one BLAS product per matrix.  `smooth_batch` smooths a
batch, each volume with its own profile, and in the same chain gives the
width derivative of each volume given a derivative profile: 8 dense
products, 3 pairs that read x, a = P_h x and b = P_w a and 2 single passes
that finish dz = P_d (P_w D_h x + D_w a) + D_d b.  Every pass writes into
a workspace of N + 5 volume rows (`batch_workspace`) that the caller owns
and passes to each batch of a run, so no batch page-faults in a fresh
result; the smoothed batch returned is a view into it, valid until the next
call overwrites it.  The direct loop over filter taps is the
reference implementation that tests and benchmark checks compare against.
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


def _matrices(profiles, d_profiles, n: int) -> list:
    """The correlation with each odd-length profile along an axis of length
    `n`, the zero-padded banded n x n matrix M[i, j] = p[j - i + r], paired
    where `d_profiles[i]` is not None with the matrix D of that derivative
    profile: entry i is M.T or the (2, n, n) pair (M.T, D.T), whose two
    products `_pass` runs as one.  Each is stored transposed and C-ordered,
    as the right operand of `_pass`'s product: BLAS reads it faster than a
    transposed view of M, with the same bits.  A 1-tap entry is its (1, 1)
    or (2, 1, 1) corner, the scale p[0].  All matrices are one stack, with
    no rows for a None derivative: row i of M.T is q[i : n + i] reversed, of
    its profile zero-padded to 2n - 1, so the stack is a view of the padded
    profiles with column stride -1 element, copied to C order once."""
    flat = [np.asarray(v, dtype=np.float64) for p, dp in zip(profiles, d_profiles)
            for v in ((p,) if dp is None else (p, dp))]
    q = np.zeros((len(flat), 2 * n - 1))
    for k, p in enumerate(flat):
        if p.size % 2 == 0:
            raise DataError(f"profile length must be odd, got {p.size}")
        if p.size > n:
            raise DataError(f"profile length {p.size} exceeds dim {n}")
        r = p.size // 2
        q[k, n - 1 - r:n + r] = p
    stack = np.ndarray((len(flat), n, n), buffer=q, offset=(n - 1) * q.itemsize,
                       strides=(q.strides[0], q.itemsize, -q.itemsize)).copy()
    entries, k = [], 0
    for dp in d_profiles:
        j = k + 1 if dp is None else k + 2
        m = stack[k] if dp is None else stack[k:j]
        entries.append(m[..., :1, :1] if flat[k].size == flat[j - 1].size == 1 else m)
        k = j
    return entries


def _pass(x: np.ndarray, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the `_matrices` entry `m` along the leading axis of the 3D `x`,
    moving that axis last: (h, w, d) in, (w, d, h) out, or (2, w, d, h)
    for a pair, as the C-ordered (rest, n) product with M.T, written into
    the contiguous `out` if given.  numpy runs a pair's broadcast product
    as one gemm per matrix, so each result is bit for bit the single
    product.  Its bits do not depend on the BLAS thread count, where those
    of `M @ x.reshape(n, -1)` differ between 1 and 2 OpenBLAS threads for
    some n (61 among them), nor on `out`: matmul writes the bits it would
    allocate.  A 1-tap `m` scales and rotates."""
    n = x.shape[0]
    rows = x.reshape(n, -1).T
    lead = m.shape[:-2]
    if out is not None:
        out = out.reshape(lead + rows.shape)
    if m.shape[-1] == 1:
        res = np.multiply(rows, m, out=out)
    else:
        res = np.matmul(rows, m, out=out)
    return res.reshape(lead + x.shape[1:] + (n,))


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
            built[id(p), n] = _matrices([p], [None], n)[0]
        # each intermediate is freed once the next pass has read it, so its
        # memory, still in cache, is reused: keeping all three alive made
        # the fixed-width training step measurably slower
        out = _pass(out, built[id(p), n])
    return out


def batch_workspace(n_volumes: int, dims) -> np.ndarray:
    """An uninitialized workspace for `smooth_batch` calls of up to
    `n_volumes` volumes of `dims`: n_volumes + 5 float64 volume rows."""
    return np.empty((n_volumes + 5, *dims))


def smooth_batch(volumes: np.ndarray, profiles, d_profiles, weight: np.ndarray,
                 workspace: np.ndarray | None = None):
    """Smooth volume i of the (N, H, W, D) batch `volumes` with `profiles[i]`
    along every axis, the last pass writing into the volume's row of the
    result.  Where `d_profiles[i]`, that profile's width derivative, is not
    None, the same chain gives the volume's width derivative

        dz = P_d (P_w D_h x  +  D_w a)  +  D_d b

    from the intermediates a = P_h x and b = P_w a, each sum taken in place:
    bit for bit the sum u = (D_h, P_w, 1) x + (P_h, D_w, 1) x and then
    dz = (1, 1, P_d) u + (P_h, P_w, D_d) x of `convolve_separable` calls, 1
    the identity.  The passes that read x, a and b each run their smoothing
    and derivative products as one pair, so a volume takes 8 dense products,
    3 without a derivative profile.  Only the contraction of dz with the
    (H, W, D) `weight` is kept, None where the derivative profile is.  The
    operators are built once per batch, with no matrix for a None
    derivative profile.

    Every pass writes into `workspace`, an (M, H, W, D) float64 array of
    M >= N + 5 rows that the caller owns (`batch_workspace`) and may pass to
    every call of a run: 4 scratch rows reused across the volumes, then N + 1
    result rows.  Nothing is read from it that this call did not write, so
    its prior contents never matter.  Without one, the call allocates its
    own.  Returns the smoothed batch, a view into the workspace that the
    next call given the same workspace overwrites, and the contractions.
    """
    dims = volumes.shape[1:]
    ops = {n: _matrices(profiles, d_profiles, n) for n in set(dims)}
    if workspace is None:
        workspace = batch_workspace(len(volumes), dims)
    if len(workspace) < len(volumes) + 5 or workspace.shape[1:] != dims:
        raise ValueError(f"workspace of shape {workspace.shape} is too small for "
                         f"{len(volumes)} volumes of {dims}")
    ws = workspace[:4].reshape(4, -1)
    # one row more than the batch: the last pair pass of volume i writes
    # D_d b into row i + 1, the next volume's, which is not yet written
    smoothed = workspace[4:len(volumes) + 5]
    dots = [None] * len(volumes)
    for i, x in enumerate(volumes):
        mh, mw, md = (ops[n][i] for n in dims)
        if d_profiles[i] is None:
            _pass(_pass(_pass(x, mh, ws[0]), mw, ws[1]), md, smoothed[i])
            continue
        a = _pass(x, mh, ws[:2])            # P_h x, D_h x
        b = _pass(a[0], mw, ws[2:])         # P_w a, D_w a
        _pass(b[0], md, smoothed[i:i + 2])  # z = P_d b, D_d b
        u = _pass(a[1], mw[0], ws[0])
        u += b[1]
        dz = _pass(u, md[0], ws[1])
        dz += smoothed[i + 1]
        # einsum, because BLAS dot sums a long vector in per-thread
        # parts and its bits follow the thread count
        dots[i] = float(np.einsum("ijk,ijk->", weight, dz))
    return smoothed[:-1], dots
