"""Same-size 3D convolution with zero padding.

The separable path for rank-1 kernels built from a 1D profile is the one the
package runs.  Each of its passes correlates the leading axis, of length n,
with an odd-length profile p of radius r as one dense BLAS product with the
n x n banded matrix M[i, j] = p[j - i + r] (zero outside the band, which is
the zero padding) and leaves that axis last, so three passes visit h, w and
d and end in (h, w, d) order; at the package's volume sizes a dense product
in BLAS beats a tap loop over the band.  A 1-tap profile is its full matrix
too, p[0] times the identity.  Matrices are built once per distinct axis
length of a call, or of a chunk.  `smooth_batch` smooths a batch, each
volume with its own profile, and when the call gives derivative profiles,
the width derivative of every volume in the same chain: 8 dense products, 3
pairs that read x, a = P_h x and b = P_w a and 2 single passes that finish
dz = P_d (P_w D_h x + D_w a) + D_d b.  It cuts the batch into chunks of up
to G consecutive volumes, G from a fixed byte budget (`_chunk_volumes`), and
each pass of a chunk is one broadcast product over the chunk's stack of
matrices, a pair pass over its stack of (smoothing, derivative) pairs.
numpy computes a broadcast product as one BLAS product per matrix, so every
result keeps the bits of the volume's own product.  The calling thread
and the pool threads of a `Workspace` take the chunks from one queue; the
workspace also holds the rows every pass writes into: one per
`train` or `evaluate` call, so no batch page-faults in a fresh result and
no thread outlives the call.  The smoothed batch returned is a view into
it, valid until the next call overwrites it.  The direct loop over filter
taps is the reference implementation that tests and benchmark checks
compare against.  Both kernels used in this package (the Gaussian and the
Laplacian) are exact outer products, and both are symmetric, so correlation
equals convolution throughout.

All accumulation is in double precision.  Every pass is the one product
form the BLAS-thread test pins, and each volume's passes are the same
products whichever chunk and thread run them: results depend on the BLAS
build but not on its thread count, nor on the number of CPUs.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import DataError

# a chunk's pair pass reads G volumes and writes 2G while G more wait for
# the next pass: 4G volumes fit the 2 MB L2 of one core
_CHUNK_BYTES = 2 << 20


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


def _matrices(profiles, n: int) -> np.ndarray:
    """The correlation with each odd-length profile along an axis of length
    `n`, the zero-padded banded n x n matrix M[i, j] = p[j - i + r], as one
    (K, n, n) stack of the K profiles' M.T in order.  Each is stored
    transposed and C-ordered, as the right operand of `_pass`'s product:
    BLAS reads it faster than a transposed view of M, with the same bits.
    Row i of M.T is q[i : n + i] reversed, of its profile zero-padded to
    2n - 1, so the stack is a view of the padded profiles with column
    stride -1 element, copied to C order once."""
    q = np.zeros((len(profiles), 2 * n - 1))
    for k, p in enumerate(profiles):
        p = np.asarray(p, dtype=np.float64)
        # None would pass as a 0-d NaN
        if p.ndim != 1 or p.size % 2 == 0:
            raise DataError(f"profile must be 1-D of odd length, got shape {p.shape}")
        if p.size > n:
            raise DataError(f"profile length {p.size} exceeds dim {n}")
        r = p.size // 2
        q[k, n - 1 - r:n + r] = p
    return np.ndarray((len(profiles), n, n), buffer=q, offset=(n - 1) * q.itemsize,
                      strides=(q.strides[0], q.itemsize, -q.itemsize)).copy()


def _chunk_volumes(dims) -> int:
    """G, the most volumes of `dims` in one chunk: a fixed byte budget, at
    least one volume, so an MNI-size volume runs alone."""
    return max(1, _CHUNK_BYTES // (4 * 8 * math.prod(dims)))


def _pass(x: np.ndarray, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply `m` along the axis of length n that leads the last three of
    `x`, moving that axis last: (..., h, w, d) in, (..., w, d, h) out, as
    the C-ordered (rest, n) product of each volume with its M.T, written
    into `out` if given.  A volume takes one matrix (n, n); a (g, h, w, d)
    chunk takes its (g, n, n) stack, or a (2, g, n, n) stack of pairs, out
    (2, g, w, d, h).  numpy runs a broadcast product as one gemm per
    matrix, so each result is bit for bit the single product of one
    volume.  Its bits do not depend on the BLAS thread count, where those
    of `M @ x.reshape(n, -1)` differ between 1 and 2 OpenBLAS threads for
    some n (61 among them), nor on `out`: matmul writes the bits it would
    allocate."""
    n = x.shape[-3]
    rows = x.reshape(*x.shape[:-3], n, -1).swapaxes(-1, -2)
    lead = m.shape[:m.ndim - rows.ndim]
    if out is not None:
        out = out.reshape(lead + rows.shape)
    res = np.matmul(rows, m, out=out)
    return res.reshape(lead + x.shape[:-3] + x.shape[-2:] + (n,))


def _two(rows: np.ndarray, i: int, j: int, g: int) -> np.ndarray:
    """The g rows from row i and the g rows from row j of the C-ordered
    `rows` as one (2, g, ...) view, the `out` of a pair pass.  The view
    spans the rows between them, which must not hold that pass's input:
    numpy would then write the product into a temporary and copy it."""
    step = rows.strides[0]
    return np.ndarray((2, g, *rows.shape[1:]), rows.dtype, rows, i * step,
                      ((j - i) * step, *rows.strides))


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


class Workspace:
    """The rows and worker threads that the `smooth_batch` calls of one run
    share, for batches of up to `n_volumes` volumes of `dims`.  It runs
    `workers` = min(CPUs this process may run on, chunks of n_volumes):
    the calling thread and a pool of the others.  `rows` is a C-ordered
    float64 array of n_volumes result rows, then 3 scratch rows per volume
    of the largest chunk for each worker.  A context manager: the pool
    threads end with its block, or with `close`; the rows stay valid."""

    def __init__(self, n_volumes: int, dims):
        size = _chunk_volumes(dims)
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        self.workers = max(1, min(cpus, -(-n_volumes // size)))
        self.rows = np.empty((n_volumes + 3 * min(size, n_volumes) * self.workers, *dims))
        self._pool = ThreadPoolExecutor(self.workers - 1) if self.workers > 1 else None

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _run(self, tasks):
        """Run each (fn, *args) of `tasks`, at most `workers`: the first on
        the calling thread, each other on a pool thread in a copy of the
        caller's context, where numpy keeps its error state, so a worker
        raises where the caller's `np.errstate` raises.  Returns once every
        task has ended, raising the first error."""
        futures = [self._pool.submit(contextvars.copy_context().run, *task)
                   for task in tasks[1:]]
        try:
            tasks[0][0](*tasks[0][1:])
        finally:
            wait(futures)
        for future in futures:
            future.result()


def _smooth_chunks(take, volumes, profiles, d_profiles, weight, rows, t0, size, dots):
    """The passes of `smooth_batch` over the chunk from each start that
    `take()` hands this worker, until it returns None: it builds the chunk's
    matrices and writes only the chunk's result rows of `rows` and `dots`
    slots, and its own 3 `size` scratch rows of `rows` from row t0.  It
    calls only private helpers and numpy, so it runs on any thread."""
    dims = volumes.shape[1:]
    t1, t2 = t0 + size, t0 + 2 * size
    pair = d_profiles is not None
    for start in iter(take, None):
        stop = min(start + size, len(volumes))
        g, x, r = stop - start, volumes[start:stop], rows[start:stop]
        # pairs are (2, g, n, n): the g smoothing matrices, then their derivatives
        chunk = [*profiles[start:stop], *(d_profiles[start:stop] if pair else ())]
        ops = {n: _matrices(chunk, n).reshape(1 + pair, g, n, n) for n in set(dims)}
        mh, mw, md = (ops[n] for n in dims)
        if not pair:
            _pass(_pass(_pass(x, mh[0], r), mw[0], rows[t0:t0 + g]), md[0], r)
            continue
        # each pass's out spans no row of its input (`_two`): the result
        # rows come first, then each worker's t0, t1 and t2 rows
        a = _pass(x, mh, _two(rows, start, t1, g))     # P_h x into r, D_h x
        b = _pass(a[0], mw, _two(rows, t2, t0, g))     # P_w a, D_w a
        u = _pass(a[1], mw[0], r)
        u += b[1]
        dz = _pass(u, md[0], rows[t1:t1 + g])
        z = _pass(b[0], md, _two(rows, start, t0, g))  # z = P_d b, D_d b
        dz += z[1]
        for i, v in enumerate(dz, start):
            # einsum, because BLAS dot sums a long vector in per-thread
            # parts and its bits follow the thread count
            dots[i] = float(np.einsum("ijk,ijk->", weight, v))


def smooth_batch(volumes: np.ndarray, profiles, d_profiles, weight: np.ndarray,
                 workspace: Workspace | None = None):
    """Smooth volume i of the (N, H, W, D) batch `volumes` with `profiles[i]`
    along every axis, the last pass writing into the volume's result row.
    Given `d_profiles`, one width derivative of its profile per volume, the
    same chain gives each volume's width derivative

        dz = P_d (P_w D_h x  +  D_w a)  +  D_d b

    from the intermediates a = P_h x and b = P_w a, each sum taken in place:
    bit for bit the sum u = (D_h, P_w, 1) x + (P_h, D_w, 1) x and then
    dz = (1, 1, P_d) u + (P_h, P_w, D_d) x of `convolve_separable` calls, 1
    the identity.  The passes that read x, a and b each run their smoothing
    and derivative products as one pair, so a volume takes 8 dense products,
    3 when `d_profiles` is None, as in an evaluation.  Only the contraction
    of dz with the (H, W, D) `weight` is kept.  The operators are built
    once per chunk, by the worker that runs it.  A `profiles`, or given
    `d_profiles`, without one entry per volume is a `ValueError`.

    The batch is cut into chunks of up to G = `_chunk_volumes` consecutive
    volumes, and each pass of a chunk is one broadcast product.  The
    workspace's workers, at most one per chunk and each with its own
    scratch rows, take the chunks in order from one queue, so a worker
    slowed by other load on its CPU takes fewer.  Every volume takes the
    same products whichever chunk or worker runs it, so the results do not
    depend on G, on the worker count or on which worker took which chunk.

    Every pass writes into `workspace.rows` (`Workspace`), which the caller
    owns and may pass to every call of a run: N result rows, then 3 scratch
    rows per volume of the largest chunk for each worker.  Nothing is read
    from it that this call did not write, so its prior contents never
    matter.  Rows that are too few, of other dims, or not C-ordered float64
    are a `ValueError`.  Without a workspace, the call makes its own.
    Returns the smoothed batch, a view into the rows that the next call
    given the same workspace overwrites, and the list of contractions, or
    None without `d_profiles`.
    """
    dims, n = volumes.shape[1:], len(volumes)
    if len(profiles) != n or (d_profiles is not None and len(d_profiles) != n):
        raise ValueError(f"{n} volumes need one profile each, and one derivative "
                         "profile each or None")
    if workspace is None:
        with Workspace(n, dims) as workspace:
            return smooth_batch(volumes, profiles, d_profiles, weight, workspace)
    chunks = range(0, n, _chunk_volumes(dims))
    workers = max(1, min(workspace.workers, len(chunks)))
    size = min(chunks.step, n)
    rows = workspace.rows
    if (len(rows) < n + 3 * size * workers or rows.shape[1:] != dims
            or rows.dtype != np.float64 or not rows.flags.c_contiguous):
        raise ValueError(f"workspace of shape {rows.shape} is too small for {n} "
                         f"volumes of {dims}, or not C-ordered float64")
    dots = None if d_profiles is None else [None] * n
    lock, queue = threading.Lock(), iter(chunks)

    def take():
        with lock:
            return next(queue, None)

    workspace._run([(_smooth_chunks, take, volumes, profiles, d_profiles, weight, rows,
                     n + 3 * size * w, size, dots) for w in range(workers)])
    return rows[:n], dots
