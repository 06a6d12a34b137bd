"""Width-predicting network: Laplacian noise feature plus a learned head.

A fixed separable Laplacian kernel measures per-volume noise as the mean
absolute response over the volume interior (valid mode, so faces contribute
nothing).  A two-layer head then maps that scalar feature to a width in the
weights' range [lo, hi], sigma = lo + (hi - lo) sigmoid(pre + off): every
width has a gradient and a filter that fits the volume, and the offset puts
pre = 0 at width 1 (`train` sets the range from `width_range`).  The head
maps a batch's features in one call (`map_to_sigmas`), and its gradient is
summed over the batch in one call (`map_to_sigmas_backward`), which takes
the forward pass's state from `head_forward` or recomputes it;
`map_to_sigma` is the one-feature case of the former.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conv3d import convolve_separable
from .errors import DataError
from .volume_io import read_rows, write_rows

# the 3D kernel is the outer product [1,-2,1] x [1,-2,1] x [1,-2,1]:
# sum 0, sum of squares 6^3 = 216
LAPLACIAN_1D = np.array([1.0, -2.0, 1.0])

# Mean absolute Laplacian response of unit iid Gaussian noise:
# response std = sqrt(sum of squared kernel entries), mean-abs = std * sqrt(2/pi).
NOISE_CALIBRATION = math.sqrt(216.0) * math.sqrt(2.0 / math.pi)


@dataclass
class ParamsNetWeights:
    a: np.ndarray  # (M,) first-layer weights
    b: np.ndarray  # (M,) first-layer biases
    v: np.ndarray  # (M,) second-layer weights
    c: float       # second-layer bias
    lo: float      # smallest width
    hi: float      # largest width

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if not (self.a.shape == self.b.shape == self.v.shape) or self.a.ndim != 1:
            raise DataError("a, b, v must be 1D arrays of equal length")
        if self.a.size < 1:
            raise DataError("layer width M must be >= 1")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()
                and np.isfinite(self.v).all() and np.isfinite(self.c)):
            raise DataError("non-finite weight")
        # the comparisons are false for NaN, so NaN fails the range check
        if not 0 < self.lo < self.hi < math.inf:
            raise DataError(f"width range must be finite with 0 < lo < hi, "
                            f"got lo={self.lo}, hi={self.hi}")

    @property
    def m(self) -> int:
        return self.a.size


def init_weights(m: int, seed: int, lo: float, hi: float) -> ParamsNetWeights:
    """All weights sampled N(0, 0.09), i.e. std 0.3, mapping into [lo, hi]."""
    rng = np.random.default_rng(seed)
    std = 0.3
    return ParamsNetWeights(
        a=rng.normal(0.0, std, m),
        b=rng.normal(0.0, std, m),
        v=rng.normal(0.0, std, m),
        c=float(rng.normal(0.0, std)),
        lo=lo,
        hi=hi,
    )


def noise_feature(x) -> float:
    """Mean absolute Laplacian response over the volume interior.

    Valid-mode convolution: only the (H-2)(W-2)(D-2) fully-covered positions
    are averaged, so edges inject no spurious response.  The raw feature is
    returned unscaled; the learned head absorbs calibration.
    """
    data = np.asarray(x, dtype=np.float64)
    if min(data.shape) < 3:
        raise DataError(f"noise_feature needs every dim >= 3, got {data.shape}")
    interior = convolve_separable(data, LAPLACIAN_1D)[1:-1, 1:-1, 1:-1]
    return float(np.abs(interior).mean())


def _preactivations(features, w: ParamsNetWeights):
    """The hidden rows u_i = a f_i + b, one per feature, and the
    pre-activations v . u_i + c in one np.vecdot call, which takes the BLAS
    dot of each row that np.dot of that row takes (a matrix-vector product
    rounds differently)."""
    u = np.asarray(features, dtype=np.float64).reshape(-1, 1) * w.a + w.b
    return u, np.vecdot(u, w.v) + w.c


def _sigmoids(pre, w: ParamsNetWeights) -> np.ndarray:
    """q = sigmoid(pre + off) of each pre-activation, as 0.5 (1 + tanh(x/2)),
    which does not overflow where 1 / (1 + exp(-x)) does; math.tanh per
    width, as np.tanh rounds some widths differently.  The offset
    off = log((s0 - lo) / (hi - s0)) maps pre = 0 to s0 = 1 where
    lo < 1 < hi, else to the range's midpoint."""
    lo, hi = w.lo, w.hi
    s0 = 1.0 if lo < 1.0 < hi else 0.5 * (lo + hi)
    off = math.log((s0 - lo) / (hi - s0))
    return np.array([0.5 * (1.0 + math.tanh(0.5 * (p + off))) for p in pre.tolist()])


def head_forward(features, w: ParamsNetWeights):
    """The widths `map_to_sigmas` maps `features` to, and the state that
    `map_to_sigmas_backward` reads for them: the hidden rows u and the
    sigmoids q."""
    features = np.asarray(features, dtype=np.float64)
    if not np.isfinite(features).all():
        raise DataError(f"non-finite feature {features[~np.isfinite(features)][0]}")
    u, pre = _preactivations(features, w)
    q = _sigmoids(pre, w)
    return w.lo + (w.hi - w.lo) * q, (u, q)


def map_to_sigmas(features, w: ParamsNetWeights) -> np.ndarray:
    """Map each noise feature to a filter width in [w.lo, w.hi]."""
    return head_forward(features, w)[0]


def map_to_sigma(feature: float, w: ParamsNetWeights) -> float:
    """The width `map_to_sigmas` maps one feature to."""
    return float(map_to_sigmas([feature], w)[0])


def map_to_sigmas_backward(features, w: ParamsNetWeights, upstream_dl_dsigma, state=None):
    """Gradients of the feature-to-width map, summed over the features.

    `upstream_dl_dsigma` holds dL/dsigma of each feature's width, and
    `state` is `head_forward`'s for the same features and weights, or None
    to recompute it.  Returns (dL/da, dL/db, dL/dv, dL/dc); the feature is
    a fixed Laplacian response, so nothing upstream of it trains.
    dsigma/dpre is (hi - lo) q (1 - q), exactly 0 where the sigmoid
    saturates.  The sum over features is one axis-0 sum of the per-feature
    rows, which adds them in order.
    """
    features = np.asarray(features, dtype=np.float64).reshape(-1, 1)
    u, q = state if state is not None else head_forward(features, w)[1]
    slope = (w.hi - w.lo) * q * (1.0 - q)
    g = (np.asarray(upstream_dl_dsigma, dtype=np.float64) * slope)[:, None]
    # one row [dL/da | dL/db | dL/dv | dL/dc] per feature
    rows = np.hstack([g * w.v * features, g * w.v, g * u, g])
    total = rows.sum(axis=0)
    m = w.m
    return total[:m], total[m:2 * m], total[2 * m:3 * m], float(total[3 * m])


def save_weights(w: ParamsNetWeights, path):
    """Checkpoint: line 1 is M, then a, b, v one line each, then c, then
    the width range "lo hi"."""
    write_rows(path, w.m, w.a, w.b, w.v, w.c, (w.lo, w.hi))


def load_weights(path) -> ParamsNetWeights:
    m, a, b, v, c, span = read_rows(path, 6)
    if not (m.size == c.size == 1 and a.size == b.size == v.size == m[0]):
        raise DataError(f"{path}: layer width mismatch")
    if span.size != 2:
        raise DataError(f"{path}: expected the width range \"lo hi\" on line 6")
    try:
        return ParamsNetWeights(a, b, v, float(c[0]), float(span[0]), float(span[1]))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
