"""Width-predicting network: Laplacian noise feature plus a learned head.

A fixed separable Laplacian kernel measures per-volume noise as the mean
absolute response over the volume interior (valid mode, so faces contribute
nothing).  A two-layer head with an exponential output then maps that scalar
feature to a strictly positive smoothing width.  The head maps a batch's
features in one call (`map_to_sigmas`), and its gradient is summed over the
batch in one call (`map_to_sigmas_backward`); `map_to_sigma` is the
one-feature case of the former.
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

# Pre-activation clamp protecting exp(); generous enough to never bind in
# normal training (`map_to_sigmas` returns how many bound).
PREACT_MIN = -10.0
PREACT_MAX = 6.0


@dataclass
class ParamsNetWeights:
    a: np.ndarray  # (M,) first-layer weights
    b: np.ndarray  # (M,) first-layer biases
    v: np.ndarray  # (M,) second-layer weights
    c: float       # second-layer bias

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

    @property
    def m(self) -> int:
        return self.a.size


def init_weights(m: int = 50, seed: int = 0) -> ParamsNetWeights:
    """All weights sampled N(0, 0.09), i.e. std 0.3."""
    rng = np.random.default_rng(seed)
    std = 0.3
    return ParamsNetWeights(
        a=rng.normal(0.0, std, m),
        b=rng.normal(0.0, std, m),
        v=rng.normal(0.0, std, m),
        c=float(rng.normal(0.0, std)),
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
    """The hidden rows u_i = a f_i + b, one per feature, the pre-activations
    v . u_i + c, one np.dot per row (a matrix-vector product rounds
    differently), and the mask of those inside the clamp range."""
    u = np.asarray(features, dtype=np.float64).reshape(-1, 1) * w.a + w.b
    pre = np.array([float(np.dot(w.v, row) + w.c) for row in u])
    return u, pre, ~((pre < PREACT_MIN) | (pre > PREACT_MAX))


def map_to_sigmas(features, w: ParamsNetWeights):
    """Map each noise feature to a strictly positive filter width.  Returns
    the widths and the number of clamped pre-activations."""
    features = np.asarray(features, dtype=np.float64)
    if not np.isfinite(features).all():
        raise DataError(f"non-finite feature {features[~np.isfinite(features)][0]}")
    _, pre, live = _preactivations(features, w)
    # math.exp per width: np.exp rounds some widths differently
    widths = np.array([math.exp(p) for p in np.clip(pre, PREACT_MIN, PREACT_MAX).tolist()])
    return widths, int(np.count_nonzero(~live))


def map_to_sigma(feature: float, w: ParamsNetWeights) -> float:
    """The width `map_to_sigmas` maps one feature to."""
    return float(map_to_sigmas([feature], w)[0][0])


def map_to_sigmas_backward(features, w: ParamsNetWeights, upstream_dl_dsigma):
    """Gradients of the feature-to-width map, summed over the features.

    `upstream_dl_dsigma` holds dL/dsigma of each feature's width.  Returns
    (dL/da, dL/db, dL/dv, dL/dc); the feature is a fixed Laplacian
    response, so nothing upstream of it trains.  A clamped pre-activation
    has zero gradient.  The sum over features is one axis-0 sum of the
    per-feature rows, which adds them in order.
    """
    features = np.asarray(features, dtype=np.float64).reshape(-1, 1)
    u, pre, live = _preactivations(features, w)
    s = np.array([math.exp(p) for p in pre[live].tolist()])
    g = (np.asarray(upstream_dl_dsigma, dtype=np.float64)[live] * s)[:, None]
    # one row [dL/da | dL/db | dL/dv | dL/dc] per live feature
    rows = np.hstack([g * w.v * features[live], g * w.v, g * u[live], g])
    total = rows.sum(axis=0)
    m = w.m
    return total[:m], total[m:2 * m], total[2 * m:3 * m], float(total[3 * m])


def save_weights(w: ParamsNetWeights, path):
    """Checkpoint: line 1 is M, then a, b, v one line each, then c."""
    write_rows(path, w.m, w.a, w.b, w.v, w.c)


def load_weights(path) -> ParamsNetWeights:
    m, a, b, v, c = read_rows(path, 5)
    if not (m.size == c.size == 1 and a.size == b.size == v.size == m[0]):
        raise DataError(f"{path}: layer width mismatch")
    return ParamsNetWeights(a, b, v, float(c[0]))
