"""Width-predicting network: Laplacian noise feature plus a learned head.

A fixed separable Laplacian kernel measures per-volume noise as the mean
absolute response over the volume interior (valid mode, so faces contribute
nothing).  A two-layer head with an exponential output then maps that scalar
feature to a strictly positive smoothing width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from .errors import DataError

LAPLACIAN_1D = np.array([1.0, -2.0, 1.0])

# outer product [1,-2,1] x [1,-2,1] x [1,-2,1]; sum 0, sum of squares 216
LAPLACIAN_KERNEL = (
    LAPLACIAN_1D[:, None, None] * LAPLACIAN_1D[None, :, None] * LAPLACIAN_1D[None, None, :]
)

# Mean absolute Laplacian response of unit iid Gaussian noise:
# response std = sqrt(sum of squared kernel entries), mean-abs = std * sqrt(2/pi).
NOISE_CALIBRATION = math.sqrt(216.0) * math.sqrt(2.0 / math.pi)

# Pre-activation clamp protecting exp(); generous enough to never bind in
# normal training (bind events are counted by the caller).
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
    resp = data
    for axis in range(3):
        resp = correlate1d(resp, LAPLACIAN_1D, axis=axis, mode="constant", cval=0.0)
    interior = resp[1:-1, 1:-1, 1:-1]
    return float(np.abs(interior).mean())


def calibrated_noise_estimate(x) -> float:
    """Noise std estimate for reporting: the feature divided by its iid-noise
    expectation at unit sigma.  Diagnostic only, not part of the training graph."""
    return noise_feature(x) / NOISE_CALIBRATION


def _preactivation(feature: float, w: ParamsNetWeights):
    u = w.a * feature + w.b
    return u, float(np.dot(w.v, u) + w.c)


def map_to_sigma(feature: float, w: ParamsNetWeights, events=None) -> float:
    """Map the noise feature to a strictly positive filter width; a clamped
    pre-activation adds one to the `events` counter's "clamp"."""
    if not math.isfinite(feature):
        raise DataError(f"non-finite feature {feature}")
    _, pre = _preactivation(feature, w)
    if pre < PREACT_MIN or pre > PREACT_MAX:
        if events is not None:
            events["clamp"] += 1
        pre = min(max(pre, PREACT_MIN), PREACT_MAX)
    return math.exp(pre)


def map_to_sigma_backward(feature: float, w: ParamsNetWeights,
                          upstream_dl_dsigma: float):
    """Gradients of the feature-to-width map.

    Returns (dL/da, dL/db, dL/dv, dL/dc); the feature is a fixed Laplacian
    response, so nothing upstream of it trains.  A clamped pre-activation
    has zero gradient.
    """
    u, pre = _preactivation(feature, w)
    if pre < PREACT_MIN or pre > PREACT_MAX:
        z = np.zeros(w.m)
        return z, z.copy(), z.copy(), 0.0
    s = math.exp(pre)
    g = upstream_dl_dsigma * s
    dv = g * u
    db = g * w.v
    da = g * w.v * feature
    return da, db, dv, g


def save_weights(w: ParamsNetWeights, path):
    """Checkpoint: line 1 is M, then a, b, v one line each, then c."""
    with open(path, "w") as f:
        f.write(f"{w.m}\n")
        for arr in (w.a, w.b, w.v):
            f.write(" ".join(f"{x:.17g}" for x in arr) + "\n")
        f.write(f"{w.c:.17g}\n")


def load_weights(path) -> ParamsNetWeights:
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if len(lines) != 5:
        raise DataError(f"{path}: expected 5 lines, got {len(lines)}")
    try:
        m = int(lines[0])
        a, b, v = (np.array([float(x) for x in lines[i].split()]) for i in (1, 2, 3))
        c = float(lines[4])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not (a.size == b.size == v.size == m):
        raise DataError(f"{path}: layer width mismatch")
    return ParamsNetWeights(a, b, v, c)
