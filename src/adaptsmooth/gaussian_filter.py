"""Truncated, renormalized discrete 3D Gaussian filters.

The filter is isotropic, sampled on an integer grid of radius
``r = floor((t * sigma_f + 0.5) / 2)`` and renormalized to sum 1.  It is the
outer product of a renormalized 1D profile, which is all that separable
smoothing reads, so a filter is built as that profile and its analytic
derivative with respect to sigma_f at fixed support, which is what
backpropagation into the width-predicting network consumes.

The 3D weight cube and its derivative are built on first read.  Because the
raw sample at (x, y, z) depends only on the integer squared radius
x^2 + y^2 + z^2, they are built through a lookup over squared radii: all 48
octant/permutation symmetries then hold to the exact floating-point value.

At radius 0 the filter degenerates to the identity cell [1.0];
renormalization cancels sigma_f there, so the derivative is identically zero
and gradient flow is restored only by the stochastic width bump during
training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))  # 2.354820045...

DEFAULT_TRUNCATION = 4.0


@dataclass(frozen=True)
class GaussianFilter:
    sigma_f: float
    truncation_t: float
    radius: int
    profile_1d: np.ndarray       # (2r+1,) renormalized 1D profile
    d_profile_1d: np.ndarray     # (2r+1,) its sigma_f derivative

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    def _raw_cube(self):
        """Raw samples and their sigma_f derivative, keyed by integer squared
        radius so symmetric cells share the exact same float.  The
        1/(sqrt(2pi) sigma)^3 prefactor cancels in the renormalization and in
        the quotient-rule derivative."""
        r, sigma_f = self.radius, self.sigma_f
        sq = np.arange(-r, r + 1) ** 2
        s3 = sq[:, None, None] + sq[None, :, None] + sq[None, None, :]
        g = np.exp(-np.arange(3 * r * r + 1) * (1.0 / (2.0 * sigma_f * sigma_f)))[s3]
        return g, g * (s3 / sigma_f ** 3)

    @cached_property
    def weights(self) -> np.ndarray:
        """(2r+1, 2r+1, 2r+1) cube, sums to 1."""
        g, _ = self._raw_cube()
        return g / g.sum()

    @cached_property
    def d_weights_d_sigma(self) -> np.ndarray:
        """d(weights)/d(sigma_f), same shape, sums to 0."""
        g, gp = self._raw_cube()
        total = g.sum()
        return (gp * total - g * gp.sum()) / (total * total)


def filter_radius(sigma_f: float, t: float) -> int:
    return int(math.floor((t * sigma_f + 0.5) / 2.0))


def build_filter(sigma_f: float, t: float = DEFAULT_TRUNCATION) -> GaussianFilter:
    # the comparisons are false for NaN, so NaN fails every range check
    if not 0 < sigma_f < math.inf:
        raise DataError(f"sigma_f must be finite and positive, got {sigma_f}")
    if not 0 < t < math.inf:
        raise DataError(f"truncation t must be finite and positive, got {t}")
    if not t * sigma_f < math.inf:
        raise DataError(f"filter extent t * sigma_f overflows: t={t}, sigma_f={sigma_f}")
    r = filter_radius(sigma_f, t)
    sq = np.arange(-r, r + 1) ** 2
    g1 = np.exp(-sq * (1.0 / (2.0 * sigma_f * sigma_f)))
    g1p = g1 * (sq / sigma_f ** 3)
    s1 = g1.sum()
    s1p = g1p.sum()
    profile = g1 / s1
    d_profile = (g1p * s1 - g1 * s1p) / (s1 * s1)
    return GaussianFilter(sigma_f, t, r, profile, d_profile)


def single_cell_threshold(t: float) -> float:
    """sigma_f below this value produces the degenerate 1x1x1 filter, up to
    the rounding of the radius formula (`filter_radius` is exact)."""
    return 1.5 / t


def apply_degenerate_policy(sigma_f: float, t: float, p: float, rng=None) -> float:
    """Stochastically bump sigma_f by 1.0 when its filter is the single cell.

    A call with the Generator `rng` is a training step: with probability `p`
    a width whose filter radius is 0 is bumped.  A call without one never
    bumps, keeping inference deterministic.  The bump has pass-through
    derivative 1 with respect to sigma_f.
    """
    if not 0.0 <= p <= 1.0:
        raise DataError(f"bump probability must be in [0, 1], got {p}")
    if rng is not None and filter_radius(sigma_f, t) == 0 and rng.random() < p:
        return sigma_f + 1.0
    return sigma_f


def sigma_to_fwhm_mm(sigma_f: float, voxel_size_mm: float) -> float:
    if not (0 < sigma_f < math.inf and 0 < voxel_size_mm < math.inf):
        raise DataError("sigma_f and voxel size must be finite and positive")
    return FWHM_PER_SIGMA * sigma_f * voxel_size_mm


def fwhm_mm_to_sigma(fwhm_mm: float, voxel_size_mm: float) -> float:
    if not (0 < fwhm_mm < math.inf and 0 < voxel_size_mm < math.inf):
        raise DataError("FWHM and voxel size must be finite and positive")
    return fwhm_mm / (FWHM_PER_SIGMA * voxel_size_mm)


def dump_filter(f: GaussianFilter) -> str:
    """Text dump: one header line `sigma_f t radius`, then x-fastest weights."""
    lines = [f"{f.sigma_f:.17g} {f.truncation_t:.17g} {f.radius}"]
    flat = np.transpose(f.weights, (2, 0, 1)).ravel()
    lines.extend(f"{w:.17g}" for w in flat)
    return "\n".join(lines) + "\n"
