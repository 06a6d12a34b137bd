"""Truncated, renormalized discrete 3D Gaussian filters.

The filter is isotropic, sampled on an integer grid of radius
``r = floor((t * sigma_f + 0.5) / 2)`` and renormalized to sum 1.  It is the
outer product of a renormalized 1D profile, which is all that separable
smoothing reads.  A batch of widths is built at once (`build_profiles`), all
widths of one radius together, as the profiles and their analytic
derivatives with respect to sigma_f at fixed support, which is what
backpropagation into the width-predicting network consumes; `build_filter`
is the one-width case, which keeps the profile alone.

The 3D weight cube and its derivative are built on first read.  Because the
raw sample at (x, y, z) depends only on the integer squared radius
x^2 + y^2 + z^2, they are built through a lookup over squared radii: all 48
octant/permutation symmetries then hold to the exact floating-point value.

At radius 0 the filter degenerates to the identity cell [1.0];
renormalization cancels sigma_f there, so the derivative is identically
zero.  `width_range` gives the widths a trained width may take: from the
smallest of radius 1, which still has a gradient, to the largest whose
filter fits the volume.
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


def width_range(dims, t: float) -> tuple[float, float]:
    """(lo, hi): lo, about 1.5 / t, is the smallest width of radius 1, and
    hi the largest whose filter fits a volume of `dims`, side 2r + 1 <= min dim."""
    if min(dims) < 3:
        raise DataError(f"no filter of radius 1 fits volumes of dims {tuple(dims)}; "
                        "every dim must be >= 3")
    r_max = (min(dims) - 1) // 2
    lo = 1.5 / t
    while filter_radius(lo, t) < 1:  # t * (1.5 / t) rounds below 1.5 for some t
        lo = math.nextafter(lo, math.inf)
    return lo, (2.0 * r_max + 1.4) / t


def build_profiles(sigmas, t: float = DEFAULT_TRUNCATION, max_side: int | None = None):
    """The profiles of the widths `sigmas` and their sigma_f derivatives,
    computed at once for all widths of one radius.

    Returns (radii, profiles, d_profiles), one entry per width in order;
    each profile is a row of its radius group's array.  With `max_side`, a
    width whose filter side 2r + 1 exceeds it is refused before any array
    is made.  The cube sigma_f^3 is a Python float power per width: numpy's
    array power rounds differently for some widths.
    """
    radii = []
    groups = {}  # radius -> its widths' indices, 1 / (2 sigma_f^2) and sigma_f^3
    for i, sigma_f in enumerate(np.asarray(sigmas, dtype=np.float64).tolist()):
        # the comparisons are false for NaN, so NaN fails every range check
        if not 0 < sigma_f < math.inf:
            raise DataError(f"sigma_f must be finite and positive, got {sigma_f}")
        if not 0 < t < math.inf:
            raise DataError(f"truncation t must be finite and positive, got {t}")
        if not t * sigma_f < math.inf:
            raise DataError(f"filter extent t * sigma_f overflows: t={t}, sigma_f={sigma_f}")
        r = filter_radius(sigma_f, t)
        if max_side is not None and 2 * r + 1 > max_side:
            raise DataError(f"sigma_f {sigma_f} at t={t}: filter side {2 * r + 1} "
                            f"exceeds {max_side}")
        # squared radius / sigma_f^3 must fit float64 up to the cube's corner, 3r^2
        cube = sigma_f ** 3
        if not (cube > 0 and 3.0 * r * r / cube < math.inf):
            raise DataError(f"sigma_f {sigma_f} at t={t}: the filter derivative "
                            "does not fit float64")
        radii.append(r)
        rows, inv, cubes = groups.setdefault(r, ([], [], []))
        rows.append(i)
        inv.append(1.0 / (2.0 * sigma_f * sigma_f))
        cubes.append(cube)
    profiles, d_profiles = [None] * len(radii), [None] * len(radii)
    for r, (rows, inv, cubes) in groups.items():
        sq = np.arange(-r, r + 1) ** 2
        g1 = np.exp(-sq * np.array(inv)[:, None])
        g1p = g1 * (sq / np.array(cubes)[:, None])
        s1 = np.add.reduce(g1, axis=1, keepdims=True)
        s1p = np.add.reduce(g1p, axis=1, keepdims=True)
        group = g1 / s1
        d_group = (g1p * s1 - g1 * s1p) / (s1 * s1)
        for k, i in enumerate(rows):
            profiles[i], d_profiles[i] = group[k], d_group[k]
    return radii, profiles, d_profiles


def build_filter(sigma_f: float, t: float = DEFAULT_TRUNCATION,
                 max_side: int | None = None) -> GaussianFilter:
    """The filter of width `sigma_f` at truncation `t`: the one-width case
    of `build_profiles`, with the same `max_side` check."""
    (r,), (profile,), _ = build_profiles([sigma_f], t, max_side)
    return GaussianFilter(sigma_f, t, r, profile)


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
