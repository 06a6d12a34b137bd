"""Gaussian filters: the truncated filter and the Dirichlet heat kernel.

The truncated filter is isotropic, sampled on an integer grid of radius
``r = floor((t * sigma_f + 0.5) / 2)`` and renormalized to sum 1.  It is the
outer product of a renormalized 1D profile, which is all that separable
smoothing reads (`build_filter`).  The `smooth` and `inspect-filter`
commands smooth with it and print it.

Its 3D weight cube is built on first read.  Because the raw sample at
(x, y, z) depends only on the integer squared radius x^2 + y^2 + z^2, it is
built through a lookup over squared radii: all 48 octant/permutation
symmetries then hold to the exact floating-point value.  At radius 0 the
filter degenerates to the identity cell [1.0].

Training and evaluation smooth with the discrete Gaussian of scale-space
theory (Lindeberg 1990) instead: per axis of length n the heat kernel
K_sigma = exp(sigma^2 L / 2), L the zero-padded [1, -2, 1] matrix, whose
variance is sigma^2 away from the edges.  The orthonormal DST-I matrix S
(`sine_basis`) diagonalizes L, so K_sigma = S diag(e) S with the gains
e = exp(sigma^2 lam / 2) (`heat_gains`), and dK_sigma/dsigma = sigma L
K_sigma exactly.  `width_range` gives the widths a trained width may take:
from the smallest whose truncated filter has radius 1 to the largest whose
truncated filter fits the volume.
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

    @cached_property
    def weights(self) -> np.ndarray:
        """(2r+1, 2r+1, 2r+1) cube, sums to 1: raw samples keyed by integer
        squared radius, so symmetric cells share the exact same float.  The
        1/(sqrt(2pi) sigma)^3 prefactor cancels in the renormalization."""
        r, sigma_f = self.radius, self.sigma_f
        sq = np.arange(-r, r + 1) ** 2
        s3 = sq[:, None, None] + sq[None, :, None] + sq[None, None, :]
        g = np.exp(-np.arange(3 * r * r + 1) * (1.0 / (2.0 * sigma_f * sigma_f)))[s3]
        return g / g.sum()


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


def check_width(sigma_f: float, t: float = DEFAULT_TRUNCATION,
                max_side: int | None = None) -> int:
    """The radius of the truncated filter of width `sigma_f` at truncation
    `t`, once the width is checked: finite and positive, with a finite
    extent t * sigma_f, a side 2r + 1 of at most `max_side` when given, and
    the float64 range the filter's sigma_f derivative needed.  A width that
    fails is a `DataError` naming it, before any array is made."""
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
    # squared radius / sigma_f^3 must fit float64 up to the cube's corner,
    # 3r^2, as the derivative the filter once carried needed; every command
    # still refuses these widths, and the rule keeps 1 / (2 sigma_f^2) and
    # every exponent of the profile finite; a product, as a float power
    # raises OverflowError where this overflows to inf
    cube = sigma_f * sigma_f * sigma_f
    if not (0 < cube < math.inf and 3.0 * r * r / cube < math.inf):
        raise DataError(f"sigma_f {sigma_f} at t={t}: the filter derivative "
                        "does not fit float64")
    return r


def build_filter(sigma_f: float, t: float = DEFAULT_TRUNCATION,
                 max_side: int | None = None) -> GaussianFilter:
    """The filter of width `sigma_f` at truncation `t`, the width checked
    first (`check_width`, with `max_side`): its profile
    exp(-x^2 / (2 sigma_f^2)) over x = -r..r, renormalized to sum 1."""
    sigma_f = float(sigma_f)
    r = check_width(sigma_f, t, max_side)
    g1 = np.exp(-np.arange(-r, r + 1) ** 2 * (1.0 / (2.0 * sigma_f * sigma_f)))
    return GaussianFilter(sigma_f, t, r, g1 / np.add.reduce(g1))


def sine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, lam) of an axis of length `n`: the orthonormal DST-I matrix
    S[j, k] = sqrt(2 / (n + 1)) sin(pi (j + 1)(k + 1) / (n + 1)), which is
    symmetric and its own inverse, and the eigenvalues
    lam_k = -4 sin^2(pi (k + 1) / (2 (n + 1))) of the zero-padded
    [1, -2, 1] matrix, L = S diag(lam) S.  The sine has period 2 (n + 1) in
    the integer m = (j + 1)(k + 1), so S is read from one table of it, each
    argument below 2 pi."""
    k, period = np.arange(1, n + 1), 2 * (n + 1)
    table = math.sqrt(2.0 / (n + 1)) * np.sin(np.arange(period) * (math.pi / (n + 1)))
    return table[np.outer(k, k) % period], -4.0 * np.sin(k * (math.pi / period)) ** 2


def heat_gains(sigmas, lam: np.ndarray) -> np.ndarray:
    """exp(sigma^2 lam / 2) of each width of `sigmas` (a row of gains per
    width, or one row for a scalar) and each eigenvalue of `lam`
    (`sine_basis`): the heat kernel of width sigma along the axis is
    K_sigma = S diag(gains) S, so smoothing multiplies each sine
    coefficient by its gain."""
    s = np.asarray(sigmas, dtype=np.float64)
    return np.exp(np.multiply.outer(0.5 * s * s, lam))


def heat_kernel(sigma_f: float, n: int) -> np.ndarray:
    """K_sigma = S diag(exp(sigma_f^2 lam / 2)) S of an axis of length `n`,
    the n x n matrix of the heat kernel (`sine_basis`, `heat_gains`)."""
    s, lam = sine_basis(n)
    return (s * heat_gains(sigma_f, lam)) @ s


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
