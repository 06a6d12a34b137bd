"""Synthetic two-class volumetric dataset generator.

Each simulated subject shares a smooth anatomy background (a sum of three
broad Gaussian blobs); the class signal is an additive Gaussian blob placed
left of the x midline for class 0 and mirrored right for class 1, far enough
apart that over-smoothing does not mix the two.  Volumes are normalized to
[0, 1] per subject and noisy copies are emitted at the configured levels.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .volume_io import (
    SPLITS,
    DatasetManifest,
    ManifestEntry,
    Volume,
    add_gaussian_noise,
    write_manifest,
    write_volume,
)


@dataclass
class PhantomSpec:
    dims: tuple[int, int, int] = (24, 24, 24)
    n_subjects: int = 8
    volumes_per_subject_per_class: int = 6
    amplitude: float = 0.15          # class blob height, fraction of dynamic range
    blob_radius: float = 2.5         # Gaussian blob profile sigma, voxels
    center_offset_x: int = 6         # class centers at x = mid -/+ offset
    jitter_voxels: int = 1           # per-subject uniform center jitter
    noise_levels: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3)
    split_counts: tuple[int, int, int] = (6, 1, 1)  # train/validation/test subjects
    voxel_size_mm: float = 3.0

    @property
    def support_radius(self) -> float:
        """Class blobs are truncated to zero at this radius (support diameter 3*rho)."""
        return 1.5 * self.blob_radius

    def validate(self):
        if len(self.dims) != 3 or len(self.split_counts) != 3:
            raise DataError("dims and split_counts need 3 values each")
        if min(self.dims) < 3 or min(self.split_counts) < 1:
            raise DataError("every dim must be >= 3 and every split count >= 1")
        if self.jitter_voxels < 0:
            raise DataError("jitter_voxels must be >= 0")
        # the comparisons are false for NaN, so NaN fails both checks
        if not 0 < self.blob_radius < math.inf:
            raise DataError("blob_radius must be finite and > 0")
        if not -math.inf < self.amplitude < math.inf:
            raise DataError("amplitude must be finite")
        if not all(0 <= n < math.inf for n in self.noise_levels):
            raise DataError("noise levels must be finite and >= 0")
        tags = [_noise_tag(n) for n in self.noise_levels]
        clash = [n for n, tag in zip(self.noise_levels, tags) if tags.count(tag) > 1]
        if clash:
            raise DataError(f"noise levels {', '.join(map(repr, clash))} share a "
                            "volume file name, which prints each level as %g")
        if not 0 < self.voxel_size_mm < math.inf:
            raise DataError("voxel_size_mm must be finite and > 0")
        h, w, d = self.dims
        mid = w / 2.0
        reach = self.support_radius + self.jitter_voxels
        # the two class blob supports must not overlap and must clear the faces
        if 2.0 * self.center_offset_x < 2.0 * reach:
            raise DataError("class blob supports overlap")
        for cx in (mid - self.center_offset_x, mid + self.center_offset_x):
            if cx < 3 or cx > w - 3:
                raise DataError("blob center too close to a volume face")
            if cx - reach < 0 or cx + reach > w - 1:
                raise DataError("blob support leaves the volume")
        if sum(self.split_counts) != self.n_subjects:
            raise DataError("split counts must sum to n_subjects")
        if self.volumes_per_subject_per_class < 1 or self.n_subjects < 3:
            raise DataError("need >= 1 volume per class and >= 3 subjects")


def _noise_tag(noise: float) -> str:
    """A noise level as its volumes' file names print it."""
    return f"{noise:g}"


def _blob(dims, center, sigma, support_radius=None):
    h, w, d = dims
    hh = (np.arange(h) - center[0]) ** 2
    ww = (np.arange(w) - center[1]) ** 2
    dd = (np.arange(d) - center[2]) ** 2
    sq = hh[:, None, None] + ww[None, :, None] + dd[None, None, :]
    out = np.exp(-sq / (2.0 * sigma * sigma))
    if support_radius is not None:
        out[sq > support_radius * support_radius] = 0.0
    return out


def _anatomy(dims):
    h, w, d = dims
    base = 0.4 * _blob(dims, (h / 2, w / 2, d / 2), 0.35 * min(dims))
    base += 0.25 * _blob(dims, (h * 0.35, w * 0.5, d * 0.6), 0.22 * min(dims))
    base += 0.2 * _blob(dims, (h * 0.65, w * 0.45, d * 0.4), 0.2 * min(dims))
    return base


def generate(spec: PhantomSpec, out_dir, seed: int = 0) -> DatasetManifest:
    """Write VOL1 volumes plus a manifest CSV; deterministic per seed.  The
    files are written into a directory beside `out_dir` and moved in only
    once every write has succeeded, so a failing call leaves `out_dir` as it
    was found."""
    spec.validate()
    out = Path(out_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    h, w, d = spec.dims
    k = spec.volumes_per_subject_per_class
    anatomy = _anatomy(spec.dims)

    split_names = [name for name, n in zip(SPLITS, spec.split_counts) for _ in range(n)]
    manifest = DatasetManifest()
    mid = w / 2.0
    # each subject's noiseless volumes, label 0's k then label 1's: one
    # array that every subject overwrites, so its pages fault in once
    masters = np.empty((2 * k, h, w, d))

    with tempfile.TemporaryDirectory(prefix=f".{out.name}-", dir=out.parent) as tmp:
        tmp = Path(tmp)
        for si in range(spec.n_subjects):
            sid = f"sub{si:02d}"
            manifest.split[sid] = split_names[si]
            jitter = rng.integers(-spec.jitter_voxels, spec.jitter_voxels + 1, size=3)
            centers = {
                0: (h / 2 + jitter[0], mid - spec.center_offset_x + jitter[1], d / 2 + jitter[2]),
                1: (h / 2 + jitter[0], mid + spec.center_offset_x + jitter[1], d / 2 + jitter[2]),
            }
            for label in (0, 1):
                signal = spec.amplitude * _blob(spec.dims, centers[label], spec.blob_radius,
                                                spec.support_radius)
                # small per-volume amplitude wobble so scans are not identical
                scales = 1.0 + 0.1 * rng.standard_normal(k)
                # written in place, no (k, H, W, D) temporary: the sum
                # commutes bit for bit
                rows = masters[label * k:(label + 1) * k]
                np.multiply(scales[:, None, None, None], signal, out=rows)
                rows += anatomy
            # normalized to [0, 1] by the extrema shared by all the subject's volumes
            lo, hi = masters.min(), masters.max()
            masters -= lo
            masters *= 1.0 / (hi - lo)
            for idx, master in enumerate(masters):
                for noise in spec.noise_levels:
                    noise_seed = int(rng.integers(0, 2**31 - 1))
                    name = f"{sid}_v{idx:03d}_n{_noise_tag(noise)}.vol"
                    noisy = add_gaussian_noise(Volume(master, spec.voxel_size_mm),
                                               noise, noise_seed)
                    write_volume(noisy, tmp / name)
                    manifest.entries.append(ManifestEntry(name, idx // k, sid, noise))

        write_manifest(manifest, tmp / "manifest.csv")
        out.mkdir(exist_ok=True)
        for path in tmp.iterdir():
            path.replace(out / path.name)
    return manifest


def separability_weights(spec: PhantomSpec):
    """Hand-built oracle weight vector: +1 on class-1 blob voxels, -1 on class-0.

    A linear classifier with these weights separates the noiseless phantoms,
    which pins down that the generated dataset is linearly separable.
    """
    h, w, d = spec.dims
    mid = w / 2.0
    support = spec.support_radius + spec.jitter_voxels
    wvec = np.zeros(spec.dims)
    for sign, cx in ((-1.0, mid - spec.center_offset_x), (1.0, mid + spec.center_offset_x)):
        sq = ((np.arange(h) - h / 2) ** 2)[:, None, None] \
            + ((np.arange(w) - cx) ** 2)[None, :, None] \
            + ((np.arange(d) - d / 2) ** 2)[None, None, :]
        wvec += sign * (sq <= support * support)
    return wvec.ravel()
