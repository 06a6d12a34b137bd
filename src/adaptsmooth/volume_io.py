"""Volume data type, file formats, dataset manifests, config files,
checkpoint rows, normalization and noise.

Voxel ordering convention: the in-memory array is indexed ``data[h, w, d]``
(height, width, depth).  On disk and in any flattened view the order is
x-fastest: x (width) varies fastest, then y (height), then z (depth), so the
flat index of voxel (h, w, d) is ``w + W * (h + H * d)``.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DataError

VOL1_MAGIC = b"VOL1"
# the float32 range as float64, so comparing with it casts nothing
_F32_MAX = float(np.finfo(np.float32).max)
_F32_TINY = float(np.finfo(np.float32).smallest_subnormal)

SPLITS = ("train", "validation", "test")  # the manifest's split names

_NIFTI_HEADER_SIZE = 348
_NIFTI_DTYPES = {4: np.dtype("<i2"), 16: np.dtype("<f4")}


@dataclass
class Volume:
    """Dense 3D scalar field of voxel intensities."""

    data: np.ndarray  # shape (H, W, D), float64
    voxel_size_mm: float = 3.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise DataError(f"volume data must be 3D, got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise DataError(f"volume dims must be positive, got {self.data.shape}")
        if not 0 < self.voxel_size_mm < math.inf:
            raise DataError(f"voxel size must be finite and positive, got {self.voxel_size_mm}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def flat_x_fastest(self) -> np.ndarray:
        """Flattened copy in x-fastest (w, then h, then d) order."""
        return np.transpose(self.data, (2, 0, 1)).ravel()

    @staticmethod
    def from_flat_x_fastest(flat, dims, voxel_size_mm=3.0, out=None) -> "Volume":
        """The volume of x-fastest `flat` data, converted in one copy into
        `out` (a C-ordered float64 array of shape `dims`) or a new array."""
        h, w, d = dims
        if out is None:
            out = np.empty(dims)
        out[...] = np.transpose(np.asarray(flat).reshape(d, h, w), (1, 2, 0))
        return Volume(out, voxel_size_mm)


@dataclass
class ManifestEntry:
    path: str
    label: int
    subject_id: str
    noise_level: float


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry] = field(default_factory=list)
    split: dict[str, str] = field(default_factory=dict)  # subject_id -> split name

    def validate(self):
        for e in self.entries:
            if e.label not in (0, 1):
                raise DataError(f"label must be 0 or 1, got {e.label} for {e.path}")
            if e.noise_level < 0:
                raise DataError(f"negative noise level for {e.path}")
            if e.subject_id not in self.split:
                raise DataError(f"subject {e.subject_id} has no split assignment")
        for sid, sp in self.split.items():
            if sp not in SPLITS:
                raise DataError(f"unknown split {sp!r} for subject {sid}")


def normalize_subject(volumes: list[Volume]) -> list[Volume]:
    """Rescale a subject's volumes to [0, 1] using the shared extrema.

    The minimum and maximum are taken over all voxels of all volumes in the
    list, so relative intensities across the subject's scans are preserved.
    """
    if not volumes:
        raise DataError("normalize_subject: empty volume list")
    dims = volumes[0].dims
    for v in volumes[1:]:
        if v.dims != dims:
            raise DataError(f"dim mismatch: {v.dims} vs {dims}")
    lo = min(float(v.data.min()) for v in volumes)
    hi = max(float(v.data.max()) for v in volumes)
    if hi <= lo:
        raise DataError("normalize_subject: constant data (max == min)")
    scale = 1.0 / (hi - lo)
    return [Volume((v.data - lo) * scale, v.voxel_size_mm) for v in volumes]


def add_gaussian_noise(v: Volume, sigma: float, seed: int) -> Volume:
    """Add iid zero-mean Gaussian noise to every voxel. Deterministic per seed.

    The result is intentionally not re-clipped to [0, 1]: clipping would bias
    downstream noise estimation.
    """
    if not 0 <= sigma < math.inf:
        raise DataError(f"noise sigma must be finite and >= 0, got {sigma}")
    if sigma == 0:
        return Volume(v.data.copy(), v.voxel_size_mm)
    rng = np.random.default_rng(seed)
    return Volume(v.data + rng.normal(0.0, sigma, size=v.dims), v.voxel_size_mm)


def write_volume(v: Volume, path):
    """Write a volume in the native VOL1 format (float32 header and payload).

    A voxel size or voxel value that float32 cannot hold (finite and, for
    the voxel size, nonzero) is rejected before the file is opened."""
    h, w, d = v.dims
    if not _F32_TINY <= v.voxel_size_mm <= _F32_MAX:
        raise DataError(f"{path}: voxel size {v.voxel_size_mm} does not fit float32")
    flat = v.flat_x_fastest()
    # the comparison is false for NaN, so NaN is rejected too
    if not (np.abs(flat) <= _F32_MAX).all():
        raise DataError(f"{path}: voxel values do not fit float32")
    with open(path, "wb") as f:
        f.write(VOL1_MAGIC)
        f.write(struct.pack("<IIIf", h, w, d, v.voxel_size_mm))
        f.write(flat.astype("<f4").tobytes())


def _check_finite(voxels: np.ndarray, path):
    if not np.isfinite(voxels).all():
        raise DataError(f"{path}: non-finite voxel values")


def _read_vol1(path, into=None) -> Volume:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 20:
        raise DataError(f"{path}: truncated VOL1 header")
    if blob[:4] != VOL1_MAGIC:
        raise DataError(f"{path}: bad magic {blob[:4]!r}")
    h, w, d, voxel = struct.unpack_from("<IIIf", blob, 4)
    if h < 1 or w < 1 or d < 1:
        raise DataError(f"{path}: non-positive dims ({h}, {w}, {d})")
    if not 0 < voxel < math.inf:
        raise DataError(f"{path}: voxel size must be finite and positive, got {voxel}")
    n = h * w * d
    payload = blob[20:]
    if len(payload) != 4 * n:
        raise DataError(
            f"{path}: truncated payload, expected {n} voxels, got {len(payload) // 4}"
        )
    flat = np.frombuffer(payload, dtype="<f4")
    _check_finite(flat, path)
    return Volume.from_flat_x_fastest(flat, (h, w, d), voxel,
                                      None if into is None else into((h, w, d), voxel))


def _parse_nifti_header(blob, path):
    if len(blob) < _NIFTI_HEADER_SIZE:
        raise DataError(f"{path}: truncated NIfTI header")
    sizeof_hdr = struct.unpack_from("<i", blob, 0)[0]
    swap = ""
    if sizeof_hdr != 348:
        sizeof_hdr = struct.unpack_from(">i", blob, 0)[0]
        if sizeof_hdr != 348:
            raise DataError(f"{path}: not a NIfTI-1 file (sizeof_hdr != 348)")
        swap = ">"
    end = swap or "<"
    dim = struct.unpack_from(end + "8h", blob, 40)
    datatype = struct.unpack_from(end + "h", blob, 70)[0]
    pixdim = struct.unpack_from(end + "8f", blob, 76)
    vox_offset = struct.unpack_from(end + "f", blob, 108)[0]
    scl_slope = struct.unpack_from(end + "f", blob, 112)[0]
    scl_inter = struct.unpack_from(end + "f", blob, 116)[0]
    magic = blob[344:348]
    if magic not in (b"n+1\x00", b"ni1\x00"):
        raise DataError(f"{path}: bad NIfTI magic {magic!r}")
    return dim, datatype, pixdim, vox_offset, scl_slope, scl_inter, end


def read_nifti(path) -> list[Volume]:
    """Read a single-file .nii, returning one Volume per time point.

    Only int16 and float32 payloads are accepted; scl_slope/scl_inter are
    applied when the slope is nonzero.
    """
    with open(path, "rb") as f:
        blob = f.read()
    dim, datatype, pixdim, vox_offset, slope, inter, end = _parse_nifti_header(blob, path)
    ndim = dim[0]
    if ndim not in (3, 4):
        raise DataError(f"{path}: only 3D or 4D NIfTI supported, got dim[0]={ndim}")
    if datatype not in _NIFTI_DTYPES:
        raise DataError(f"{path}: unsupported NIfTI datatype {datatype}")
    nx, ny, nz = dim[1], dim[2], dim[3]
    nt = dim[4] if ndim == 4 else 1
    if min(nx, ny, nz) < 1 or nt < 1:
        raise DataError(f"{path}: non-positive dims {dim[1:5]}")
    dtype = _NIFTI_DTYPES[datatype].newbyteorder(end)
    n = nx * ny * nz * nt
    if not math.isfinite(vox_offset):
        raise DataError(f"{path}: non-finite vox_offset {vox_offset}")
    offset = int(vox_offset) if vox_offset >= _NIFTI_HEADER_SIZE else _NIFTI_HEADER_SIZE
    payload = blob[offset:]
    if len(payload) < n * dtype.itemsize:
        raise DataError(f"{path}: truncated NIfTI payload")
    raw = np.frombuffer(payload[: n * dtype.itemsize], dtype=dtype).astype(np.float64)
    if slope != 0.0 and not (slope == 1.0 and inter == 0.0):
        raw = raw * slope + inter
    _check_finite(raw, path)
    voxel = float(pixdim[1]) if pixdim[1] > 0 else 3.0
    # NIfTI stores x fastest, then y, then z, then t.
    vols = []
    per = nx * ny * nz
    for t in range(nt):
        vols.append(Volume.from_flat_x_fastest(raw[t * per : (t + 1) * per], (ny, nx, nz), voxel))
    return vols


def read_volume(path, into=None) -> Volume:
    """Read a single 3D volume from VOL1 or single-timepoint NIfTI-1.

    `into`, when given, is called as ``into(dims, voxel_size_mm)`` once the
    file has passed its own checks, and may raise to refuse it.  It returns
    the C-ordered float64 array of shape `dims` that the returned Volume
    holds: a VOL1 payload is converted straight into it, with no other copy.
    """
    p = str(path)
    if not p.endswith(".nii"):
        return _read_vol1(path, into)
    vols = read_nifti(path)
    if len(vols) != 1:
        raise DataError(
            f"{path}: 4D NIfTI with {len(vols)} time points; use read_nifti() for the sequence"
        )
    v = vols[0]
    if into is None:
        return v
    out = into(v.dims, v.voxel_size_mm)
    out[...] = v.data
    return Volume(out, v.voxel_size_mm)


def write_manifest(manifest: DatasetManifest, path):
    manifest.validate()
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["path", "label", "subject_id", "noise_level", "split"])
        for e in manifest.entries:
            wr.writerow([e.path, e.label, e.subject_id, repr(e.noise_level), manifest.split[e.subject_id]])


def read_manifest(path) -> DatasetManifest:
    """Load a manifest CSV, rejecting subjects that span multiple splits."""
    manifest = DatasetManifest()
    with open(path, newline="") as f:
        rd = csv.reader(f)
        header = next(rd, None)
        if header != ["path", "label", "subject_id", "noise_level", "split"]:
            raise DataError(f"{path}: bad manifest header {header}")
        for lineno, row in enumerate(rd, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise DataError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            vpath, label_s, sid, noise_s, split = row
            try:
                label = int(label_s)
                noise = float(noise_s)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(noise):
                raise DataError(f"{path}:{lineno}: non-finite noise level {noise_s!r}")
            if sid in manifest.split and manifest.split[sid] != split:
                raise DataError(
                    f"{path}:{lineno}: subject {sid} assigned to both "
                    f"{manifest.split[sid]!r} and {split!r}"
                )
            manifest.split[sid] = split
            manifest.entries.append(ManifestEntry(vpath, label, sid, noise))
    manifest.validate()
    return manifest


def write_rows(path, *rows):
    """Write a checkpoint, one line per row (a number or a sequence of them),
    each number as ``%.17g`` so that float64 values read back exactly."""
    with open(path, "w") as f:
        f.writelines(" ".join(f"{x:.17g}" for x in np.ravel(row)) + "\n" for row in rows)


def read_rows(path, n: int) -> list[np.ndarray]:
    """The `n` float64 rows `write_rows` wrote, blank lines skipped; any other
    line count, a token that is not a number or a non-finite value is a
    `DataError` naming the file."""
    with open(path) as f:
        lines = [ln.split() for ln in f if ln.strip()]
    if len(lines) != n:
        raise DataError(f"{path}: expected {n} lines, got {len(lines)}")
    try:
        rows = [np.array([float(x) for x in ln]) for ln in lines]
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not all(np.isfinite(row).all() for row in rows):
        raise DataError(f"{path}: non-finite value")
    return rows


def read_config(path, cls):
    """A `cls` dataclass instance with the fields set by a `key = value` file.

    '#' starts a comment.  Each value takes the type of its field's default:
    a tuple default reads a comma-separated list of its first element's type,
    and a None default reads as float.  Range checks are left to the
    dataclass's own `validate`.
    """
    config = cls()
    defaults = {fd.name: getattr(config, fd.name) for fd in fields(cls)}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected `key = value`")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in defaults:
                raise DataError(f"{path}:{lineno}: unknown key {key!r}")
            default = defaults[key]
            try:
                if isinstance(default, tuple):
                    parsed = tuple(type(default[0])(x) for x in value.split(","))
                else:
                    parsed = (float if default is None else type(default))(value)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            setattr(config, key, parsed)
    return config


def write_config(config, path):
    """Write a dataclass instance as the `key = value` file `read_config`
    reads back: None fields are left out and tuples are comma-separated."""
    with open(path, "w") as f:
        for fd in fields(config):
            value = getattr(config, fd.name)
            if isinstance(value, tuple):
                value = ",".join(str(x) for x in value)
            if value is not None:
                f.write(f"{fd.name} = {value}\n")
