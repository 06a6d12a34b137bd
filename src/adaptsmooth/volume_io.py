"""Volume data type, file formats, dataset manifests, config files,
checkpoint rows and noise.

Voxel ordering convention: the in-memory array is indexed ``data[h, w, d]``
(height, width, depth).  A volume file's payload and `inspect-filter`'s
dump are x-fastest: x (width) varies fastest, then y (height), then z
(depth), so the flat index of voxel (h, w, d) is ``w + W * (h + H * d)``.
Text files are read and written as UTF-8.
"""

from __future__ import annotations

import csv
import io
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


def add_gaussian_noise(v: Volume, sigma: float, seed: int) -> Volume:
    """Add iid zero-mean Gaussian noise to every voxel. Deterministic per seed.

    The result is intentionally not re-clipped to [0, 1]: clipping would bias
    downstream noise estimation.
    """
    if not 0 <= sigma < math.inf:
        raise DataError(f"noise sigma must be finite and >= 0, got {sigma}")
    if sigma == 0:
        return Volume(v.data.copy(), v.voxel_size_mm)
    # the volume is added into the draw array: addition commutes bit for bit
    noisy = np.random.default_rng(seed).normal(0.0, sigma, size=v.dims)
    noisy += v.data
    return Volume(noisy, v.voxel_size_mm)


def write_volume(v: Volume, path):
    """Write a volume in the native VOL1 format (float32 header and payload).

    A voxel size or voxel value that float32 cannot hold (finite and, for
    the voxel size, nonzero) is rejected before the file is opened.  The
    voxels are converted straight into the file's x-fastest payload and the
    file is written at once."""
    h, w, d = v.dims
    if not _F32_TINY <= v.voxel_size_mm <= _F32_MAX:
        raise DataError(f"{path}: voxel size {v.voxel_size_mm} does not fit float32")
    # the comparison is false for NaN, so NaN is rejected too
    if not (np.abs(v.data) <= _F32_MAX).all():
        raise DataError(f"{path}: voxel values do not fit float32")
    blob = bytearray(20 + 4 * v.data.size)
    struct.pack_into("<4sIIIf", blob, 0, VOL1_MAGIC, h, w, d, v.voxel_size_mm)
    np.frombuffer(blob, "<f4", offset=20).reshape(d, h, w)[...] = \
        np.transpose(v.data, (2, 0, 1))
    with open(path, "wb") as f:
        f.write(blob)


def _parse_vol1(blob, path):
    """The x-fastest payload, dims and voxel size of a VOL1 file's bytes."""
    if len(blob) < 20:
        raise DataError(f"{path}: truncated VOL1 header")
    if blob[:4] != VOL1_MAGIC:
        raise DataError(f"{path}: bad magic {blob[:4]!r}")
    h, w, d, voxel = struct.unpack_from("<IIIf", blob, 4)
    if h < 1 or w < 1 or d < 1:
        raise DataError(f"{path}: non-positive dims ({h}, {w}, {d})")
    n = h * w * d
    if len(blob) - 20 != 4 * n:
        raise DataError(
            f"{path}: truncated payload, expected {n} voxels, got {(len(blob) - 20) // 4}"
        )
    return np.frombuffer(blob, dtype="<f4", offset=20), (h, w, d), voxel


def _parse_nifti(blob, path):
    """The x-fastest payload, dims and voxel size of a single-volume .nii's
    bytes.  Only int16 and float32 payloads are accepted; scl_slope/scl_inter
    are applied when the slope is nonzero.  A header with more than one time
    point is refused before its payload is read."""
    if len(blob) < _NIFTI_HEADER_SIZE:
        raise DataError(f"{path}: truncated NIfTI header")
    end = "<"
    if struct.unpack_from(end + "i", blob, 0)[0] != _NIFTI_HEADER_SIZE:
        end = ">"
        if struct.unpack_from(end + "i", blob, 0)[0] != _NIFTI_HEADER_SIZE:
            raise DataError(f"{path}: not a NIfTI-1 file (sizeof_hdr != 348)")
    magic = blob[344:348]
    if magic not in (b"n+1\x00", b"ni1\x00"):
        raise DataError(f"{path}: bad NIfTI magic {magic!r}")
    dim = struct.unpack_from(end + "8h", blob, 40)
    datatype = struct.unpack_from(end + "h", blob, 70)[0]
    voxel, dy, dz = struct.unpack_from(end + "3f", blob, 80)  # pixdim[1..3]
    vox_offset = struct.unpack_from(end + "f", blob, 108)[0]
    slope = struct.unpack_from(end + "f", blob, 112)[0]
    inter = struct.unpack_from(end + "f", blob, 116)[0]
    if dim[0] not in (3, 4):
        raise DataError(f"{path}: only 3D or 4D NIfTI supported, got dim[0]={dim[0]}")
    if datatype not in _NIFTI_DTYPES:
        raise DataError(f"{path}: unsupported NIfTI datatype {datatype}")
    nx, ny, nz = dim[1:4]
    nt = dim[4] if dim[0] == 4 else 1
    if min(nx, ny, nz) < 1 or nt < 1:
        raise DataError(f"{path}: non-positive dims {dim[1:5]}")
    if nt > 1:
        raise DataError(f"{path}: 4D NIfTI with {nt} time points; only one can be read")
    # a non-finite pixdim[1] is left to read_volume's voxel-size check
    if math.isfinite(voxel) and not voxel == dy == dz:
        raise DataError(f"{path}: anisotropic voxels {voxel:g} x {dy:g} x {dz:g} mm; "
                        "only isotropic volumes can be read")
    dtype = _NIFTI_DTYPES[datatype].newbyteorder(end)
    n = nx * ny * nz
    if not math.isfinite(vox_offset):
        raise DataError(f"{path}: non-finite vox_offset {vox_offset}")
    offset = int(vox_offset) if vox_offset >= _NIFTI_HEADER_SIZE else _NIFTI_HEADER_SIZE
    if len(blob) - offset < n * dtype.itemsize:
        raise DataError(f"{path}: truncated NIfTI payload")
    flat = np.frombuffer(blob, dtype, count=n, offset=offset)
    if slope != 0.0 and not (slope == 1.0 and inter == 0.0):
        flat = flat.astype(np.float64) * slope + inter
    # a finite pixdim[1] <= 0 is unset and reads as 3 mm
    if -math.inf < voxel <= 0:
        voxel = 3.0
    # NIfTI stores x fastest, then y, then z: dims (H, W, D) are (ny, nx, nz)
    return flat, (ny, nx, nz), voxel


def read_volume(path, into=None) -> Volume:
    """Read one 3D volume from a VOL1 file or, for a ``.nii`` path, a
    single-volume NIfTI-1 file (3D, or 4D with one time point) with
    isotropic voxels.  A compressed ``.nii.gz`` is refused unread.

    `into`, when given, is called as ``into(dims, voxel_size_mm)`` once the
    file has passed its own checks, and may raise to refuse it.  It returns
    the C-ordered float64 array of shape `dims` that the returned Volume
    holds: the payload of either format is converted straight into it, with
    no other copy.
    """
    if str(path).endswith(".nii.gz"):
        raise DataError(f"{path}: compressed NIfTI (.nii.gz) is not supported; "
                        "decompress it to .nii first")
    with open(path, "rb") as f:
        blob = f.read()
    parse = _parse_nifti if str(path).endswith(".nii") else _parse_vol1
    flat, dims, voxel = parse(blob, path)
    if not 0 < voxel < math.inf:
        raise DataError(f"{path}: voxel size must be finite and positive, got {voxel}")
    if not np.isfinite(flat).all():
        raise DataError(f"{path}: non-finite voxel values")
    h, w, d = dims
    out = np.empty(dims) if into is None else into(dims, voxel)
    out[...] = np.transpose(flat.reshape(d, h, w), (1, 2, 0))
    return Volume(out, voxel)


def _utf8_text(path, newline=None) -> io.StringIO:
    """A UTF-8 file's text, split as `open(path, newline=newline)` splits it;
    bytes that are not UTF-8 are a `DataError` naming the first bad one."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return io.StringIO(blob.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def write_manifest(manifest: DatasetManifest, path):
    manifest.validate()
    with open(path, "w", newline="", encoding="utf-8") as f:
        wr = csv.writer(f)
        wr.writerow(["path", "label", "subject_id", "noise_level", "split"])
        for e in manifest.entries:
            wr.writerow([e.path, e.label, e.subject_id, repr(e.noise_level), manifest.split[e.subject_id]])


def read_manifest(path) -> DatasetManifest:
    """Load a manifest CSV, rejecting subjects that span multiple splits."""
    manifest = DatasetManifest()
    rd = csv.reader(_utf8_text(path, newline=""))
    try:
        rows = list(rd)
    except csv.Error as exc:
        raise DataError(f"{path}:{rd.line_num}: {exc}") from None
    header = rows[0] if rows else None
    if header != ["path", "label", "subject_id", "noise_level", "split"]:
        raise DataError(f"{path}: bad manifest header {header}")
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
        vpath, label_s, sid, noise_s, split = row
        if "\0" in vpath:
            raise DataError(f"{path}:{lineno}: NUL byte in volume path {vpath!r}")
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
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(" ".join(f"{x:.17g}" for x in np.ravel(row)) + "\n" for row in rows)


def read_rows(path, n: int) -> list[np.ndarray]:
    """The `n` float64 rows `write_rows` wrote, blank lines skipped; any other
    line count, a token that is not a number or a non-finite value is a
    `DataError` naming the file."""
    lines = [ln.split() for ln in _utf8_text(path) if ln.strip()]
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
    for lineno, raw in enumerate(_utf8_text(path), start=1):
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
    with open(path, "w", encoding="utf-8") as f:
        for fd in fields(config):
            value = getattr(config, fd.name)
            if isinstance(value, tuple):
                value = ",".join(str(x) for x in value)
            if value is not None:
                f.write(f"{fd.name} = {value}\n")
