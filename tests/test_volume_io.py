import struct

import numpy as np
import pytest

from adaptsmooth.cli import run
from adaptsmooth.errors import DataError
from adaptsmooth.phantom import PhantomSpec
from adaptsmooth.trainer import TrainConfig
from adaptsmooth.volume_io import (
    DatasetManifest,
    ManifestEntry,
    Volume,
    add_gaussian_noise,
    normalize_subject,
    read_config,
    read_manifest,
    read_nifti,
    read_rows,
    read_volume,
    write_config,
    write_manifest,
    write_rows,
    write_volume,
)


@pytest.mark.parametrize("voxel", [float("nan"), float("inf")])
def test_voxel_size_must_be_finite_and_positive(voxel):
    with pytest.raises(DataError, match="voxel size"):
        Volume(np.zeros((2, 2, 2)), voxel)


def test_volume_flat_order_is_x_fastest():
    v = Volume(np.arange(24, dtype=float).reshape(2, 3, 4))
    flat = v.flat_x_fastest()
    h, w, d = v.dims
    for hh in range(h):
        for ww in range(w):
            for dd in range(d):
                assert flat[ww + w * (hh + h * dd)] == v.data[hh, ww, dd]
    back = Volume.from_flat_x_fastest(flat, v.dims)
    np.testing.assert_array_equal(back.data, v.data)


class TestNormalizeSubject:
    def test_single_volume_affine_map(self):
        v = Volume(np.array([0.0, 5.0, 10.0]).reshape(1, 1, 3))
        out = normalize_subject([v])[0]
        np.testing.assert_allclose(out.data.ravel(), [0.0, 0.5, 1.0])

    def test_shared_extrema_across_volumes(self):
        a = Volume(np.full((2, 2, 2), 2.0))
        b = Volume(np.linspace(0.0, 4.0, 8).reshape(2, 2, 2))
        out_a, out_b = normalize_subject([a, b])
        np.testing.assert_allclose(out_a.data, 0.5)
        assert out_b.data.min() == 0.0 and out_b.data.max() == 1.0

    def test_formula_value(self):
        # min=-1.3, max=2.7: value 0.7 maps to 0.5
        v = Volume(np.array([-1.3, 0.7, 2.7, 1.0]).reshape(1, 2, 2))
        out = normalize_subject([v])[0]
        assert out.data[0, 0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_idempotent_within_tolerance(self):
        rng = np.random.default_rng(5)
        vols = [Volume(rng.uniform(-3, 7, (4, 4, 4))) for _ in range(3)]
        once = normalize_subject(vols)
        twice = normalize_subject(once)
        for u, w in zip(once, twice):
            np.testing.assert_allclose(u.data, w.data, atol=1e-6)

    def test_errors(self):
        with pytest.raises(DataError):
            normalize_subject([])
        with pytest.raises(DataError):
            normalize_subject([Volume(np.zeros((2, 2, 2))), Volume(np.zeros((2, 2, 3)))])
        with pytest.raises(DataError):
            normalize_subject([Volume(np.full((2, 2, 2), 3.0))])


class TestAddGaussianNoise:
    def test_sigma_zero_identity(self):
        v = Volume(np.random.default_rng(0).uniform(size=(4, 4, 4)))
        out = add_gaussian_noise(v, 0.0, seed=1)
        np.testing.assert_array_equal(out.data, v.data)

    def test_sample_std_concentration(self):
        # chi-distribution bound: sample std in 0.2 +/- 3*0.2/sqrt(2*32^3)
        v = Volume(np.zeros((32, 32, 32)))
        out = add_gaussian_noise(v, 0.2, seed=11)
        tol = 3 * 0.2 / np.sqrt(2 * 32**3)
        assert abs(out.data.std() - 0.2) < tol

    def test_deterministic_per_seed(self):
        v = Volume(np.zeros((8, 8, 8)))
        a = add_gaussian_noise(v, 0.3, seed=7)
        b = add_gaussian_noise(v, 0.3, seed=7)
        np.testing.assert_array_equal(a.data, b.data)
        c = add_gaussian_noise(v, 0.3, seed=8)
        assert not np.array_equal(a.data, c.data)

    def test_increment_mean_near_zero(self):
        # empirical mean over >= 1e5 voxels within 4 standard errors of 0
        n = 50**3
        v = Volume(np.zeros((50, 50, 50)))
        out = add_gaussian_noise(v, 0.25, seed=3)
        se = 0.25 / np.sqrt(n)
        assert abs(out.data.mean()) < 4 * se

    def test_negative_sigma_rejected(self):
        with pytest.raises(DataError):
            add_gaussian_noise(Volume(np.zeros((2, 2, 2))), -0.1, 0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(DataError, match="finite"):
            add_gaussian_noise(Volume(np.zeros((2, 2, 2))), sigma, 0)


class TestVol1:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.uniform(size=(2, 3, 4)).astype(np.float32).astype(np.float64)
        v = Volume(data, voxel_size_mm=2.5)
        p = tmp_path / "v.vol"
        write_volume(v, p)
        back = read_volume(p)
        np.testing.assert_array_equal(back.data, v.data)
        assert back.voxel_size_mm == pytest.approx(2.5)

    def test_read_data_is_c_contiguous(self, tmp_path):
        # the layout of a row of a batch array
        p = tmp_path / "v.vol"
        write_volume(Volume(np.arange(24.0).reshape(2, 3, 4)), p)
        assert read_volume(p).data.flags.c_contiguous

    def test_into_receives_the_voxels(self, tmp_path):
        # the batch-row path: one conversion from the file into the target
        p = tmp_path / "v.vol"
        v = Volume(np.arange(24.0).reshape(2, 3, 4), 2.5)
        write_volume(v, p)
        target = np.full((2, 2, 3, 4), -1.0)
        row, calls = target[1], []

        def into(dims, voxel_mm):
            calls.append((dims, voxel_mm))
            return row

        back = read_volume(p, into)
        assert calls == [((2, 3, 4), 2.5)]
        assert back.data is row
        np.testing.assert_array_equal(row, v.data)
        assert (target[0] == -1.0).all()
        assert back.voxel_size_mm == 2.5

    def test_into_not_called_for_a_bad_file(self, tmp_path):
        p = tmp_path / "bad.vol"
        payload = np.array([0.5] * 7 + [np.nan], dtype="<f4").tobytes()
        p.write_bytes(b"VOL1" + struct.pack("<IIIf", 2, 2, 2, 3.0) + payload)

        def into(dims, voxel_mm):
            raise AssertionError("into called")

        with pytest.raises(DataError, match="non-finite"):
            read_volume(p, into)

    def test_into_may_refuse_the_file(self, tmp_path):
        p = tmp_path / "v.vol"
        write_volume(Volume(np.zeros((2, 2, 2))), p)

        def refuse(dims, voxel_mm):
            raise DataError(f"refused {dims}")

        with pytest.raises(DataError, match=r"refused \(2, 2, 2\)"):
            read_volume(p, refuse)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "bad.vol"
        payload = struct.pack("<f", 0.0) * 7  # dims say 8 voxels
        p.write_bytes(b"VOL1" + struct.pack("<IIIf", 2, 2, 2, 3.0) + payload)
        with pytest.raises(DataError, match="truncated"):
            read_volume(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.vol"
        p.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            read_volume(p)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_voxel_rejected(self, tmp_path, bad):
        p = tmp_path / "bad.vol"
        payload = np.array([0.5] * 7 + [bad], dtype="<f4").tobytes()
        p.write_bytes(b"VOL1" + struct.pack("<IIIf", 2, 2, 2, 3.0) + payload)
        with pytest.raises(DataError, match="non-finite"):
            read_volume(p)


    @pytest.mark.parametrize("voxel, value", [
        (1e39, 0.5), (1e-46, 0.5), (3.0, 1e39), (3.0, -np.inf), (3.0, np.nan)])
    def test_write_rejects_what_float32_cannot_hold(self, tmp_path, voxel, value):
        p = tmp_path / "v.vol"
        with pytest.raises(DataError, match="fit float32"):
            write_volume(Volume(np.full((2, 2, 2), value), voxel), p)
        assert not p.exists()


@pytest.mark.parametrize("config", [
    TrainConfig(),
    TrainConfig(learning_rate=0.37, lambda_l2=1e-3, max_epochs=7, truncation=2.5,
                seed=43, fixed_sigma=1.1324296062514016, lr_grid=(0.5,),
                lambda_grid=(0.0, 1e-05)),
    PhantomSpec(dims=(16, 12, 20), noise_levels=(0.0, 0.2), split_counts=(6, 1, 1),
                amplitude=0.05, voxel_size_mm=2.5),
], ids=["train-default", "train-fixed-sigma", "phantom"])
def test_config_round_trip(tmp_path, config):
    p = tmp_path / "config.txt"
    write_config(config, p)
    assert read_config(p, type(config)) == config


def _make_nifti(path, data, datatype, slope=1.0, inter=0.0, nt=None):
    """Minimal single-file NIfTI-1 writer for tests. data is (nx, ny, nz[, nt])
    in x-fastest storage order."""
    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    ndim = 3 if nt is None else 4
    dims = [ndim, data.shape[0], data.shape[1], data.shape[2],
            nt if nt is not None else 1, 1, 1, 1]
    struct.pack_into("<8h", header, 40, *dims)
    struct.pack_into("<h", header, 70, datatype)
    struct.pack_into("<8f", header, 76, 0.0, 3.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, 352.0)
    struct.pack_into("<f", header, 112, slope)
    struct.pack_into("<f", header, 116, inter)
    header[344:348] = b"n+1\x00"
    dtype = {4: "<i2", 16: "<f4"}[datatype]
    with open(path, "wb") as f:
        f.write(header)
        f.write(b"\x00" * 4)  # pad to vox_offset 352
        f.write(np.asfortranarray(data).astype(dtype).tobytes(order="F"))


def _make_nifti_big_endian(path, data, datatype, slope=1.0, inter=0.0):
    """`_make_nifti`'s 3D file with every header field and voxel stored
    big-endian."""
    header = bytearray(348)
    struct.pack_into(">i", header, 0, 348)
    struct.pack_into(">8h", header, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into(">h", header, 70, datatype)
    struct.pack_into(">8f", header, 76, 0.0, 3.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(">f", header, 108, 352.0)
    struct.pack_into(">f", header, 112, slope)
    struct.pack_into(">f", header, 116, inter)
    header[344:348] = b"n+1\x00"
    dtype = {4: ">i2", 16: ">f4"}[datatype]
    with open(path, "wb") as f:
        f.write(header)
        f.write(b"\x00" * 4)  # pad to vox_offset 352
        f.write(np.asfortranarray(data).astype(dtype).tobytes(order="F"))


class TestNifti:
    def test_int16_with_scaling(self, tmp_path):
        p = tmp_path / "a.nii"
        data = np.zeros((3, 3, 3), dtype=np.int16)
        data[0, 0, 0] = 4
        _make_nifti(p, data, datatype=4, slope=0.5, inter=1.0)
        v = read_volume(p)
        # raw 4 -> 0.5*4 + 1.0 = 3.0; raw 0 -> 1.0
        assert v.data[0, 0, 0] == pytest.approx(3.0)
        assert v.data[1, 1, 1] == pytest.approx(1.0)
        assert v.voxel_size_mm == pytest.approx(3.0)

    def test_float32_values(self, tmp_path):
        p = tmp_path / "b.nii"
        rng = np.random.default_rng(4)
        data = rng.uniform(size=(4, 3, 2)).astype(np.float32)
        _make_nifti(p, data, datatype=16)
        v = read_volume(p)
        assert v.dims == (3, 4, 2)  # (H=ny, W=nx, D=nz)
        # x is the NIfTI fastest axis and maps to width
        assert v.data[1, 2, 0] == pytest.approx(float(data[2, 1, 0]))

    @pytest.mark.parametrize("datatype, dtype, slope, inter", [
        (16, np.float32, 1.0, 0.0), (4, np.int16, 0.5, 1.0)])
    def test_big_endian_reads_as_its_little_endian_twin(self, tmp_path, datatype, dtype,
                                                       slope, inter):
        data = np.random.default_rng(6).uniform(-50, 50, size=(4, 3, 2)).astype(dtype)
        little, big = tmp_path / "le.nii", tmp_path / "be.nii"
        _make_nifti(little, data, datatype, slope, inter)
        _make_nifti_big_endian(big, data, datatype, slope, inter)
        assert big.read_bytes() != little.read_bytes()
        want, got = read_volume(little), read_volume(big)
        np.testing.assert_array_equal(got.data, want.data)
        assert got.voxel_size_mm == want.voxel_size_mm

    def test_into_receives_the_voxels(self, tmp_path):
        p = tmp_path / "g.nii"
        _make_nifti(p, np.arange(24, dtype=np.float32).reshape(4, 3, 2), datatype=16)
        target = np.empty((3, 4, 2))
        back = read_volume(p, lambda dims, voxel_mm: target)
        assert back.data is target
        np.testing.assert_array_equal(target, read_volume(p).data)

    def test_read_data_is_c_contiguous(self, tmp_path):
        p = tmp_path / "f.nii"
        _make_nifti(p, np.arange(24, dtype=np.float32).reshape(4, 3, 2), datatype=16)
        assert read_volume(p).data.flags.c_contiguous

    def test_unsupported_datatype(self, tmp_path):
        p = tmp_path / "c.nii"
        data = np.zeros((3, 3, 3), dtype=np.int16)
        _make_nifti(p, data, datatype=4)
        blob = bytearray(p.read_bytes())
        struct.pack_into("<h", blob, 70, 8)  # int32: not supported
        p.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="datatype"):
            read_volume(p)

    @pytest.mark.parametrize("offset", [float("inf"), float("nan")])
    def test_non_finite_vox_offset_is_data_error(self, tmp_path, capsys, offset):
        # inf was an OverflowError traceback; NaN was read from byte 348
        p = tmp_path / "g.nii"
        _make_nifti(p, np.zeros((3, 3, 3), dtype=np.float32), datatype=16)
        blob = bytearray(p.read_bytes())
        struct.pack_into("<f", blob, 108, offset)
        p.write_bytes(bytes(blob))
        assert run(["estimate-noise", "--in", str(p)]) == 2
        assert f"{p}: non-finite vox_offset" in capsys.readouterr().err

    def test_non_finite_voxel_rejected(self, tmp_path):
        p = tmp_path / "e.nii"
        data = np.zeros((3, 3, 3), dtype=np.float32)
        data[1, 2, 0] = np.nan
        _make_nifti(p, data, datatype=16)
        with pytest.raises(DataError, match="non-finite"):
            read_volume(p)
        _make_nifti(p, data, datatype=16, nt=1)
        with pytest.raises(DataError, match="non-finite"):
            read_nifti(p)

    def test_4d_exposed_as_sequence(self, tmp_path):
        p = tmp_path / "d.nii"
        data = np.stack([np.full((3, 3, 3), i, dtype=np.float32) for i in range(4)], axis=-1)
        _make_nifti(p, data, datatype=16, nt=4)
        vols = read_nifti(p)
        assert len(vols) == 4
        assert vols[2].data[0, 0, 0] == pytest.approx(2.0)
        with pytest.raises(DataError, match="4D"):
            read_volume(p)


class TestManifest:
    def _manifest(self):
        m = DatasetManifest()
        m.split = {"s1": "train", "s2": "test"}
        m.entries = [
            ManifestEntry("a.vol", 0, "s1", 0.0),
            ManifestEntry("b.vol", 1, "s1", 0.1),
            ManifestEntry("c.vol", 1, "s2", 0.1),
        ]
        return m

    def test_round_trip(self, tmp_path):
        p = tmp_path / "m.csv"
        write_manifest(self._manifest(), p)
        back = read_manifest(p)
        assert back.split == {"s1": "train", "s2": "test"}
        assert [(e.path, e.label, e.subject_id, e.noise_level) for e in back.entries] == \
            [("a.vol", 0, "s1", 0.0), ("b.vol", 1, "s1", 0.1), ("c.vol", 1, "s2", 0.1)]

    def test_subject_spanning_splits_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,label,subject_id,noise_level,split\n"
                     "a.vol,0,s1,0.0,train\n"
                     "b.vol,1,s1,0.0,test\n")
        with pytest.raises(DataError, match="both"):
            read_manifest(p)

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_level_rejected(self, tmp_path, noise):
        # a NaN level became a 1-volume group of its own, which train then
        # rejected with an unrelated batch-size error
        p = tmp_path / "m.csv"
        p.write_text("path,label,subject_id,noise_level,split\n"
                     "a.vol,0,s1,0.0,train\n"
                     f"b.vol,1,s1,{noise},train\n")
        with pytest.raises(DataError, match=f"m.csv:3: non-finite noise level '{noise}'"):
            read_manifest(p)

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,label,subject_id,noise_level,split\n"
                     "a.vol,2,s1,0.0,train\n")
        with pytest.raises(DataError, match="label"):
            read_manifest(p)


class TestCheckpointRows:
    def test_golden_layout(self, tmp_path):
        p = tmp_path / "rows.txt"
        write_rows(p, 2, np.array([0.1, -2.5]), (16, 16, 8), -1 / 3, 1e-300)
        assert p.read_text() == ("2\n0.10000000000000001 -2.5\n16 16 8\n"
                                 "-0.33333333333333331\n1e-300\n")
        rows = read_rows(p, 5)
        assert [r.tolist() for r in rows] == [[2.0], [0.1, -2.5], [16.0, 16.0, 8.0],
                                              [-1 / 3], [1e-300]]

    def test_round_trip_is_exact(self, tmp_path):
        p = tmp_path / "rows.txt"
        x = np.random.default_rng(0).normal(size=50) * 10.0 ** np.arange(-25, 25)
        write_rows(p, x, float(x[7]))
        back, scalar = read_rows(p, 2)
        np.testing.assert_array_equal(back, x)
        assert scalar[0] == x[7]

    @pytest.mark.parametrize("text, match", [
        ("1\n2\n", "expected 3 lines, got 2"),
        ("1\n2 x\n3\n", "could not convert string to float: 'x'"),
        ("1\n2 nan\n3\n", "non-finite value"),
        ("1\n2 3\n-inf\n", "non-finite value"),
    ])
    def test_bad_file_is_data_error_naming_it(self, tmp_path, text, match):
        p = tmp_path / "rows.txt"
        p.write_text(text)
        with pytest.raises(DataError, match=f"{p}: {match}"):
            read_rows(p, 3)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "rows.txt"
        p.write_text("\n1 2\n\n  \n3\n")
        assert [r.tolist() for r in read_rows(p, 2)] == [[1.0, 2.0], [3.0]]
