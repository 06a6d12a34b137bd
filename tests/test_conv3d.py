import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import adaptsmooth
from adaptsmooth import conv3d
from adaptsmooth.conv3d import convolve, convolve_separable, smooth_batch
from adaptsmooth.errors import DataError
from adaptsmooth.gaussian_filter import build_filter, build_profiles


def test_impulse_response_places_filter():
    f = build_filter(1.0, 4.0)
    x = np.zeros((9, 9, 9))
    x[4, 4, 4] = 1.0
    z = convolve(x, f.weights)
    r = f.radius
    np.testing.assert_allclose(z[4 - r:4 + r + 1, 4 - r:4 + r + 1, 4 - r:4 + r + 1],
                               f.weights, atol=1e-15)
    inner = z[4 - r:4 + r + 1, 4 - r:4 + r + 1, 4 - r:4 + r + 1].sum()
    assert z.sum() == pytest.approx(inner)


def test_partition_of_unity_on_constant_volume():
    f = build_filter(0.8, 4.0)
    r = f.radius
    x = np.ones((9, 9, 9))
    z = convolve(x, f.weights)
    interior = z[r:-r, r:-r, r:-r]
    np.testing.assert_allclose(interior, 1.0, atol=1e-9)
    assert z[0, 4, 4] < 1.0  # zero padding bleeds in at the faces
    assert z[r - 1, 4, 4] < 1.0 - 1e-12


def test_direct_vs_separable_agree():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(12, 12, 12))
    f = build_filter(1.0, 4.0)
    z_direct = convolve(x, f.weights)
    z_sep = convolve_separable(x, f.profile_1d)
    assert np.max(np.abs(z_direct - z_sep)) < 1e-5


class TestMatrixPasses:
    """Each separable pass is a product with the axis's banded correlation
    matrix; the direct tap loop is the reference."""

    @pytest.mark.parametrize("shape", ["cubic", "non-cubic", "filter side == min dim"])
    @pytest.mark.parametrize("sigma, radius", [(0.3, 0), (0.6, 1), (1.1, 2), (1.6, 3)])
    def test_agrees_with_direct(self, sigma, radius, shape):
        side = 2 * radius + 1
        dims = {"cubic": (8, 8, 8), "non-cubic": (9, 11, 7),
                "filter side == min dim": (side + 3, side, side + 1)}[shape]
        x = np.random.default_rng(radius).normal(size=dims)
        f = build_filter(sigma, 4.0)
        assert f.radius == radius
        z = convolve_separable(x, f.profile_1d)
        assert np.max(np.abs(z - convolve(x, f.weights))) < 1e-12

    def test_asymmetric_profiles_per_axis(self):
        # every profile of the package is symmetric, so only this case tells
        # a correlation matrix from its transpose (a convolution)
        rng = np.random.default_rng(5)
        p_h, p_w, p_d = rng.normal(size=5), rng.normal(size=3), rng.normal(size=1)
        x = rng.normal(size=(9, 11, 7))
        cube = np.einsum("i,j,k", p_h, np.pad(p_w, 1), np.pad(p_d, 2))
        z = convolve_separable(x, (p_h, p_w, p_d))
        assert np.max(np.abs(z - convolve(x, cube))) < 1e-12

    @pytest.mark.parametrize("lengths", [(1, 5, 3), (3, 1, 5)])
    def test_rotated_passes_on_non_cube(self, lengths):
        # each pass moves its axis last, so a 1-tap axis (a scale) must
        # rotate too; the test above has it last, these first and second
        rng = np.random.default_rng(sum(i * n for i, n in enumerate(lengths)))
        profiles = [rng.normal(size=n) for n in lengths]
        x = rng.normal(size=(9, 11, 7))
        cube = np.einsum("i,j,k", *(np.pad(p, (5 - p.size) // 2) for p in profiles))
        z = convolve_separable(x, profiles)
        assert z.shape == x.shape
        assert np.max(np.abs(z - convolve(x, cube))) < 1e-12


_DIGESTS = """
import hashlib
import numpy as np
from adaptsmooth.conv3d import convolve_separable, smooth_batch
from adaptsmooth.gaussian_filter import build_filter, build_profiles
f = build_filter(1.6, 4.0)
p, dp = f.profile_1d, build_profiles([1.6], 4.0)[2][0]
for dims in [(24, 24, 24), (9, 11, 7), (61, 73, 61)]:
    rng = np.random.default_rng(0)
    x, w = rng.normal(size=dims), rng.normal(size=dims)
    z, (dot,) = smooth_batch(x[None], [p], [dp], w)
    three_terms = (convolve_separable(x, (dp, p, p)) + convolve_separable(x, (p, dp, p))
                   + convolve_separable(x, (p, p, dp)))
    for out in (convolve_separable(x, p), np.append(z, dot), three_terms):
        print(hashlib.sha256(out.tobytes()).hexdigest())
x = np.random.default_rng(1).normal(size=(9, 11, 7))
out = convolve_separable(x, (f.profile_1d[1:-1], np.ones(1) / 3, f.profile_1d))
print(hashlib.sha256(out.tobytes()).hexdigest())
# one adaptive training step: widths, profiles, matrices, passes and gradients
from adaptsmooth import classifier, params_net, trainer
rng = np.random.default_rng(2)
vols = np.stack([s * rng.normal(size=(24, 24, 24)) + 0.5
                 for s in (0.0, 0.05, 0.1, 0.2, 0.3, 0.4)])
batch = trainer.MiniBatch("s0", 0.1, "train", vols, np.arange(6) % 2.0,
                          np.array([params_net.noise_feature(v) for v in vols]))
loss, grads, fwd = trainer.batch_loss_and_grads(
    batch, params_net.init_weights(8, 43, 0.375, 5.85),
    classifier.xavier_init((24, 24, 24), 44), trainer.TrainConfig(lambda_l2=1e-3, seed=1))
assert len(fwd["dz"]) == 6 and all(isinstance(dz, float) for dz in fwd["dz"])
h = hashlib.sha256(np.float64(loss).tobytes() + fwd["cache"]["x"].tobytes())
for name in ("w", "bias", "a", "b", "v", "c"):
    h.update(np.asarray(grads[name], dtype=np.float64).tobytes())
print(h.hexdigest())
"""


def test_output_does_not_depend_on_blas_threads():
    src = str(Path(adaptsmooth.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", _DIGESTS], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.split())
    assert len(digests[0]) == 11
    assert digests[0] == digests[1]



_CPU_DIGESTS = """
import hashlib, os, sys
import numpy as np
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
elif sys.argv[1] == "four":
    # more workers than CPUs, handing the interpreter over every microsecond
    os.sched_getaffinity = lambda pid: set(range(4))
    sys.setswitchinterval(1e-6)
from adaptsmooth import conv3d, params_net, trainer
from adaptsmooth.gaussian_filter import build_profiles
dims = (9, 11, 7)
n = 2 * conv3d._chunk_volumes(dims) + 3  # not a multiple of G
rng = np.random.default_rng(3)
volumes, w = rng.normal(size=(n, *dims)), rng.normal(size=dims)
sigmas = rng.uniform(0.4, 1.6, n)
sigmas[[5, n - 2]] = 0.1  # 1-tap widths
_, ps, dps = build_profiles(sigmas, 4.0, min(dims))
with conv3d.Workspace(n, dims) as workspace:
    print(workspace.workers)
    for d_profiles in (dps, None):  # a training step, an evaluation
        z, dots = conv3d.smooth_batch(volumes, ps, d_profiles, w, workspace)
        print(hashlib.sha256(z.tobytes() + repr(dots).encode()).hexdigest())
batches = []
for i, split in enumerate(trainer.SPLITS):
    vols = np.random.default_rng(i).normal(0.5, 0.2, (n, *dims))
    batches.append(trainer.MiniBatch(f"s{i}", 0.1 * i, split, vols, np.arange(n) % 2.0,
                                     np.array([params_net.noise_feature(v) for v in vols])))
pnw, cw, _ = trainer.train(trainer.TrainConfig(max_epochs=2, patience=2, seed=5, width_m=8),
                           batches)
h = hashlib.sha256()
for weights in (pnw.a, pnw.b, pnw.v, pnw.c, cw.w, cw.bias):
    h.update(np.asarray(weights, dtype=np.float64).tobytes())
print(h.hexdigest())
"""


def test_output_does_not_depend_on_cpu_count():
    """Smoothing, width derivatives and a 2-epoch training are bit for bit
    the same on one worker (the process pinned to one CPU), on one per
    CPU, and on four workers whatever the CPU count."""
    src = str(Path(adaptsmooth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    runs = {}
    for mode in ("pinned", "free", "four"):
        result = subprocess.run([sys.executable, "-c", _CPU_DIGESTS, mode], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        workers, *runs[mode] = result.stdout.split()
        assert int(workers) == {"pinned": 1, "four": 3}.get(
            mode, min(3, len(os.sched_getaffinity(0))))
    assert len(runs["pinned"]) == 3
    assert runs["pinned"] == runs["free"] == runs["four"]


def test_linearity():
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(6, 6, 6)), rng.normal(size=(6, 6, 6))
    q = build_filter(0.7, 4.0).weights
    lhs = convolve(2.5 * x - 1.5 * y, q)
    rhs = 2.5 * convolve(x, q) - 1.5 * convolve(y, q)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestValidation:
    def test_even_filter_side_rejected(self):
        with pytest.raises(DataError):
            convolve(np.zeros((4, 4, 4)), np.zeros((2, 2, 2)))

    def test_filter_larger_than_volume_rejected(self):
        with pytest.raises(DataError):
            convolve(np.zeros((4, 4, 4)), np.zeros((5, 5, 5)))
        with pytest.raises(DataError):
            convolve_separable(np.zeros((4, 4, 4)), np.ones(5))


def _dz_reference(x, p, dp):
    """The width derivative of smoothing `x` by p(x)p(y)p(z), summed as
    `smooth_batch` sums it: the two product-rule terms that end in the
    d-axis smoothing first, as u, through 1-tap identity axes."""
    one = np.ones(1)
    u = convolve_separable(x, (dp, p, one)) + convolve_separable(x, (p, dp, one))
    return convolve_separable(u, (one, one, p)) + convolve_separable(x, (p, p, dp))


class TestSmoothWithDsigma:
    """`smooth_batch` smooths with the passes of `convolve_separable` and
    sums the width derivative in the order of `_dz_reference`, bit for
    bit."""

    @pytest.mark.parametrize("dims", [(8, 8, 8), (9, 11, 7)])
    @pytest.mark.parametrize("sigma, radius", [(0.6, 1), (1.1, 2), (1.6, 3)])
    def test_bitwise_equal_to_separate_convolutions(self, sigma, radius, dims):
        rng = np.random.default_rng(radius)
        # two volumes, so the second reuses the first one's scratch rows
        volumes, w = rng.normal(size=(2, *dims)), rng.normal(size=dims)
        f = build_filter(sigma, 4.0)
        assert f.radius == radius
        p, dp = f.profile_1d, build_profiles([sigma], 4.0)[2][0]
        z, dots = smooth_batch(volumes, [p, p], [dp, dp], w)
        for x, z_i, dot in zip(volumes, z, dots):
            np.testing.assert_array_equal(z_i, convolve_separable(x, p))
            dz = _dz_reference(x, p, dp)
            assert dot == float(np.einsum("ijk,ijk->", w, dz))
            assert np.max(np.abs(dz - convolve(x, f.d_weights_d_sigma))) < 1e-12

    def test_dense_products_per_volume(self, monkeypatch):
        """One call runs 8 dense products per volume when it differentiates
        and 3 when it only smooths, for a radius-0 width too, whose width
        derivative stays 0."""
        products = []
        matmul = np.matmul

        def counted(a, b, **kwargs):
            products.append(math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        rng = np.random.default_rng(5)
        volumes, w = rng.normal(size=(3, 9, 11, 7)), rng.normal(size=(9, 11, 7))
        radii, ps, dps = build_profiles([1.1, 0.6, 0.1], 4.0)
        assert radii == [2, 1, 0]
        for d_profiles, per_volume in ((None, 3), (dps, 8)):
            for i in range(3):
                products.clear()
                smooth_batch(volumes[i:i + 1], ps[i:i + 1],
                             None if d_profiles is None else d_profiles[i:i + 1], w)
                assert sum(products) == per_volume
            products.clear()
            z, dots = smooth_batch(volumes, ps, d_profiles, w)
            assert sum(products) == 3 * per_volume
            assert (dots is None) == (d_profiles is None)
        assert dots[2] == 0.0
        np.testing.assert_array_equal(z[2], volumes[2])

    def test_matrices_only_for_given_derivative_profiles(self):
        # evaluation passes no derivative profile and builds no matrix for
        # one; a training chunk's stack holds its smoothing matrices, then
        # their derivatives; a 1-tap profile's matrix is p[0] times the identity
        _, ps, dps = build_profiles([1.1, 0.6, 0.1], 4.0)
        assert conv3d._matrices(ps, 9).shape == (3, 9, 9)
        pairs = conv3d._matrices([*ps, *dps], 9).reshape(2, 3, 9, 9)
        for p, dp, m in zip(ps, dps, pairs.swapaxes(0, 1)):
            np.testing.assert_array_equal(m, conv3d._matrices([p, dp], 9))
        np.testing.assert_array_equal(conv3d._matrices([np.array([0.25])], 9)[0],
                                      0.25 * np.eye(9))

    def test_prior_workspace_contents_never_read(self):
        """A reused workspace, here filled with NaN and sized for one volume
        more than the batch, gives the bits of a fresh one; the smoothed
        batch is a view into it."""
        rng = np.random.default_rng(8)
        dims = (9, 11, 7)
        volumes, w = rng.normal(size=(3, *dims)), rng.normal(size=dims)
        _, ps, dps = build_profiles([1.1, 0.6, 0.1], 4.0)
        for d_profiles in (None, dps):
            z, dots = smooth_batch(volumes, ps, d_profiles, w)
            with conv3d.Workspace(len(volumes) + 1, dims) as workspace:
                workspace.rows.fill(np.nan)
                z_reused, dots_reused = smooth_batch(volumes, ps, d_profiles, w, workspace)
            assert np.shares_memory(z_reused, workspace.rows)
            assert z_reused.tobytes() == z.tobytes()
            assert dots_reused == dots
        with pytest.raises(ValueError, match="too small"), conv3d.Workspace(2, dims) as small:
            smooth_batch(volumes, ps, dps, w, small)

    def test_rows_not_c_ordered_float64_refused(self):
        # float32 rows would round every pass, and Fortran-ordered ones
        # would make `_pass` write into copies of them
        rng = np.random.default_rng(8)
        dims = (9, 9, 9)
        volumes, w = rng.normal(size=(3, *dims)), rng.normal(size=dims)
        _, ps, dps = build_profiles([1.1, 0.6, 1.6], 4.0)
        with conv3d.Workspace(len(volumes), dims) as workspace:
            rows = workspace.rows
            for bad in (rows.astype(np.float32), np.asfortranarray(rows)):
                workspace.rows = bad
                for d_profiles in (None, dps):
                    with pytest.raises(ValueError, match="too small .* or not C-ordered float64"):
                        smooth_batch(volumes, ps, d_profiles, w, workspace)

    def test_one_profile_per_volume_required(self):
        # too few profiles left a result row unwritten, too few derivative
        # profiles a volume unsmoothed, and a None would pass as a NaN 1-tap
        x = np.zeros((3, 5, 5, 5))
        _, ps, dps = build_profiles([1.1, 0.6, 0.9], 4.0)
        for profiles, d_profiles in ((ps[:2], None), (ps[:2], dps), (ps, dps[:2]),
                                     ([*ps, ps[0]], None), (ps, [*dps, dps[0]])):
            with pytest.raises(ValueError, match="need one profile each"):
                smooth_batch(x, profiles, d_profiles, x[0])
        for profiles, d_profiles in (([ps[0], None, ps[2]], None),
                                     ([ps[0], None, ps[2]], dps), (ps, [dps[0], None, dps[2]])):
            with pytest.raises(DataError, match="1-D of odd length"):
                smooth_batch(x, profiles, d_profiles, x[0])

    def test_bad_profiles_rejected(self):
        x = np.zeros((1, 4, 4, 4))
        for bad, match in ((np.ones(2), "odd"), (np.ones(5), "exceeds")):
            with pytest.raises(DataError, match=match):
                smooth_batch(x, [np.ones(3)], [bad], x[0])
            with pytest.raises(DataError, match=match):
                smooth_batch(x, [bad], [np.ones(3)], x[0])


class TestSymmetricSmoothing:
    """Zero-padded same-size smoothing K with a symmetric profile is a
    symmetric matrix: w . (K x) == (K w) . x, which lets a shared width
    smooth the classifier weight instead of every volume."""

    @pytest.mark.parametrize("shape", ["cubic", "non-cubic", "filter side == min dim"])
    @pytest.mark.parametrize("sigma, radius", [(0.3, 0), (0.6, 1), (1.1, 2), (1.6, 3)])
    def test_adjoint_identity(self, sigma, radius, shape):
        side = 2 * radius + 1
        dims = {"cubic": (8, 8, 8), "non-cubic": (9, 11, 7),
                "filter side == min dim": (side + 3, side, side + 1)}[shape]
        rng = np.random.default_rng(radius)
        x, w = rng.normal(size=dims), rng.normal(size=dims)
        p = build_filter(sigma, 4.0).profile_1d
        assert p.size == side
        lhs = float(np.sum(w * convolve_separable(x, p)))
        rhs = float(np.sum(convolve_separable(w, p) * x))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_separable_faster_than_direct():
    x = np.random.default_rng(9).normal(size=(64, 64, 64))
    f = build_filter(1.0, 4.0)  # r = 2
    t0 = time.perf_counter()
    convolve(x, f.weights)
    direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    convolve_separable(x, f.profile_1d)
    separable = time.perf_counter() - t0
    assert separable < direct
