import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import adaptsmooth
from adaptsmooth.conv3d import convolve, convolve_separable, separable_product
from adaptsmooth.errors import DataError
from adaptsmooth.gaussian_filter import build_filter


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
        p = rng.normal(size=5)
        x = rng.normal(size=(9, 11, 7))
        z = convolve_separable(x, p)
        assert np.max(np.abs(z - convolve(x, np.einsum("i,j,k", p, p, p)))) < 1e-12


_DIGESTS = """
import hashlib, sys, tempfile
from pathlib import Path
import numpy as np
from adaptsmooth import classifier, params_net, phantom, trainer
from adaptsmooth.conv3d import convolve_separable, separable_product
from adaptsmooth.gaussian_filter import build_filter, heat_kernel, sine_basis, width_range
f = build_filter(1.6, 4.0)
for dims in [(24, 24, 24), (9, 11, 7), (61, 73, 61)]:
    x = np.random.default_rng(0).normal(size=dims)
    sine = separable_product(x, [sine_basis(n)[0] for n in dims])
    heat = separable_product(x, [heat_kernel(1.6, n) for n in dims])
    for out in (convolve_separable(x, f.profile_1d), sine, heat):
        print(hashlib.sha256(out.tobytes()).hexdigest())
x = np.random.default_rng(1).normal(size=(9, 11, 7))
out = convolve_separable(x, np.random.default_rng(2).normal(size=5))
print(hashlib.sha256(out.tobytes()).hexdigest())
# one training step on sine coefficients (adaptive, then a fixed width) and
# one on voxels (a fixed width), with the weight held as `train` holds it, at
# each size: the logits, the adaptive width derivatives, every gradient
# (the weight's in the held basis) and the loss
for dims in [(24, 24, 24), (9, 11, 7), (61, 73, 61)]:
    rng = np.random.default_rng(2)
    vols = np.stack([s * rng.normal(size=dims) + 0.5 for s in (0.0, 0.05, 0.1, 0.2, 0.3, 0.4)])
    feats = np.array([params_net.noise_feature(v) for v in vols])
    basis = [sine_basis(n)[0] for n in dims]
    coeffs = np.stack([separable_product(v, basis) for v in vols])
    pnw = params_net.init_weights(8, 43, *width_range(dims, 4.0))
    cw = classifier.xavier_init(dims, 44)
    for volumes, features, fixed in ((coeffs, feats, None), (coeffs, feats, 0.7),
                                     (vols, None, 0.7)):
        batch = trainer.MiniBatch("s0", 0.1, "train", volumes, np.arange(6) % 2.0, features)
        cfg = trainer.TrainConfig(lambda_l2=1e-3, seed=1, fixed_sigma=fixed)
        smoothing = trainer._Smoothing(cfg, [batch])
        loss, grads, fwd = trainer.batch_loss_and_grads(batch, pnw, smoothing.held(cw), cfg,
                                                        smoothing)
        h = hashlib.sha256(np.float64(loss).tobytes() + fwd["cache"]["logits"].tobytes())
        for name in grads:
            h.update(np.asarray(grads[name], dtype=np.float64).tobytes())
        if fixed is None:
            h.update(fwd["dlogit_dsigma"].tobytes())
        print(h.hexdigest())
# the sine coefficients load_dataset stores, from a full and a test-split load
with tempfile.TemporaryDirectory() as tmp:
    spec = phantom.PhantomSpec(dims=(9, 16, 11), n_subjects=3, volumes_per_subject_per_class=2,
                               center_offset_x=3, blob_radius=1.3, noise_levels=(0.0, 0.2),
                               split_counts=(1, 1, 1))
    phantom.generate(spec, tmp, seed=5)
    for split in (None, "test"):
        batches = trainer.load_dataset(Path(tmp) / "manifest.csv", split)
        test = [b.volumes for b in batches if b.split == "test"]
        print(hashlib.sha256(np.concatenate(test).tobytes()).hexdigest())
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
    assert len(digests[0]) == 21
    assert digests[0] == digests[1]
    # a full load and a split load store a volume's coefficients bit for bit
    assert digests[0][-2] == digests[0][-1]


_CPU_DIGESTS = """
import hashlib, os, sys
import numpy as np
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from adaptsmooth import params_net, trainer
from adaptsmooth.conv3d import separable_product
from adaptsmooth.gaussian_filter import sine_basis
dims, n = (9, 11, 7), 11
basis = [sine_basis(k)[0] for k in dims]
coeffs, voxels = [], []
for i, split in enumerate(trainer.SPLITS):
    vols = np.random.default_rng(i).normal(0.5, 0.2, (n, *dims))
    feats = np.array([params_net.noise_feature(v) for v in vols])
    voxels.append(trainer.MiniBatch(f"s{i}", 0.1 * i, split, vols.copy(), np.arange(n) % 2.0,
                                    None))
    for v in vols:
        separable_product(v, basis, out=v)
    coeffs.append(trainer.MiniBatch(f"s{i}", 0.1 * i, split, vols, np.arange(n) % 2.0, feats))
for batches, fixed in ((coeffs, None), (coeffs, 0.9), (voxels, 0.9)):
    cfg = trainer.TrainConfig(max_epochs=2, patience=2, seed=5, width_m=8, fixed_sigma=fixed)
    pnw, cw, _ = trainer.train(cfg, batches)
    h = hashlib.sha256()
    for weights in (pnw.a, pnw.b, pnw.v, pnw.c, cw.w):
        h.update(np.asarray(weights, dtype=np.float64).tobytes())
    print(h.hexdigest())
"""


def test_output_does_not_depend_on_cpu_count():
    """2-epoch trainings, adaptive and at a fixed width on sine coefficients
    and at a fixed width on voxels, are bit for bit the same with the
    process pinned to one CPU and free on every CPU it may use: the BLAS
    build may size its thread pool by the CPUs it sees."""
    src = str(Path(adaptsmooth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    runs = {}
    for mode in ("pinned", "free"):
        result = subprocess.run([sys.executable, "-c", _CPU_DIGESTS, mode], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        runs[mode] = result.stdout.split()
    assert len(runs["pinned"]) == 3
    assert runs["pinned"] == runs["free"]


def test_separable_product_in_place():
    # `load_dataset` transforms each volume into its own memory: the bits
    # of a fresh result, and each axis multiplied by its own matrix
    rng = np.random.default_rng(7)
    x = rng.normal(size=(9, 11, 7))
    mats = [rng.normal(size=(n, n)) for n in x.shape]
    fresh = separable_product(x, mats)
    np.testing.assert_allclose(fresh, np.einsum("ia,jb,kc,ijk->abc", *mats, x),
                               rtol=1e-12, atol=1e-12)
    y = x.copy()
    separable_product(y, mats, out=y)
    assert y.tobytes() == fresh.tobytes()


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
