import copy
import dataclasses
import math
import re
import threading
import weakref

import numpy as np
import pytest

from adaptsmooth import classifier, params_net, phantom, trainer
from adaptsmooth.conv3d import separable_product
from adaptsmooth.errors import DataError, NumericalError
from adaptsmooth.gaussian_filter import heat_gains, heat_kernel, sine_basis, width_range
from adaptsmooth.phantom import PhantomSpec
from adaptsmooth.trainer import (
    MiniBatch,
    TrainConfig,
    batch_loss_and_grads,
    evaluate,
    grid_search,
    load_dataset,
    make_batches,
    train,
)
from adaptsmooth.volume_io import (
    Volume,
    read_config,
    read_manifest,
    read_volume,
    write_volume,
)


def _init_head(m, seed, dims=(16, 16, 16)):
    """`train`'s initial head for volumes of `dims` at the default truncation."""
    return params_net.init_weights(m, seed, *width_range(dims, TrainConfig().truncation))


def _basis(dims):
    """The sine basis of each axis of volumes of `dims`."""
    return [sine_basis(n)[0] for n in dims]


def _make_group(sid, noise, split, n, dims=(4, 4, 4), seed=0):
    rng = np.random.default_rng(seed)
    vols = [rng.normal(0.5, 0.2, dims) for _ in range(n)]
    feats = np.array([params_net.noise_feature(v) for v in vols])
    labels = np.arange(n) % 2
    return MiniBatch(sid, noise, split, np.stack(vols), labels.astype(float), feats)


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    """Small but trainable phantom dataset: 4 subjects, 16^3, 2 noise levels."""
    out = tmp_path_factory.mktemp("tinyds")
    spec = phantom.PhantomSpec(dims=(16, 16, 16), n_subjects=4,
                               volumes_per_subject_per_class=3,
                               center_offset_x=3, blob_radius=1.3,
                               noise_levels=(0.0, 0.2),
                               split_counts=(2, 1, 1))
    phantom.generate(spec, out, seed=3)
    return out / "manifest.csv"


@pytest.fixture(scope="module")
def tiny_dataset(tiny_manifest):
    return load_dataset(tiny_manifest)


@pytest.fixture(scope="module")
def tiny_voxels(tiny_manifest):
    """The same dataset loaded without features: voxels."""
    return load_dataset(tiny_manifest, features=False)


def test_load_dataset_reads_each_group_into_one_array(tmp_path):
    spec = PhantomSpec(dims=(9, 16, 11), n_subjects=3, volumes_per_subject_per_class=2,
                       center_offset_x=3, blob_radius=1.3, noise_levels=(0.0, 0.2),
                       split_counts=(1, 1, 1))
    phantom.generate(spec, tmp_path, seed=5)
    groups = {}
    for e in read_manifest(tmp_path / "manifest.csv").entries:
        groups.setdefault((e.subject_id, e.noise_level), []).append(e.path)
    bare = load_dataset(tmp_path / "manifest.csv", features=False)
    full = load_dataset(tmp_path / "manifest.csv")
    assert len(bare) == len(full) == len(groups) == 6
    basis = _basis((9, 16, 11))
    for b, f in zip(bare, full):
        paths = groups[(b.subject_id, b.noise_level)]
        for batch in (b, f):
            assert isinstance(batch.volumes, np.ndarray)
            assert batch.volumes.dtype == np.float64 and batch.volumes.flags.c_contiguous
            assert batch.volumes.shape == (len(paths), 9, 16, 11)
        voxels = np.stack([read_volume(tmp_path / path).data for path in paths])
        np.testing.assert_array_equal(b.volumes, voxels)
        # with features, each volume is stored as its sine coefficients
        np.testing.assert_array_equal(
            f.volumes, np.stack([separable_product(v, basis) for v in voxels]))


def _three_subject_phantom(out):
    spec = PhantomSpec(dims=(9, 16, 11), n_subjects=3, volumes_per_subject_per_class=2,
                       center_offset_x=3, blob_radius=1.3, noise_levels=(0.0, 0.2),
                       split_counts=(1, 1, 1))
    phantom.generate(spec, out, seed=5)
    return out / "manifest.csv"


def _leave_one_volume(manifest, split):
    """Drop all but the first volume of the first (subject, noise) group of
    `split` from `manifest`; returns that group's subject and noise fields."""
    header, *rows = manifest.read_text().splitlines()
    group = next(r.split(",")[2:4] for r in rows if r.endswith("," + split))
    first = next(r for r in rows if r.split(",")[2:4] == group)
    kept = [r for r in rows if r.split(",")[2:4] != group]
    manifest.write_text("\n".join([header, first, *kept]) + "\n")
    return group


def test_load_dataset_rejects_mixed_voxel_sizes(tmp_path):
    last = read_manifest(_three_subject_phantom(tmp_path)).entries[-1].path
    write_volume(Volume(read_volume(tmp_path / last).data, 2.0), tmp_path / last)
    with pytest.raises(DataError, match=rf"^{re.escape(last)}: voxel size 2\.0 mm "
                                        r"differs from the dataset's 3\.0 mm$"):
        load_dataset(tmp_path / "manifest.csv")


def test_load_dataset_without_features(tmp_path, monkeypatch):
    manifest = _three_subject_phantom(tmp_path)
    full = load_dataset(manifest)

    def no_feature(x):
        raise AssertionError("noise feature computed")

    monkeypatch.setattr(params_net, "noise_feature", no_feature)
    bare = load_dataset(manifest, features=False)
    assert [(b.subject_id, b.noise_level, b.split) for b in bare] == \
        [(b.subject_id, b.noise_level, b.split) for b in full]
    basis = _basis((9, 16, 11))
    for b, f in zip(bare, full):
        assert b.features is None
        # the bare load stays in voxels, the full one holds their coefficients
        np.testing.assert_array_equal(
            f.volumes, np.stack([separable_product(v, basis) for v in b.volumes]))
        np.testing.assert_array_equal(b.labels, f.labels)
        assert b.voxel_size_mm == f.voxel_size_mm


def test_featureless_batches_evaluate_fixed_width_only(tmp_path):
    manifest = _three_subject_phantom(tmp_path)
    full, bare = load_dataset(manifest), load_dataset(manifest, features=False)
    pnw = _init_head(5, 0, (9, 16, 11))
    cw = classifier.xavier_init((9, 16, 11), 1)
    # the same kernel on voxels (K w) and on coefficients (E S w): the same
    # accuracies, losses equal to rounding
    on_voxels = evaluate(pnw, cw, bare, "test", fixed_sigma=0.8)
    on_coefficients = evaluate(pnw, cw, full, "test", fixed_sigma=0.8)
    assert on_voxels["accuracy"] == on_coefficients["accuracy"]
    assert on_voxels["loss"] == pytest.approx(on_coefficients["loss"], rel=1e-12)
    for noise, row in on_voxels["per_noise"].items():
        assert row["accuracy"] == on_coefficients["per_noise"][noise]["accuracy"]
    with pytest.raises(DataError, match="noise features"):
        evaluate(pnw, cw, bare, "test")
    with pytest.raises(DataError, match="noise features"):
        train(TrainConfig(max_epochs=1, width_m=5), bare)
    with pytest.raises(DataError, match="cannot be mixed"):
        evaluate(pnw, cw, [*bare, *full], "test", fixed_sigma=0.8)


def test_load_dataset_split_keeps_only_that_split(tmp_path):
    manifest = _three_subject_phantom(tmp_path)
    full = load_dataset(manifest)
    for split in ("train", "validation", "test"):
        part = load_dataset(manifest, split)
        expected = [b for b in full if b.split == split]
        assert [(b.subject_id, b.noise_level) for b in part] == \
            [(b.subject_id, b.noise_level) for b in expected]
        for b, e in zip(part, expected):
            np.testing.assert_array_equal(b.volumes, e.volumes)
            np.testing.assert_array_equal(b.features, e.features)
            np.testing.assert_array_equal(b.labels, e.labels)
    manifest.write_text("path,label,subject_id,noise_level,split\n")
    with pytest.raises(DataError, match="split 'test' is empty"):
        load_dataset(manifest, "test")


class TestMiniBatch:
    def test_fewer_than_two_volumes_refused(self):
        for n in (0, 1):
            with pytest.raises(DataError, match=rf"^group \(s1, 0\.1\) has {n} volume\(s\); "
                                                r"batch standardization needs >= 2$"):
                MiniBatch("s1", 0.1, "train", np.zeros((n, 4, 4, 4)), np.zeros(n), None)

    @pytest.mark.parametrize("split", ["validation", "test"])
    def test_load_dataset_refuses_one_volume_group(self, tmp_path, split):
        # every split's groups are batches: a one-volume group is refused at
        # load, not by the classifier once training has run
        manifest = _three_subject_phantom(tmp_path)
        sid, noise = _leave_one_volume(manifest, split)
        message = rf"^group \({sid}, {re.escape(noise)}\) has 1 volume\(s\); "
        for only in (None, split):
            with pytest.raises(DataError, match=message):
                load_dataset(manifest, only)
        assert load_dataset(manifest, "train")


class TestMakeBatches:
    def test_grouping(self):
        groups = [_make_group(s, n, "train", 4, seed=i)
                  for i, (s, n) in enumerate([("s1", 0.0), ("s1", 0.1),
                                              ("s2", 0.0), ("s2", 0.1)])]
        out = make_batches(groups, seed=0)
        assert len(out) == 4
        assert {(b.subject_id, b.noise_level) for b in out} == \
            {("s1", 0.0), ("s1", 0.1), ("s2", 0.0), ("s2", 0.1)}

    def test_same_seed_same_order(self):
        groups = [_make_group(f"s{i}", 0.0, "train", 2, seed=i) for i in range(6)]
        a = make_batches(groups, seed=5)
        b = make_batches(groups, seed=5)
        assert [x.subject_id for x in a] == [x.subject_id for x in b]
        c = make_batches(groups, seed=6)
        assert [x.subject_id for x in a] != [x.subject_id for x in c]

    def test_paper_scale_group_size(self):
        # 120 volumes per (subject, noise) group stay one batch
        g = _make_group("s1", 0.1, "train", 120, dims=(3, 3, 3))
        out = make_batches([g], seed=0)
        assert len(out) == 1 and out[0].size == 120


class TestGradients:
    def _setup(self, seed=42, m=5):
        rng = np.random.default_rng(seed)
        dims = (8, 8, 8)
        vols = [rng.normal(0.4, 0.1, dims) for _ in range(4)]
        feats = np.array([params_net.noise_feature(v) for v in vols])
        batch = MiniBatch("s0", 0.1, "train", np.stack(vols),
                          np.array([0.0, 1.0, 0.0, 1.0]), feats)
        pnw = params_net.ParamsNetWeights(rng.normal(0, 0.05, m), rng.normal(0, 0.05, m),
                                          rng.normal(0, 0.05, m), 0.1,
                                          *width_range(dims, 4.0))
        cw = classifier.xavier_init(dims, seed + 1)
        cfg = TrainConfig(lambda_l2=1e-4)
        return batch, pnw, cw, cfg

    def test_end_to_end_vs_finite_differences(self):
        batch, pnw, cw, cfg = self._setup()
        _, grads, fwd = batch_loss_and_grads(batch, pnw, cw, cfg)
        # widths must sit in a support-stable region for the check to be fair
        assert all(0.9 < s < 1.3 for s in fwd["sigmas"])

        def loss_of(pn):
            l, _, _ = batch_loss_and_grads(batch, pn, cw, cfg)
            return l

        h = 1e-6
        rng = np.random.default_rng(0)
        for _ in range(10):
            name = rng.choice(["a", "b", "v"])
            i = int(rng.integers(pnw.m))
            p1, p2 = copy.deepcopy(pnw), copy.deepcopy(pnw)
            getattr(p1, name)[i] += h
            getattr(p2, name)[i] -= h
            fd = (loss_of(p1) - loss_of(p2)) / (2 * h)
            an = grads[name][i]
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-12) < 1e-3

    def test_single_step_decreases_batch_loss(self):
        batch, pnw, cw, cfg = self._setup()
        loss0, grads, _ = batch_loss_and_grads(batch, pnw, cw, cfg)
        for lr in (1e-4, 1e-5):
            pn2 = copy.deepcopy(pnw)
            cw2 = copy.deepcopy(cw)
            cw2.w = cw2.w - lr * grads["w"]
            pn2.a = pn2.a - lr * grads["a"]
            pn2.b = pn2.b - lr * grads["b"]
            pn2.v = pn2.v - lr * grads["v"]
            pn2.c = pn2.c - lr * grads["c"]
            loss1, _, _ = batch_loss_and_grads(batch, pn2, cw2, cfg)
            assert loss1 < loss0


class TestJointPassChain:
    """A training step takes the joint pass over its batch: each volume's
    coefficients times its own width's gains, into the call's buffer, which
    the classifier reads in place, then every logit's width derivative;
    evaluation only smooths."""

    def test_evaluation_never_takes_joint_path(self, tiny_dataset, monkeypatch):
        forward, derivatives = trainer._forward_batch, []

        def recorded(*args, **kwargs):
            fwd = forward(*args, **kwargs)
            derivatives.append(fwd["dlogit_dsigma"])
            return fwd

        monkeypatch.setattr(trainer, "_forward_batch", recorded)
        pnw = _init_head(8, 0)
        cw = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 0)
        for split in ("validation", "test"):
            evaluate(pnw, cw, tiny_dataset, split)
            trainer._evaluate_split(tiny_dataset, pnw, cw, TrainConfig(), split)
        count = sum(b.split in ("validation", "test") for b in tiny_dataset)
        assert len(derivatives) == 2 * count
        assert all(d is None for d in derivatives)

    def test_classifier_reads_smoothed_volumes_in_place(self):
        # the logits and the weight gradient read the batch's rows Y, its
        # coefficients times each volume's (w, d) gains, in the call's buffer
        batch, pnw, cw, cfg = TestGradients()._setup()
        smoothing = trainer._Smoothing(cfg, [batch])
        _, _, fwd = batch_loss_and_grads(batch, pnw, smoothing.held(cw), cfg, smoothing)
        assert smoothing.rows.shape == (batch.size, 8, 8 * 8)
        assert np.shares_memory(smoothing.rows, smoothing.out)
        assert fwd["dlogit_dsigma"].shape == (batch.size,)


class TestBatchStep:
    """An adaptive training step maps the batch's widths, gains and logit
    derivatives at once, through the rows Y of the batch, without forming
    the smoothed coefficients; it equals the step taken volume by volume on
    them: the rows bit for bit, the logits, derivatives and gradients to
    rounding."""

    @staticmethod
    def _reference(batch, pnw, w_hat, cfg):
        """Widths, rows Y, logits, logit width derivatives and the gradients
        of the held weight and the head, one smoothed volume z^ at a time."""
        dims = batch.volumes.shape[1:]
        lam_h, lam_w, lam_d = (sine_basis(n)[1] for n in dims)
        eig = lam_h[:, None, None] + lam_w[:, None] + lam_d
        w_hat = w_hat.reshape(dims)
        sigmas, rows, smoothed, logits, dz = [], [], [], [], []
        for x, feat in zip(batch.volumes, batch.features):
            sigma = params_net.map_to_sigma(float(feat), pnw)
            e_h, e_w, e_d = (heat_gains(sigma, lam) for lam in (lam_h, lam_w, lam_d))
            # the trainer's rows: the (w, d) plane of gains on every h slice
            y = x.reshape(dims[0], -1) * np.outer(e_w, e_d).ravel()
            z = e_h[:, None, None] * y.reshape(dims)
            logits.append(float(np.sum(w_hat * z)))
            # dK/dsigma = sigma L K in every axis: sigma Lam z
            dz.append(sigma * float(np.sum(eig * w_hat * z)))
            sigmas.append(sigma)
            rows.append(y)
            smoothed.append(z)
        _, cache = classifier.forward(np.array(logits))
        dl_dlogit = classifier.backward(cache, batch.labels)
        dw = np.tensordot(dl_dlogit, np.stack(smoothed), axes=1).ravel()
        dw = dw + 2 * cfg.lambda_l2 * w_hat.ravel()
        head = [np.zeros(pnw.m), np.zeros(pnw.m), np.zeros(pnw.m), 0.0]
        for feat, dz_i, dl in zip(batch.features, dz, dl_dlogit):
            g = params_net.map_to_sigmas_backward([feat], pnw, [float(dl) * dz_i],
                                                  params_net.head_forward([feat], pnw)[1])
            head = [h + gi for h, gi in zip(head, g)]
        return (sigmas, np.stack(rows), np.array(logits), dz,
                {"w": dw, **dict(zip("abvc", head))})

    @pytest.mark.parametrize("dims", [(8, 8, 8), (7, 8, 9)])
    def test_equals_per_volume_step(self, dims):
        rng = np.random.default_rng(4)
        # pre-activation = 0.5 f + 0.25 f + 0.25 f = f; -1e3 and 1e3
        # saturate the width at lo and hi
        lo, hi = width_range(dims, 4.0)
        pnw = params_net.ParamsNetWeights([0.5, 0.25, 0.25], np.zeros(3), np.ones(3), 0.0,
                                          lo, hi)
        feats = np.array([-3.0, 0.1, -1.0, 2.0, 0.6, -1e3, 4.0, 1e3, -6.0, 0.9])
        n = feats.size
        batch = MiniBatch("s0", 0.1, "train", rng.normal(0.4, 0.1, (n, *dims)),
                          np.arange(n) % 2.0, feats)
        cfg = TrainConfig(lambda_l2=1e-3, seed=2)
        smoothing = trainer._Smoothing(cfg, [batch])
        held = smoothing.held(classifier.xavier_init(dims, 5))
        _, grads, fwd = batch_loss_and_grads(batch, pnw, held, cfg, smoothing)
        sigmas, rows, logits, dz, ref = self._reference(batch, pnw, held.w, cfg)
        assert min(sigmas) == lo and max(sigmas) == hi
        assert fwd["sigmas"] == sigmas
        assert smoothing.rows.tobytes() == rows.tobytes()
        np.testing.assert_allclose(fwd["cache"]["logits"], logits, rtol=1e-12, atol=0)
        np.testing.assert_allclose(fwd["dlogit_dsigma"], dz, rtol=1e-12, atol=0)
        for name in "wabvc":
            np.testing.assert_allclose(grads[name], ref[name], rtol=1e-10,
                                       atol=1e-13 * np.max(np.abs(ref[name])))
            assert np.any(grads[name])

    def test_two_weight_products_per_step(self, monkeypatch):
        # a step given a weight in voxels carries it into the sine basis
        # and its gradient back, S_3 w and S_3 g; a step of `train`, which
        # holds the weight in that basis, takes none; no volume takes one,
        # its smoothing is one gain per coefficient
        batch, pnw, cw, cfg = TestGradients()._setup()
        calls = []
        product = trainer.separable_product
        monkeypatch.setattr(trainer, "separable_product",
                            lambda x, mats, out=None: calls.append(x) or product(x, mats, out))
        batch_loss_and_grads(batch, pnw, cw, cfg)
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[0], cw.w.reshape(batch.volumes[0].shape))
        smoothing = trainer._Smoothing(cfg, [batch])
        held = smoothing.held(cw)
        calls.clear()
        batch_loss_and_grads(batch, pnw, held, cfg, smoothing)
        assert calls == []


class TestStepWork:
    """An adaptive training step computes each of its quantities once: the
    gains once per distinct axis length, the operand in one buffer that
    every step of the call overwrites, and the head's forward pass once,
    its state reused by the backward pass."""

    @pytest.mark.parametrize("dims, evaluations", [((24, 24, 24), 1), ((9, 11, 7), 3)])
    def test_gains_once_per_axis_length(self, dims, evaluations, monkeypatch):
        batch = _make_group("s0", 0.1, "train", 3, dims, seed=6)
        cfg = TrainConfig(seed=1)
        smoothing = trainer._Smoothing(cfg, [batch])
        w = smoothing.held(classifier.xavier_init(dims, 2)).w
        op = smoothing.operand(w, training=True)
        sigmas = np.array([0.6, 1.0, 1.7])
        calls = []
        monkeypatch.setattr(trainer, "heat_gains",
                            lambda s, lam: calls.append(lam.size) or heat_gains(s, lam))
        logits, dz = smoothing.logits(batch.volumes, sigmas, op)
        assert len(calls) == evaluations
        # the per-axis form: one evaluation of the gains per axis
        lam_h, lam_w, lam_d = (sine_basis(n)[1] for n in dims)
        e_h, e_w, e_d = (heat_gains(sigmas, lam) for lam in (lam_h, lam_w, lam_d))
        y = batch.volumes.reshape(3, dims[0], -1) * (e_w[:, :, None]
                                                     * e_d[:, None, :]).reshape(3, 1, -1)
        r = np.matmul(y.transpose(1, 0, 2), np.stack((w.reshape(dims[0], -1),
                                                      smoothing.lam_wd * w.reshape(dims[0], -1)),
                                                     axis=-1))
        want = np.sum(e_h * r[:, :, 0].T, axis=1)
        want_dz = sigmas * np.sum(e_h * (lam_h[:, None] * r[:, :, 0] + r[:, :, 1]).T, axis=1)
        assert logits.tobytes() == want.tobytes()
        assert dz.tobytes() == want_dz.tobytes()

    def test_training_steps_share_one_operand_buffer(self, tiny_dataset, monkeypatch):
        operand, made = trainer._Smoothing.operand, []

        def recorded(smoothing, w, training=False):
            op = operand(smoothing, w, training)
            if training:
                rows = w.reshape(smoothing.dims[0], -1)
                want = np.stack((rows, smoothing.lam_wd * rows), axis=-1)
                made.append((op, op.tobytes() == want.tobytes()))
            return op

        monkeypatch.setattr(trainer._Smoothing, "operand", recorded)
        train(TrainConfig(max_epochs=2, patience=2, seed=5, width_m=8), tiny_dataset)
        assert len(made) == 2 * sum(b.split == "train" for b in tiny_dataset)
        assert all(op is made[0][0] for op, _ in made)
        assert all(same for _, same in made)

    def test_evaluation_builds_no_operand_buffer(self, tiny_dataset, monkeypatch):
        logits, used = trainer._Smoothing.logits, []

        def recorded(smoothing, *args):
            used.append(smoothing)
            return logits(smoothing, *args)

        monkeypatch.setattr(trainer._Smoothing, "logits", recorded)
        pnw = _init_head(8, 0)
        cw = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 0)
        evaluate(pnw, cw, tiny_dataset, "test")
        assert used and all(s.pair is None for s in used)

    def test_one_head_forward_per_training_step(self, monkeypatch):
        batch, pnw, cw, cfg = TestGradients()._setup()
        forward, calls = params_net._preactivations, []
        monkeypatch.setattr(params_net, "_preactivations",
                            lambda *args: calls.append(1) or forward(*args))
        _, grads, fwd = batch_loss_and_grads(batch, pnw, cw, cfg)
        assert len(calls) == 1
        # the head's gradients are those of a forward pass of its own
        upstream = classifier.backward(fwd["cache"], batch.labels) * fwd["dlogit_dsigma"]
        want = params_net.map_to_sigmas_backward(
            batch.features, pnw, upstream, params_net.head_forward(batch.features, pnw)[1])
        for name, g in zip("abvc", want):
            assert np.asarray(grads[name]).tobytes() == np.asarray(g).tobytes()


class TestFixedWidth:
    """A fixed width smooths the classifier weight instead of every volume:
    twice per training step and once per evaluation, with one kernel built
    per `train` or `evaluate` call; on sine coefficients and on voxels the
    step must match smoothing the voxels themselves."""

    SIGMA = 1.1

    def _setup(self):
        """A voxel batch and the coefficient batch of the same volumes."""
        rng = np.random.default_rng(8)
        dims = (7, 8, 9)
        vols = np.stack([rng.normal(0.4, 0.1, dims) for _ in range(6)])
        coeffs = np.stack([separable_product(v, _basis(dims)) for v in vols])
        voxels = MiniBatch("s0", 0.1, "train", vols, np.arange(6) % 2.0, None)
        batch = MiniBatch("s0", 0.1, "train", coeffs, np.arange(6) % 2.0, np.zeros(6))
        cw = classifier.xavier_init(dims, 3)
        cfg = TrainConfig(fixed_sigma=self.SIGMA, lambda_l2=1e-3)
        return batch, cw, cfg, voxels

    @staticmethod
    def _rel(a, b, scale=None):
        a, b = np.asarray(a), np.asarray(b)
        return float(np.max(np.abs(a - b))) / (scale or float(np.max(np.abs(b))))

    def test_training_step_matches_smoothed_batch_reference(self):
        batch, cw, cfg, voxels = self._setup()
        # reference: smooth every voxel volume with the heat kernel, classify,
        # add the L2 term
        kernel = [heat_kernel(self.SIGMA, n) for n in voxels.volumes.shape[1:]]
        x = np.stack([separable_product(x, kernel) for x in voxels.volumes])
        x = x.reshape(batch.size, -1)
        probs, cache = classifier.forward(x @ cw.w)
        penalty, pen_grad = classifier.l2_penalty(cw, cfg.lambda_l2)
        ref_loss = classifier.bce_loss(probs, batch.labels) + penalty
        dl_dlogit = classifier.backward(cache, batch.labels)
        dw = dl_dlogit @ x
        for b in (batch, voxels):
            loss, grads, fwd = batch_loss_and_grads(b, None, cw, cfg)
            assert self._rel(fwd["probs"], probs) < 1e-12
            assert self._rel(loss, ref_loss) < 1e-12
            assert self._rel(grads["w"], dw + pen_grad) < 1e-12
            assert set(grads) == {"w"}

    def test_weight_gradient_vs_finite_differences(self):
        batch, cw, cfg, _ = self._setup()
        _, grads, _ = batch_loss_and_grads(batch, None, cw, cfg)
        h = 1e-6
        rng = np.random.default_rng(1)
        for i in rng.choice(cw.w.size, size=12, replace=False):
            wp, wm = copy.deepcopy(cw), copy.deepcopy(cw)
            wp.w[i] += h
            wm.w[i] -= h
            fd = (batch_loss_and_grads(batch, None, wp, cfg)[0]
                  - batch_loss_and_grads(batch, None, wm, cfg)[0]) / (2 * h)
            assert abs(fd - grads["w"][i]) / max(abs(fd), 1e-10) < 1e-5

    @pytest.fixture()
    def smoothings(self, monkeypatch):
        calls = []
        product = trainer.separable_product

        def counted(x, mats, out=None):
            calls.append(x)
            return product(x, mats, out)

        monkeypatch.setattr(trainer, "separable_product", counted)
        return calls

    def test_two_smoothings_per_training_batch(self, smoothings):
        # a step given a weight in voxels: the weight and the gradient each
        # take one product (K on voxels, S_3 on coefficients); in `train`,
        # which holds w^ on coefficients, a step takes none there
        batch, cw, cfg, voxels = self._setup()
        for b in (batch, voxels):
            smoothings.clear()
            batch_loss_and_grads(b, None, cw, cfg)
            assert len(smoothings) == 2
            np.testing.assert_array_equal(smoothings[0], cw.w.reshape(b.volumes[0].shape))
            assert not any(np.shares_memory(x, b.volumes) for x in smoothings)
        for b, count in ((batch, 0), (voxels, 2)):
            smoothing = trainer._Smoothing(cfg, [b])
            held = smoothing.held(cw)
            smoothings.clear()
            batch_loss_and_grads(b, None, held, cfg, smoothing)
            assert len(smoothings) == count

    def test_one_smoothing_per_forward_pass_without_rng(self, smoothings):
        # the caller maps the weight once, into the sine basis; the
        # fixed width's gains and the forward pass take no product
        batch, cw, cfg, _ = self._setup()
        dims = batch.volumes.shape[1:]
        smoothing = trainer._Smoothing(cfg, [batch])
        held = smoothing.held(cw)
        op = smoothing.operand(held.w)
        assert len(smoothings) == 1
        np.testing.assert_array_equal(smoothings[0], cw.w.reshape(dims))
        smoothings.clear()
        trainer._forward_batch(batch, None, op, cfg, smoothing)
        assert smoothings == []

    @pytest.fixture()
    def builds(self, monkeypatch):
        """One entry per kernel built for an axis length: its gains on sine
        coefficients, its matrix on voxels."""
        calls = []
        for name in ("heat_gains", "heat_kernel"):
            build = getattr(trainer, name)
            monkeypatch.setattr(trainer, name, lambda *args, build=build:
                                calls.append(args) or build(*args))
        return calls

    def test_filter_built_once_per_evaluation(self, tiny_dataset, builds):
        cw = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 0)
        assert sum(b.split == "test" for b in tiny_dataset) >= 2
        evaluate(None, cw, tiny_dataset, "test", fixed_sigma=1.13)
        assert len(builds) == 1  # 16^3: one axis length

    def test_filter_built_once_per_training(self, tiny_dataset, builds):
        cfg = TrainConfig(fixed_sigma=self.SIGMA, max_epochs=3, patience=3)
        _, _, report = train(cfg, tiny_dataset)
        assert len(report.epochs) == 3
        assert len(builds) == 1

    def test_one_smoothing_per_evaluation(self, tiny_dataset, smoothings):
        dims = tiny_dataset[0].volumes[0].shape
        cw = classifier.xavier_init(dims, 0)
        assert sum(b.split == "test" for b in tiny_dataset) >= 2
        evaluate(None, cw, tiny_dataset, "test", fixed_sigma=1.13)
        assert len(smoothings) == 1
        np.testing.assert_array_equal(smoothings[0], cw.w.reshape(dims))

    def test_evaluation_equals_per_batch_reference(self, tiny_dataset):
        cw = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 0)
        cfg = TrainConfig(fixed_sigma=1.13)
        # reference: each batch smooths the weight again, in a lone forward
        # pass; each noise level of the test split is one batch
        per_noise, loss, correct, n = {}, 0.0, 0.0, 0
        for b in tiny_dataset:
            if b.split != "test":
                continue
            fwd = _forward(b, None, cw, cfg)
            acc = classifier.accuracy(fwd["probs"], b.labels)
            assert b.noise_level not in per_noise
            per_noise[b.noise_level] = {"accuracy": acc * b.size / b.size,
                                        "loss": fwd["data_loss"] * b.size / b.size,
                                        "n": b.size}
            loss += fwd["data_loss"] * b.size
            correct += acc * b.size
            n += b.size
        assert evaluate(None, cw, tiny_dataset, "test", fixed_sigma=1.13) == \
            {"loss": loss / n, "accuracy": correct / n, "per_noise": per_noise}

    def test_classifier_reads_loaded_volumes_stacked_in_place(self, tiny_dataset):
        # the logits and the weight gradient read the loaded batch itself
        batch = tiny_dataset[0]
        cw = classifier.xavier_init(batch.volumes[0].shape, 0)
        cfg = TrainConfig(fixed_sigma=1.0)
        smoothing = trainer._Smoothing(cfg, [batch])
        batch_loss_and_grads(batch, None, smoothing.held(cw), cfg, smoothing)
        assert np.shares_memory(smoothing.rows, batch.volumes)


def _forward(batch, pnw, cw, cfg, training=False):
    """`_forward_batch` with the voxel weight `cw` held and mapped, for a
    training step when `training`, as a call over this batch alone holds
    and maps it."""
    smoothing = trainer._Smoothing(cfg, [batch])
    held = smoothing.held(cw)
    return trainer._forward_batch(batch, pnw, smoothing.operand(held.w, training),
                                  cfg, smoothing)


class TestStepMode:
    """A training forward pass also differentiates every logit with respect
    to its volume's width; an evaluation differentiates none, and smooths
    with the same widths."""

    def test_training_step_differentiates_every_volume(self):
        batch, pnw, cw, cfg = TestGradients()._setup()
        fwd = _forward(batch, pnw, cw, cfg, training=True)
        assert fwd["dlogit_dsigma"].shape == (batch.size,)
        assert all(dz != 0.0 for dz in fwd["dlogit_dsigma"])

    def test_evaluation_computes_no_width_derivative(self):
        batch, pnw, cw, cfg = TestGradients()._setup()
        smoothing = trainer._Smoothing(cfg, [batch])
        held = smoothing.held(cw)
        trained = trainer._forward_batch(batch, pnw, smoothing.operand(held.w, True),
                                         cfg, smoothing)
        rows = smoothing.rows.copy()
        smoothing.lam_wd = None  # an evaluation must not read the eigenvalues
        fwd = trainer._forward_batch(batch, pnw, smoothing.operand(held.w), cfg, smoothing)
        assert fwd["dlogit_dsigma"] is None
        assert fwd["sigmas"] == trained["sigmas"]
        assert smoothing.rows.tobytes() == rows.tobytes()
        np.testing.assert_allclose(fwd["cache"]["logits"], trained["cache"]["logits"],
                                   rtol=1e-12)

    def test_evaluation_computes_no_penalty(self, tiny_dataset, monkeypatch):
        # only a training step reads the L2 penalty and its gradient
        def no_penalty(weights, lam):
            raise AssertionError("l2_penalty called")

        monkeypatch.setattr(classifier, "l2_penalty", no_penalty)
        pnw = _init_head(8, 0)
        cw = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 0)
        cfg = TrainConfig(lambda_l2=1e-3)
        for split in ("validation", "test"):
            evaluate(pnw, cw, tiny_dataset, split, cfg)
            evaluate(pnw, cw, tiny_dataset, split, cfg, fixed_sigma=1.13)
        fwd = _forward(tiny_dataset[0], pnw, cw, cfg)
        assert "loss" not in fwd and "pen_grad" not in fwd

    def test_head_too_wide_for_the_volumes_refused(self):
        # a head whose range was set for larger volumes is refused before
        # any volume is smoothed
        batch, _, cw, cfg = TestGradients()._setup()
        pnw = _init_head(5, 0, (24, 24, 24))
        pnw.c = 1e3  # every width saturates at hi = 5.85, radius 11
        with pytest.raises(DataError, match="filter side 23 exceeds 8"):
            _forward(batch, pnw, cw, cfg)


class TestWorkspace:
    """Each adaptive `train` or `evaluate` call writes the rows Y of all its
    batches into one buffer, which the logits and the weight gradient read
    in place, and frees it on return."""

    def test_one_workspace_per_train_call(self, tiny_dataset, monkeypatch):
        logits = trainer._Smoothing.logits
        first, shared = [], []

        def recorded(smoothing, *args):
            out = logits(smoothing, *args)
            if not first:
                first.append(weakref.ref(smoothing))
            shared.append(np.shares_memory(smoothing.rows, first[0]().out))
            return out

        monkeypatch.setattr(trainer._Smoothing, "logits", recorded)
        forward, read = classifier.forward, []
        monkeypatch.setattr(classifier, "forward",
                            lambda logits: read.append(logits) or forward(logits))
        cfg = TrainConfig(max_epochs=2, patience=2, seed=5, width_m=8)
        train(cfg, tiny_dataset)
        # every step and validation pass of 2 epochs, then the test pass
        count = {s: sum(b.split == s for b in tiny_dataset) for s in trainer.SPLITS}
        assert len(shared) == 2 * (count["train"] + count["validation"]) + count["test"]
        # the classifier is called once per batch, with its logits alone
        assert all(shared) and len(read) == len(shared)
        assert all(r.ndim == 1 for r in read)
        # freed on return: a buffer kept for the process holds its pages
        assert first[0]() is None

    def test_smaller_batch_after_larger_reads_no_stale_rows(self, monkeypatch):
        dims = (8, 8, 8)
        big = _make_group("s1", 0.0, "test", 6, dims, seed=1)
        small = _make_group("s2", 0.1, "test", 4, dims, seed=2)
        pnw, cw = _init_head(8, 0, dims), classifier.xavier_init(dims, 0)
        alone = {0.0: evaluate(pnw, cw, [big], "test")["per_noise"][0.0],
                 0.1: evaluate(pnw, cw, [small], "test")["per_noise"][0.1]}
        logits = trainer._Smoothing.logits
        used = []

        def recorded(smoothing, *args):
            used.append(smoothing)
            return logits(smoothing, *args)

        monkeypatch.setattr(trainer._Smoothing, "logits", recorded)
        assert evaluate(pnw, cw, [big, small], "test")["per_noise"] == alone
        assert used[0] is used[1]
        assert used[0].out.shape == (big.size, 8, 8 * 8)


class TestWorkers:
    """Training and evaluation run on the calling thread alone."""

    def test_no_thread_outlives_train_or_evaluate(self, monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        batches = [_make_group(f"s{i}", 0.1 * i, split, 11, (9, 11, 7), seed=i)
                   for i, split in enumerate(trainer.SPLITS)]
        before = set(threading.enumerate())
        cfg = TrainConfig(max_epochs=2, patience=2, seed=5, width_m=8)
        pnw, cw, _ = train(cfg, batches)
        evaluate(pnw, cw, batches, "test", cfg)
        assert set(threading.enumerate()) == before
        assert started == []


class TestRepresentation:
    """Sine coefficients are made once, at load: nothing in training or
    evaluation converts or changes a batch."""

    def test_train_and_evaluate_leave_inputs_byte_identical(self, tiny_dataset):
        batches = copy.deepcopy(tiny_dataset)
        bare = [dataclasses.replace(b, volumes=b.volumes.copy(), features=None)
                for b in batches]
        def contents():
            return [(b.volumes.tobytes(), b.labels.tobytes(),
                     None if b.features is None else b.features.tobytes())
                    for b in batches + bare]

        before = contents()
        for fixed in (None, 1.1):
            cfg = TrainConfig(max_epochs=2, patience=2, seed=3, width_m=8, fixed_sigma=fixed)
            pnw, cw, _ = train(cfg, batches)
            evaluate(pnw, cw, batches, "test", cfg)
        train(TrainConfig(max_epochs=2, patience=2, width_m=8, fixed_sigma=1.1), bare)
        evaluate(pnw, cw, bare, "test", fixed_sigma=1.1)
        assert contents() == before

    def test_replaced_batch_is_not_transformed_again(self, tmp_path):
        # the folds of tools/mechanism.py re-split batches with
        # dataclasses.replace, which runs __post_init__ again
        manifest = _three_subject_phantom(tmp_path)
        full = load_dataset(manifest)
        for b in full:
            moved = dataclasses.replace(b, split="validation" if b.split == "test" else "test")
            assert moved.volumes is b.volumes and moved.features is b.features
            assert moved.volumes.tobytes() == b.volumes.tobytes()
        cfg = TrainConfig(max_epochs=1, patience=1, seed=1, width_m=8)
        folds = [dataclasses.replace(b, split={"test": "validation", "validation": "test"}
                                     .get(b.split, b.split)) for b in full]
        _, _, report = train(cfg, folds)
        assert report.epochs and math.isfinite(report.epochs[0]["train_loss"])


class TestTrain:
    def test_zero_learning_rate_is_noop(self, tiny_dataset):
        cfg = TrainConfig(learning_rate=0.0, max_epochs=3, seed=4, width_m=8)
        pnw0 = _init_head(8, 4)
        pnw, cw, _ = train(cfg, tiny_dataset)
        np.testing.assert_array_equal(pnw.a, pnw0.a)
        np.testing.assert_array_equal(pnw.v, pnw0.v)
        cw0 = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 5)
        np.testing.assert_array_equal(cw.w, cw0.w)

    def test_head_range_follows_dims_and_truncation(self, tiny_dataset):
        cfg = TrainConfig(learning_rate=0.0, max_epochs=1, width_m=8, truncation=3.0)
        pnw, _, _ = train(cfg, tiny_dataset)
        assert (pnw.lo, pnw.hi) == width_range((16, 16, 16), 3.0) == (0.5, 15.4 / 3)

    def test_determinism(self, tiny_dataset):
        cfg = TrainConfig(learning_rate=0.1, max_epochs=8, seed=9, width_m=8)
        p1, c1, r1 = train(cfg, tiny_dataset)
        p2, c2, r2 = train(cfg, tiny_dataset)
        assert r1.epochs == r2.epochs
        assert r1.test_accuracy == r2.test_accuracy
        np.testing.assert_array_equal(p1.a, p2.a)
        np.testing.assert_array_equal(c1.w, c2.w)

    @pytest.mark.parametrize("fixed_sigma", [None, 1.1])
    def test_every_step_is_batch_loss_and_grads(self, tiny_dataset, monkeypatch,
                                                fixed_sigma):
        # the gradient tests check `batch_loss_and_grads`; train must take
        # each step through it
        step = trainer.batch_loss_and_grads
        calls = []

        def recorded(batch, pnw, cw, cfg, smoothing=None):
            calls.append((batch, smoothing))
            return step(batch, pnw, cw, cfg, smoothing)

        monkeypatch.setattr(trainer, "batch_loss_and_grads", recorded)
        cfg = TrainConfig(max_epochs=3, patience=3, seed=5, width_m=8,
                          fixed_sigma=fixed_sigma)
        _, _, report = train(cfg, tiny_dataset)
        order = [b for epoch in (1, 2, 3) for b in make_batches(tiny_dataset, cfg.seed + epoch)]
        assert len(calls) == len(order) and all(c[0] is b for c, b in zip(calls, order))
        # one smoothing, the fixed width's kernel or the adaptive buffer,
        # serves every step
        assert calls[0][1] is not None and all(c[1] is calls[0][1] for c in calls)

    def test_early_stopping_restores_best_weights(self, tiny_dataset):
        cfg = TrainConfig(learning_rate=0.3, max_epochs=60, patience=5,
                          seed=2, width_m=8)
        pnw, cw, report = train(cfg, tiny_dataset)
        assert report.best_epoch <= report.stopped_epoch
        if report.stopped_epoch < cfg.max_epochs:  # early stop fired
            assert report.stopped_epoch == report.best_epoch + cfg.patience
        # returned weights reproduce the best epoch's validation loss
        val = trainer._evaluate_split(tiny_dataset, pnw, cw, cfg, "validation")
        best_row = min(report.epochs, key=lambda r: r["val_loss"])
        assert val["loss"] == pytest.approx(best_row["val_loss"], rel=1e-9)
        assert best_row["epoch"] == report.best_epoch

    def test_trains_separable_phantoms(self, tiny_dataset):
        cfg = TrainConfig(learning_rate=0.1, lambda_l2=1e-4, max_epochs=50,
                          seed=43, width_m=8)
        pnw, cw, report = train(cfg, tiny_dataset)
        res = evaluate(pnw, cw, tiny_dataset, "train", cfg)
        assert res["accuracy"] >= 0.95

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_loss_aborts_with_diagnostics(self, tiny_dataset):
        bad = copy.deepcopy(tiny_dataset)
        bad[0].volumes[0][0, 0, 0] = np.inf
        bad[0].features[0] = 1.0  # keep the width net on the finite path
        cfg = TrainConfig(learning_rate=0.1, max_epochs=2, seed=0, width_m=8)
        with pytest.raises(NumericalError, match="non-finite loss"):
            train(cfg, bad)

    @pytest.mark.parametrize("fixed_sigma", [None, 0.6])
    def test_overflowing_final_test_evaluation_is_numerical_error(self, fixed_sigma):
        # only the test split's logits overflow: the epoch runs, and the
        # final test evaluation ends the training, naming the split
        batches = [_make_group("s1", 0.0, "train", 4),
                   _make_group("s2", 0.0, "validation", 4, seed=1),
                   _make_group("s3", 0.0, "test", 4, seed=2)]
        batches[2].volumes *= 1e200
        cfg = TrainConfig(max_epochs=1, width_m=8, fixed_sigma=fixed_sigma)
        with pytest.raises(NumericalError, match=r"^overflow encountered in \w+ "
                                                 r"evaluating the test split$"):
            train(cfg, batches)

    @pytest.mark.parametrize("fixed_sigma", [None, 0.6])
    def test_overflowing_validation_is_numerical_error(self, fixed_sigma):
        # the epoch's training steps run; its validation ends the training,
        # naming the split as an evaluation does
        batches = [_make_group("s1", 0.0, "train", 4),
                   _make_group("s2", 0.0, "validation", 4, seed=1),
                   _make_group("s3", 0.0, "test", 4, seed=2)]
        batches[1].volumes *= 1e200
        cfg = TrainConfig(max_epochs=1, width_m=8, fixed_sigma=fixed_sigma)
        with pytest.raises(NumericalError, match=r"^overflow encountered in \w+ "
                                                 r"evaluating the validation split$"):
            train(cfg, batches)

    def test_no_finite_validation_loss_stops_after_patience(self, tiny_dataset,
                                                           monkeypatch):
        # with no finite validation loss there is no best epoch: the run
        # stops `patience` epochs in and returns the last epoch's weights
        original = trainer._evaluate_split
        seen = []

        def nan_validation(batches, pnw, cw, cfg, split, smoothing=None):
            res = original(batches, pnw, cw, cfg, split, smoothing)
            if split == "validation":
                # the weight `train` holds, in voxels as it returns it
                cw0 = classifier.xavier_init(batches[0].volumes[0].shape, cfg.seed + 1)
                cw = smoothing.returned(cw0, smoothing.held(cw0), cw)
                seen.append((copy.deepcopy(pnw), copy.deepcopy(cw)))
                res = {**res, "loss": math.nan, "accuracy": len(seen) / 100}
            return res

        monkeypatch.setattr(trainer, "_evaluate_split", nan_validation)
        cfg = TrainConfig(learning_rate=0.1, max_epochs=20, patience=4, seed=2,
                          width_m=8, lr_grid=(0.1,))
        pnw, cw, report = train(cfg, tiny_dataset)
        assert [row["epoch"] for row in report.epochs] == [1, 2, 3, 4]
        assert report.stopped_epoch == cfg.patience and report.best_epoch == -1
        last_pnw, last_cw = seen[-1]
        for name in "abvc":
            np.testing.assert_array_equal(getattr(pnw, name), getattr(last_pnw, name))
        np.testing.assert_array_equal(cw.w, last_cw.w)
        # grid_search reads the row of those weights: the last one
        seen.clear()
        _, results = grid_search(cfg, tiny_dataset)
        assert results[0]["error"] == ""
        assert results[0]["val_accuracy"] == cfg.patience / 100
        assert math.isnan(results[0]["val_loss"])

    def test_batch_dims_differ_from_first_rejected(self):
        batches = [_make_group("s1", 0.0, "train", 4), _make_group("s2", 0.0, "validation", 4),
                   _make_group("s3", 0.0, "test", 4, dims=(4, 4, 5))]
        with pytest.raises(DataError, match=r"dim mismatch: \(4, 4, 5\) vs \(4, 4, 4\)"):
            train(TrainConfig(max_epochs=1), batches)

    def test_missing_split_rejected(self, tiny_dataset):
        only_train = [b for b in tiny_dataset if b.split == "train"]
        with pytest.raises(DataError, match="empty"):
            train(TrainConfig(max_epochs=1), only_train)


class TestReturnedWeights:
    """`train` holds the classifier weight in its batches' basis and returns
    it in voxels, on each of its three paths: an adaptive and a fixed width
    on sine coefficients, a fixed width on voxels."""

    PATHS = [(None, "tiny_dataset"), (1.1, "tiny_dataset"), (1.1, "tiny_voxels")]

    @pytest.mark.parametrize("fixed_sigma, data", PATHS)
    def test_unchanged_weight_returned_bit_for_bit(self, fixed_sigma, data, request):
        batches = request.getfixturevalue(data)
        cfg = TrainConfig(learning_rate=0.0, max_epochs=2, seed=4, width_m=8,
                          fixed_sigma=fixed_sigma)
        _, cw, _ = train(cfg, batches)
        cw0 = classifier.xavier_init(batches[0].volumes[0].shape, 5)
        assert cw.w.tobytes() == cw0.w.tobytes()

    @pytest.mark.parametrize("fixed_sigma, data", PATHS)
    def test_report_is_evaluate_of_returned_weights(self, fixed_sigma, data, request,
                                                    monkeypatch):
        batches = request.getfixturevalue(data)
        original, tests = trainer._evaluate_split, []

        def recorded(*args):
            res = original(*args)
            if args[4] == "test":
                tests.append(res)
            return res

        monkeypatch.setattr(trainer, "_evaluate_split", recorded)
        cfg = TrainConfig(learning_rate=0.3, max_epochs=12, patience=3, seed=2,
                          width_m=8, fixed_sigma=fixed_sigma)
        pnw, cw, report = train(cfg, batches)
        (test,) = tests
        # the test split's loss, accuracy and per-noise table exactly
        assert evaluate(pnw, cw, batches, "test", cfg) == test
        assert report.test_accuracy == test["accuracy"]
        assert report.per_noise == test["per_noise"]
        # the validation loss of the returned weights is the best epoch's
        best_row = min(report.epochs, key=lambda r: r["val_loss"])
        assert best_row["epoch"] == report.best_epoch
        val = evaluate(pnw, cw, batches, "validation", cfg)
        assert abs(val["loss"] - best_row["val_loss"]) <= 1e-12 * best_row["val_loss"]

    @pytest.mark.parametrize("fixed_sigma, data", PATHS)
    def test_scaled_weight_gets_same_accuracy(self, fixed_sigma, data, request):
        # the batch standardization divides each logit's offset from the
        # batch mean by std + eps; scaling w by 7 only scales that quotient
        # by a positive factor, so every volume keeps its class
        batches = request.getfixturevalue(data)
        cfg = TrainConfig(learning_rate=0.3, max_epochs=6, seed=2, width_m=8,
                          fixed_sigma=fixed_sigma)
        pnw, cw, report = train(cfg, batches)
        scaled = evaluate(pnw, classifier.ClassifierWeights(7.0 * cw.w), batches, "test", cfg)
        assert scaled["accuracy"] == report.test_accuracy
        assert ({n: r["accuracy"] for n, r in scaled["per_noise"].items()}
                == {n: r["accuracy"] for n, r in report.per_noise.items()})

    @pytest.mark.parametrize("fixed_sigma, data", PATHS)
    def test_in_place_updates_equal_out_of_place_steps(self, fixed_sigma, data, request,
                                                       monkeypatch):
        # train updates its weights in place; the same two epochs taken as
        # out-of-place steps of `batch_loss_and_grads` from the same start
        # give the same bits.  The caller's initial classifier, handed to
        # train here as its own, and the head the steps start from are left
        # as they were
        batches = request.getfixturevalue(data)
        cfg = TrainConfig(learning_rate=0.1, lambda_l2=1e-3, max_epochs=2, patience=2,
                          seed=6, width_m=8, fixed_sigma=fixed_sigma)
        dims = batches[0].volumes.shape[1:]
        cw0 = classifier.xavier_init(dims, cfg.seed + 1)
        pnw0 = _init_head(cfg.width_m, cfg.seed, dims)
        before = (cw0.w.tobytes(), pnw0.a.tobytes(), pnw0.b.tobytes(), pnw0.v.tobytes())
        monkeypatch.setattr(classifier, "xavier_init", lambda dims, seed: cw0)
        pnw, cw, _ = train(cfg, batches)

        smoothing = trainer._Smoothing(cfg, batches)
        start = smoothing.held(cw0)
        ref_pnw, ref_cw, best = pnw0, start, (math.inf, None)
        for epoch in (1, 2):
            for batch in make_batches(batches, cfg.seed + epoch):
                _, grads, _ = batch_loss_and_grads(batch, ref_pnw, ref_cw, cfg, smoothing)
                ref_pnw, ref_cw = copy.copy(ref_pnw), copy.copy(ref_cw)
                for name, g in grads.items():
                    owner = ref_cw if name == "w" else ref_pnw
                    setattr(owner, name, getattr(owner, name) - cfg.learning_rate * g)
            val = trainer._evaluate_split(batches, ref_pnw, ref_cw, cfg, "validation",
                                          smoothing)
            if val["loss"] < best[0]:
                best = (val["loss"], (ref_pnw, ref_cw))
        ref_pnw, ref_cw = best[1]
        ref_cw = smoothing.returned(cw0, start, ref_cw)
        assert cw.w.tobytes() == ref_cw.w.tobytes()
        for name in "abvc":
            assert np.asarray(getattr(pnw, name)).tobytes() == \
                np.asarray(getattr(ref_pnw, name)).tobytes()
        assert (cw0.w.tobytes(), pnw0.a.tobytes(), pnw0.b.tobytes(),
                pnw0.v.tobytes()) == before

    @pytest.mark.parametrize("sigma", [1.13, 1.84])
    def test_fixed_width_on_voxels_and_coefficients_agree(self, tiny_dataset, tiny_voxels,
                                                          sigma):
        # the two loads train one kernel in two bases: their weights differ
        # by rounding alone, a bound stated in README's `fixed_sigma` row
        cfg = TrainConfig(learning_rate=0.1, lambda_l2=1e-3, max_epochs=14, patience=14,
                          seed=43, fixed_sigma=sigma)
        _, on_coefficients, a = train(cfg, tiny_dataset)
        _, on_voxels, b = train(cfg, tiny_voxels)
        scale = np.max(np.abs(on_voxels.w))
        assert np.max(np.abs(on_coefficients.w - on_voxels.w)) <= 1e-10 * scale
        assert a.test_accuracy == b.test_accuracy
        assert len(a.epochs) == len(b.epochs) == 14


@pytest.mark.parametrize("fixed_sigma, features", [(None, True), (0.4, True), (0.4, False)])
def test_weight_size_mismatch_rejected(fixed_sigma, features):
    # the weight meets the batches in the trainer: a weight whose size is
    # not the volumes' is a data error naming both sizes, on every path
    batch = _make_group("s1", 0.0, "test", 4, (6, 6, 6))
    if not features:
        batch = dataclasses.replace(batch, features=None)
    cfg = TrainConfig(fixed_sigma=fixed_sigma)
    pnw = _init_head(5, 0, (6, 6, 6))
    cw = classifier.xavier_init((6, 6, 7), 1)
    message = r"^volume size 216 != weight size 252$"
    with pytest.raises(DataError, match=message):
        evaluate(pnw, cw, [batch], "test", cfg)
    with pytest.raises(DataError, match=message):
        batch_loss_and_grads(batch, pnw, cw, cfg)
    smoothing = trainer._Smoothing(cfg, [batch])
    with pytest.raises(DataError, match=message):
        batch_loss_and_grads(batch, pnw, cw, cfg, smoothing)
    with pytest.raises(DataError, match=message):
        trainer._evaluate_split([batch], pnw, cw, cfg, "test", smoothing)


class TestEvaluate:
    def test_fixed_sigma_table(self, tiny_dataset):
        pnw = _init_head(8, 0)
        cw = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 0)
        res = evaluate(pnw, cw, tiny_dataset, "test", fixed_sigma=1.13)
        assert set(res["per_noise"]) == {0.0, 0.2}
        for row in res["per_noise"].values():
            assert "mean_sigma" not in row  # fixed mode reports no width column

    def test_adaptive_reports_width_per_noise_level(self, tiny_dataset):
        pnw = _init_head(8, 0)
        cw = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 0)
        res = evaluate(pnw, cw, tiny_dataset, "test")
        for row in res["per_noise"].values():
            assert row["mean_sigma"] > 0
            assert row["mean_fwhm_mm"] == pytest.approx(
                row["mean_sigma"] * 2.354820045 * 3.0, rel=1e-9)

    def test_absent_noise_level_absent_from_table(self, tiny_dataset):
        pnw = _init_head(8, 0)
        cw = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 0)
        res = evaluate(pnw, cw, tiny_dataset, "test")
        assert 0.7 not in res["per_noise"]

    @pytest.mark.parametrize("fixed_sigma, features", [(None, True), (0.8, True), (0.8, False)])
    def test_batch_dims_differ_from_first_rejected(self, fixed_sigma, features):
        # `train`'s rule, stated once in `_Smoothing`: adaptive, fixed on
        # sine coefficients and fixed on voxels alike
        batches = [_make_group("s1", 0.0, "test", 4, dims=(8, 8, 8)),
                   _make_group("s1", 0.1, "test", 4, dims=(8, 8, 9))]
        if not features:
            batches = [dataclasses.replace(b, features=None) for b in batches]
        pnw = _init_head(5, 0, (8, 8, 8))
        cw = classifier.xavier_init((8, 8, 8), 0)
        with pytest.raises(DataError, match=r"^dim mismatch: \(8, 8, 9\) vs \(8, 8, 8\)$"):
            evaluate(pnw, cw, batches, "test", fixed_sigma=fixed_sigma)


class TestGridSearch:
    def test_grid_shape_and_determinism(self, tiny_dataset):
        # each cell is the training at its lr and the config's own lambda
        cfg = TrainConfig(max_epochs=4, seed=1, width_m=8, lambda_l2=1e-3,
                          lr_grid=(0.01, 0.1))
        best, results = grid_search(cfg, tiny_dataset)
        assert best in cfg.lr_grid
        assert [r["learning_rate"] for r in results] == [0.01, 0.1]
        for row in results:
            _, _, report = train(dataclasses.replace(cfg, learning_rate=row["learning_rate"]),
                                 tiny_dataset)
            val = report.epochs[report.best_epoch - 1]
            assert row == {"learning_rate": row["learning_rate"],
                           "val_accuracy": val["val_accuracy"], "val_loss": val["val_loss"],
                           "test_accuracy": report.test_accuracy, "error": ""}
        # duplicated grid point reproduces the same cell
        _, res2 = grid_search(dataclasses.replace(cfg, lr_grid=(0.1, 0.1)), tiny_dataset)
        assert res2[0] == res2[1] == results[1]

    @staticmethod
    def _search(monkeypatch, cells):
        """`grid_search` over the lrs of `cells`, in their order, with
        `train` returning for each lr a report whose best epoch holds the
        cell's (val_loss, val_accuracy), or raising `NumericalError` where
        the cell is None.  Returns the pick, the rows and the configs `train`
        was called with."""
        calls = []

        def canned_train(cfg, batches):
            calls.append(cfg)
            if cells[cfg.learning_rate] is None:
                raise NumericalError(f"overflow at lr {cfg.learning_rate:g}")
            loss, acc = cells[cfg.learning_rate]
            report = trainer.TrainReport(config=cfg, best_epoch=2, test_accuracy=acc / 2)
            report.epochs = [
                {"epoch": 1, "train_loss": 1.0, "val_loss": 9.0, "val_accuracy": 0.0},
                {"epoch": 2, "train_loss": 1.0, "val_loss": loss, "val_accuracy": acc},
                {"epoch": 3, "train_loss": 1.0, "val_loss": 9.5, "val_accuracy": 1.0}]
            return None, None, report

        monkeypatch.setattr(trainer, "train", canned_train)
        cfg = TrainConfig(lambda_l2=1e-3, lr_grid=tuple(cells))
        best, results = grid_search(cfg, [])
        return best, results, calls

    def test_least_validation_loss_wins(self, monkeypatch):
        # not the cell of best validation accuracy
        best, results, calls = self._search(
            monkeypatch, {1e-3: (0.5, 0.9), 1e-2: (0.3, 0.6), 1e-1: (0.4, 0.7)})
        assert best == 1e-2
        assert [(c.learning_rate, c.lambda_l2) for c in calls] == \
            [(1e-3, 1e-3), (1e-2, 1e-3), (1e-1, 1e-3)]
        assert results[1] == {"learning_rate": 1e-2, "val_accuracy": 0.6, "val_loss": 0.3,
                              "test_accuracy": 0.3, "error": ""}

    def test_tie_breaks_prefer_lower_lr(self, monkeypatch):
        # the lower lr, not the first cell searched
        best, _, _ = self._search(monkeypatch,
                                  {1.0: (0.3, 0.9), 0.1: (0.3, 0.5), 0.01: (0.4, 1.0)})
        assert best == 0.1

    def test_non_finite_validation_loss_ranks_last(self, monkeypatch):
        for cells in ({0.01: (math.nan, 1.0), 0.1: (0.5, 0.5)},
                      {0.1: (0.5, 0.5), 0.01: (math.nan, 1.0)}):
            assert self._search(monkeypatch, cells)[0] == 0.1
        assert self._search(monkeypatch, {0.1: (math.nan, 1.0), 0.01: (math.nan, 0.5)})[0] \
            == 0.01

    def test_failed_cell_recorded_and_skipped(self, monkeypatch):
        best, results, _ = self._search(monkeypatch, {0.01: None, 0.1: (0.4, 0.5)})
        assert best == 0.1
        failed = results[0]
        assert failed["learning_rate"] == 0.01 and failed["error"] == "overflow at lr 0.01"
        assert all(math.isnan(failed[k]) for k in ("val_accuracy", "val_loss", "test_accuracy"))

    def test_none_when_every_cell_fails(self, monkeypatch):
        best, results, _ = self._search(monkeypatch, {0.1: None, 1.0: None})
        assert best is None
        assert [(r["learning_rate"], r["error"]) for r in results] == \
            [(0.1, "overflow at lr 0.1"), (1.0, "overflow at lr 1")]


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("learning_rate = 0.05\n"
                     "lambda_l2 = 1e-4  # comment\n"
                     "max_epochs = 30\n"
                     "seed = 7\n"
                     "fixed_sigma = 2\n"
                     "lr_grid = 0.01,0.1\n")
        cfg = read_config(p, TrainConfig)
        assert cfg.learning_rate == 0.05
        assert cfg.lambda_l2 == 1e-4
        assert cfg.max_epochs == 30
        assert cfg.seed == 7
        assert cfg.fixed_sigma == 2.0 and type(cfg.fixed_sigma) is float
        assert cfg.lr_grid == (0.01, 0.1)
        assert cfg.patience == 10  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("momentum = 0.9\n")
        with pytest.raises(DataError, match="unknown key"):
            read_config(p, TrainConfig)

    def test_phantom_spec_types(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("# phantom spec\n"
                     "\n"
                     "dims = 16, 16, 20  # h, w, d\n"
                     "noise_levels = 0,0.25\n"
                     "n_subjects = 4\n"
                     "blob_radius = 2\n")
        spec = read_config(p, PhantomSpec)
        assert spec.dims == (16, 16, 20) and all(type(x) is int for x in spec.dims)
        assert spec.noise_levels == (0.0, 0.25)
        assert all(type(x) is float for x in spec.noise_levels)
        assert spec.n_subjects == 4
        assert spec.blob_radius == 2.0 and type(spec.blob_radius) is float
        assert spec.split_counts == (6, 1, 1)  # untouched default

    @pytest.mark.parametrize("cls, text, match", [
        (TrainConfig, "seed = 7\nmax_epochs = 2.5\n", r"c\.cfg:2: "),
        (TrainConfig, "lr_grid = 0.1,x\n", r"c\.cfg:1: "),
        (PhantomSpec, "# dims\ndims = 16,16,1.5\n", r"c\.cfg:2: "),
        (PhantomSpec, "amplitude 0.1\n", r"c\.cfg:1: expected `key = value`"),
        (PhantomSpec, "seed = 3\n", r"c\.cfg:1: unknown key 'seed'"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, cls, text, match):
        p = tmp_path / "c.cfg"
        p.write_text(text)
        with pytest.raises(DataError, match=match):
            read_config(p, cls)
