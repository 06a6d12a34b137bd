import copy
import math
import re
from collections import Counter

import numpy as np
import pytest

from adaptsmooth import classifier, params_net, phantom, trainer
from adaptsmooth.conv3d import convolve_separable
from adaptsmooth.errors import DataError, NumericalError
from adaptsmooth.gaussian_filter import build_filter
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


def _make_group(sid, noise, split, n, dims=(4, 4, 4), seed=0):
    rng = np.random.default_rng(seed)
    vols = [rng.normal(0.5, 0.2, dims) for _ in range(n)]
    feats = np.array([params_net.noise_feature(v) for v in vols])
    labels = np.arange(n) % 2
    return MiniBatch(sid, noise, split, np.stack(vols), labels.astype(float), feats)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """Small but trainable phantom dataset: 4 subjects, 16^3, 2 noise levels."""
    out = tmp_path_factory.mktemp("tinyds")
    spec = phantom.PhantomSpec(dims=(16, 16, 16), n_subjects=4,
                               volumes_per_subject_per_class=3,
                               center_offset_x=3, blob_radius=1.3,
                               noise_levels=(0.0, 0.2),
                               split_counts=(2, 1, 1))
    phantom.generate(spec, out, seed=3)
    return load_dataset(out / "manifest.csv")


def test_load_dataset_reads_each_group_into_one_array(tmp_path):
    spec = PhantomSpec(dims=(9, 16, 11), n_subjects=3, volumes_per_subject_per_class=2,
                       center_offset_x=3, blob_radius=1.3, noise_levels=(0.0, 0.2),
                       split_counts=(1, 1, 1))
    phantom.generate(spec, tmp_path, seed=5)
    groups = {}
    for e in read_manifest(tmp_path / "manifest.csv").entries:
        groups.setdefault((e.subject_id, e.noise_level), []).append(e.path)
    batches = load_dataset(tmp_path / "manifest.csv")
    assert len(batches) == len(groups) == 6
    for b in batches:
        paths = groups[(b.subject_id, b.noise_level)]
        assert isinstance(b.volumes, np.ndarray)
        assert b.volumes.dtype == np.float64 and b.volumes.flags.c_contiguous
        assert b.volumes.shape == (len(paths), 9, 16, 11)
        np.testing.assert_array_equal(
            b.volumes, np.stack([read_volume(tmp_path / path).data for path in paths]))


def _three_subject_phantom(out):
    spec = PhantomSpec(dims=(9, 16, 11), n_subjects=3, volumes_per_subject_per_class=2,
                       center_offset_x=3, blob_radius=1.3, noise_levels=(0.0, 0.2),
                       split_counts=(1, 1, 1))
    phantom.generate(spec, out, seed=5)
    return out / "manifest.csv"


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
    for b, f in zip(bare, full):
        assert b.features is None
        np.testing.assert_array_equal(b.volumes, f.volumes)
        np.testing.assert_array_equal(b.labels, f.labels)
        assert b.voxel_size_mm == f.voxel_size_mm


def test_featureless_batches_evaluate_fixed_width_only(tmp_path):
    manifest = _three_subject_phantom(tmp_path)
    full, bare = load_dataset(manifest), load_dataset(manifest, features=False)
    pnw = params_net.init_weights(5, 0)
    cw = classifier.xavier_init((9, 16, 11), 1)
    assert evaluate(pnw, cw, bare, "test", fixed_sigma=0.8) == \
        evaluate(pnw, cw, full, "test", fixed_sigma=0.8)
    with pytest.raises(DataError, match="noise features"):
        evaluate(pnw, cw, bare, "test")
    with pytest.raises(DataError, match="noise features"):
        train(TrainConfig(max_epochs=1, width_m=5), bare)


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

    def test_small_group_rejected(self):
        with pytest.raises(DataError, match=">= 2"):
            make_batches([_make_group("s1", 0.0, "train", 1)], seed=0)

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
                                          rng.normal(0, 0.05, m), 0.1)
        cw = classifier.xavier_init(dims, seed + 1)
        cfg = TrainConfig(bump_probability=0.0, lambda_l2=1e-4)
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
            cw2.bias = cw2.bias - lr * grads["bias"]
            pn2.a = pn2.a - lr * grads["a"]
            pn2.b = pn2.b - lr * grads["b"]
            pn2.v = pn2.v - lr * grads["v"]
            pn2.c = pn2.c - lr * grads["c"]
            loss1, _, _ = batch_loss_and_grads(batch, pn2, cw2, cfg)
            assert loss1 < loss0


class TestJointPassChain:
    """Only volumes whose width carries a gradient take the joint
    smoothing/dσ pass chain; evaluation never does."""

    @pytest.fixture()
    def joint_calls(self, monkeypatch):
        calls = []
        joint = trainer.smooth_with_dsigma

        def counted(*args):
            calls.append(args)
            return joint(*args)

        monkeypatch.setattr(trainer, "smooth_with_dsigma", counted)
        return calls

    def test_evaluation_never_takes_joint_path(self, tiny_dataset, joint_calls):
        pnw = params_net.init_weights(8, 0)
        cw = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 0)
        for split in ("validation", "test"):
            evaluate(pnw, cw, tiny_dataset, split)
            trainer._evaluate_split(tiny_dataset, pnw, cw, TrainConfig(), split)
        assert joint_calls == []

    def test_one_call_per_gradient_carrying_volume(self, joint_calls, monkeypatch):
        batch, pnw, cw, cfg = TestGradients()._setup()
        _, _, fwd = batch_loss_and_grads(batch, pnw, cw, cfg)
        max_sigma = trainer.max_fitting_sigma((8, 8, 8), cfg.truncation)
        assert max(fwd["sigmas"]) < max_sigma
        assert len(joint_calls) == batch.size
        # a single-cell width (sigma 0.1) and a fit-clamped one carry no gradient
        widths = iter([1.0, 0.1, 100.0, 1.2])
        monkeypatch.setattr(params_net, "map_to_sigma",
                            lambda *args: next(widths))
        joint_calls.clear()
        _, grads, fwd = batch_loss_and_grads(batch, pnw, cw, cfg)
        assert fwd["sigmas"] == [1.0, 0.1, max_sigma, 1.2]
        assert len(joint_calls) == 2
        assert [dz is None for dz in fwd["dz"]] == [False, True, True, False]
        assert np.isfinite(grads["a"]).all()

    def test_fixed_width_filter_built_once_per_batch(self, tiny_dataset, monkeypatch):
        builds = []
        build = trainer.build_filter
        monkeypatch.setattr(trainer, "build_filter",
                            lambda *args: builds.append(args) or build(*args))
        pnw = params_net.init_weights(8, 0)
        cw = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 0)
        evaluate(pnw, cw, tiny_dataset, "test", fixed_sigma=1.13)
        test_groups = [b for b in tiny_dataset if b.split == "test"]
        assert len(builds) == len(test_groups)

    def test_classifier_reads_smoothed_volumes_in_place(self):
        batch, pnw, cw, cfg = TestGradients()._setup()
        _, _, fwd = batch_loss_and_grads(batch, pnw, cw, cfg)
        assert fwd["smoothed"].shape == (batch.size, 8, 8, 8)
        assert np.shares_memory(fwd["cache"]["x"], fwd["smoothed"])


class TestFixedWidth:
    """A fixed width smooths the classifier weight once per batch instead of
    every volume; the step must match smoothing the volumes themselves."""

    SIGMA = 1.1

    def _setup(self):
        rng = np.random.default_rng(8)
        dims = (7, 8, 9)
        vols = [rng.normal(0.4, 0.1, dims) for _ in range(6)]
        batch = MiniBatch("s0", 0.1, "train", np.stack(vols), np.arange(6) % 2.0,
                          np.zeros(6))
        cw = classifier.xavier_init(dims, 3)
        cfg = TrainConfig(fixed_sigma=self.SIGMA, lambda_l2=1e-3)
        return batch, cw, cfg

    @staticmethod
    def _rel(a, b, scale=None):
        a, b = np.asarray(a), np.asarray(b)
        return float(np.max(np.abs(a - b))) / (scale or float(np.max(np.abs(b))))

    def test_training_step_matches_smoothed_batch_reference(self):
        batch, cw, cfg = self._setup()
        loss, grads, fwd = batch_loss_and_grads(batch, None, cw, cfg)
        # reference: smooth every volume, classify, add the L2 term
        p = build_filter(self.SIGMA, cfg.truncation).profile_1d
        probs, cache = classifier.forward(
            [convolve_separable(x, p) for x in batch.volumes], cw)
        penalty, pen_grad = classifier.l2_penalty(cw, cfg.lambda_l2)
        ref_loss = classifier.bce_loss(probs, batch.labels) + penalty
        dw, dbias, dl_dlogit = classifier.backward(cache, batch.labels)
        assert self._rel(fwd["probs"], probs) < 1e-12
        assert self._rel(loss, ref_loss) < 1e-12
        assert self._rel(grads["w"], dw + pen_grad) < 1e-12
        # dL/dbias is the sum of the logit gradients, which cancels to ~0,
        # so it is compared on the scale of those gradients
        assert self._rel(grads["bias"], dbias, np.abs(dl_dlogit).sum()) < 1e-12
        assert set(grads) == {"w", "bias"}

    def test_weight_gradient_vs_finite_differences(self):
        batch, cw, cfg = self._setup()
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
        smooth = trainer.convolve_separable

        def counted(x, p):
            calls.append(x)
            return smooth(x, p)

        monkeypatch.setattr(trainer, "convolve_separable", counted)
        monkeypatch.setattr(trainer, "smooth_with_dsigma", None)  # must not be called
        return calls

    def test_two_smoothings_per_training_batch(self, smoothings):
        batch, cw, cfg = self._setup()
        batch_loss_and_grads(batch, None, cw, cfg)
        assert len(smoothings) == 2
        np.testing.assert_array_equal(smoothings[0], cw.w.reshape(batch.volumes[0].shape))
        assert not any(np.shares_memory(x, v) for x in smoothings for v in batch.volumes)

    def test_one_smoothing_per_evaluation_batch(self, smoothings):
        batch, cw, cfg = self._setup()
        trainer._forward_batch(batch, None, cw, cfg)
        assert len(smoothings) == 1
        np.testing.assert_array_equal(smoothings[0], cw.w.reshape(batch.volumes[0].shape))

    def test_classifier_reads_loaded_volumes_stacked_in_place(self, tiny_dataset):
        batch = tiny_dataset[0]
        cw = classifier.xavier_init(batch.volumes[0].shape, 0)
        fwd = trainer._forward_batch(batch, None, cw, TrainConfig(fixed_sigma=1.0))
        assert np.shares_memory(fwd["cache"]["x"], batch.volumes)


class TestStepMode:
    """A forward pass given the bump rng is a training step; one without it
    evaluates.  The head's pre-activation clamps (c = -50), so every width
    is e^-10, in the degenerate regime, and a training step bumps it (p = 1)."""

    @staticmethod
    def _clamped_head(m=5):
        return params_net.ParamsNetWeights(np.zeros(m), np.zeros(m), np.zeros(m), -50.0)

    def _setup(self):
        batch, _, cw, _ = TestGradients()._setup()
        return batch, self._clamped_head(), cw, TrainConfig(bump_probability=1.0)

    def test_training_step_counts_a_clamp_and_a_bump_per_volume(self):
        batch, pnw, cw, cfg = self._setup()
        events = Counter()
        fwd = trainer._forward_batch(batch, pnw, cw, cfg, np.random.default_rng(0),
                                     events)
        assert events == Counter(clamp=batch.size, bump=batch.size)
        assert fwd["sigmas"] == [math.exp(-10.0) + 1.0] * batch.size
        assert all(dz is not None for dz in fwd["dz"])

    def test_evaluation_bumps_nothing(self, monkeypatch):
        batch, pnw, cw, cfg = self._setup()
        monkeypatch.setattr(trainer, "smooth_with_dsigma", None)  # must not be called
        events = Counter()
        fwd = trainer._forward_batch(batch, pnw, cw, cfg, events=events)
        assert events == Counter(clamp=batch.size)
        assert fwd["sigmas"] == [math.exp(-10.0)] * batch.size
        assert fwd["dz"] == [None] * batch.size

    def test_report_counts_training_steps_only(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(params_net, "init_weights",
                            lambda m, seed: self._clamped_head(m))
        cfg = TrainConfig(bump_probability=1.0, max_epochs=2, width_m=8)
        _, _, report = train(cfg, tiny_dataset)
        # the clamped head gets no gradient, so every epoch clamps and bumps
        # each training volume; validation and test passes add nothing
        n = 2 * sum(b.size for b in tiny_dataset if b.split == "train")
        assert report.events == Counter(clamp=n, bump=n)
        assert (f"bump events: {n}  preactivation clamps: {n}  width-fit clamps: 0"
                in report.summary_text())


class TestTrain:
    def test_zero_learning_rate_is_noop(self, tiny_dataset):
        cfg = TrainConfig(learning_rate=0.0, max_epochs=3, seed=4, width_m=8)
        pnw0 = params_net.init_weights(8, 4)
        pnw, cw, _ = train(cfg, tiny_dataset)
        np.testing.assert_array_equal(pnw.a, pnw0.a)
        np.testing.assert_array_equal(pnw.v, pnw0.v)
        cw0 = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 5)
        np.testing.assert_array_equal(cw.w, cw0.w)

    def test_determinism(self, tiny_dataset):
        cfg = TrainConfig(learning_rate=0.1, max_epochs=8, seed=9, width_m=8)
        p1, c1, r1 = train(cfg, tiny_dataset)
        p2, c2, r2 = train(cfg, tiny_dataset)
        assert r1.epochs == r2.epochs
        assert r1.test_accuracy == r2.test_accuracy
        np.testing.assert_array_equal(p1.a, p2.a)
        np.testing.assert_array_equal(c1.w, c2.w)

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

    def test_no_finite_validation_loss_stops_after_patience(self, tiny_dataset,
                                                           monkeypatch):
        # with no finite validation loss there is no best epoch: the run
        # stops `patience` epochs in and returns the last epoch's weights
        original = trainer._evaluate_split
        seen = []

        def nan_validation(batches, pnw, cw, cfg, split):
            res = original(batches, pnw, cw, cfg, split)
            if split == "validation":
                seen.append((copy.deepcopy(pnw), copy.deepcopy(cw)))
                res = {**res, "loss": math.nan, "accuracy": len(seen) / 100}
            return res

        monkeypatch.setattr(trainer, "_evaluate_split", nan_validation)
        cfg = TrainConfig(learning_rate=0.1, max_epochs=20, patience=4, seed=2,
                          width_m=8, lr_grid=(0.1,), lambda_grid=(0.0,))
        pnw, cw, report = train(cfg, tiny_dataset)
        assert [row["epoch"] for row in report.epochs] == [1, 2, 3, 4]
        assert report.stopped_epoch == cfg.patience and report.best_epoch == -1
        last_pnw, last_cw = seen[-1]
        for name in "abvc":
            np.testing.assert_array_equal(getattr(pnw, name), getattr(last_pnw, name))
        np.testing.assert_array_equal(cw.w, last_cw.w)
        assert cw.bias == last_cw.bias
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


class TestEvaluate:
    def test_fixed_sigma_table(self, tiny_dataset):
        pnw = params_net.init_weights(8, 0)
        cw = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 0)
        res = evaluate(pnw, cw, tiny_dataset, "test", fixed_sigma=1.13)
        assert set(res["per_noise"]) == {0.0, 0.2}
        for row in res["per_noise"].values():
            assert "mean_sigma" not in row  # fixed mode reports no width column

    def test_adaptive_reports_width_per_noise_level(self, tiny_dataset):
        pnw = params_net.init_weights(8, 0)
        cw = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 0)
        res = evaluate(pnw, cw, tiny_dataset, "test")
        for row in res["per_noise"].values():
            assert row["mean_sigma"] > 0
            assert row["mean_fwhm_mm"] == pytest.approx(
                row["mean_sigma"] * 2.354820045 * 3.0, rel=1e-9)

    def test_absent_noise_level_absent_from_table(self, tiny_dataset):
        pnw = params_net.init_weights(8, 0)
        cw = classifier.xavier_init(tiny_dataset[0].volumes[0].shape, 0)
        res = evaluate(pnw, cw, tiny_dataset, "test")
        assert 0.7 not in res["per_noise"]


class TestGridSearch:
    def test_grid_shape_and_determinism(self, tiny_dataset):
        cfg = TrainConfig(max_epochs=4, seed=1, width_m=8,
                          lr_grid=(0.01, 0.1), lambda_grid=(0.0, 1e-3))
        best, results = grid_search(cfg, tiny_dataset)
        assert len(results) == 4
        assert best[0] in cfg.lr_grid and best[1] in cfg.lambda_grid
        # duplicated grid point reproduces the same cell
        cfg2 = TrainConfig(max_epochs=4, seed=1, width_m=8,
                           lr_grid=(0.1, 0.1), lambda_grid=(0.0,))
        _, res2 = grid_search(cfg2, tiny_dataset)
        assert res2[0]["val_accuracy"] == res2[1]["val_accuracy"]
        assert res2[0]["val_loss"] == res2[1]["val_loss"]

    def test_tie_breaks_prefer_lower_lr(self, tiny_dataset):
        cfg = TrainConfig(max_epochs=1, seed=1, width_m=8,
                          lr_grid=(0.1, 0.0), lambda_grid=(0.0,))
        # lr=0 keeps init weights; any tie must resolve to the lower lr
        best, results = grid_search(cfg, tiny_dataset)
        accs = {r["learning_rate"]: (r["val_accuracy"], r["val_loss"]) for r in results}
        if accs[0.0] == accs[0.1]:
            assert best[0] == 0.0


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
