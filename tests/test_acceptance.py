"""End-to-end acceptance checks for the adaptive smoothing pipeline.

Each test covers one release criterion and prints a single pass/fail line
(visible under `pytest -s` or `-rA`).  The criteria are property-based: the
original left-vs-right finger-tapping fMRI dataset is not publicly available,
so absolute accuracies from that experiment cannot be reproduced and synthetic
phantoms stand in (criterion 1 records this).
"""

import copy
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from adaptsmooth import classifier, params_net, trainer
from adaptsmooth.conv3d import (
    convolve,
    convolve_backward_input,
    convolve_separable,
)
from adaptsmooth.gaussian_filter import (
    apply_degenerate_policy,
    build_filter,
    filter_radius,
    fwhm_mm_to_sigma,
    sigma_to_fwhm_mm,
    single_cell_threshold,
)
from adaptsmooth.phantom import PhantomSpec, generate
from adaptsmooth.trainer import MiniBatch, TrainConfig, batch_loss_and_grads


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    print(f"criterion {num}: PASS - {desc}")


@pytest.fixture(scope="module")
def phantom_dataset(tmp_path_factory):
    """Desk-scale benchmark dataset: 8 subjects, 24^3, four noise levels."""
    out = tmp_path_factory.mktemp("acceptance_phantom")
    spec = PhantomSpec(volumes_per_subject_per_class=12, amplitude=0.05)
    generate(spec, out, seed=7)
    return trainer.load_dataset(out / "manifest.csv")


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_tiny")
    spec = PhantomSpec(dims=(16, 16, 16), n_subjects=4,
                       volumes_per_subject_per_class=3,
                       center_offset_x=3, blob_radius=1.3,
                       noise_levels=(0.0, 0.2), split_counts=(2, 1, 1))
    generate(spec, out, seed=3)
    return trainer.load_dataset(out / "manifest.csv")


def test_criterion_1_reproducibility_statement():
    with criterion(1, "absolute benchmark accuracies documented as not "
                      "reproducible; property-based checks stand in"):
        # The source experiment's finger-tapping recordings are not available,
        # so its accuracy table cannot be recomputed.  Criteria 2-9 validate
        # the implementation by its mathematical properties and by the
        # qualitative trend on synthetic phantoms instead.
        assert True


def test_criterion_2_filter_correctness():
    with criterion(2, "normalization, 48 exact symmetries, and the radius "
                      "formula over 25 log-spaced widths in < 1 s"):
        t0 = time.perf_counter()
        for sigma in np.logspace(np.log10(0.4), np.log10(4.0), 25):
            f = build_filter(float(sigma), 4.0)
            assert abs(f.weights.sum() - 1.0) < 1e-9
            assert f.radius == math.floor((4.0 * sigma + 0.5) / 2.0)
            for perm in itertools.permutations((0, 1, 2)):
                for flips in itertools.product((False, True), repeat=3):
                    w = np.transpose(f.weights, perm)
                    for ax, do in enumerate(flips):
                        if do:
                            w = np.flip(w, axis=ax)
                    np.testing.assert_array_equal(w, f.weights)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_degenerate_regime():
    with criterion(3, "single-cell identity below sigma_f = 0.375 and the "
                      "seeded training-only +1 bump"):
        assert single_cell_threshold(4.0) == pytest.approx(0.375)
        for sigma in (0.05, 0.2, 0.374):
            f = build_filter(sigma, 4.0)
            assert f.radius == 0
            np.testing.assert_array_equal(f.weights, np.ones((1, 1, 1)))
            np.testing.assert_array_equal(f.d_weights_d_sigma, np.zeros((1, 1, 1)))
        assert filter_radius(0.376, 4.0) >= 1
        # p = 1 in a training step always bumps; p = 0 or evaluation never does
        rng = np.random.default_rng
        assert apply_degenerate_policy(0.2, 4.0, 1.0, rng(0)) == pytest.approx(1.2)
        assert apply_degenerate_policy(0.2, 4.0, 0.0, rng(0)) == 0.2
        assert apply_degenerate_policy(0.2, 4.0, 1.0) == 0.2
        outs = {apply_degenerate_policy(0.2, 4.0, 0.5, rng(7)) for _ in range(8)}
        assert len(outs) == 1  # deterministic under a fixed seed


def test_criterion_4_gradient_suite():
    with criterion(4, "filter, adjoint, classifier, and end-to-end gradients "
                      "vs finite differences in < 30 s"):
        t0 = time.perf_counter()

        # (a) filter derivative at 20 support-stable widths, rel err < 1e-5
        h = 1e-5
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 20:
            sigma = float(rng.uniform(0.45, 4.0))
            if filter_radius(sigma - h, 4.0) != filter_radius(sigma + h, 4.0):
                continue
            f = build_filter(sigma, 4.0)
            fd = (build_filter(sigma + h, 4.0).weights
                  - build_filter(sigma - h, 4.0).weights) / (2 * h)
            an = f.d_weights_d_sigma
            assert np.max(np.abs(fd - an) / np.maximum(np.abs(fd), 1e-10)) < 1e-5
            checked += 1

        # (b) convolution adjoint dot-product identity within 1e-7 relative
        x = rng.normal(size=(8, 8, 8))
        u = rng.normal(size=(8, 8, 8))
        q = build_filter(1.2, 4.0).weights
        lhs = float(np.sum(convolve(x, q) * u))
        rhs = float(np.sum(x * convolve_backward_input(u, q)))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-7

        # (c) classifier Jacobian on a 4-volume batch of 4^3 inputs
        vols = [rng.normal(0, 1, (4, 4, 4)) for _ in range(4)]
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        cw = classifier.xavier_init((4, 4, 4), seed=2)
        _, cache = classifier.forward(vols, cw)
        dw, dbias, dz = classifier.backward(cache, labels)
        hh = 1e-6

        def cls_loss(weights, batch=vols):
            probs, _ = classifier.forward(batch, weights)
            return classifier.bce_loss(probs, labels)

        for i in rng.choice(cw.w.size, size=10, replace=False):
            wp = classifier.ClassifierWeights(cw.w.copy(), cw.bias)
            wm = classifier.ClassifierWeights(cw.w.copy(), cw.bias)
            wp.w[i] += hh
            wm.w[i] -= hh
            fd = (cls_loss(wp) - cls_loss(wm)) / (2 * hh)
            assert abs(fd - dw[i]) / max(abs(fd), 1e-10) < 1e-5
        for vi in (1, 3):
            for j in rng.choice(64, size=4, replace=False):
                bp = [v.copy() for v in vols]
                bm = [v.copy() for v in vols]
                bp[vi].ravel()[j] += hh
                bm[vi].ravel()[j] -= hh
                fd = (cls_loss(cw, bp) - cls_loss(cw, bm)) / (2 * hh)
                assert abs(fd - dz[vi, j]) / max(abs(fd), 1e-10) < 1e-5

        # (d) end-to-end loss gradient for the width-predicting weights,
        # bump disabled, rel err < 1e-3
        vols8 = [rng.normal(0.4, 0.1, (8, 8, 8)) for _ in range(4)]
        feats = np.array([params_net.noise_feature(v) for v in vols8])
        batch = MiniBatch("s0", 0.1, "train", vols8,
                          np.array([0.0, 1.0, 0.0, 1.0]), feats)
        pnw = params_net.ParamsNetWeights(rng.normal(0, 0.05, 5),
                                          rng.normal(0, 0.05, 5),
                                          rng.normal(0, 0.05, 5), 0.1)
        cw8 = classifier.xavier_init((8, 8, 8), seed=3)
        cfg = TrainConfig(bump_probability=0.0)
        _, grads, fwd = batch_loss_and_grads(batch, pnw, cw8, cfg)
        assert all(0.8 < s < 1.35 for s in fwd["sigmas"])  # support-stable

        def e2e_loss(pn):
            loss, _, _ = batch_loss_and_grads(batch, pn, cw8, cfg)
            return loss

        for name in ("a", "b", "v"):
            for i in range(5):
                p1, p2 = copy.deepcopy(pnw), copy.deepcopy(pnw)
                getattr(p1, name)[i] += hh
                getattr(p2, name)[i] -= hh
                fd = (e2e_loss(p1) - e2e_loss(p2)) / (2 * hh)
                an = grads[name][i]
                assert abs(fd - an) / max(abs(fd), abs(an), 1e-12) < 1e-3

        assert time.perf_counter() - t0 < 30.0


def test_criterion_5_noise_estimator():
    with criterion(5, "calibrated noise estimate recovers 0.1/0.2/0.3 within "
                      "5% over 20 seeds in < 20 s"):
        t0 = time.perf_counter()
        for sigma in (0.1, 0.2, 0.3):
            ests = [params_net.calibrated_noise_estimate(
                np.random.default_rng(1000 * int(sigma * 10) + s)
                .normal(0.0, sigma, (32, 32, 32))) for s in range(20)]
            assert abs(np.mean(ests) - sigma) / sigma < 0.05
        assert time.perf_counter() - t0 < 20.0


def test_criterion_6_convolution_equivalence_and_speed():
    with criterion(6, "separable matches direct within 1e-5 and is >= 2x "
                      "faster at radius 4 on 64^3"):
        rng = np.random.default_rng(4)
        for sigma in (0.8, 1.5, 3.0):
            x = rng.normal(size=(16, 16, 16))
            f = build_filter(sigma, 4.0)
            diff = np.max(np.abs(convolve(x, f.weights)
                                 - convolve_separable(x, f.profile_1d)))
            assert diff < 1e-5
        x = rng.normal(size=(64, 64, 64))
        f = build_filter(2.0, 4.0)
        assert f.radius == 4
        direct = min(_timed(convolve, x, f.weights) for _ in range(3))
        separable = min(_timed(convolve_separable, x, f.profile_1d)
                        for _ in range(3))
        assert separable * 2.0 <= direct


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_7_adaptive_vs_fixed_trend(phantom_dataset):
    with criterion(7, "predicted width grows with noise and adaptive accuracy "
                      "tracks the best fixed baseline in < 5 min"):
        t0 = time.perf_counter()
        base = dict(learning_rate=0.1, lambda_l2=1e-3, max_epochs=120, seed=43)

        pnw, cw, _ = trainer.train(TrainConfig(**base), phantom_dataset)
        adaptive = trainer.evaluate(pnw, cw, phantom_dataset, "test",
                                    TrainConfig(**base))
        noise_levels = sorted(adaptive["per_noise"])
        assert noise_levels == [0.0, 0.1, 0.2, 0.3]

        # (i) mean predicted width is non-decreasing in the noise level
        sigmas = [adaptive["per_noise"][n]["mean_sigma"] for n in noise_levels]
        assert all(a <= b + 1e-12 for a, b in zip(sigmas, sigmas[1:]))

        # (ii) accuracy vs fixed-FWHM baselines at 3 / 8 / 13 mm
        fixed_acc = {}
        for fwhm in (3.0, 8.0, 13.0):
            cfg = TrainConfig(**base, fixed_sigma=fwhm_mm_to_sigma(fwhm, 3.0))
            fp, fc, _ = trainer.train(cfg, phantom_dataset)
            res = trainer.evaluate(fp, fc, phantom_dataset, "test", cfg)
            fixed_acc[fwhm] = {n: res["per_noise"][n]["accuracy"]
                               for n in noise_levels}
        for n in noise_levels:
            best_fixed = max(fixed_acc[f][n] for f in fixed_acc)
            assert adaptive["per_noise"][n]["accuracy"] >= best_fixed - 0.05
        worst_fixed_at_03 = min(fixed_acc[f][0.3] for f in fixed_acc)
        assert adaptive["per_noise"][0.3]["accuracy"] > worst_fixed_at_03

        assert time.perf_counter() - t0 < 300.0


def test_criterion_8_trainer_mechanics(tiny_dataset):
    with criterion(8, "lr=0 no-op, descent at small lr, best-weight restore, "
                      "and bitwise determinism"):
        # lr = 0 leaves the freshly initialized weights untouched
        cfg0 = TrainConfig(learning_rate=0.0, max_epochs=3, seed=4, width_m=8)
        pnw, cw, _ = trainer.train(cfg0, tiny_dataset)
        np.testing.assert_array_equal(pnw.a, params_net.init_weights(8, 4).a)
        dims = tiny_dataset[0].volumes[0].shape
        np.testing.assert_array_equal(cw.w, classifier.xavier_init(dims, 5).w)

        # one small SGD step on a single batch lowers that batch's loss
        rng = np.random.default_rng(5)
        batch = next(b for b in tiny_dataset if b.split == "train")
        pnw = params_net.init_weights(8, 5)
        cw = classifier.xavier_init(dims, 6)
        cfg = TrainConfig(bump_probability=0.0)
        loss0, grads, _ = batch_loss_and_grads(batch, pnw, cw, cfg)
        lr = 1e-4
        cw.w = cw.w - lr * grads["w"]
        cw.bias = cw.bias - lr * grads["bias"]
        pnw.a = pnw.a - lr * grads["a"]
        pnw.b = pnw.b - lr * grads["b"]
        pnw.v = pnw.v - lr * grads["v"]
        pnw.c = pnw.c - lr * grads["c"]
        loss1, _, _ = batch_loss_and_grads(batch, pnw, cw, cfg)
        assert loss1 < loss0

        # early stopping hands back the weights of the best validation epoch
        cfg_es = TrainConfig(learning_rate=0.3, max_epochs=60, patience=5,
                             seed=2, width_m=8)
        pnw, cw, report = trainer.train(cfg_es, tiny_dataset)
        val = trainer.evaluate(pnw, cw, tiny_dataset, "validation", cfg_es)
        best_row = min(report.epochs, key=lambda r: r["val_loss"])
        assert best_row["epoch"] == report.best_epoch
        assert val["loss"] == pytest.approx(best_row["val_loss"], rel=1e-12)

        # identical seeds give bitwise-identical weights and metrics
        cfg_d = TrainConfig(learning_rate=0.1, max_epochs=8, seed=9, width_m=8)
        p1, c1, r1 = trainer.train(cfg_d, tiny_dataset)
        p2, c2, r2 = trainer.train(cfg_d, tiny_dataset)
        assert r1.epochs == r2.epochs
        np.testing.assert_array_equal(p1.a, p2.a)
        np.testing.assert_array_equal(p1.v, p2.v)
        np.testing.assert_array_equal(c1.w, c2.w)
        assert c1.bias == c2.bias


def test_criterion_9_fwhm_conversions():
    with criterion(9, "FWHM conversion constants and exact round trip"):
        assert sigma_to_fwhm_mm(1.0, 3.0) == pytest.approx(7.0642, abs=1e-3)
        for sigma in (0.3, 1.0, 1.13243, 2.7):
            back = fwhm_mm_to_sigma(sigma_to_fwhm_mm(sigma, 3.0), 3.0)
            assert abs(back - sigma) < 1e-12
