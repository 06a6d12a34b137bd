"""The benchmark workloads, their timing and their correctness checks.

Every workload runs on the criterion-7 phantom (`SPEC`, 768 volumes of 24^3,
phantom seed 7) with lr 0.1, lambda 1e-3 and train seed 43.  `--seed s`
replaces the held-out test subject by the one phantom seed s generates; the
training and validation subjects stay those of seed 7, so `--seed 7` is the
criterion-7 dataset itself.  The widths the network learns, and with them the
convolution work of a training, depend on the training data (re-seeding the
whole phantom moved one training between 6.9 and 10.2 GFLOP), so only the
held-out data varies with the seed.

Each training runs a fixed number of epochs (patience = max_epochs switches
early stopping off).  The counts are the epochs at which the criterion-7
runs stop on their own (patience 10), so they train the same weights.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
import shutil
import statistics
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from adaptsmooth import (classifier, cli, conv3d, params_net, phantom, trainer,
                         volume_io)
from adaptsmooth.gaussian_filter import build_filter, filter_radius, fwhm_mm_to_sigma

import layers
from hostspeed import HostClock, host_factor

SPEC = {"volumes_per_subject_per_class": 12, "amplitude": 0.05}
PHANTOM_SEED = 7
TRAIN_SEED = 43
LEARNING_RATE = 0.1
LAMBDA_L2 = 1e-3
ADAPTIVE_EPOCHS = 12
FIXED_EPOCHS = 14
FIXED_FWHM_MM = (8.0, 13.0)
SWEEP_FWHM_MM = (None, 3.0, 8.0, 13.0)  # None: the adaptive width network
MIN_REPEATS = 3       # measured repeats per run, however short --seconds is
EVALS_PER_MODEL = 5   # timed in-memory test evaluations per trained model
SWEEP_TRAININGS = 2   # trainings before evaluate_sweep's repeats: the weights
                      # are checked equal and train_s is their median
ORACLE_TOL = 1e-12


@dataclass
class Checks:
    attempted: int = 0
    failed: list = field(default_factory=list)

    def __call__(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed.append(what)


class Bench:
    """State of one run: work directory, seed, clock, timing samples, checks
    and, in a traced run, the tracer."""

    def __init__(self, workdir, seed: int, tracer=None, clock=None):
        self.workdir = workdir
        self.seed = seed
        self.tracer = tracer
        self.clock = clock or HostClock()
        self.samples = defaultdict(list)     # (phase, traced) -> seconds on the clock
        self.normalized = defaultdict(list)  # (phase, traced) -> seconds at nominal host speed
        self.checks = Checks()
        self.digests = {}                    # dataset or model name -> sha256
        self.accuracies = []                 # test accuracy of every trained model

    @contextmanager
    def measure(self, phase: str, traced: bool = False):
        """Time one repeat of `phase` on the run's `HostClock`, which samples
        the host's speed at the start, the end and `layers.TICKED` calls.  A
        traced repeat is also a ``bench.<phase>`` span with every layer
        wrapped."""
        clock = self.clock
        with ExitStack() as stack:
            if traced:
                stack.enter_context(layers.install(self.tracer))
            stack.enter_context(layers.ticking(clock.tick))
            if traced:
                stack.enter_context(self.tracer.span(f"bench.{phase}"))
            t0, first = clock.now(), len(clock.refs)
            clock.reference()
            yield
            clock.reference()
            elapsed = clock.now() - t0
        self.samples[(phase, traced)].append(elapsed)
        self.normalized[(phase, traced)].append(
            elapsed / host_factor(clock.refs[first:]))

    def typical(self, phase: str, traced: bool = False) -> float:
        """Median over the run's repeats of `phase`, in seconds at nominal
        host speed."""
        return statistics.median(self.normalized[(phase, traced)])


def weights_digest(pnw, cw) -> str:
    h = hashlib.sha256()
    for arr in (pnw.a, pnw.b, pnw.v, pnw.c, cw.w, cw.bias):
        h.update(np.asarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def dataset_digest(batches) -> str:
    h = hashlib.sha256()
    for b in batches:
        h.update(repr((b.subject_id, b.noise_level, b.split)).encode())
        h.update(b.labels.tobytes())
        h.update(b.features.tobytes())
        for v in b.volumes:
            h.update(np.ascontiguousarray(v).tobytes())
    return h.hexdigest()


def split_size(batches, split: str) -> int:
    return sum(b.size for b in batches if b.split == split)


def train_config(fwhm_mm: float | None, voxel_mm: float) -> trainer.TrainConfig:
    epochs = ADAPTIVE_EPOCHS if fwhm_mm is None else FIXED_EPOCHS
    return trainer.TrainConfig(
        learning_rate=LEARNING_RATE, lambda_l2=LAMBDA_L2, max_epochs=epochs,
        patience=epochs, seed=TRAIN_SEED,
        fixed_sigma=None if fwhm_mm is None else fwhm_mm_to_sigma(fwhm_mm, voxel_mm))


def make_dataset(bench):
    """Generate the phantoms of seed 7 and of the run's seed, write a manifest
    taking the test subject from the latter, and load it."""
    data = bench.workdir / "data"
    spec = phantom.PhantomSpec(**SPEC)
    base = phantom.generate(spec, data / "base", PHANTOM_SEED)
    held = phantom.generate(spec, data / "heldout", bench.seed)
    manifest = volume_io.DatasetManifest(split=dict(base.split))
    for e, h in zip(base.entries, held.entries):
        src, d = (h, "heldout") if base.split[e.subject_id] == "test" else (e, "base")
        manifest.entries.append(volume_io.ManifestEntry(
            f"{d}/{src.path}", src.label, src.subject_id, src.noise_level))
    volume_io.write_manifest(manifest, data / "manifest.csv")
    return trainer.load_dataset(data / "manifest.csv")


def setup(bench, traced: bool):
    """One timed set-up: generate and load the dataset.  Checks that every
    set-up of the run loads identical data."""
    shutil.rmtree(bench.workdir / "data", ignore_errors=True)
    with bench.measure("setup", traced):
        batches = make_dataset(bench)
    digest = dataset_digest(batches)
    bench.checks(digest == bench.digests.setdefault("dataset", digest),
                 "set-ups loaded different datasets")
    return batches


def check_model(bench, name, pnw, cw, report, cfg):
    """Finite losses, the configured epoch count, and weights bitwise equal
    to the first training of the same model in this run."""
    losses = [row[k] for row in report.epochs for k in ("train_loss", "val_loss")]
    bench.checks(all(math.isfinite(x) for x in losses), f"{name}: non-finite loss")
    bench.checks(len(report.epochs) == cfg.max_epochs,
                 f"{name}: ran {len(report.epochs)} epochs, expected {cfg.max_epochs}")
    digest = weights_digest(pnw, cw)
    first = bench.digests.setdefault(name, digest)
    bench.checks(digest == first, f"{name}: weights differ between repeats")
    bench.accuracies.append(report.test_accuracy)


def adaptive_sigma(pnw, batches, t: float) -> float | None:
    """Largest width the network predicts on the test split whose filter
    still fits the volume; None if none fits."""
    dims = batches[0].volumes[0].shape
    sigmas = [params_net.map_to_sigma(float(f), pnw)
              for b in batches if b.split == "test" for f in b.features]
    fits = [s for s in sigmas if 2 * filter_radius(s, t) + 1 <= min(dims)]
    return max(fits) if fits else None


def check_oracle(bench, batches, sigmas, t: float):
    """Separable forward smoothing against the direct tap-loop convolution,
    on one seed-chosen test volume per width."""
    test = [v for b in batches if b.split == "test" for v in b.volumes]
    x = test[bench.seed % len(test)]
    for sigma in sigmas:
        if sigma is None:
            continue
        filt = build_filter(sigma, t)
        diff = float(np.max(np.abs(conv3d.convolve_separable(x, filt.profile_1d)
                                   - conv3d.convolve(x, filt.weights))))
        bench.checks(diff <= ORACLE_TOL,
                     f"sigma {sigma:.6g}: separable vs direct differ by {diff:.3g}")


def measure_loop(bench, seconds: float, unit):
    """Run `unit(traced)` for about `seconds` and at least `MIN_REPEATS`
    times; return the last repeat's result.  A repeat is started only if
    it is expected to end less than half a repeat past the deadline, so a
    run overruns `seconds` by half a repeat on average.  Each repeat sets
    up afresh, so set-up, training and evaluation are all sampled across
    the whole run.  A traced run alternates untraced and traced repeats, at
    least two of each, so it measures its own overhead."""
    tracing = bench.tracer is not None
    min_repeats = max(MIN_REPEATS, 4) if tracing else MIN_REPEATS
    t0 = time.perf_counter()
    i, last = 0, 0.0
    while i < min_repeats or time.perf_counter() - t0 + last / 2 < seconds:
        start = time.perf_counter()
        result = unit(tracing and i % 2 == 1)
        last = time.perf_counter() - start
        i += 1
    return result


def model_name(fwhm_mm: float | None) -> str:
    return "adaptive" if fwhm_mm is None else f"fixed {fwhm_mm:g} mm"


def model_sigma(cfg, pnw, batches) -> float | None:
    """The width to check against the oracle for one trained model."""
    if cfg.fixed_sigma is not None:
        return cfg.fixed_sigma
    return adaptive_sigma(pnw, batches, cfg.truncation)


def training(bench, seconds, fwhms):
    """Each repeat sets up, trains one model per FWHM in `fwhms` (None: the
    adaptive width network), and evaluates the models on the test split
    from memory, `EVALS_PER_MODEL` times right after training and as often
    again after the next repeat's set-up, so that evaluation is sampled at
    twice as many moments of the run."""
    names = [model_name(f) for f in fwhms]
    last = {}

    def evaluate(batches, cfgs, models, traced):
        for _ in range(EVALS_PER_MODEL):
            with bench.measure("eval", traced):
                results = [trainer.evaluate(pnw, cw, batches, "test", cfg)
                           for cfg, (pnw, cw, _) in zip(cfgs, models)]
            for name, res, (_, _, report) in zip(names, results, models):
                bench.checks(res["accuracy"] == report.test_accuracy,
                             f"{name}: evaluate() disagrees with training report")

    def unit(traced):
        batches = setup(bench, traced)
        if last:
            evaluate(batches, last["cfgs"], last["models"], traced)
        cfgs = [train_config(f, batches[0].voxel_size_mm) for f in fwhms]
        with bench.measure("train", traced):
            models = [trainer.train(cfg, batches) for cfg in cfgs]
        for name, cfg, (pnw, cw, report) in zip(names, cfgs, models):
            check_model(bench, name, pnw, cw, report, cfg)
        evaluate(batches, cfgs, models, traced)
        last.update(cfgs=cfgs, models=models)
        return batches, cfgs, models

    batches, cfgs, models = measure_loop(bench, seconds, unit)
    check_oracle(bench, batches, [model_sigma(cfg, pnw, batches)
                                  for cfg, (pnw, _, _) in zip(cfgs, models)],
                 cfgs[0].truncation)
    per_epoch = split_size(batches, "train") + split_size(batches, "validation")
    return {"train_volumes": sum(cfg.max_epochs for cfg in cfgs) * per_epoch,
            "eval_volumes": len(cfgs) * split_size(batches, "test")}


def adaptive_train(bench, seconds):
    return training(bench, seconds, (None,))


def fixed_baseline(bench, seconds):
    return training(bench, seconds, FIXED_FWHM_MM)


def evaluate_sweep(bench, seconds):
    """The run first sets up, trains the adaptive model `SWEEP_TRAININGS`
    times and saves it, which counts toward `seconds`.  Each repeat then sets up afresh and runs the `adaptsmooth evaluate`
    command in-process on the test split, once adaptively and once per
    fixed FWHM in `SWEEP_FWHM_MM`.  Every command reloads and featurizes
    all 768 volumes to classify 96, so the evaluation step is forward-only
    and read-heavy; it is checked for exit code and printed accuracy."""
    model = bench.workdir / "model"
    data = bench.workdir / "data"
    argvs = [["evaluate", "--weights", str(model), "--data", str(data), "--split", "test"]
             + ([] if fwhm is None else ["--fixed-fwhm-mm", f"{fwhm:g}"])
             for fwhm in SWEEP_FWHM_MM]

    t0 = time.perf_counter()
    batches = setup(bench, False)
    voxel = batches[0].voxel_size_mm
    cfg = train_config(None, voxel)
    for _ in range(SWEEP_TRAININGS):
        with bench.measure("train"):
            pnw, cw, report = trainer.train(cfg, batches)
        check_model(bench, "adaptive", pnw, cw, report, cfg)
    model.mkdir()
    params_net.save_weights(pnw, model / "params_net.txt")
    classifier.save_weights(cw, batches[0].volumes[0].shape, model / "classifier.txt")
    expected = {}  # FWHM -> accuracy as `evaluate` prints it
    for fwhm in SWEEP_FWHM_MM:
        sigma = None if fwhm is None else fwhm_mm_to_sigma(fwhm, voxel)
        acc = trainer.evaluate(pnw, cw, batches, "test", fixed_sigma=sigma)
        expected[fwhm] = f"{acc['accuracy']:.3f}"

    def unit(traced):
        setup(bench, traced)
        outputs = []
        with bench.measure("eval", traced):
            for argv in argvs:
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli.run(argv)
                outputs.append((code, out.getvalue()))
        for fwhm, (code, text) in zip(SWEEP_FWHM_MM, outputs):
            what = model_name(fwhm)
            bench.checks(code == 0, f"evaluate {what}: exit code {code}")
            printed = re.search(r"overall accuracy: (\S+)", text)
            bench.checks(printed is not None and printed.group(1) == expected[fwhm],
                         f"evaluate {what}: printed accuracy "
                         f"{printed and printed.group(1)} != {expected[fwhm]}")

    measure_loop(bench, seconds - (time.perf_counter() - t0), unit)
    check_oracle(bench, batches,
                 [fwhm_mm_to_sigma(f, voxel) for f in SWEEP_FWHM_MM if f is not None]
                 + [adaptive_sigma(pnw, batches, cfg.truncation)], cfg.truncation)
    per_epoch = split_size(batches, "train") + split_size(batches, "validation")
    return {"train_volumes": cfg.max_epochs * per_epoch,
            "eval_volumes": len(SWEEP_FWHM_MM) * split_size(batches, "test")}


WORKLOADS = {
    "adaptive_train": adaptive_train,
    "fixed_baseline": fixed_baseline,
    "evaluate_sweep": evaluate_sweep,
}


def end_to_end(bench, volumes: dict, peak_rss_mb: float) -> dict:
    """End-to-end metrics of an untraced run, from `Bench.typical` times."""
    train_s = bench.typical("train")
    eval_s = bench.typical("eval")
    checks = bench.checks
    return {
        "setup_s": bench.typical("setup"),
        "train_s": train_s,
        "train_volumes_per_s": volumes["train_volumes"] / train_s,
        "eval_s": eval_s,
        "eval_volumes_per_s": volumes["eval_volumes"] / eval_s,
        "peak_rss_mb": peak_rss_mb,
        "test_accuracy": statistics.fmean(bench.accuracies),
        "pass_frac": 1.0 - len(checks.failed) / checks.attempted,
    }


def tracing_overhead(bench) -> tuple[float, float]:
    """(traced - untraced, untraced) seconds at nominal host speed of the
    training and evaluation steps, each the median over its repeats."""
    over, base = 0.0, 0.0
    for phase in ("train", "eval"):
        if bench.normalized[(phase, True)] and bench.normalized[(phase, False)]:
            over += bench.typical(phase, True) - bench.typical(phase, False)
            base += bench.typical(phase, False)
    return over, base
