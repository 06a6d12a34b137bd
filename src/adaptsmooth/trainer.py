"""End-to-end mini-batch SGD over the composed smoothing/classification graph.

Each mini-batch holds all volumes of one (subject, noise level) group.  The
forward pass per volume is: cached noise feature -> predicted width ->
filter -> separable smoothing; the batch then goes through the standardized
sigmoid classifier.  A training volume whose width carries a gradient is
smoothed and differentiated with respect to its width in one pass chain
(`conv3d.smooth_with_dsigma`).  Forward contracts that derivative with the
classifier weight to one number, the logit's width derivative, and backward
multiplies the stored number by the logit's gradient.  A fixed width,
shared by the whole batch, smooths the classifier weight once instead of
every volume: the smoothing is a symmetric linear map, so forward and
backward each need one smoothing per batch.  Backward runs the exact chain
rule down to the width-predicting weights, with plain SGD updates,
validation-based early stopping, and an optional logarithmic grid search
over (lr, lambda).
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import classifier, params_net
from .conv3d import convolve_separable, smooth_with_dsigma
from .errors import DataError, NumericalError
from .gaussian_filter import (
    DEFAULT_TRUNCATION,
    apply_degenerate_policy,
    build_filter,
    max_fitting_sigma,
    sigma_to_fwhm_mm,
)
from .volume_io import read_manifest, read_volume

DEFAULT_LR_GRID = (1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_LAMBDA_GRID = (0.0, 1e-5, 1e-4, 1e-3, 1e-2)


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    lambda_l2: float = 0.0
    max_epochs: int = 200
    patience: int = 10
    bump_probability: float = 0.5
    truncation: float = DEFAULT_TRUNCATION
    seed: int = 0
    width_m: int = 50
    fixed_sigma: float | None = None  # bypass the width network when set
    lr_grid: tuple = DEFAULT_LR_GRID
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID

    def validate(self):
        # the comparisons are false for NaN, so NaN fails every range check
        if not all(0 <= x < math.inf for x in (self.learning_rate, self.lambda_l2)):
            raise DataError("learning rate and lambda must be finite and >= 0")
        if min(self.max_epochs, self.patience, self.width_m) < 1:
            raise DataError("max_epochs, patience and width_m must be >= 1")
        if not 0 < self.truncation < math.inf:
            raise DataError("truncation must be finite and > 0")
        if not 0.0 <= self.bump_probability <= 1.0:
            raise DataError("bump probability must be in [0, 1]")
        if self.fixed_sigma is not None and not 0 < self.fixed_sigma < math.inf:
            raise DataError("fixed_sigma must be finite and > 0")
        if self.seed < 0:
            raise DataError("seed must be >= 0")
        if not self.lr_grid or not self.lambda_grid:
            raise DataError("search grids must be non-empty")


@dataclass
class MiniBatch:
    subject_id: str
    noise_level: float
    split: str
    volumes: np.ndarray  # always one C-contiguous float64 (N, H, W, D) array
    labels: np.ndarray
    features: np.ndarray | None  # noise features, one per volume, or None
    voxel_size_mm: float = 3.0

    @property
    def size(self) -> int:
        return len(self.volumes)


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)  # rows of per-epoch metrics
    best_epoch: int = -1
    stopped_epoch: int = -1
    test_accuracy: float = float("nan")
    per_noise: dict = field(default_factory=dict)  # noise -> dict of metrics
    # training-step counts: "clamp" (pre-activation), "bump", "fit_clamp"
    events: Counter = field(default_factory=Counter)
    config: TrainConfig | None = None

    def epochs_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss,val_accuracy"]
        for row in self.epochs:
            lines.append(f"{row['epoch']},{row['train_loss']:.9g},"
                         f"{row['val_loss']:.9g},{row['val_accuracy']:.9g}")
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        lines = []
        lines.append(f"best epoch: {self.best_epoch}  stopped after epoch: {self.stopped_epoch}")
        lines.append(f"bump events: {self.events['bump']}  preactivation clamps: "
                     f"{self.events['clamp']}  width-fit clamps: {self.events['fit_clamp']}")
        lines.append("")
        fixed = self.config.fixed_sigma if self.config else None
        lines.extend(noise_table(self.per_noise, None if fixed is None
                                 else f"sigma_f {fixed:.4g}"))
        lines.append("")
        lines.append(f"overall test accuracy: {self.test_accuracy:.3f}")
        return "\n".join(lines) + "\n"


def noise_table(per_noise: dict, fixed: str | None = None) -> list[str]:
    """Lines of the per-noise accuracy table of `evaluate`'s ``per_noise``:
    with the mean width and FWHM per noise level, or, when `fixed` names
    the fixed width, accuracy alone."""
    lines = ["noise     accuracy   " + (f"({fixed} fixed)" if fixed
                                      else "mean sigma_f   mean FWHM (mm)")]
    for noise in sorted(per_noise):
        m = per_noise[noise]
        if fixed:
            lines.append(f"{noise:<9g} {m['accuracy']:.3f}")
        else:
            lines.append(f"{noise:<9g} {m['accuracy']:<10.3f} "
                         f"{m['mean_sigma']:<14.4f} ({m['mean_fwhm_mm']:.1f})")
    return lines


def load_dataset(manifest_path, split: str | None = None,
                 features: bool = True) -> list[MiniBatch]:
    """Read a manifest and the volumes beside it into per-(subject, noise)
    groups, each file converted straight into its row of the group's batch
    array.  With `split`, only that split's volumes are read.  With
    `features`, each volume's noise feature is computed here; without, none
    is and ``MiniBatch.features`` is None, which only a fixed-width forward
    pass accepts."""
    manifest = read_manifest(manifest_path)
    entries = manifest.entries
    if split is not None:
        entries = [e for e in entries if manifest.split[e.subject_id] == split]
        if not entries:
            raise DataError(f"split {split!r} is empty")
    groups = {}
    for e in entries:
        groups.setdefault((e.subject_id, e.noise_level), []).append(e)
    batches = []
    dims = voxel = None
    for (sid, noise), group in sorted(groups.items()):
        vols = None

        def row(shape, voxel_mm):
            # the dataset's dims and voxel size are its first file's; a file
            # that differs is refused before anything is written
            nonlocal dims, voxel, vols
            if dims is None:
                dims, voxel = shape, voxel_mm
            if shape != dims:
                raise DataError(f"{e.path}: dims {shape} differ from the dataset's {dims}")
            if voxel_mm != voxel:
                raise DataError(f"{e.path}: voxel size {voxel_mm} mm differs "
                                f"from the dataset's {voxel} mm")
            if vols is None:
                vols = np.empty((len(group), *dims))
            return vols[i]

        for i, e in enumerate(group):
            read_volume(Path(manifest_path).parent / e.path, row)
        feats = np.array([params_net.noise_feature(x) for x in vols]) if features else None
        batches.append(MiniBatch(sid, noise, manifest.split[sid], vols,
                                 np.array([e.label for e in group], dtype=np.float64),
                                 feats, voxel))
    return batches


def make_batches(batches: list[MiniBatch], seed: int) -> list[MiniBatch]:
    """The training groups in a seed-shuffled order; membership is fixed."""
    selected = [b for b in batches if b.split == "train"]
    for b in selected:
        if b.size < 2:
            raise DataError(
                f"group ({b.subject_id}, {b.noise_level}) has {b.size} volume(s); "
                "batch standardization needs >= 2")
    order = np.random.default_rng(seed).permutation(len(selected))
    return [selected[i] for i in order]


def _forward_batch(batch: MiniBatch, pnw, cw, cfg: TrainConfig, rng=None,
                   events: Counter | None = None):
    """Smooth every volume with its own predicted width, then classify the
    batch.  A call with the bump `rng` is a training step: a degenerate
    width may be bumped, and each volume whose width carries a gradient is
    also convolved with the width derivative of its filter, in the same
    pass chain; ``fwd["dz"]`` keeps only that derivative's dot product
    with the classifier weight, None for a volume without a gradient.  A
    call without it evaluates.  Clamps and bumps are added to `events`.  A
    fixed width smooths the classifier weight instead of the volumes.
    Returns everything backward needs."""
    dims = batch.volumes.shape[1:]
    if cfg.fixed_sigma is not None:
        # zero-padded same-size smoothing K with a symmetric profile is a
        # symmetric matrix, so w . (K x) = (K w) . x: the weight is smoothed
        # once and the raw volumes are classified with it, in place
        profile = build_filter(cfg.fixed_sigma, cfg.truncation, min(dims)).profile_1d
        smoothed_cw = copy.copy(cw)
        smoothed_cw.w = convolve_separable(cw.w.reshape(dims), profile).ravel()
        fwd = {"sigmas": [cfg.fixed_sigma] * batch.size, "profile": profile}
        probs, cache = classifier.forward(batch.volumes, smoothed_cw)
    else:
        if batch.features is None:
            raise DataError("the width network needs noise features; "
                            "the batch was loaded without them")
        events = Counter() if events is None else events
        smoothed = np.empty((batch.size, *dims))
        sigmas = []
        dz = [None] * batch.size
        w = cw.w.reshape(dims)
        max_sigma = max_fitting_sigma(dims, cfg.truncation)
        for i, (x, feat) in enumerate(zip(batch.volumes, batch.features)):
            sigma = params_net.map_to_sigma(float(feat), pnw, events)
            bumped = apply_degenerate_policy(sigma, cfg.truncation,
                                             cfg.bump_probability, rng)
            if bumped != sigma:
                events["bump"] += 1
            sigma = bumped
            fit_clamped = sigma > max_sigma
            if fit_clamped:
                events["fit_clamp"] += 1
                sigma = max_sigma
            filt = build_filter(sigma, cfg.truncation)
            sigmas.append(sigma)
            # a clamped width and a single-cell filter carry no gradient
            if rng is not None and not fit_clamped and filt.radius > 0:
                smoothed[i], dz_i = smooth_with_dsigma(x, filt.profile_1d,
                                                       filt.d_profile_1d)
                # dlogit_i/dsigma_i = w . dz_i, the one number backward
                # needs; einsum, because BLAS dot sums a long vector in
                # per-thread parts and its bits follow the thread count
                dz[i] = float(np.einsum("ijk,ijk->", w, dz_i))
            else:
                smoothed[i] = convolve_separable(x, filt.profile_1d)
        fwd = {"sigmas": sigmas, "smoothed": smoothed, "dz": dz}
        probs, cache = classifier.forward(smoothed, cw)
    data_loss = classifier.bce_loss(probs, batch.labels)
    penalty, pen_grad = classifier.l2_penalty(cw, cfg.lambda_l2)
    fwd.update(probs=probs, cache=cache, loss=data_loss + penalty,
               data_loss=data_loss, pen_grad=pen_grad)
    return fwd


def _backward_batch(batch: MiniBatch, fwd, pnw, cfg: TrainConfig):
    """Gradients of the batch loss with respect to all trainable weights."""
    dl_dw, dl_dbias, dl_dlogit = classifier.backward(fwd["cache"], batch.labels)
    dims = batch.volumes.shape[1:]
    if cfg.fixed_sigma is not None:
        # the logits are (K w) . x_i, so dL/dw = K (sum_i dl_i x_i)
        dl_dw = convolve_separable(dl_dw.reshape(dims), fwd["profile"]).ravel()
    grads = {"w": dl_dw + fwd["pen_grad"], "bias": dl_dbias}
    if cfg.fixed_sigma is None:
        head = [np.zeros(pnw.m), np.zeros(pnw.m), np.zeros(pnw.m), 0.0]  # a, b, v, c
        for feat, dz, dl in zip(batch.features, fwd["dz"], dl_dlogit):
            if dz is None:
                continue  # this volume's width carries no gradient
            # the stochastic bump is pass-through: d(sigma+1)/dsigma = 1
            gi = params_net.map_to_sigma_backward(float(feat), pnw, float(dl) * dz)
            head = [h + g for h, g in zip(head, gi)]
        grads.update(zip("abvc", head))
    return grads


def batch_loss_and_grads(batch: MiniBatch, pnw, cw, cfg: TrainConfig):
    """One training step's forward/backward pass over a batch, bumps drawn
    from `cfg.seed`; the hook used by gradient tests."""
    fwd = _forward_batch(batch, pnw, cw, cfg, np.random.default_rng(cfg.seed))
    grads = _backward_batch(batch, fwd, pnw, cfg)
    return fwd["loss"], grads, fwd


def _evaluate_split(batches, pnw, cw, cfg, split):
    """Loss/accuracy per noise level, using batch statistics at evaluation
    time as well (deliberate deviation from running-average batch norm)."""
    per_noise = {}
    total_loss, total_correct, total_n = 0.0, 0.0, 0
    for b in batches:
        if b.split != split:
            continue
        voxel_mm = b.voxel_size_mm
        fwd = _forward_batch(b, pnw, cw, cfg)
        acc = classifier.accuracy(fwd["probs"], b.labels)
        rec = per_noise.setdefault(b.noise_level, {"n": 0, "correct": 0.0,
                                                   "loss": 0.0, "sigma_sum": 0.0})
        rec["n"] += b.size
        rec["correct"] += acc * b.size
        rec["loss"] += fwd["data_loss"] * b.size
        rec["sigma_sum"] += sum(fwd["sigmas"])
        total_loss += fwd["data_loss"] * b.size
        total_correct += acc * b.size
        total_n += b.size
    if total_n == 0:
        raise DataError(f"split {split!r} is empty")
    table = {}
    for noise, rec in per_noise.items():
        row = {"accuracy": rec["correct"] / rec["n"],
               "loss": rec["loss"] / rec["n"], "n": rec["n"]}
        if cfg.fixed_sigma is None:
            mean_sigma = rec["sigma_sum"] / rec["n"]
            row["mean_sigma"] = mean_sigma
            row["mean_fwhm_mm"] = sigma_to_fwhm_mm(mean_sigma, voxel_mm)
        table[noise] = row
    return {"loss": total_loss / total_n, "accuracy": total_correct / total_n,
            "per_noise": table}


def evaluate(pnw, cw, batches, split: str, cfg: TrainConfig | None = None,
             fixed_sigma: float | None = None):
    """Accuracy table for one split; `fixed_sigma` bypasses the width network
    (the fixed-FWHM baseline protocol)."""
    if cfg is None:
        cfg = TrainConfig()
    if fixed_sigma is not None:
        cfg = replace(cfg, fixed_sigma=fixed_sigma)
    return _evaluate_split(batches, pnw, cw, cfg, split)


def train(cfg: TrainConfig, batches: list[MiniBatch]):
    """SGD with validation-based early stopping.  Deterministic per seed."""
    cfg.validate()
    train_groups = [b for b in batches if b.split == "train"]
    if not train_groups:
        raise DataError("training split is empty")
    for split in ("validation", "test"):
        if not any(b.split == split for b in batches):
            raise DataError(f"{split} split is empty")
    dims = train_groups[0].volumes.shape[1:]
    for b in batches:
        if b.volumes.shape[1:] != dims:
            raise DataError(f"dim mismatch: {b.volumes.shape[1:]} vs {dims}")

    pnw = params_net.init_weights(cfg.width_m, cfg.seed)
    cw = classifier.xavier_init(dims, cfg.seed + 1)
    bump_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    report = TrainReport(config=cfg)

    best = {"loss": math.inf, "epoch": -1, "pnw": None, "cw": None}

    for epoch in range(1, cfg.max_epochs + 1):
        epoch_loss, n_seen = 0.0, 0
        for batch in make_batches(batches, cfg.seed + epoch):
            fwd = _forward_batch(batch, pnw, cw, cfg, bump_rng, report.events)
            if not math.isfinite(fwd["loss"]):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch} "
                    f"(subject {batch.subject_id}, noise {batch.noise_level}); "
                    f"last widths {[round(s, 4) for s in fwd['sigmas']]}, "
                    f"preactivation clamps {report.events['clamp']}, "
                    f"width-fit clamps {report.events['fit_clamp']}")
            # plain SGD on every parameter with a gradient: w, bias, a, b, v, c
            for name, g in _backward_batch(batch, fwd, pnw, cfg).items():
                owner = cw if name in ("w", "bias") else pnw
                setattr(owner, name, getattr(owner, name) - cfg.learning_rate * g)
            epoch_loss += fwd["loss"] * batch.size
            n_seen += batch.size
        train_loss = epoch_loss / n_seen

        val = _evaluate_split(batches, pnw, cw, cfg, "validation")
        report.epochs.append({"epoch": epoch, "train_loss": train_loss,
                              "val_loss": val["loss"],
                              "val_accuracy": val["accuracy"]})
        if val["loss"] < best["loss"]:
            best = {"loss": val["loss"], "epoch": epoch,
                    "pnw": copy.deepcopy(pnw), "cw": copy.deepcopy(cw)}
        # patience counts from the best epoch, or from 0 while none is finite
        elif epoch - max(best["epoch"], 0) >= cfg.patience:
            break

    if best["pnw"] is not None:
        pnw, cw = best["pnw"], best["cw"]
    report.best_epoch = best["epoch"]
    report.stopped_epoch = report.epochs[-1]["epoch"]

    test = _evaluate_split(batches, pnw, cw, cfg, "test")
    report.test_accuracy = test["accuracy"]
    report.per_noise = test["per_noise"]
    return pnw, cw, report


def grid_search(cfg: TrainConfig, batches: list[MiniBatch]):
    """Train one model per (lr, lambda) grid point and pick the best by
    validation accuracy; ties break to lower validation loss then lower lr."""
    cfg.validate()
    results = []
    for lr in cfg.lr_grid:
        for lam in cfg.lambda_grid:
            cell_cfg = replace(cfg, learning_rate=lr, lambda_l2=lam)
            row = {"learning_rate": lr, "lambda_l2": lam}
            try:
                _, _, report = train(cell_cfg, batches)
                # the row of the weights train returns: the best epoch's, or
                # the last epoch's (best_epoch -1) when no validation loss was finite
                val = report.epochs[max(report.best_epoch, 0) - 1]
                row.update({"val_accuracy": val["val_accuracy"], "val_loss": val["val_loss"],
                            "test_accuracy": report.test_accuracy, "error": ""})
            except (DataError, NumericalError) as exc:
                row.update({"val_accuracy": float("nan"), "val_loss": float("nan"),
                            "test_accuracy": float("nan"), "error": str(exc)})
            results.append(row)
    ok = [r for r in results if not r["error"]]
    if not ok:
        raise NumericalError("every grid cell failed")
    best = min(ok, key=lambda r: (-r["val_accuracy"], r["val_loss"], r["learning_rate"]))
    return (best["learning_rate"], best["lambda_l2"]), results
