"""End-to-end mini-batch SGD over the composed smoothing/classification graph.

Each mini-batch holds all volumes of one (subject, noise level) group.  The
adaptive forward pass is one array program per batch: cached noise features
-> one head call for all widths, each inside the head's range -> the
profiles of all widths -> separable smoothing in chunks of volumes, each
pass of a chunk one broadcast product, the chunks shared by one worker
per CPU (`conv3d.smooth_batch`); the batch then goes through the
standardized sigmoid classifier.  Each `train` or `evaluate` call smooths
all its batches into one `conv3d.Workspace`, made once for its largest
batch and closed when it returns, so its worker threads end with the call
and a batch's smoothed volumes are valid only until the call smooths its
next batch; the weights are the same bits on one CPU or many.  A training
volume is smoothed and differentiated with respect to its width in one pass
chain.  Forward contracts that derivative with the classifier
weight to one number, the logit's width derivative, and backward multiplies
the stored number by the logit's gradient; the head's gradient is one sum
over the batch's gradient rows.  A fixed width smooths the classifier
weight instead of every volume: the smoothing is a symmetric linear map, so
a training step takes 2 smoothings (the weight forward, the summed gradient
backward) and an evaluation 1, since the weight does not change during it;
its filter is built once per `train` or `evaluate` call.  The one training
step, `batch_loss_and_grads`, is what `train` runs and the gradient tests
check; only it adds the L2 penalty, and its backward pass is the exact
chain rule down to the width-predicting weights.  `train` makes plain SGD
updates with validation-based early stopping; an optional logarithmic grid
search runs over (lr, lambda).  An epoch or evaluation whose arithmetic
overflows float64 ends the training or evaluation with a `NumericalError`.
"""

from __future__ import annotations

import copy
import math
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import classifier, params_net
from .conv3d import Workspace, convolve_separable, smooth_batch
from .errors import DataError, NumericalError
from .gaussian_filter import (
    DEFAULT_TRUNCATION,
    build_filter,
    build_profiles,
    sigma_to_fwhm_mm,
    width_range,
)
from .volume_io import SPLITS, read_manifest, read_volume

DEFAULT_LR_GRID = (1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_LAMBDA_GRID = (0.0, 1e-5, 1e-4, 1e-3, 1e-2)


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    lambda_l2: float = 0.0
    max_epochs: int = 200
    patience: int = 10
    truncation: float = DEFAULT_TRUNCATION
    seed: int = 0
    width_m: int = 50
    fixed_sigma: float | None = None  # bypass the width network when set
    lr_grid: tuple = DEFAULT_LR_GRID
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID

    def validate(self):
        # the comparisons are false for NaN, so NaN fails every range check
        rates = (self.learning_rate, self.lambda_l2, *self.lr_grid, *self.lambda_grid)
        if not all(0 <= x < math.inf for x in rates):
            raise DataError("learning rates and lambdas, grid values included, "
                            "must be finite and >= 0")
        if min(self.max_epochs, self.patience, self.width_m) < 1:
            raise DataError("max_epochs, patience and width_m must be >= 1")
        if not 0 < self.truncation < math.inf:
            raise DataError("truncation must be finite and > 0")
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

    def __post_init__(self):
        # the batch's logits are standardized by its own mean and std
        if self.size < 2:
            raise DataError(
                f"group ({self.subject_id}, {self.noise_level}) has {self.size} volume(s); "
                "batch standardization needs >= 2")

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
    pass accepts.  A group of fewer than 2 volumes is refused (`MiniBatch`)."""
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
    order = np.random.default_rng(seed).permutation(len(selected))
    return [selected[i] for i in order]


def _fixed_profile(cfg: TrainConfig, dims):
    """The 1D profile of the fixed width's filter for volumes of `dims`."""
    return build_filter(cfg.fixed_sigma, cfg.truncation, min(dims)).profile_1d


def _smoothed_weight(cw, profile, dims):
    """A copy of `cw` whose weight is smoothed with the fixed width's
    `profile`.  Zero-padded same-size smoothing K with a symmetric profile
    is a symmetric matrix, so w . (K x) = (K w) . x: the raw volumes are
    classified with K w, in place."""
    smoothed_cw = copy.copy(cw)
    smoothed_cw.w = convolve_separable(cw.w.reshape(dims), profile).ravel()
    return smoothed_cw


def _forward_batch(batch: MiniBatch, pnw, cw, cfg: TrainConfig, training: bool = False,
                   workspace=None):
    """Smooth every volume with its own predicted width, then classify the
    batch with `cw`.  In a training step each volume is also convolved
    with the width derivative of its filter, in the same pass chain;
    ``fwd["dz"]`` keeps only that derivative's dot product with the
    classifier weight; an evaluation leaves it None.  The volumes are
    smoothed into `workspace` (a `conv3d.Workspace`), a fresh one when
    None, so the classifier cache's ``x`` is a view into it, valid until
    the next batch smoothed into it.  A fixed width classifies the loaded
    volumes in place: the caller passes the weight smoothed with it
    (`_smoothed_weight`).  Returns everything backward needs."""
    if cfg.fixed_sigma is not None:
        fwd = {"sigmas": [cfg.fixed_sigma] * batch.size}
        probs, cache = classifier.forward(batch.volumes, cw)
    else:
        if batch.features is None:
            raise DataError("the width network needs noise features; "
                            "the batch was loaded without them")
        dims = batch.volumes.shape[1:]
        sigmas = params_net.map_to_sigmas(batch.features, pnw)
        _, profiles, d_profiles = build_profiles(sigmas, cfg.truncation, min(dims))
        # dlogit_i/dsigma_i = w . dz_i is the one number backward needs
        smoothed, dz = smooth_batch(batch.volumes, profiles, d_profiles if training else None,
                                    cw.w.reshape(dims), workspace)
        fwd = {"sigmas": sigmas.tolist(), "dz": dz}
        probs, cache = classifier.forward(smoothed, cw)
    return {**fwd, "probs": probs, "cache": cache,
            "data_loss": classifier.bce_loss(probs, batch.labels)}


def batch_loss_and_grads(batch: MiniBatch, pnw, cw, cfg: TrainConfig, profile=None,
                         workspace=None):
    """One training step over a batch: the loss with its L2 penalty, the
    gradient of every trainable weight, and the forward pass's record.  A
    fixed width smooths the weight with `profile`, by default its filter's
    (`_fixed_profile`); an adaptive one smooths the volumes into
    `workspace` (`_forward_batch`)."""
    dims = batch.volumes.shape[1:]
    fixed = cfg.fixed_sigma is not None
    if fixed and profile is None:
        profile = _fixed_profile(cfg, dims)
    fwd = _forward_batch(batch, pnw, _smoothed_weight(cw, profile, dims) if fixed else cw,
                         cfg, training=True, workspace=workspace)
    penalty, pen_grad = classifier.l2_penalty(cw, cfg.lambda_l2)
    dl_dw, dl_dbias, dl_dlogit = classifier.backward(fwd["cache"], batch.labels)
    if fixed:
        # the logits are (K w) . x_i, so dL/dw = K (sum_i dl_i x_i)
        dl_dw = convolve_separable(dl_dw.reshape(dims), profile).ravel()
    grads = {"w": dl_dw + pen_grad, "bias": dl_dbias}
    if not fixed:
        head = params_net.map_to_sigmas_backward(batch.features, pnw,
                                                 dl_dlogit * np.array(fwd["dz"]))
        grads.update(zip("abvc", head))
    return fwd["data_loss"] + penalty, grads, fwd


def _evaluate_split(batches, pnw, cw, cfg, split, profile=None, workspace=None):
    """Loss/accuracy per noise level, using batch statistics at evaluation
    time as well (deliberate deviation from running-average batch norm).
    A fixed width smooths the classifier weight once for the whole split,
    with `profile` when given (`train`'s); w does not change during an
    evaluation, so every batch is classified with the same K w.  An
    adaptive width smooths every batch into one workspace, `workspace`
    when given (`train`'s), else one made for this call, sized for the
    split's largest batch and closed, with its threads, when it returns;
    no smoothed batch outlives the next one, and none is returned.  The first
    operation that overflows float64 ends it with a `NumericalError` naming
    the split."""
    batches = [b for b in batches if b.split == split]
    if not batches:
        raise DataError(f"split {split!r} is empty")
    # one record per noise level, and the split's total under the key None
    records = {}
    try:
        with np.errstate(over="raise"), ExitStack() as owned:
            if cfg.fixed_sigma is not None:
                dims = batches[0].volumes.shape[1:]
                if profile is None:
                    profile = _fixed_profile(cfg, dims)
                cw = _smoothed_weight(cw, profile, dims)
            elif workspace is None:
                workspace = owned.enter_context(Workspace(
                    max(b.size for b in batches), batches[0].volumes.shape[1:]))
            for b in batches:
                fwd = _forward_batch(b, pnw, cw, cfg, workspace=workspace)
                acc = classifier.accuracy(fwd["probs"], b.labels)
                for key in (b.noise_level, None):
                    rec = records.setdefault(key, {"n": 0, "correct": 0.0,
                                                   "loss": 0.0, "sigma_sum": 0.0})
                    rec["n"] += b.size
                    rec["correct"] += acc * b.size
                    rec["loss"] += fwd["data_loss"] * b.size
                    rec["sigma_sum"] += sum(fwd["sigmas"])
    except FloatingPointError as exc:
        raise NumericalError(f"{exc} evaluating the {split} split") from None
    total = records.pop(None)
    table = {}
    for noise, rec in records.items():
        row = {"accuracy": rec["correct"] / rec["n"],
               "loss": rec["loss"] / rec["n"], "n": rec["n"]}
        if cfg.fixed_sigma is None:
            mean_sigma = rec["sigma_sum"] / rec["n"]
            row["mean_sigma"] = mean_sigma
            row["mean_fwhm_mm"] = sigma_to_fwhm_mm(mean_sigma, batches[-1].voxel_size_mm)
        table[noise] = row
    return {"loss": total["loss"] / total["n"], "accuracy": total["correct"] / total["n"],
            "per_noise": table}


def evaluate(pnw, cw, batches, split: str, cfg: TrainConfig | None = None,
             fixed_sigma: float | None = None):
    """Accuracy table for one split; `fixed_sigma` bypasses the width network
    (the fixed-FWHM baseline protocol).  Weights whose arithmetic overflows
    float64 end the call with a `NumericalError`."""
    if cfg is None:
        cfg = TrainConfig()
    if fixed_sigma is not None:
        cfg = replace(cfg, fixed_sigma=fixed_sigma)
    return _evaluate_split(batches, pnw, cw, cfg, split)


def train(cfg: TrainConfig, batches: list[MiniBatch]):
    """SGD with validation-based early stopping.  Deterministic per seed."""
    cfg.validate()
    for split in SPLITS:
        if not any(b.split == split for b in batches):
            raise DataError(f"split {split!r} is empty")
    dims = batches[0].volumes.shape[1:]
    for b in batches:
        if b.volumes.shape[1:] != dims:
            raise DataError(f"dim mismatch: {b.volumes.shape[1:]} vs {dims}")

    pnw = params_net.init_weights(cfg.width_m, cfg.seed, *width_range(dims, cfg.truncation))
    cw = classifier.xavier_init(dims, cfg.seed + 1)
    # a fixed width's filter serves every step and evaluation of the run
    profile = None if cfg.fixed_sigma is None else _fixed_profile(cfg, dims)
    report = TrainReport(config=cfg)
    # and an adaptive width's smoothing workspace, with its threads, every
    # batch of it
    with (nullcontext() if profile is not None
          else Workspace(max(b.size for b in batches), dims)) as workspace:
        best = {"loss": math.inf, "epoch": -1, "pnw": None, "cw": None}

        for epoch in range(1, cfg.max_epochs + 1):
            epoch_loss, n_seen = 0.0, 0
            # a diverging run overflows float64 before its loss turns
            # non-finite: the first overflowing operation ends it, naming
            # the step under way
            try:
                with np.errstate(over="raise"):
                    for batch in make_batches(batches, cfg.seed + epoch):
                        loss, grads, fwd = batch_loss_and_grads(batch, pnw, cw, cfg,
                                                                profile, workspace)
                        if not math.isfinite(loss):
                            raise NumericalError(
                                f"non-finite loss at epoch {epoch} "
                                f"(subject {batch.subject_id}, noise {batch.noise_level}); "
                                f"last widths {[round(s, 4) for s in fwd['sigmas']]}")
                        # plain SGD on every parameter: w, bias, a, b, v, c
                        for name, g in grads.items():
                            owner = cw if name in ("w", "bias") else pnw
                            setattr(owner, name,
                                    getattr(owner, name) - cfg.learning_rate * g)
                        epoch_loss += loss * batch.size
                        n_seen += batch.size
            except FloatingPointError as exc:
                raise NumericalError(f"{exc} at epoch {epoch} (subject {batch.subject_id}, "
                                     f"noise {batch.noise_level})") from None
            val = _evaluate_split(batches, pnw, cw, cfg, "validation", profile, workspace)
            train_loss = epoch_loss / n_seen
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

        test = _evaluate_split(batches, pnw, cw, cfg, "test", profile, workspace)
        report.test_accuracy = test["accuracy"]
        report.per_noise = test["per_noise"]
    return pnw, cw, report


def grid_search(cfg: TrainConfig, batches: list[MiniBatch]):
    """Train one model per (lr, lambda) grid point and pick the best by
    validation accuracy; ties break to lower validation loss then lower lr.
    Returns the best (lr, lambda), None when every cell failed, and one
    result row per cell.  A numerical failure is recorded in its cell; a
    data error ends the search."""
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
            except NumericalError as exc:
                row.update({"val_accuracy": float("nan"), "val_loss": float("nan"),
                            "test_accuracy": float("nan"), "error": str(exc)})
            results.append(row)
    ok = [r for r in results if not r["error"]]
    if not ok:
        return None, results
    best = min(ok, key=lambda r: (-r["val_accuracy"], r["val_loss"], r["learning_rate"]))
    return (best["learning_rate"], best["lambda_l2"]), results
