"""End-to-end mini-batch SGD over the composed smoothing/classification graph.

Each mini-batch holds all volumes of one (subject, noise level) group.
Training and evaluation smooth with the heat kernel, the discrete Gaussian
K_sigma = exp(sigma^2 L / 2) per axis (`gaussian_filter`), in its eigenbasis:
a dataset loaded with noise features holds each volume as its sine
coefficients x^ = (S kron S kron S) x, transformed once at load, where
smoothing is one gain per coefficient.  A `train` call holds the classifier
weight in its batches' basis for the whole call: w^ = S_3 w on coefficients
(S_3 = S kron S kron S is orthogonal, so the logits are those of the
smoothed voxels), w itself on voxels.  The map from a batch to its logits
is the trainer's (`_Smoothing`), and the classifier takes it from the
logits on.  An adaptive batch is one array program: cached noise features
-> one head call for all widths, each inside the head's range -> one
batched product per direction over the batch's coefficients times their
(w, d) gains, written into one buffer per call; the smoothed coefficients
are never formed.  A fixed width smooths the classifier weight instead of
every volume: a gain on w^ on coefficients, K_sigma along each axis of w on
voxels (a dataset loaded without features).  The one training step,
`batch_loss_and_grads`, is what `train` runs and the gradient tests check;
only it adds the L2 penalty, lambda |w^|^2, and its backward pass is the
exact chain rule down to the width-predicting weights.  `train` makes plain
SGD updates with validation-based early stopping; an optional logarithmic
grid search runs over (lr, lambda).  An epoch or evaluation whose
arithmetic overflows float64 ends the training or evaluation with a
`NumericalError`.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import classifier, params_net
from .conv3d import separable_product
from .errors import DataError, NumericalError
from .gaussian_filter import (
    DEFAULT_TRUNCATION,
    check_width,
    heat_gains,
    heat_kernel,
    sigma_to_fwhm_mm,
    sine_basis,
    width_range,
)
from .volume_io import SPLITS, read_manifest, read_volume

DEFAULT_LR_GRID = (1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_LAMBDA_GRID = (0.0, 1e-5, 1e-4, 1e-3, 1e-2)


@dataclass
class TrainConfig:
    """A training's settings.  The batch standardization makes the loss
    blind to the scale of the classifier weight w, so `lambda_l2` only sets
    |w|, and with it the size of each step relative to w: it acts as a step
    size, not as a limit on capacity."""
    learning_rate: float = 0.1
    lambda_l2: float = 0.0
    max_epochs: int = 200
    patience: int = 10
    # sets the head's width range (`width_range`) and which fixed widths fit
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
    # always one C-contiguous float64 (N, H, W, D) array: the volumes' sine
    # coefficients when `features` is given (`load_dataset`), else the voxels
    volumes: np.ndarray
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
    `features`, each volume's noise feature is computed here, from the
    voxels, and each volume is then replaced in place by its sine
    coefficients, one separable product per volume, so a volume's
    coefficients do not depend on which other volumes were loaded; without,
    no feature is computed, ``MiniBatch.features`` is None and the volumes
    stay voxels, which only a fixed-width forward pass accepts.  A group of
    fewer than 2 volumes is refused (`MiniBatch`)."""
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
    dims = voxel = basis = None
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
        feats = None
        if features:
            feats = np.array([params_net.noise_feature(x) for x in vols])
            if basis is None:
                basis = [sine_basis(n)[0] for n in dims]
            for x in vols:
                # in place: no batch holds voxels beside coefficients
                separable_product(x, basis, out=x)
        batches.append(MiniBatch(sid, noise, manifest.split[sid], vols,
                                 np.array([e.label for e in group], dtype=np.float64),
                                 feats, voxel))
    return batches


def make_batches(batches: list[MiniBatch], seed: int) -> list[MiniBatch]:
    """The training groups in a seed-shuffled order; membership is fixed."""
    selected = [b for b in batches if b.split == "train"]
    order = np.random.default_rng(seed).permutation(len(selected))
    return [selected[i] for i in order]


class _Smoothing:
    """How one `train` or `evaluate` call smooths and classifies its
    batches, built once for the call.  The call holds the classifier weight
    in its batches' basis (`held`): w^ = S_3 w on sine coefficients (batches
    with features), w itself on voxels (batches without).  `operand` gives
    what a batch is multiplied by for that weight, `logits` the batch's
    logits, and `gradient` the gradient with respect to the held weight of
    the gradient with respect to the logits, for the batch of the last
    `logits` call:

    - an adaptive width, on coefficients only: each batch's coefficients
      times the gains e_w kron e_d of each volume's width, written as
      Y = (N, H, W D) rows into `out`, one per volume of the call's
      largest batch; the rows r and r' of one batched product of Y's h
      slices with [w^_h | lam_wd w^_h] give logit_i = sum_h e_h[i, h] r_i[h]
      and, since dK_sigma/dsigma = sigma L K_sigma,
      dlogit_i/dsigma_i = sigma_i sum_h e_h[i, h] (lam_h r_i[h] + r'_i[h]),
      lam the Laplacian's eigenvalues (`sine_basis`, lam_wd = lam_w + lam_d);
      backward is one batched product, dL/dw^_h = sum_i c_i e_h[i, h] Y_i[h];
    - a fixed width on coefficients: the gains E = e_h kron e_w kron e_d on
      the weight, E . w^ forward and E . g backward;
    - a fixed width on voxels: K_sigma along each axis of the weight, K w
      forward and K g backward, K symmetric.

    A fixed width whose truncated filter does not fit the volumes is
    refused, as the `smooth` command refuses it; so is a call whose batches
    mix coefficients and voxels, and a weight whose size is not the
    volumes'."""

    def __init__(self, cfg: TrainConfig, batches):
        self.dims = dims = batches[0].volumes.shape[1:]
        sine = batches[0].features is not None
        if any((b.features is not None) != sine for b in batches):
            raise DataError("batches with and without noise features, which hold "
                            "sine coefficients and voxels, cannot be mixed")
        self.fixed = fixed = cfg.fixed_sigma
        if fixed is not None:
            check_width(fixed, cfg.truncation, min(dims))
        elif not sine:
            raise DataError("the width network needs noise features; "
                            "the batch was loaded without them")
        self.basis = None
        if not sine:
            kernels = {n: heat_kernel(fixed, n) for n in set(dims)}
            self.kernels = [kernels[n] for n in dims]
            return
        bases = {n: sine_basis(n) for n in set(dims)}
        self.basis = [bases[n][0] for n in dims]
        # the eigenvalues of each distinct axis length
        self.lams = {n: lam for n, (_, lam) in bases.items()}
        if fixed is not None:
            e_h, e_w, e_d = self._gains(fixed)
            self.gains = (e_h[:, None, None] * e_w[:, None] * e_d).ravel()
        else:
            self.lam_wd = (self.lams[dims[1]][:, None] + self.lams[dims[2]]).ravel()
            self.out = np.empty((max(b.size for b in batches), dims[0], dims[1] * dims[2]))
            self.pair = None  # a training step's operand, made by the first

    def _gains(self, sigmas):
        """The gains of `sigmas` along each axis, evaluated once per distinct
        axis length."""
        gains = {n: heat_gains(sigmas, lam) for n, lam in self.lams.items()}
        return [gains[n] for n in self.dims]

    def _check(self, w):
        size = math.prod(self.dims)
        if w.size != size:
            raise DataError(f"volume size {size} != weight size {w.size}")

    def held(self, cw):
        """A copy of the classifier `cw`, whose weight is in voxels, with
        its weight in the batches' basis."""
        self._check(cw.w)
        held = copy.copy(cw)
        held.w = self.converted(cw.w)
        return held

    def converted(self, v):
        """A weight or gradient `v` carried between voxels and the batches'
        basis, either way: S_3 v on coefficients, S_3 being symmetric and
        its own inverse, and `v` itself on voxels."""
        if self.basis is None:
            return v
        return separable_product(v.reshape(self.dims), self.basis).ravel()

    def returned(self, cw0, start, cw):
        """The voxel classifier of the held `cw`, trained from `start`, the
        held form of `cw0`: on coefficients w0 + S_3 (w^ - w^0), so a
        weight that did not move comes back bit for bit."""
        if self.basis is None:
            return cw
        out = copy.copy(cw)
        out.w = cw0.w + self.converted(cw.w - start.w)
        return out

    def operand(self, w, training: bool = False):
        """What a batch is multiplied by for the held weight `w`: K w on
        voxels, E . w^ at a fixed width on coefficients, and at an adaptive
        width the (H, W D, 1) rows w^_h, or for a training step the
        (H, W D, 2) rows [w^_h | lam_wd w^_h], which also give the width
        derivatives, written into one buffer that the first training step
        makes and every later one overwrites."""
        self._check(w)
        if self.basis is None:
            return separable_product(w.reshape(self.dims), self.kernels).ravel()
        if self.fixed is not None:
            return self.gains * w
        rows = w.reshape(self.dims[0], -1)
        if not training:
            return rows[:, :, None]
        if self.pair is None:
            self.pair = np.empty((*rows.shape, 2))
        self.pair[:, :, 0] = rows
        np.multiply(self.lam_wd, rows, out=self.pair[:, :, 1])
        return self.pair

    def logits(self, volumes, sigmas, op):
        """The logits of the batch `volumes` for the operand `op`, and each
        logit's width derivative when `op` is a training step's at an
        adaptive width, else None; `sigmas` holds the adaptive widths, one
        per volume, and is None at a fixed width.  An adaptive batch's rows
        Y are valid until the next call."""
        n = len(volumes)
        if sigmas is None:
            # the gains are on the weight: no h gain for `gradient`
            self.rows = volumes.reshape(n, self.dims[0], -1)
            self.e_h = np.ones((n, self.dims[0]))
            return volumes.reshape(n, -1) @ op, None
        e_h, e_w, e_d = self._gains(sigmas)
        self.e_h = e_h
        y = self.rows = self.out[:n]
        np.multiply(volumes.reshape(n, self.dims[0], -1),
                    (e_w[:, :, None] * e_d[:, None, :]).reshape(n, 1, -1), out=y)
        # one (N, W D) x (W D, k) product per h slice of Y, in place
        r = np.matmul(y.transpose(1, 0, 2), op)
        logits = np.sum(e_h * r[:, :, 0].T, axis=1)
        if op.shape[2] == 1:
            return logits, None
        lam_h = self.lams[self.dims[0]]
        return logits, sigmas * np.sum(e_h * (lam_h[:, None] * r[:, :, 0]
                                              + r[:, :, 1]).T, axis=1)

    def gradient(self, c):
        """dL/d(held weight) of the logits' gradient `c` of the batch of the
        last `logits` call: one (1, N) x (N, W D) product per h slice of its
        rows, whose bits do not depend on the BLAS thread count, where those
        of one (N,) x (N, H W D) product differ between 1 and 2 OpenBLAS
        threads at 61 x 73 x 61."""
        a = np.ascontiguousarray((c[:, None] * self.e_h).T)[:, None, :]
        g = np.matmul(a, self.rows.transpose(1, 0, 2)).ravel()
        if self.fixed is None:
            return g
        if self.basis is None:
            return separable_product(g.reshape(self.dims), self.kernels).ravel()
        return self.gains * g


def _forward_batch(batch: MiniBatch, pnw, op, cfg: TrainConfig,
                   smoothing: _Smoothing, training: bool = False):
    """Classify the batch with the operand `op` of the held weight
    (`_Smoothing.operand`, a training step's when `training`).
    A fixed width reads the loaded volumes in place: the weight carries the
    smoothing.  An adaptive width predicts each volume's width, refusing
    first a head whose range does not fit the volumes, and smooths into the
    call's buffer.  In a training step ``fwd["dlogit_dsigma"]`` holds each
    logit's width derivative; an evaluation leaves it None.  Returns
    everything backward needs, the head's forward state in ``fwd["head"]``
    at an adaptive width."""
    if cfg.fixed_sigma is not None:
        sigmas = None
        fwd = {"sigmas": [cfg.fixed_sigma] * batch.size}
    else:
        sigmas, head = params_net.head_forward(batch.features, pnw)
        check_width(float(sigmas.max()), cfg.truncation, min(smoothing.dims))
        fwd = {"sigmas": sigmas.tolist(), "head": head}
    logits, fwd["dlogit_dsigma"] = smoothing.logits(batch.volumes, sigmas, op)
    probs, cache = classifier.forward(logits)
    return {**fwd, "probs": probs, "cache": cache,
            "data_loss": classifier.bce_loss(probs, batch.labels)}


def batch_loss_and_grads(batch: MiniBatch, pnw, cw, cfg: TrainConfig,
                         smoothing: _Smoothing | None = None):
    """One training step over a batch: the loss with its L2 penalty, the
    gradient of every trainable weight, and the forward pass's record.  It
    smooths as `smoothing` says, the calling `train`'s, with `cw` and its
    gradient in that call's basis (`_Smoothing.held`); when `smoothing` is
    None it makes one for this batch, and `cw` and its gradient are in
    voxels.  The penalty is lambda |w|^2 of the held weight, the same as of
    w, S_3 being orthogonal."""
    in_voxels = smoothing is None
    if in_voxels:
        smoothing = _Smoothing(cfg, [batch])
        cw = smoothing.held(cw)
    fwd = _forward_batch(batch, pnw, smoothing.operand(cw.w, training=True),
                         cfg, smoothing, training=True)
    penalty, pen_grad = classifier.l2_penalty(cw, cfg.lambda_l2)
    dl_dlogit = classifier.backward(fwd["cache"], batch.labels)
    dl_dw = smoothing.gradient(dl_dlogit)
    dl_dw += pen_grad
    grads = {"w": smoothing.converted(dl_dw) if in_voxels else dl_dw}
    if cfg.fixed_sigma is None:
        head = params_net.map_to_sigmas_backward(batch.features, pnw,
                                                 dl_dlogit * fwd["dlogit_dsigma"],
                                                 fwd["head"])
        grads.update(zip("abvc", head))
    return fwd["data_loss"] + penalty, grads, fwd


def _evaluate_split(batches, pnw, cw, cfg, split, smoothing=None):
    """Loss/accuracy per noise level, using batch statistics at evaluation
    time as well (deliberate deviation from running-average batch norm).
    It smooths as `smoothing` says, `train`'s when given, with `cw` in that
    call's basis; else as one made for this call, with `cw` in voxels.  w
    does not change during an evaluation, so every batch meets the same
    operand, computed once, and an adaptive width smooths every batch into
    the one buffer, so no smoothed batch outlives the next one, and none is
    returned.  The first operation that overflows float64 ends it with a
    `NumericalError` naming the split."""
    batches = [b for b in batches if b.split == split]
    if not batches:
        raise DataError(f"split {split!r} is empty")
    # one record per noise level, and the split's total under the key None
    records = {}
    try:
        with np.errstate(over="raise"):
            if smoothing is None:
                smoothing = _Smoothing(cfg, batches)
                cw = smoothing.held(cw)
            op = smoothing.operand(cw.w)
            for b in batches:
                fwd = _forward_batch(b, pnw, op, cfg, smoothing)
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
    """SGD with validation-based early stopping.  Deterministic per seed.
    The classifier weight is held in the batches' basis for the whole call
    (`_Smoothing.held`) and returned in voxels: on coefficients as
    w0 + S_3 (w^ - w^0), w0 the initial weight, on voxels as trained.  The
    test evaluation classifies with the returned weight held again, as
    `evaluate` holds it, so the report is what `evaluate` gives for it."""
    cfg.validate()
    for split in SPLITS:
        if not any(b.split == split for b in batches):
            raise DataError(f"split {split!r} is empty")
    dims = batches[0].volumes.shape[1:]
    for b in batches:
        if b.volumes.shape[1:] != dims:
            raise DataError(f"dim mismatch: {b.volumes.shape[1:]} vs {dims}")

    pnw = params_net.init_weights(cfg.width_m, cfg.seed, *width_range(dims, cfg.truncation))
    cw0 = classifier.xavier_init(dims, cfg.seed + 1)
    # one smoothing, with its kernel or buffer, serves every step and
    # evaluation of the run, which holds the classifier in its basis
    smoothing = _Smoothing(cfg, batches)
    start = smoothing.held(cw0)
    # updated in place: shares no array with `start` or `cw0`
    cw = copy.deepcopy(start)
    report = TrainReport(config=cfg)
    best = {"loss": math.inf, "epoch": -1, "pnw": None, "cw": None}

    for epoch in range(1, cfg.max_epochs + 1):
        epoch_loss, n_seen = 0.0, 0
        # a diverging run overflows float64 before its loss turns
        # non-finite: the first overflowing operation ends it, naming
        # the step under way
        try:
            with np.errstate(over="raise"):
                for batch in make_batches(batches, cfg.seed + epoch):
                    loss, grads, fwd = batch_loss_and_grads(batch, pnw, cw, cfg, smoothing)
                    if not math.isfinite(loss):
                        raise NumericalError(
                            f"non-finite loss at epoch {epoch} "
                            f"(subject {batch.subject_id}, noise {batch.noise_level}); "
                            f"last widths {[round(s, 4) for s in fwd['sigmas']]}")
                    # plain SGD on every parameter: w, a, b, v, c, each
                    # array in place, scaled by the step's own gradient array
                    for name, g in grads.items():
                        owner = cw if name == "w" else pnw
                        if isinstance(g, float):
                            setattr(owner, name,
                                    getattr(owner, name) - cfg.learning_rate * g)
                        else:
                            param = getattr(owner, name)
                            param -= np.multiply(g, cfg.learning_rate, out=g)
                    epoch_loss += loss * batch.size
                    n_seen += batch.size
        except FloatingPointError as exc:
            raise NumericalError(f"{exc} at epoch {epoch} (subject {batch.subject_id}, "
                                 f"noise {batch.noise_level})") from None
        val = _evaluate_split(batches, pnw, cw, cfg, "validation", smoothing)
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
    cw = smoothing.returned(cw0, start, cw)
    report.best_epoch = best["epoch"]
    report.stopped_epoch = report.epochs[-1]["epoch"]

    test = _evaluate_split(batches, pnw, smoothing.held(cw), cfg, "test", smoothing)
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
