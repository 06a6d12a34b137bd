"""Flattened-volume linear classifier with mini-batch standardization.

Logits are standardized by the current batch's mean and (population) standard
deviation before the sigmoid, at training and evaluation alike; the batch
statistics are part of the differentiated graph, so the gradients of all
batch members are coupled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

EPSILON = 1e-5
PROB_CLAMP = 1e-7


@dataclass
class ClassifierWeights:
    w: np.ndarray  # flattened-volume weight vector
    bias: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64).ravel()
        if not (np.isfinite(self.w).all() and math.isfinite(self.bias)):
            raise DataError("non-finite classifier weight")


def xavier_init(dims, seed: int = 0) -> ClassifierWeights:
    """Uniform Xavier init for fan_in = H*W*D inputs and one output."""
    fan_in = int(np.prod(dims))
    limit = math.sqrt(6.0 / (fan_in + 1))
    rng = np.random.default_rng(seed)
    return ClassifierWeights(rng.uniform(-limit, limit, fan_in), 0.0)


def forward(batch, weights: ClassifierWeights):
    """Compute sigmoid probabilities for a batch of volume arrays, one per
    leading index (a float64 array is flattened as a view, not a copy).

    Returns (probabilities, cache); the cache, which holds the batch's
    logit `mean` and `std`, feeds `backward`.
    Batches of size 1 are rejected: the standardization needs a variance.
    """
    x = np.asarray(batch, dtype=np.float64).reshape(len(batch), -1)
    if x.shape[0] < 2:
        raise DataError("batch size must be >= 2 for batch standardization")
    if x.shape[1] != weights.w.size:
        raise DataError(f"volume size {x.shape[1]} != weight size {weights.w.size}")
    logits = x @ weights.w + weights.bias
    mean = float(logits.mean())
    std = float(np.sqrt(np.mean((logits - mean) ** 2)))  # population std
    s = (logits - mean) / (std + EPSILON)
    probs = 1.0 / (1.0 + np.exp(-s))
    cache = {"x": x, "logits": logits, "s": s, "probs": probs, "mean": mean,
             "std": std, "w": weights.w}
    return probs, cache


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    probs = np.clip(np.asarray(probs, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    labels = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs)))


def backward(cache, labels):
    """Exact gradient of bce_loss(forward(...)) through the batch statistics.

    Returns (dL/dw, dL/dbias, dL/dZ rows) where the dL/dZ matrix has one
    flattened-volume gradient per batch member.
    """
    x = cache["x"]
    logits = cache["logits"]
    probs = cache["probs"]
    std = cache["std"]
    labels = np.asarray(labels, dtype=np.float64)
    n = logits.size

    # dL/ds through the clamped BCE; the clamp region has zero gradient
    inside = (probs > PROB_CLAMP) & (probs < 1.0 - PROB_CLAMP)
    dl_ds = np.where(inside, (probs - labels) / n, 0.0)

    denom = std + EPSILON
    centered = logits - cache["mean"]
    # dL/dlogit = (u - mean(u))/denom - centered * <u, centered> / (n*std*denom^2)
    # with u = dL/ds; the std term is defined as zero for a degenerate batch.
    dl_dlogit = (dl_ds - dl_ds.mean()) / denom
    if std > 0.0:
        dl_dlogit -= centered * float(np.dot(dl_ds, centered)) / (n * std * denom * denom)

    dl_dw = dl_dlogit @ x
    dl_dbias = float(dl_dlogit.sum())
    dl_dz = dl_dlogit[:, None] * cache["w"]
    return dl_dw, dl_dbias, dl_dz


def l2_penalty(weights: ClassifierWeights, lam: float):
    """L2 penalty on the weight vector (bias excluded) and its gradient."""
    if lam < 0:
        raise DataError(f"lambda must be >= 0, got {lam}")
    return lam * float(np.dot(weights.w, weights.w)), 2.0 * lam * weights.w


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction correct at threshold 0.5; exact ties count as incorrect."""
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    pred_pos = probs > 0.5
    pred_neg = probs < 0.5
    correct = (pred_pos & (labels == 1)) | (pred_neg & (labels == 0))
    return float(np.mean(correct))


def save_weights(weights: ClassifierWeights, dims, path):
    """Checkpoint: dims line, then w, then bias."""
    with open(path, "w") as f:
        f.write(f"{dims[0]} {dims[1]} {dims[2]}\n")
        f.write(" ".join(f"{x:.17g}" for x in weights.w) + "\n")
        f.write(f"{weights.bias:.17g}\n")


def load_weights(path):
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if len(lines) != 3:
        raise DataError(f"{path}: expected 3 lines, got {len(lines)}")
    try:
        dims = tuple(int(x) for x in lines[0].split())
        w = np.array([float(x) for x in lines[1].split()])
        bias = float(lines[2])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if len(dims) != 3 or w.size != int(np.prod(dims)):
        raise DataError(f"{path}: weight length does not match dims")
    return ClassifierWeights(w, bias), dims
