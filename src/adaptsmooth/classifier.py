"""Linear classifier with mini-batch standardization.

The classifier is a weight over flattened volumes; the trainer forms each
batch's logits, x . w, in the batches' own basis (`trainer._Smoothing`),
and this module takes it from the logits on.  Logits are standardized by
the current batch's mean and (population) standard deviation before the
sigmoid, at training and evaluation alike; the batch statistics are part of
the differentiated graph, so the gradients of all batch members are
coupled.  The standardization cancels any shift of a batch's logits, so
the classifier has no offset term, and any positive scale of w up to the
epsilon in std + epsilon, so an L2 penalty on w sets only its norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .volume_io import read_rows, write_rows

EPSILON = 1e-5
PROB_CLAMP = 1e-7


@dataclass
class ClassifierWeights:
    w: np.ndarray  # flattened-volume weight vector

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64).ravel()
        if not np.isfinite(self.w).all():
            raise DataError("non-finite classifier weight")

    @property
    def bias(self) -> float:
        """Always 0.0: only the benchmark's weights digest reads it, and it
        goes with Benchmark v2 (ROADMAP item 7)."""
        return 0.0


def xavier_init(dims, seed: int = 0) -> ClassifierWeights:
    """Uniform Xavier init for fan_in = H*W*D inputs and one output."""
    fan_in = int(np.prod(dims))
    limit = math.sqrt(6.0 / (fan_in + 1))
    rng = np.random.default_rng(seed)
    return ClassifierWeights(rng.uniform(-limit, limit, fan_in))


def forward(logits):
    """Sigmoid probabilities of a batch's logits, one per member,
    standardized by the batch's mean and population std.

    Returns (probabilities, cache); the cache, which holds the batch's
    logit `mean` and `std`, feeds `backward`.
    Batches of size 1 are rejected: the standardization needs a variance.
    """
    logits = np.asarray(logits, dtype=np.float64)
    n = logits.size
    if n < 2:
        raise DataError("batch size must be >= 2 for batch standardization")
    # each batch mean is np.mean's sum over n, without its dispatch
    mean = float(np.add.reduce(logits) / n)
    std = float(np.sqrt(np.add.reduce((logits - mean) ** 2) / n))  # population std
    s = (logits - mean) / (std + EPSILON)
    probs = 1.0 / (1.0 + np.exp(-s))
    cache = {"logits": logits, "probs": probs, "mean": mean, "std": std}
    return probs, cache


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    probs = np.clip(np.asarray(probs, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    labels = np.asarray(labels, dtype=np.float64)
    terms = labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs)
    return float(-(np.add.reduce(terms) / terms.size))


def backward(cache, labels):
    """Exact gradient of bce_loss(forward(...)) through the batch statistics.

    Returns dL/dlogit, one gradient per batch member; the gradient with
    respect to the weight is ``dl_dlogit @ x`` of the batch's flattened
    inputs x, and with respect to member i's input ``dl_dlogit[i] * w``.
    """
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
    dl_dlogit = (dl_ds - np.add.reduce(dl_ds) / n) / denom
    if std > 0.0:
        dl_dlogit -= centered * float(np.dot(dl_ds, centered)) / (n * std * denom * denom)

    return dl_dlogit


def l2_penalty(weights: ClassifierWeights, lam: float):
    """L2 penalty on the weight vector and its gradient."""
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
    """Checkpoint: dims line, then w."""
    write_rows(path, dims, weights.w)


def load_weights(path):
    dims, w = read_rows(path, 2)
    if dims.size != 3 or (dims < 1).any() or (dims % 1).any():
        raise DataError(f"{path}: dims must be three positive integers")
    # the product of Python ints, which cannot overflow as float64 does
    shape = tuple(int(d) for d in dims)
    if w.size != math.prod(shape):
        raise DataError(f"{path}: weight length does not match dims")
    return ClassifierWeights(w), shape
