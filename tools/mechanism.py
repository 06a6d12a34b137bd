"""Mechanism record of the width network: what it learns, seed by seed.

    PYTHONPATH=src python tools/mechanism.py seeds [--folds] [--out FILE]
    PYTHONPATH=src python tools/mechanism.py grid [--folds] [--out FILE]

`seeds` trains on the criterion-7 phantom (``PhantomSpec(
volumes_per_subject_per_class=12, amplitude=0.05)``, seed 7) with lr 0.1,
lambda 1e-3, at most 120 epochs and patience 10, once per train seed
43-52.  For each seed it records:

- the initial and learned mean sigma per noise level on the test split, and
  whether each is non-decreasing in the noise level; the initial widths come
  from a 1-epoch training at learning rate 0, which returns the initial
  weights;
- the best and stopped epochs, and the test accuracy, overall and per noise
  level;
- criterion 7: (i) the learned widths are non-decreasing in the noise
  level, and (ii) the accuracy at every noise level is within 0.05 of the
  best fixed 3/8/13 mm baseline trained at the same seed, and above the
  worst one at the highest noise level.

`grid` runs `trainer.grid_search` on the same phantom once per train seed,
with the seed and `--max-epochs` (default 200, `TrainConfig`'s) set and
every other setting at its `TrainConfig` default.  For each seed it records
the search's rows as returned, its pick and the seconds it took; the
summary holds the picks' mean test accuracy, how often each learning rate
was picked and the total seconds.

With `--folds`, each seed is trained once per fold: fold k tests on the
k-th of the 8 subjects and validates on the next, as leave-one-subject-out
decoding does.  The script reads only `train`'s report and `grid_search`'s
return value, so it runs against any source tree of the package with
that API: put its `src` first on PYTHONPATH.  The record is one JSON
document on stdout (or `--out`): the run's settings, one record per (seed,
fold) and a summary.  `--seeds` and `--max-epochs` shrink a run for smoke
tests.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from adaptsmooth import phantom, trainer
from adaptsmooth.gaussian_filter import fwhm_mm_to_sigma

SPEC = {"volumes_per_subject_per_class": 12, "amplitude": 0.05}
PHANTOM_SEED = 7
TRAIN_SEEDS = tuple(range(43, 53))
BASE = {"learning_rate": 0.1, "lambda_l2": 1e-3, "max_epochs": 120}
FIXED_FWHM_MM = (3.0, 8.0, 13.0)
MARGIN = 0.05  # criterion 7 (ii): adaptive accuracy vs the best fixed one


def non_decreasing(values) -> bool:
    return all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def folds(batches):
    """(name, batches) per subject: that subject as test, the next one as
    validation and the rest as training."""
    subjects = sorted({b.subject_id for b in batches})
    for k, test in enumerate(subjects):
        val = subjects[(k + 1) % len(subjects)]
        split = {test: "test", val: "validation"}
        yield f"test {test}, validation {val}", [
            dataclasses.replace(b, split=split.get(b.subject_id, "train")) for b in batches]


def seed_record(seed: int, batches, max_epochs: int) -> dict:
    t0 = time.perf_counter()
    base = {**BASE, "max_epochs": max_epochs, "seed": seed}
    cfg0 = trainer.TrainConfig(**{**base, "learning_rate": 0.0, "max_epochs": 1})
    _, _, initial = trainer.train(cfg0, batches)
    _, _, report = trainer.train(trainer.TrainConfig(**base), batches)
    noise = sorted(report.per_noise)
    init_sigma = [initial.per_noise[n]["mean_sigma"] for n in noise]
    sigma = [report.per_noise[n]["mean_sigma"] for n in noise]
    acc = [report.per_noise[n]["accuracy"] for n in noise]
    fixed = {}
    voxel = batches[0].voxel_size_mm
    for fwhm in FIXED_FWHM_MM:
        cfg = trainer.TrainConfig(**base, fixed_sigma=fwhm_mm_to_sigma(fwhm, voxel))
        _, _, fixed_report = trainer.train(cfg, batches)
        fixed[fwhm] = [fixed_report.per_noise[n]["accuracy"] for n in noise]
    best = [max(f[i] for f in fixed.values()) for i in range(len(noise))]
    ii = (all(a >= b - MARGIN for a, b in zip(acc, best))
          and acc[-1] > min(f[-1] for f in fixed.values()))
    return {
        "seed": seed,
        "noise_levels": noise,
        "initial_sigma": init_sigma,
        "initial_monotone": non_decreasing(init_sigma),
        "learned_sigma": sigma,
        "learned_monotone": non_decreasing(sigma),
        "best_epoch": report.best_epoch,
        "stopped_epoch": report.stopped_epoch,
        "test_accuracy": report.test_accuracy,
        "accuracy": acc,
        "fixed_accuracy": {f"{fwhm:g} mm": a for fwhm, a in fixed.items()},
        "criterion_7": {"i": non_decreasing(sigma), "ii": ii},
        "seconds": round(time.perf_counter() - t0, 2),
    }


def summary(records) -> dict:
    def count(pred):
        return sum(1 for r in records if pred(r))
    return {
        "records": len(records),
        "initial_monotone": count(lambda r: r["initial_monotone"]),
        "learned_monotone": count(lambda r: r["learned_monotone"]),
        "criterion_7_i": count(lambda r: r["criterion_7"]["i"]),
        "criterion_7_ii": count(lambda r: r["criterion_7"]["ii"]),
        "criterion_7": count(lambda r: r["criterion_7"]["i"] and r["criterion_7"]["ii"]),
        "mean_test_accuracy": statistics.fmean(r["test_accuracy"] for r in records),
    }


def runs(args):
    """(fold, batches) of the phantom: one run, or one per fold."""
    with tempfile.TemporaryDirectory() as tmp:
        phantom.generate(phantom.PhantomSpec(**SPEC), tmp, PHANTOM_SEED)
        batches = trainer.load_dataset(Path(tmp) / "manifest.csv")
    return list(folds(batches)) if args.folds else [(None, batches)]


def run_seeds(args) -> dict:
    max_epochs = BASE["max_epochs"] if args.max_epochs is None else args.max_epochs
    fold_runs, records = runs(args), []
    for seed in args.seeds:
        for fold, fold_batches in fold_runs:
            rec = {"fold": fold, **seed_record(seed, fold_batches, max_epochs)}
            records.append(rec)
            print(f"seed {seed} fold {fold}: sigma {rec['learned_sigma']}, "
                  f"accuracy {rec['test_accuracy']:.3f}, criterion 7 {rec['criterion_7']}",
                  file=sys.stderr)
    return {"mode": "seeds", "folds": args.folds, "phantom": {**SPEC, "seed": PHANTOM_SEED},
            "training": {**BASE, "max_epochs": max_epochs},
            "records": records, "summary": summary(records)}


def picked_row(pick, rows):
    """The row of the pick: a learning rate, or the (learning rate, lambda)
    pair of a search that also runs a lambda axis; None when no cell was
    picked."""
    if pick is None:
        return None
    key = tuple(pick) if isinstance(pick, (tuple, list)) else (pick,)
    names = ("learning_rate", "lambda_l2")[:len(key)]
    return next(r for r in rows if tuple(r[n] for n in names) == key)


def run_grid(args) -> dict:
    max_epochs = trainer.TrainConfig().max_epochs if args.max_epochs is None \
        else args.max_epochs
    fold_runs, records = runs(args), []
    for seed in args.seeds:
        for fold, fold_batches in fold_runs:
            t0 = time.perf_counter()
            cfg = trainer.TrainConfig(seed=seed, max_epochs=max_epochs)
            pick, rows = trainer.grid_search(cfg, fold_batches)
            row = picked_row(pick, rows)
            records.append({"fold": fold, "seed": seed, "cells": rows, "pick": pick,
                            "test_accuracy": None if row is None else row["test_accuracy"],
                            "seconds": round(time.perf_counter() - t0, 2)})
            print(f"seed {seed} fold {fold}: pick {pick}, test accuracy "
                  f"{records[-1]['test_accuracy']}", file=sys.stderr)
    picked = [r for r in records if r["pick"] is not None]
    lrs = [picked_row(r["pick"], r["cells"])["learning_rate"] for r in picked]
    return {"mode": "grid", "folds": args.folds, "phantom": {**SPEC, "seed": PHANTOM_SEED},
            "training": {"max_epochs": max_epochs}, "records": records,
            "summary": {
                "records": len(records),
                "picked": len(picked),
                "mean_test_accuracy": (statistics.fmean(r["test_accuracy"] for r in picked)
                                       if picked else None),
                "picks_per_lr": {f"{lr:g}": lrs.count(lr) for lr in sorted(set(lrs))},
                "seconds": round(sum(r["seconds"] for r in records), 2)}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=["seeds", "grid"])
    parser.add_argument("--folds", action="store_true",
                        help="train every seed once per test subject")
    parser.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")],
                        default=list(TRAIN_SEEDS), help="comma-separated train seeds")
    parser.add_argument("--max-epochs", type=int,
                        help=f"default {BASE['max_epochs']} (seeds) or 200 (grid)")
    parser.add_argument("--out", help="write the record here instead of stdout")
    args = parser.parse_args(argv)
    record = run_grid(args) if args.mode == "grid" else run_seeds(args)
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
