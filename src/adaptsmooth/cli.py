"""Command-line surface binding the library into reproducible experiments.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Errors go to stderr with a machine-parsable `ERROR <code>:` prefix.  Every
command logs its resolved configuration and seed to stderr, and all
randomness funnels through explicit --seed flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import classifier, params_net, phantom, trainer
from .conv3d import convolve_separable
from .errors import DataError, NumericalError, UsageError
from .gaussian_filter import (
    DEFAULT_TRUNCATION,
    build_filter,
    dump_filter,
    fwhm_mm_to_sigma,
    sigma_to_fwhm_mm,
)
from .volume_io import (
    SPLITS,
    Volume,
    add_gaussian_noise,
    read_config,
    read_volume,
    write_config,
    write_volume,
)


# the largest filter cube `inspect-filter` dumps: any filter that fits a
# 2 mm MNI volume (91 x 109 x 91 voxels), about 1M weight lines
MAX_INSPECT_SIDE = 101


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return seed


def _log(msg):
    print(msg, file=sys.stderr)


def _cmd_gen_phantom(args):
    spec = read_config(args.spec, phantom.PhantomSpec) if args.spec else phantom.PhantomSpec()
    _log(f"gen-phantom: spec={spec} seed={args.seed} out={args.out}")
    manifest = phantom.generate(spec, args.out, args.seed)
    snr = spec.amplitude / min(n for n in spec.noise_levels if n > 0) \
        if any(n > 0 for n in spec.noise_levels) else float("inf")
    print(f"wrote {len(manifest.entries)} volumes to {args.out} "
          f"(blob amplitude/lowest noise = {snr:.3g})")
    return 0


def _cmd_add_noise(args):
    _log(f"add-noise: in={args.infile} sigma={args.sigma} seed={args.seed}")
    v = read_volume(args.infile)
    write_volume(add_gaussian_noise(v, args.sigma, args.seed), args.out)
    return 0


def _cmd_estimate_noise(args):
    v = read_volume(args.infile)
    feat = params_net.noise_feature(v.data)
    print(f"raw feature: {feat:.6g}")
    print(f"calibrated noise sigma: {feat / params_net.NOISE_CALIBRATION:.6g}")
    return 0


def _cmd_smooth(args):
    v = read_volume(args.infile)
    voxel = args.voxel_mm if args.voxel_mm is not None else v.voxel_size_mm
    sigma = args.sigma_f if args.sigma_f is not None \
        else fwhm_mm_to_sigma(args.fwhm_mm, voxel)
    _log(f"smooth: sigma_f={sigma:.6g} t={args.t}")
    filt = build_filter(sigma, args.t, max_side=min(v.dims))
    z = convolve_separable(v.data, filt.profile_1d)
    write_volume(Volume(z, v.voxel_size_mm), args.out)
    return 0


def _load_train_inputs(args):
    cfg = read_config(args.config, trainer.TrainConfig) if args.config \
        else trainer.TrainConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    # a fixed width never reads the noise features
    batches = trainer.load_dataset(Path(args.data) / "manifest.csv",
                                   features=cfg.fixed_sigma is None)
    return cfg, batches


def _write_train_outputs(outdir, pnw, cw, report, dims):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    params_net.save_weights(pnw, out / "params_net.txt")
    classifier.save_weights(cw, dims, out / "classifier.txt")
    write_config(report.config, out / "config.txt")
    (out / "report.csv").write_text(report.epochs_csv())
    (out / "summary.txt").write_text(report.summary_text())


def _cmd_train(args):
    cfg, batches = _load_train_inputs(args)
    _log(f"train: config={cfg}")
    pnw, cw, report = trainer.train(cfg, batches)
    _write_train_outputs(args.out, pnw, cw, report, batches[0].volumes.shape[1:])
    print(report.summary_text())
    return 0


def _cmd_grid_search(args):
    cfg, batches = _load_train_inputs(args)
    _log(f"grid-search: config={cfg}")
    (best_lr, best_lam), results = trainer.grid_search(cfg, batches)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["learning_rate,lambda_l2,val_accuracy,val_loss,test_accuracy,error"]
    for r in results:
        lines.append(f"{r['learning_rate']:g},{r['lambda_l2']:g},"
                     f"{r['val_accuracy']:.6g},{r['val_loss']:.6g},"
                     f"{r['test_accuracy']:.6g},{r['error']}")
    (out / "grid_results.csv").write_text("\n".join(lines) + "\n")
    print(f"best: learning_rate={best_lr:g} lambda_l2={best_lam:g}")
    return 0


def _cmd_evaluate(args):
    wdir = Path(args.weights)
    pnw = params_net.load_weights(wdir / "params_net.txt")
    cw, dims = classifier.load_weights(wdir / "classifier.txt")
    # the training config, when saved beside the weights; defaults otherwise
    cfg_path = wdir / "config.txt"
    cfg = read_config(cfg_path, trainer.TrainConfig) if cfg_path.exists() \
        else trainer.TrainConfig()
    cfg.validate()
    batches = trainer.load_dataset(
        Path(args.data) / "manifest.csv", args.split,
        features=cfg.fixed_sigma is None and args.fixed_fwhm_mm is None)
    if dims != batches[0].volumes.shape[1:]:
        raise DataError(f"model dims {dims} differ from the data's "
                        f"{batches[0].volumes.shape[1:]}")
    fixed_sigma = None
    fixed = None if cfg.fixed_sigma is None else f"sigma_f {cfg.fixed_sigma:.4g}"
    if args.fixed_fwhm_mm is not None:
        voxel = batches[0].voxel_size_mm
        fixed_sigma = fwhm_mm_to_sigma(args.fixed_fwhm_mm, voxel)
        fixed = f"FWHM {args.fixed_fwhm_mm:g} mm"
    _log(f"evaluate: split={args.split} fixed_fwhm_mm={args.fixed_fwhm_mm} config={cfg}")
    res = trainer.evaluate(pnw, cw, batches, args.split, cfg, fixed_sigma)
    print("\n".join(trainer.noise_table(res["per_noise"], fixed)))
    print(f"overall accuracy: {res['accuracy']:.3f}")
    return 0


def _cmd_inspect_filter(args):
    filt = build_filter(args.sigma_f, args.t, max_side=MAX_INSPECT_SIDE)
    fwhm = sigma_to_fwhm_mm(args.sigma_f, args.voxel_mm)
    sys.stdout.write(dump_filter(filt))
    print(f"FWHM: {fwhm:.4g} mm at {args.voxel_mm:g} mm voxels")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="adaptsmooth",
                     description="Adaptive Gaussian smoothing experiments on 3D volumes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-phantom", help="generate a synthetic dataset")
    p.add_argument("--spec", help="phantom spec file (key = value lines)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_gen_phantom)

    p = sub.add_parser("add-noise", help="add iid Gaussian noise to a volume")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_add_noise)

    p = sub.add_parser("estimate-noise", help="print the Laplacian noise estimate")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_estimate_noise)

    p = sub.add_parser("smooth", help="smooth a volume with a Gaussian filter")
    p.add_argument("--in", dest="infile", required=True)
    width = p.add_mutually_exclusive_group(required=True)
    width.add_argument("--sigma-f", type=float)
    width.add_argument("--fwhm-mm", type=float)
    p.add_argument("--voxel-mm", type=float)
    p.add_argument("--t", type=float, default=DEFAULT_TRUNCATION)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_smooth)

    for name, func, text in (
            ("train", _cmd_train, "train the adaptive smoothing model"),
            ("grid-search", _cmd_grid_search, "logarithmic (lr, lambda) grid search")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config")
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=_seed)
        p.set_defaults(func=func)

    p = sub.add_parser("evaluate", help="evaluate saved weights on a split")
    p.add_argument("--weights", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--fixed-fwhm-mm", type=float)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("inspect-filter", help="dump a filter and its FWHM")
    p.add_argument("--sigma-f", type=float, required=True)
    p.add_argument("--t", type=float, default=DEFAULT_TRUNCATION)
    p.add_argument("--voxel-mm", type=float, default=3.0)
    p.set_defaults(func=_cmd_inspect_filter)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"ERROR 1: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"ERROR 2: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"ERROR 3: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
