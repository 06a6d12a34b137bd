"""The benchmark's model of the adaptsmooth layers.

Which package functions are traced, what each span records, and how the
per-layer metrics are derived from the spans of a traced run.  A layer is a
package module; a span is named ``<layer>.<function>``, except that
`convolve_separable` calls are split into ``conv3d.forward`` and
``conv3d.dsigma`` and the trainer's validation pass is ``trainer.validation``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from tracing import patch, self_times, subtree

LAYERS = ("trainer", "conv3d", "gaussian_filter", "params_net", "classifier",
          "volume_io", "phantom", "cli")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("conv3d.dsigma_s", "s"), ("conv3d.dsigma_calls", "count"),
    ("conv3d.forward_s", "s"), ("conv3d.forward_calls", "count"),
    ("conv3d.passes", "count"), ("conv3d.flops_computed", "flop"),
    ("conv3d.bytes_computed", "B"), ("conv3d.gflops", "GFLOP/s"),
    ("gaussian_filter.build_calls", "count"), ("gaussian_filter.build_s", "s"),
    ("gaussian_filter.degenerate_frac", "ratio"),
    ("params_net.feature_calls", "count"), ("params_net.feature_s", "s"),
    ("params_net.head_calls", "count"), ("params_net.head_s", "s"),
    ("classifier.calls", "count"), ("classifier.forward_s", "s"),
    ("classifier.backward_s", "s"),
    ("volume_io.read_calls", "count"), ("volume_io.read_s", "s"),
    ("volume_io.bytes_read", "B"), ("volume_io.write_calls", "count"),
    ("volume_io.write_s", "s"), ("volume_io.useful_frac", "ratio"),
    ("trainer.epochs", "count"), ("trainer.best_epoch", "count"),
    ("trainer.validation_s", "s"), ("phantom.generate_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("bench.self_s", "s"), ("trace.span_s", "s"), ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def conv_call_kind(profiles) -> str:
    """A shared 1D profile is a forward smoothing; a (p_h, p_w, p_d) triple
    is one term of the d(sigma) convolution in backward."""
    if isinstance(profiles, np.ndarray) and profiles.ndim == 1:
        return "forward"
    return "dsigma"


def conv_passes(profiles) -> list[int]:
    """Tap counts of the correlate1d passes `convolve_separable` runs: one per
    axis whose profile is longer than one tap (a 1-tap axis is a scale)."""
    if conv_call_kind(profiles) == "forward":
        return [profiles.size] * 3 if profiles.size > 1 else []
    return [len(p) for p in profiles if len(p) > 1]


def pass_cost(taps: int, n_voxels: int) -> tuple[int, int]:
    """Computed (flops, bytes) of one correlate1d pass: a multiply and an add
    per tap per voxel, and one float64 read and write per voxel."""
    return 2 * taps * n_voxels, 16 * n_voxels


def _conv_args(args, kwargs):
    x = args[0] if args else kwargs["x"]
    return x, (args[1] if len(args) > 1 else kwargs["profiles"])


def _conv_name(args, kwargs):
    return "conv3d." + conv_call_kind(_conv_args(args, kwargs)[1])


def _conv_attrs(args, kwargs, result):
    x, profiles = _conv_args(args, kwargs)
    flops = nbytes = 0
    passes = conv_passes(profiles)
    for taps in passes:
        f, b = pass_cost(taps, x.size)
        flops += f
        nbytes += b
    return {"passes": len(passes), "flops": flops, "bytes": nbytes}


def _split_name(args, kwargs):
    split = args[4] if len(args) > 4 else kwargs["split"]
    return "trainer.validation" if split == "validation" else "trainer.evaluate_split"


def _read_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _train_attrs(args, kwargs, result):
    report = result[2]
    return {"epochs": len(report.epochs), "best_epoch": report.best_epoch}


# span names and attributes that differ from the default ``<layer>.<function>``
_NAMES = {
    "conv3d.convolve_separable": _conv_name,
    "trainer._evaluate_split": _split_name,
}
_ATTRS = {
    "conv3d.convolve_separable": _conv_attrs,
    "gaussian_filter.build_filter": lambda a, k, r: {"degenerate": int(r.radius == 0)},
    "volume_io.read_volume": _read_attrs,
    "classifier.forward": lambda a, k, r: {"rows": int(np.size(r[0]))},
    "trainer.train": _train_attrs,
}


def traced_functions():
    """(qualified name, function) for every public function of every layer,
    plus the trainer's per-epoch validation call."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"adaptsmooth.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out.append((f"{layer}.{attr}", obj))
    trainer = importlib.import_module("adaptsmooth.trainer")
    out.append(("trainer._evaluate_split", trainer._evaluate_split))
    return out


def _namespaces():
    return [m for n, m in list(sys.modules.items())
            if n == "adaptsmooth" or n.startswith("adaptsmooth.")]


@contextmanager
def install(tracer):
    """Trace every layer's functions for the length of the block."""
    replacements = {}
    for qualname, fn in traced_functions():
        replacements[fn] = tracer.wrap(fn, _NAMES.get(qualname, qualname),
                                       _ATTRS.get(qualname))
    with patch(_namespaces(), replacements):
        yield


# Calls at which an untraced timing may pause to sample the host's speed:
# one per batch classified, volume read and volume written, a few ms apart.
TICKED = (("classifier", "forward"), ("volume_io", "read_volume"),
          ("volume_io", "write_volume"))


@contextmanager
def ticking(tick):
    """Call `tick()` before every `TICKED` call for the length of the block."""
    def ticked(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
        return wrapper

    fns = [getattr(importlib.import_module(f"adaptsmooth.{layer}"), name)
           for layer, name in TICKED]
    with patch(_namespaces(), {fn: ticked(fn) for fn in fns}):
        yield


def root_quantities(spans, root: int) -> dict:
    """Counts, inclusive seconds, attribute sums and per-layer self seconds of
    one root span's subtree, keyed ``n:<span>``, ``t:<span>``, ``a:<span>:<attr>``
    and ``self:<layer>``."""
    idx = subtree(spans, root)
    selfs = self_times(spans, idx)
    q = defaultdict(float)
    for i in idx:
        s = spans[i]
        q[f"n:{s.name}"] += 1
        q[f"t:{s.name}"] += (s.end - s.start) / 1e9
        q[f"self:{s.layer}"] += selfs[i] / 1e9
        for key, value in (s.attrs or {}).items():
            q[f"a:{s.name}:{key}"] += value
    return q


def phase_quantities(spans) -> dict:
    """For each kind of root span (one bench phase: set-up, train or eval),
    the `root_quantities` of its median-duration repeat (the lower median
    for an even count), so that every figure of a phase comes from one
    repeat and its self times add up to its span."""
    by_phase = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is None and s.layer == "bench":
            by_phase[s.name].append(i)
    out = {}
    for phase, roots in by_phase.items():
        roots.sort(key=lambda i: spans[i].end - spans[i].start)
        out[phase] = root_quantities(spans, roots[(len(roots) - 1) // 2])
    return out


def per_layer_metrics(phases: dict, overhead_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one repeat of the workload: the `phase_quantities`
    summed over phases; ratios are formed after summing."""
    tot = defaultdict(float)
    for q in phases.values():
        for k, v in q.items():
            tot[k] += v
    ev = defaultdict(float, phases.get("bench.eval", {}))

    def ratio(num, den):
        return num / den if den else 0.0

    conv_s = tot["t:conv3d.forward"] + tot["t:conv3d.dsigma"]
    flops = tot["a:conv3d.forward:flops"] + tot["a:conv3d.dsigma:flops"]
    span_s = sum(q.get(f"t:{phase}", 0.0) for phase, q in phases.items())
    return {
        "conv3d.dsigma_s": tot["t:conv3d.dsigma"],
        "conv3d.dsigma_calls": tot["n:conv3d.dsigma"],
        "conv3d.forward_s": tot["t:conv3d.forward"],
        "conv3d.forward_calls": tot["n:conv3d.forward"],
        "conv3d.passes": tot["a:conv3d.forward:passes"] + tot["a:conv3d.dsigma:passes"],
        "conv3d.flops_computed": flops,
        "conv3d.bytes_computed": tot["a:conv3d.forward:bytes"] + tot["a:conv3d.dsigma:bytes"],
        "conv3d.gflops": ratio(flops, conv_s) / 1e9,
        "gaussian_filter.build_calls": tot["n:gaussian_filter.build_filter"],
        "gaussian_filter.build_s": tot["t:gaussian_filter.build_filter"],
        "gaussian_filter.degenerate_frac": ratio(
            tot["a:gaussian_filter.build_filter:degenerate"],
            tot["n:gaussian_filter.build_filter"]),
        "params_net.feature_calls": tot["n:params_net.noise_feature"],
        "params_net.feature_s": tot["t:params_net.noise_feature"],
        "params_net.head_calls": tot["n:params_net.map_to_sigma"]
        + tot["n:params_net.map_to_sigma_backward"],
        "params_net.head_s": tot["t:params_net.map_to_sigma"]
        + tot["t:params_net.map_to_sigma_backward"],
        "classifier.calls": tot["n:classifier.forward"] + tot["n:classifier.backward"],
        "classifier.forward_s": tot["t:classifier.forward"],
        "classifier.backward_s": tot["t:classifier.backward"],
        "volume_io.read_calls": tot["n:volume_io.read_volume"],
        "volume_io.read_s": tot["t:volume_io.read_volume"],
        "volume_io.bytes_read": tot["a:volume_io.read_volume:bytes"],
        "volume_io.write_calls": tot["n:volume_io.write_volume"],
        "volume_io.write_s": tot["t:volume_io.write_volume"],
        "volume_io.useful_frac": ratio(ev["a:classifier.forward:rows"],
                                       ev["n:volume_io.read_volume"]),
        "trainer.epochs": tot["a:trainer.train:epochs"],
        "trainer.best_epoch": ratio(tot["a:trainer.train:best_epoch"],
                                    tot["n:trainer.train"]),
        "trainer.validation_s": tot["t:trainer.validation"],
        "phantom.generate_s": tot["t:phantom.generate"],
        **{f"{layer}.self_s": tot[f"self:{layer}"] for layer in LAYERS},
        "bench.self_s": tot["self:bench"],
        "trace.span_s": span_s,
        "trace.overhead_s": overhead_s,
        "trace.overhead_frac": ratio(overhead_s, untraced_s),
    }
