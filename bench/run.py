"""Benchmark of adaptsmooth: one workload per invocation.

    python3 bench/run.py --workload adaptive_train --seed 7 --seconds 42 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file.  With ``--trace 0`` the end-to-end metrics are
measured; with ``--trace 1`` the layers are wrapped and the per-layer
metrics are reported instead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record with the machine facts, samples and weight digests is written to
``.bench_out/``; a traced run adds the per-phase breakdown there and writes
its spans next to it as gzip-compressed JSON.  The exit code is 0 only if
every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import facts  # noqa: E402  (stdlib only at import time)

END_TO_END = (
    ("setup_s", "s"), ("train_s", "s"), ("train_volumes_per_s", "1/s"),
    ("eval_s", "s"), ("eval_volumes_per_s", "1/s"), ("peak_rss_mb", "MB"),
    ("test_accuracy", "ratio"), ("pass_frac", "ratio"),
)


def use_checkout_sources():
    """Put this checkout's sources first on the import path, or exit."""
    src = ROOT / "src"
    if not (src / "adaptsmooth" / "__init__.py").is_file():
        sys.exit(f"bench: no package sources at {src / 'adaptsmooth'}")
    sys.path.insert(0, str(src))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("adaptive_train", "fixed_baseline", "evaluate_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    facts.pin_threads()  # before anything imports numpy
    use_checkout_sources()

    import resource

    import layers
    import workloads
    from hostspeed import HostClock
    from tracing import Tracer

    clock = HostClock()
    tracer = Tracer(clock.now_ns) if args.trace else None
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = workloads.Bench(workdir, args.seed, tracer, clock)
        volumes = workloads.WORKLOADS[args.workload](bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        units = END_TO_END
        values = workloads.end_to_end(bench, volumes, peak_rss_mb)
    else:
        units = layers.PER_LAYER
        overhead, untraced = workloads.tracing_overhead(bench)
        phases = layers.phase_quantities(tracer.spans())
        values = layers.per_layer_metrics(phases, overhead, untraced)
        by_phase = {phase: layers.per_layer_metrics({phase: q}, 0.0, 0.0)
                    for phase, q in phases.items()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    checks = bench.checks
    result = {"correct": not checks.failed, "attempted": checks.attempted,
              "failed": len(checks.failed), "metrics": metrics}
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts.machine_facts(ROOT),
        "samples_s": {f"{phase}{'_traced' if traced else ''}": v
                      for (phase, traced), v in bench.samples.items()},
        "normalized_s": {f"{phase}{'_traced' if traced else ''}": v
                         for (phase, traced), v in bench.normalized.items()},
        "sha256": bench.digests, "failed_checks": checks.failed,
        **result,
    }
    if tracer is not None:
        record["per_layer_by_phase"] = by_phase
    (out / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_json(out / f"{tag}-spans.json.gz")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for what in checks.failed:
        print(f"CHECK FAILED: {what}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
