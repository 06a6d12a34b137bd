"""Machine and build facts recorded with every benchmark result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads():
    """Pin BLAS/OpenMP pools to one thread; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_sha(root: Path) -> str | None:
    """HEAD commit of a git checkout at `root`, read without running git;
    None where `root` is not a git checkout."""
    head = _read(root / ".git" / "HEAD")
    if head is not None and head.startswith("ref: "):
        return _read(root / ".git" / head[5:])
    return head


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def cpu_caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else (kind or '')[:1].lower()}"] = size
    return caches


def blas_build() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def machine_facts(root: Path) -> dict:
    import numpy as np
    import scipy
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cpu_caches": cpu_caches(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
