"""Process set-up shared by the benchmark's scripts.

``configure_process`` must run before numpy is first imported: BLAS reads
its thread count once, when it loads.  ``load_kdm`` imports kdm from the
checkout's ``src`` directory and nowhere else.
"""

from __future__ import annotations

import contextlib
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configure_process() -> None:
    """Pin BLAS to one thread: on a small shared machine a second one measures the scheduler."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


class SourceMissing(RuntimeError):
    """The checkout holds no kdm sources to benchmark."""


def load_kdm():
    """Import every kdm module from ROOT/src; raise SourceMissing if absent."""
    src = ROOT / "src"
    if not (src / "kdm" / "__init__.py").is_file():
        raise SourceMissing(f"no kdm sources under {src}")
    sys.path.insert(0, str(src))
    import kdm
    # every module, so the tracer finds every binding of a traced function
    from kdm import bench, cli, conditional, estimator, hypothesis, kernels, lowrank, metrics, simulate  # noqa: F401

    where = Path(kdm.__file__).resolve().parent
    if where != src / "kdm":
        raise SourceMissing(f"kdm was imported from {where}, not from {src}")
    return kdm


@contextlib.contextmanager
def work_dir(label: str):
    """A fresh scratch directory under ROOT/.perfbench_work, removed on exit."""
    parent = ROOT / ".perfbench_work"
    path = parent / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()  # only when no other run is using it


def parse_seeds(text: str) -> list[int]:
    """Seeds from a list of numbers and inclusive ranges, such as "1-10" or "0,3,7"."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def environment() -> dict:
    """Python, numpy, scipy and BLAS versions, CPU and thread settings."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (KeyError, TypeError, ValueError):
        blas_name = blas_version = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
