"""What produced a result: machine, software and thread settings (read-only)."""

from __future__ import annotations

import os
import platform
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "FSLB_THREADS")


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level in ("2", "3") and kind in ("Unified", "Data") and size:
            sizes[f"L{level}"] = size
    return sizes


def git_sha(root: str) -> str | None:
    """HEAD of the checkout, read from .git; None when it is not a repository."""
    git = os.path.join(root, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(git, ref))
    if sha:
        return sha
    for line in (_read(os.path.join(git, "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split(" ", 1)[0]
    return None


def collect(root: str) -> dict:
    import numpy
    import scipy

    return {
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "cpu_model": _cpu_model(),
            "cache": _cache_sizes(),
        },
        "software": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "git_sha": git_sha(root),
        },
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }
