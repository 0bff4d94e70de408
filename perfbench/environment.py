"""The environment block printed with every result: threading, versions, commit."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_library() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def describe(root: Path, workers: int, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_library(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "SCATTERQML_WORKERS": os.environ.get("SCATTERQML_WORKERS"),
        "workers": workers,
        "seed": seed,
        "commit": git_commit(root),
    }
