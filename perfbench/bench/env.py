"""Pinned configuration, provenance and process measurements."""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
import os
import platform
import resource
import sys
from pathlib import Path

#: The checkout the benchmark runs in: ``perfbench/bench/env.py`` → root.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Where result files and traces are written (ignored by git).
OUT = ROOT / ".perfbench-out"

KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"


#: glibc ``mallopt`` parameters and the values the benchmark pins: the
#: largest thresholds glibc's own adaptive rule reaches (32 MiB for
#: ``mmap``, twice that for trimming the heap).
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_PINS = {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}


class SetupError(RuntimeError):
    """The checkout or environment cannot run the benchmark."""


def pin_allocator() -> dict | None:
    """Fix glibc's malloc thresholds for this process; ``None`` if not glibc.

    By default glibc moves both thresholds as memory is freed, so the
    order of frees decides whether large NumPy temporaries come from the
    heap or from fresh ``mmap`` pages, and whether freed heap is handed
    back to the kernel only to be faulted in again.  Identical runs then
    differed by up to 1.5 times.  Pinning the thresholds where the
    adaptive rule tops out puts every run in the same state.
    """
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    ok = (mallopt(M_MMAP_THRESHOLD, MALLOC_PINS["mmap_threshold"])
          and mallopt(M_TRIM_THRESHOLD, MALLOC_PINS["trim_threshold"]))
    return dict(MALLOC_PINS) if ok else None


def activate_source() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    if KERNEL_BACKEND_ENV in os.environ:
        raise SetupError(
            f"{KERNEL_BACKEND_ENV} is set; unset it so the benchmark "
            "measures the shipped default kernel backend"
        )
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SetupError(f"repro imported from {repro.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_revision() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
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
    return None


def source_digest() -> str:
    """SHA-256 over the program's Python sources (path and content)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, scale: str, trace: bool,
               malloc: dict | None) -> dict:
    import numpy
    import scipy

    from repro.core.registry import resolve_backend

    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "kernel_backend": resolve_backend(None),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "malloc": malloc or "default",
    }
