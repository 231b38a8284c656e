"""Where the program under test lives, and the environment recorded next to each result."""

from __future__ import annotations

import hashlib
import os
import platform
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no qbench source tree to benchmark."""


def use_source_tree() -> None:
    """Make ``import qbench`` load the checkout's ``src/qbench`` and nothing else."""
    if not (SRC / "qbench" / "__init__.py").is_file():
        raise MissingProgram(f"no qbench sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor() or "unknown"
    m = re.search(r"^model name\s*:\s*(.+)$", text, re.M)
    return m.group(1).strip() if m else "unknown"


def _commit() -> str | None:
    """HEAD of the checkout's own git directory, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for p in sorted((SRC / "qbench").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return digest.hexdigest()[:16]


def _openblas() -> dict:
    """OpenBLAS version and thread count of this process (numpy must be imported)."""
    import ctypes

    import numpy as np

    info = {"version": None, "threads": None}
    try:
        info["version"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _process_threads() -> int | None:
    try:
        m = re.search(r"^Threads:\s+(\d+)", Path("/proc/self/status").read_text(), re.M)
    except OSError:
        return None
    return int(m.group(1)) if m else None


def environment(seed: int) -> dict:
    """Everything a result depends on besides the code: machine, libraries, threads, seed."""
    import numpy as np

    blas = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas["version"],
        "openblas_threads": blas["threads"],
        "process_threads_after_import": _process_threads(),
        "QBENCH_THREADS": os.environ.get("QBENCH_THREADS"),
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")},
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }
