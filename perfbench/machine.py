"""What the results depend on besides the code: cores, BLAS, CPU, and a
float32 GEMM calibration that shows how fast this host multiplies today."""

import ctypes
import glob
import os
import platform
import time

import numpy as np


def _openblas():
    """numpy's bundled OpenBLAS, loaded by ctypes, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "lib*openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def blas_threads():
    lib = _openblas()
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            return int(fn())
    return None


def _blas_version():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_lines(src_dir: str) -> int:
    """Line count of the package sources (the roadmap tracks it; not gated)."""
    total = 0
    for d, _, files in os.walk(src_dir):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def sgemm_peak_gflops(rows: int = 512, width: int = 784, reps: int = 15) -> float:
    """Best-of-`reps` GFLOP/s of one float32 (rows x width) @ (width x width)
    product, the shape of a full-width dense layer on a decode block."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((rows, width), dtype=np.float32)
    b = rng.standard_normal((width, width), dtype=np.float32)
    a @ b
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * rows * width * width / best / 1e9


def environment(src_dir: str) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "blas_threads": blas_threads(), "numpy": np.__version__,
            "blas": _blas_version(), "cpu": _cpu_model(), "python": platform.python_version(),
            "sgemm_peak_gflops": sgemm_peak_gflops(), "src_lines": src_lines(src_dir)}
