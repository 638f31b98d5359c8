"""BLAS thread control for the OpenBLAS that numpy loaded.

The workloads are serial end to end, so the benchmark runs BLAS on one
thread. On the 2-core host the benchmark was tuned on, two OpenBLAS
threads made an ``expr-full`` pass slower (5.0-6.1 s against 4.3-5.1 s)
while keeping both cores busy. Pinning the count also keeps runs on
hosts with different core counts comparable; it is recorded in every
result either way.
"""

from __future__ import annotations

import ctypes

_NAMES = ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}")


def _function(what: str):
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _NAMES:
            fn = getattr(handle, name.format(what), None)
            if fn is not None:
                return fn
    return None


def threads() -> "int | None":
    """Current OpenBLAS thread count, or None if it cannot be read."""
    fn = _function("get_num_threads")
    if fn is None:
        return None
    fn.restype = ctypes.c_int
    return int(fn())


def set_threads(n: int) -> None:
    """Set the OpenBLAS thread count (no-op where numpy uses another BLAS)."""
    fn = _function("set_num_threads")
    if fn is not None:
        fn.argtypes = [ctypes.c_int]
        fn(n)
