"""Kernel selection: compiled simplex core with pure-python fallback.

The compiled extension is used whenever it imports; otherwise the numpy
kernel runs.  :func:`set_kernel` switches kernels in-process (the benchmark
and the tests use it).  Both kernels implement the same pivot rules with the
same elementwise arithmetic, so switching kernels does not change results.
"""

from . import _simplex_py

OPTIMAL = _simplex_py.OPTIMAL
UNBOUNDED = _simplex_py.UNBOUNDED
ITERATION_LIMIT = _simplex_py.ITERATION_LIMIT

_KERNELS = {"python": _simplex_py.simplex_iterate}

try:
    from . import _simplex_core

    _KERNELS["compiled"] = _simplex_core.simplex_iterate
except ImportError:
    pass

_active = "compiled" if "compiled" in _KERNELS else "python"


def kernel_name():
    """Name of the active pivot kernel ('compiled' or 'python')."""
    return _active


def available_kernels():
    return sorted(_KERNELS)


def set_kernel(name):
    """Switch the active kernel; used by the benchmark and tests."""
    global _active
    if name not in _KERNELS:
        raise ValueError(f"unknown kernel {name!r}; available: {available_kernels()}")
    _active = name


def simplex_iterate(T, basis, pivot_tol, max_iters, stall_threshold):
    return _KERNELS[_active](T, basis, pivot_tol, max_iters, stall_threshold)
