"""Read and hold the thread count of the process's OpenBLAS.

numpy has no call for it, so this module does what threadpoolctl
(https://github.com/joblib/threadpoolctl) does, with the stdlib only:
it finds the OpenBLAS shared library the process has mapped, through
``/proc/self/maps``, and calls its ``get_num_threads`` and
``set_num_threads`` symbols with ``ctypes``.  Where no such library or
symbol is found (another BLAS, or no ``/proc``), ``blas_control``
returns None and ``one_blas_thread`` does nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import lru_cache

import numpy as np  # noqa: F401  (maps numpy's OpenBLAS into the process)

__all__ = ["blas_control", "one_blas_thread"]

#: (get, set) symbol names: numpy's own 64-bit-integer build first, then
#: a plain OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=1)
def blas_control():
    """``(get, set)`` for the loaded OpenBLAS's thread count, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS to one thread inside the block; on leaving, by
    return or by raise, restore the count it found."""
    ctl = blas_control()
    if ctl is None:
        yield
        return
    get, put = ctl
    restore = get()
    put(1)
    try:
        yield
    finally:
        put(restore)
