"""Run BLAS on one thread for the whole of a fit or an evaluation.

NumPy and SciPy wheels each bundle their own OpenBLAS, and each starts one
thread per core by default.  The VI products are at most a few dozen rows
wide, where those threads only compete with the task pool of
``vi.fit_candidates`` for the same cores, and the BLAS thread count also
changes the last bits of the results.  A worker that one wide call wakes
(the inverse of a prior at d = 41 is enough) then spin-waits on its core
before it sleeps, doing no work.  So ``cli.main`` holds both libraries at one
thread for the whole ``fit`` and ``eval`` commands, and ``vi.fit_candidates``
and ``gibbs.gibbs_sample`` hold them again for library callers; nesting is
counted.  ``threads=N`` then means N cores, and results do not depend on any
thread count.  ``simulate`` never calls this module: ``_controls`` opens
SciPy's OpenBLAS.

The thread setters are found through ``ctypes``.  Where a library or symbol is
missing (another BLAS build, another platform), ``single_threaded`` does
nothing.
"""

import ctypes
import functools
import glob
import importlib.util
import os
import threading
from contextlib import contextmanager

# package -> (file pattern inside ``<package>.libs``, symbol suffix)
_BUNDLED = {"numpy": ("libscipy_openblas64_*.so", "64_"),
            "scipy": ("libscipy_openblas-*.so", "")}


@functools.cache
def _controls():
    """``{package: (get_num_threads, set_num_threads)}`` of the bundled copies found.

    The packages are located with ``find_spec``, which imports nothing, so
    this loads no SciPy module; the library opened is the one SciPy's
    extensions link to, whether or not they are loaded yet.
    """
    found = {}
    for name, (pattern, suffix) in _BUNDLED.items():
        origin = importlib.util.find_spec(name).origin
        libs = os.path.join(os.path.dirname(os.path.dirname(origin)), name + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, pattern))):
            try:
                lib = ctypes.CDLL(path)
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found[name] = (get, put)
            break
    return found


_lock = threading.Lock()
_depth = 0
_saved = []


def pinned():
    """Whether the thread setters of both NumPy's and SciPy's BLAS were found."""
    return set(_controls()) == set(_BUNDLED)


@contextmanager
def single_threaded():
    """Hold every found BLAS at one thread; restore the previous counts on exit.

    The thread count is process-wide, so the outermost of any nested or
    concurrent uses sets it and the last one to leave restores it.
    """
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(put, get()) for get, put in _controls().values()]
            for put, _ in _saved:
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for put, n in _saved:
                    put(n)
