"""Pin numpy's bundled OpenBLAS to one thread while a run is active.

A run's BLAS work is a few small products and solves per trial, too
small for a second thread to speed up, while an idle OpenBLAS worker
spins and doubles the run's CPU time. A second thread also changes the
bits ``numpy.linalg.eigh`` returns for a few hundred nodes, and with them
every result. So :func:`one_blas_thread` sets numpy's OpenBLAS to one
thread on the outermost entry and restores the caller's count on the
outermost exit, also when the body raises; ``OPENBLAS_NUM_THREADS`` has no
effect on numpy's BLAS while it is active. The depth is kept under a lock,
so nested entries (the CLI calling ``run_experiment``) and concurrent
callers share one pin.

The library and its two symbols are looked up once per process, on first
use; each entry and exit after that is one get and one set call. Where
numpy bundles no such library (another numpy build), the context does
nothing and :func:`unavailable_reason` says why. graphcov makes no scipy
call, so scipy's own OpenBLAS, with its own pool, never loads in a run
and this one pin covers all of a run's BLAS work.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

import numpy as np

GET_SYMBOL = "scipy_openblas_get_num_threads64_"
SET_SYMBOL = "scipy_openblas_set_num_threads64_"

_lock = threading.Lock()
_depth = 0
_saved = 1


def _find_library() -> str | None:
    """Path of the OpenBLAS in numpy's wheel, in ``numpy.libs`` beside the package, or None."""
    site = os.path.dirname(os.path.dirname(os.path.abspath(np.__file__)))
    folder = os.path.join(site, "numpy.libs")
    try:
        names = sorted(os.listdir(folder))
    except OSError:
        return None
    return next((os.path.join(folder, name) for name in names if "openblas" in name), None)


@functools.cache
def _threads_api():
    """``(get, set)`` thread-count functions of numpy's OpenBLAS, or a one-line reason why not."""
    path = _find_library()
    if path is None:
        return f"numpy {np.__version__} bundles no OpenBLAS library"
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        return f"cannot load {os.path.basename(path)}: {exc}"
    funcs = []
    for symbol in (GET_SYMBOL, SET_SYMBOL):
        try:
            funcs.append(getattr(lib, symbol))
        except AttributeError:
            return f"{os.path.basename(path)} has no symbol {symbol}"
    get, set_ = funcs
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def unavailable_reason() -> str | None:
    """Why :func:`one_blas_thread` does nothing in this process, or None when it pins."""
    api = _threads_api()
    return api if isinstance(api, str) else None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread; a no-op where it cannot be reached."""
    global _depth, _saved
    with _lock:
        api = _threads_api()
        get, set_ = (None, None) if isinstance(api, str) else api
        if set_ is not None and _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if set_ is not None and _depth == 0:
                set_(_saved)
