"""Pin the loaded OpenBLAS libraries to one thread around a pencil solve.

``korn._solve_stack`` solves through ``np.linalg``, served by numpy's own
OpenBLAS (``libscipy_openblas64_``).  On the 192 x 96 matrices of a Korn solve,
handing work to a second BLAS thread costs more than it saves (about 3.5x
slower at two threads), and ``OPENBLAS_NUM_THREADS`` only acts before the
library loads.  So the thread count is set through each library's own C API
instead.

The libraries are found once, on the first solve, and every OpenBLAS mapped
by then is pinned.  One loaded later is not: scipy's ``libscipy_openblas``
is such a case when the first import of scipy is the gesvd retry of
``korn._svd``, which then runs at that library's own thread count.

The thread count is state of the whole process, so the pin is counted per
process: solves that overlap in several threads restore the saved counts
only when the last one exits.
"""

import contextlib
import ctypes
import threading
from typing import Callable, NamedTuple

_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


class OpenBLAS(NamedTuple):
    """One loaded OpenBLAS: its file and its thread-count functions."""

    path: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def _thread_functions(lib):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _discover():
    """Every OpenBLAS mapped into this process that exports the thread API."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:          # no /proc: not Linux
        return ()
    libs = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        functions = _thread_functions(lib)
        if functions is not None:
            libs.append(OpenBLAS(path, *functions))
    return tuple(libs)


_lock = threading.Lock()
_libraries = None            # found on first use, then cached
_depth = 0                   # solves currently inside single_thread_blas
_saved = ()                  # (library, thread count) to restore at the last exit


def loaded_openblas():
    """The OpenBLAS libraries the pin acts on (found once, on first use)."""
    global _libraries
    with _lock:
        if _libraries is None:
            _libraries = _discover()
        return _libraries


@contextlib.contextmanager
def single_thread_blas():
    """Run the body with every loaded OpenBLAS on one thread.

    The counts found on the outermost entry are restored when the last
    overlapping entry exits, also when the body raises.  A no-op when no
    OpenBLAS is loaded.
    """
    global _depth, _saved
    libs = loaded_openblas()
    with _lock:
        if _depth == 0:
            _saved = tuple((lib, lib.get_num_threads()) for lib in libs)
            for lib in libs:
                lib.set_num_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for lib, count in _saved:
                    lib.set_num_threads(count)
                _saved = ()
