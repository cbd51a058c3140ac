"""Pin numpy's OpenBLAS to one thread around a pencil solve.

``korn._solve_stack`` solves through ``np.linalg``, served by numpy's own
OpenBLAS (``libscipy_openblas64_``).  On the 192 x 96 matrices of a Korn solve,
handing work to a second BLAS thread costs more than it saves (about 3.5x
slower at two threads), and ``OPENBLAS_NUM_THREADS`` only acts before the
library loads.  So the thread count is set through the library's own C API
instead.

The library is found once, on the first solve, by opening numpy's LAPACK
extension ``numpy.linalg._umath_linalg`` with ``ctypes``: the dynamic linker
resolves the thread-count functions among that extension's dependencies, so
no file is read and no path is searched.  When numpy is built on another BLAS
the pin does nothing.  scipy's ``libscipy_openblas`` serves only the gesvd
retry of ``korn._svd`` after a LAPACK failure, and is not pinned.

The thread count is state of the whole process, so the pin is counted per
process: solves that overlap in several threads restore the saved count
only when the last one exits.
"""

import contextlib
import ctypes
import functools
import threading
from typing import Callable, NamedTuple

from numpy.linalg import _umath_linalg


class OpenBLAS(NamedTuple):
    """The thread-count functions of one OpenBLAS."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


@functools.cache
def numpy_openblas():
    """numpy's OpenBLAS (found once, on first use), or None on another BLAS."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return OpenBLAS(get, set_)
    return None


_lock = threading.Lock()
_depth = 0                   # solves currently inside single_thread_blas
_saved = None                # the thread count to restore at the last exit


@contextlib.contextmanager
def single_thread_blas():
    """Run the body with numpy's OpenBLAS on one thread.

    The count found on the outermost entry is restored when the last
    overlapping entry exits, also when the body raises.  A no-op when numpy
    is not on OpenBLAS.
    """
    global _depth, _saved
    lib = numpy_openblas()
    if lib is None:
        yield
        return
    with _lock:
        if _depth == 0:
            _saved = lib.get_num_threads()
            lib.set_num_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                lib.set_num_threads(_saved)
