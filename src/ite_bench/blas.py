"""The thread count of the OpenBLAS that numpy loaded, read, lowered and
restored through ctypes.

Only the standard library is used: the library is found among the files
mapped into this process (/proc/self/maps) and opened again without
loading anything new. Any failure, or a platform without such a library,
gives None and leaves the thread count as it was.
"""

from __future__ import annotations

import contextlib
import ctypes
import os

# (getter, setter) names, tried in order: the scipy-openblas wheels numpy
# ships (64-bit integer and 32-bit integer builds), then a plain OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def openblas_controls():
    """(get_num_threads, set_num_threads) of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            # address, perms, offset, device, inode, then the mapped file
            paths = sorted({
                fields[5] for fields in (line.rstrip("\n").split(maxsplit=5) for line in fh)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower()
            })
    except OSError:
        return None
    for path in paths:
        try:
            # RTLD_NOLOAD: a handle to the copy already mapped, never a new load
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def threads_capped(limit: int):
    """Run the block with the loaded OpenBLAS at no more than limit (>= 1)
    threads: a higher count is lowered, a lower one kept. Yields the count
    read back, or None when no OpenBLAS is found. The previous count is
    restored when the block ends, also on an exception or when a generator
    suspended inside the block is closed.

    A process forked inside the block inherits the capped count, so its
    OpenBLAS starts no helper thread above it."""
    controls = openblas_controls()
    if controls is None:
        yield None
        return
    get, set_ = controls
    before = get()
    if before > limit:
        set_(limit)
    try:
        yield get()
    finally:
        set_(before)
