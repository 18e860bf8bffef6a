"""The compiled cone step: `_cone.c`, built on first use and loaded by ctypes.

Importing this module builds `_cone.c` with the system C compiler (the
first of cc, gcc and clang on the PATH) into a per-user cache,
~/.cache/subwordkit, unless a build of the same source by the same
command is there already, and loads it.  A build is named by the sha256
of the source and the command, written under a temporary name and moved
into place, so a concurrent build or an edit of the source never loads a
stale or half-written file.  A cache directory or build that another user
owns, or that group or others may write, is refused.  Any failure raises
ImportError, and `kernels` then runs the pure cone.

`cone_closure` takes the arguments and returns the results of
`_kernels_py.cone_closure`, from the same per-id tables (`cone_tables`).
It is the only kernel here: the others have no compiled step.
"""

import ctypes
import hashlib
import os
import shutil
import sys
import tempfile
from array import array

from ._kernels_py import cone_tables
from .errors import BudgetExceededError

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_cone.c")
FLAGS = ("-O2", "-shared", "-fPIC")
_MAX_STATES = 2**31 - 1  # the C step numbers states as int32, like array("i")
_CONE_BUDGET, _CONE_NOMEM = 1, 2  # return codes of _cone.c


def cache_dir():
    """The per-user directory that holds the builds."""
    return os.path.join(os.path.expanduser("~"), ".cache", "subwordkit")


def compiler():
    """The system C compiler's path, or None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _private(path):
    st = os.stat(path)
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _build(command, cache, path, source):
    import subprocess  # only on a cache miss

    fd, tmp = tempfile.mkstemp(prefix=".cone-", suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run([*command, "-o", tmp, "-x", "c", "-"], input=source,
                       capture_output=True, check=True, timeout=120)
        os.chmod(tmp, 0o700)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load(cache, cc):
    """The ctypes library of `_cone.c` built by the compiler `cc` in the
    directory `cache`: built there first unless present.  Raises
    ImportError when any step fails."""
    try:
        if array("i").itemsize != 4 or array("Q").itemsize != 8:
            raise OSError("array('i') and array('Q') must be 32 and 64 bits")
        if cc is None:
            raise OSError("no C compiler on the PATH")
        with open(SOURCE, "rb") as f:
            source = f.read()
        command = [cc, *FLAGS]
        key = hashlib.sha256(source + b"\0" + "\0".join(command).encode()).hexdigest()
        os.makedirs(cache, mode=0o700, exist_ok=True)
        if not _private(cache):
            raise OSError(f"{cache} is not private to this user")
        path = os.path.join(cache, f"cone-{key}.so")
        if not os.path.exists(path):
            _build(command, cache, path, source)
        if not _private(path):
            raise OSError(f"{path} is not private to this user")
        lib = ctypes.CDLL(path)
        ptr = ctypes.c_void_p
        lib.cone_closure.argtypes = [ctypes.c_int32, ctypes.c_int32, ptr, ptr, ptr, ptr,
                                     ctypes.c_int32, ctypes.c_int64, ptr, ptr, ptr]
        lib.cone_closure.restype = ctypes.c_int
        lib.cone_free.argtypes = [ptr]
        lib.cone_free.restype = None
        return lib
    except Exception as e:
        raise ImportError(f"compiled cone step unavailable: {e}") from e


_lib = load(cache_dir(), compiler())


def _words(masks, width):
    """The masks as `width` uint64 words each, low word first."""
    out = array("Q")
    for m in masks:
        out.frombytes(m.to_bytes(8 * width, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out


def cone_closure(num_suffixes, k, nxt, eps_id, dom_masks, start, budget):
    """_kernels_py.cone_closure, with the BFS and the step in C (_cone.c)."""
    heads, tails, ups = cone_tables(num_suffixes, k, nxt, dom_masks)
    width = (num_suffixes + 63) // 64
    start_mask = 0
    for s in start:
        start_mask |= 1 << s
    args = (_words(heads, width), array("i", tails), _words(ups, width),
            _words([start_mask], width))
    delta_p = ctypes.POINTER(ctypes.c_int32)()
    count = ctypes.c_int64()
    final = ctypes.c_int64()
    rc = _lib.cone_closure(num_suffixes, k, *(a.buffer_info()[0] for a in args), eps_id,
                           max(0, min(budget, _MAX_STATES)), ctypes.byref(delta_p),
                           ctypes.byref(count), ctypes.byref(final))
    if rc == _CONE_BUDGET:
        raise BudgetExceededError("closure antichain states", budget)
    if rc == _CONE_NOMEM:
        raise MemoryError("cone closure states")
    try:
        delta = array("i", [0]) * (count.value * k)
        ctypes.memmove(delta.buffer_info()[0], delta_p, len(delta) * delta.itemsize)
    finally:
        _lib.cone_free(delta_p)
    return count.value, delta, [final.value] if final.value >= 0 else []
