"""The compiled kernels: `_native.c`, built on first use and loaded by ctypes.

Importing this module builds `_native.c` with the system C compiler (the
first of cc, gcc and clang on the PATH) into a per-user cache,
~/.cache/subwordkit, unless a build of the same source by the same
command is there already, and loads it.  A build is named by the sha256
of the source and the command, written under a temporary name and moved
into place, so a concurrent build or an edit of the source never loads a
stale or half-written file.  A cache directory or build that another user
owns, or that group or others may write, is refused.  Any failure raises
ImportError, and `kernels` then runs the pure kernels.

Four kernels are compiled: `cone_closure`, `subset_construction`,
`antichain_preimage` and `dfa_minimize`.  Each takes the arguments and
returns the results of its namesake in `_kernels_py`.  The cone's words
cross as one array of letters and their offsets, and C builds the tables
that `_kernels_py.cone_tables` builds (the minimal words, their suffix
ids, the dominators and their transpose) before it runs the BFS, so a
cone closure is one call into the library.  The first three number
their states with one C loop, `explore`, and differ only in the step
they hand it.
`explore` finds states again through one open-addressing table whose
slots carry the state's 32-bit hash, so a lookup reads a state's words
only when the hashes match; the table grows at 3/4 load.  It steps a batch
of states, prefetching their successors' slots, before it numbers the
successors in the order of one state at a time, so the numbering, the
budget rule and the results do not depend on the batch.  A
subset of NFA states, and a row of the successor table, crosses as the
run of its nonzero low words, no longer than the Python int it came
from, so no table is sized n² by the crossing: the rows of a
20,000-state NFA with no transitions are 40,000 empty runs.  The
antichain search takes K automata of at most 64 states, whose state sets
are one word each; a larger one runs the pure search.  The other kernels
have no compiled form.
"""

import ctypes
import hashlib
import os
import shutil
import sys
import tempfile
from array import array
from itertools import accumulate, chain

from . import _kernels_py
from .errors import BudgetExceededError

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native.c")
FLAGS = ("-O2", "-shared", "-fPIC")
_MAX_STATES = 2**31 - 1  # the C kernels number states as int32, like array("i")
_BUDGET, _NOMEM, _BADINPUT = 1, 2, 3  # return codes of _native.c


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

    fd, tmp = tempfile.mkstemp(prefix=".native-", suffix=".so", dir=cache)
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
    """The ctypes library of `_native.c` built by the compiler `cc` in the
    directory `cache`: built there first unless present.  Raises
    ImportError when any step fails."""
    try:
        if array("i").itemsize != 4 or array("q").itemsize != 8 or array("Q").itemsize != 8:
            raise OSError("array('i'), array('q') and array('Q') must be 32, 64 and 64 bits")
        if cc is None:
            raise OSError("no C compiler on the PATH")
        with open(SOURCE, "rb") as f:
            source = f.read()
        command = [cc, *FLAGS]
        key = hashlib.sha256(source + b"\0" + "\0".join(command).encode()).hexdigest()
        os.makedirs(cache, mode=0o700, exist_ok=True)
        if not _private(cache):
            raise OSError(f"{cache} is not private to this user")
        path = os.path.join(cache, f"native-{key}.so")
        if not os.path.exists(path):
            _build(command, cache, path, source)
        if not _private(path):
            raise OSError(f"{path} is not private to this user")
        lib = ctypes.CDLL(path)
        ptr, i32, i64 = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64
        lib.cone_closure.argtypes = [i32, i64, ptr, ptr, i64, ptr, ptr, ptr]
        lib.subset_construction.argtypes = [i32, i32, ptr, ptr, ptr, i64, i32, i64,
                                            ptr, ptr, ptr, ptr]
        lib.antichain_preimage.argtypes = [i32, i32, ptr, ptr, ptr, i64, ptr, i64, i32, ptr, ptr,
                                           ptr, ptr, i64, ptr, ptr, ptr, ptr]
        lib.dfa_minimize.argtypes = [i32, i32, ptr, i32, ptr, i64, ptr, ptr, ptr, ptr]
        for fn in (lib.cone_closure, lib.subset_construction, lib.antichain_preimage,
                   lib.dfa_minimize):
            fn.restype = ctypes.c_int
        lib.native_free.argtypes = [ptr]
        lib.native_free.restype = None
        return lib
    except Exception as e:
        raise ImportError(f"compiled kernels unavailable: {e}") from e


_lib = load(cache_dir(), compiler())


def _addr(a):
    return a.buffer_info()[0]


def _native_words(words):
    """array('Q') of little-endian words, in this machine's byte order."""
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _runs(masks):
    """The masks as runs of their nonzero low words: (words, off), mask i
    being words[off[i]:off[i + 1]], low word first."""
    off = array("q", [0])
    parts = []
    end = 0
    for m in masks:
        if m:
            size = (m.bit_length() + 63) >> 6
            parts.append(m.to_bytes(8 * size, "little"))
            end += size
        off.append(end)
    words = array("Q")
    words.frombytes(b"".join(parts))
    return _native_words(words), off


def _take(p, typecode, count):
    """A copy of the C array at p of `count` items, as array(typecode);
    p is released."""
    try:
        out = array(typecode, [0]) * count
        if count:
            ctypes.memmove(_addr(out), p, count * out.itemsize)
        return out
    finally:
        _lib.native_free(p)


def _check(rc, what, budget=None):
    """Raise the error that the return code rc of a kernel stands for."""
    if rc == _BUDGET:
        raise BudgetExceededError(what, budget)
    if rc == _NOMEM:
        raise MemoryError(what)
    if rc == _BADINPUT:
        raise ValueError(f"{what}: a state out of range")


def cone_closure(k, words, budget):
    """_kernels_py.cone_closure, with the tables, the BFS and the step in
    C: the words cross as one array of letters and their offsets."""
    if not 0 <= k <= _MAX_STATES:
        raise ValueError(_kernels_py.CONE_LETTER_ERROR)
    if not words:
        return _kernels_py.cone_closure(k, words, budget)
    try:
        letters = array("i", chain.from_iterable(words))
    except OverflowError:
        raise ValueError(_kernels_py.CONE_LETTER_ERROR) from None
    off = array("q", accumulate(map(len, words), initial=0))
    delta_p = ctypes.c_void_p()
    count = ctypes.c_int64()
    final = ctypes.c_int64()
    rc = _lib.cone_closure(k, len(words), _addr(letters), _addr(off),
                           max(0, min(budget, _MAX_STATES)), ctypes.byref(delta_p),
                           ctypes.byref(count), ctypes.byref(final))
    if rc == _BADINPUT:
        raise ValueError(_kernels_py.CONE_LETTER_ERROR)
    _check(rc, "closure antichain states", budget)
    delta = _take(delta_p, "i", count.value * k)
    return count.value, delta, [final.value] if final.value >= 0 else []


def subset_construction(n, k, succ, init_mask, budget, reduced=False):
    """_kernels_py.subset_construction, in C."""
    if len(succ) != n * k:
        raise ValueError("subset_construction: a successor table is not states * letters long")
    rows, row_off = _runs(succ)
    init, _ = _runs([init_mask])
    delta_p, words_p, off_p = ctypes.c_void_p(), ctypes.c_void_p(), ctypes.c_void_p()
    count = ctypes.c_int64()
    rc = _lib.subset_construction(n, k, _addr(rows), _addr(row_off), _addr(init), len(init),
                                  int(reduced), max(0, min(budget, _MAX_STATES)),
                                  ctypes.byref(delta_p), ctypes.byref(words_p),
                                  ctypes.byref(off_p), ctypes.byref(count))
    _check(rc, "determinization subset states", budget)
    count = count.value
    delta = _take(delta_p, "i", count * k)
    off = _take(off_p, "q", count + 1)
    words = _take(words_p, "Q", off[-1])
    if len(words) == count:  # one word each
        return delta, words.tolist()
    raw = memoryview(_native_words(words)).cast("B")
    subsets = [int.from_bytes(raw[8 * i:8 * j], "little") for i, j in zip(off, off[1:])]
    return delta, subsets


def antichain_preimage(n, k, succ, init_mask, final_mask, ks, budget):
    """_kernels_py.antichain_preimage, with the numbering and the step in
    C; the pure one when a K automaton has more than 64 states, which do
    not fit the compiled step's one-word sets."""
    if any(kn > 64 for kn, _, _, _ in ks):
        return _kernels_py.antichain_preimage(n, k, succ, init_mask, final_mask, ks, budget)
    if len(succ) != n * k or any(len(table) != kn * k for kn, table, _, _ in ks):
        raise ValueError("antichain_preimage: a successor table is not states * letters long")
    rows, row_off = _runs(succ)
    init, _ = _runs([init_mask])
    fin, _ = _runs([final_mask])
    kn = array("i", [kn for kn, _, _, _ in ks])
    ksucc = array("Q")
    for _, table, _, _ in ks:
        ksucc.extend(table)
    kinit = array("Q", [m for _, _, m, _ in ks])
    kfin = array("Q", [m for _, _, _, m in ks])
    m = len(ks) - 1
    delta_p, finals_p = ctypes.c_void_p(), ctypes.c_void_p()
    count, nfinals = ctypes.c_int64(), ctypes.c_int64()
    rc = _lib.antichain_preimage(n, k, _addr(rows), _addr(row_off), _addr(init), len(init),
                                 _addr(fin), len(fin), m, _addr(kn), _addr(ksucc),
                                 _addr(kinit), _addr(kfin), max(0, min(budget, _MAX_STATES)),
                                 ctypes.byref(delta_p), ctypes.byref(finals_p),
                                 ctypes.byref(count), ctypes.byref(nfinals))
    _check(rc, "interior antichain states", budget)
    return (count.value, _take(delta_p, "i", count.value * m),
            list(_take(finals_p, "i", nfinals.value)))


def dfa_minimize(n, k, delta, initial, finals):
    """_kernels_py.dfa_minimize, in C."""
    if not (isinstance(delta, array) and delta.typecode == "i"):
        delta = array("i", delta)
    if len(delta) != n * k:
        raise ValueError(f"dfa_minimize: delta has {len(delta)} entries, not n*k = {n * k}")
    finals = array("i", finals)
    delta_p, finals_p = ctypes.c_void_p(), ctypes.c_void_p()
    count, nfinals = ctypes.c_int64(), ctypes.c_int64()
    rc = _lib.dfa_minimize(n, k, _addr(delta), initial, _addr(finals), len(finals),
                           ctypes.byref(delta_p), ctypes.byref(finals_p),
                           ctypes.byref(count), ctypes.byref(nfinals))
    _check(rc, "dfa_minimize")
    if not count.value:
        return 1, [-1] * k, []
    return (count.value, _take(delta_p, "i", count.value * k),
            list(_take(finals_p, "i", nfinals.value)))
