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

closures.closure_dfa's front end is compiled too.  `strong_components`
takes an automaton's table across, a DFA's array('i') as it is or an
NFA's masks, and returns `Components`, which reads as
core.strong_components' tuple; `closure_front` finds the components
from that table and turns them into a `Front`, in one call: the words
of a finite language for the cone, or the rows of the closure NFA for
the subset construction.  A Front's parts stay in C:
`cone_closure` takes its Words and `subset_construction` its Rows as they
are, and the latter then returns the delta and the subsets in C as well,
an _Owned array that `dfa_minimize` takes and `Subsets` that tell which
subsets meet the closure's final states.  A subset becomes a Python int
only when it is read.

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
        done = subprocess.run([*command, "-o", tmp, "-x", "c", "-"], input=source,
                              capture_output=True, timeout=120)
        if done.returncode:
            raise OSError(f"{' '.join(command)} failed: {done.stderr.decode(errors='replace')}")
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
        lib.subset_construction.argtypes = [i32, i32, ptr, ptr, ptr, ptr, i64, i32, i64, ptr, i64,
                                            ptr, ptr, ptr, ptr, ptr, ptr]
        lib.antichain_preimage.argtypes = [i32, i32, ptr, ptr, ptr, i64, ptr, i64, i32, ptr, ptr,
                                           ptr, ptr, i64, ptr, ptr, ptr, ptr]
        lib.dfa_minimize.argtypes = [i32, i32, ptr, i32, ptr, i64, ptr, ptr, ptr, ptr]
        lib.strong_components.argtypes = [i32, i32, ptr, ptr, ptr, ptr, ptr, ptr]
        lib.closure_front.argtypes = [i32, i32, ptr, ptr, ptr, ptr, ptr, i64, ptr, i64, i32, i64,
                                      i64, i64, i64, ptr]
        for fn in (lib.cone_closure, lib.subset_construction, lib.antichain_preimage,
                   lib.dfa_minimize, lib.strong_components, lib.closure_front):
            fn.restype = ctypes.c_int
        for fn in (lib.native_free, lib.front_free):
            fn.argtypes = [ptr]
            fn.restype = None
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
    """_copy of the C array at p, which is then released."""
    try:
        return _copy(p, typecode, count)
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


class _Owned:
    """An array that C allocated: its address and its `count` items,
    released with this object."""

    __slots__ = ("addr", "count")

    def __init__(self, addr, count):
        self.addr = addr
        self.count = count

    def __len__(self):
        return self.count

    def __del__(self, free=_lib.native_free):
        free(self.addr)


class _FrontFields(ctypes.Structure):
    # `front` of _native.c
    _fields_ = [("nwords", ctypes.c_int64), ("letters", ctypes.c_void_p),
                ("word_off", ctypes.c_void_p), ("reduced", ctypes.c_int64),
                ("words", ctypes.c_void_p), ("row_off", ctypes.c_void_p),
                ("row_end", ctypes.c_void_p), ("init", ctypes.c_void_p), ("fin", ctypes.c_void_p),
                ("init_len", ctypes.c_int64), ("fin_len", ctypes.c_int64)]


def _copy(addr, typecode, count):
    """A copy of the `count` items of C memory at addr, as array(typecode)."""
    out = array(typecode, [0]) * count
    if count:
        ctypes.memmove(_addr(out), addr, count * out.itemsize)
    return out


def _ints(words, off, end):
    """The runs words[off[i]:end[i]] of a copied word array, as ints."""
    raw = memoryview(_native_words(words)).cast("B")
    return [int.from_bytes(raw[8 * i:8 * j], "little") for i, j in zip(off, end)]


class Components:
    """core.strong_components of an automaton with n states over k
    letters, in C.  It holds the table that crossed, as the C addresses
    `table` of the arrays it keeps; closure_front finds the components
    from it in its own call, and the first read of the tuple (comps,
    comp_of, below) of the pure Tarjan finds them with strong_components
    and builds its lists."""

    __slots__ = ("n", "k", "table", "_keep", "_lists")

    def __init__(self, n, k, table, keep):
        self.n, self.k, self.table, self._keep = n, k, table, keep
        self._lists = None

    def __len__(self):
        return 3

    def __getitem__(self, i):
        if self._lists is None:
            p, size = ctypes.c_void_p(), ctypes.c_int64()
            rc = _lib.strong_components(self.n, self.k, *self.table, ctypes.byref(p),
                                        ctypes.byref(size))
            _check(rc, "strong_components")
            packed = _take(p, "q", size.value).tolist()
            n, m = self.n, packed[0]
            comp_of, members = packed[2:2 + n], packed[2 + n:2 + 2 * n]
            comp_off = packed[2 + 2 * n:3 + 2 * n + m]
            below_off = packed[3 + 2 * n + m:4 + 2 * n + 2 * m]
            below = packed[4 + 2 * n + 2 * m:]
            self._lists = ([members[i:j] for i, j in zip(comp_off, comp_off[1:])], comp_of,
                           [tuple(below[i:j]) for i, j in zip(below_off, below_off[1:])])
        return self._lists[i]


def strong_components(n, k, delta, succ):
    """The Components of the automaton with n states over k letters whose
    table is the DFA table `delta` (array('i'), -1 for no edge) or, when
    delta is None, the NFA table `succ` of masks; None when n does not
    fit the C numbering.  A DFA crosses as the array it is, an NFA of at
    most 64 states as one word a row, a larger one as runs."""
    if n > _MAX_STATES:
        return None
    if delta is not None:
        return Components(n, k, (_addr(delta), None, None, None), delta)
    if n <= 64:
        words = array("Q", succ)
        return Components(n, k, (None, _addr(words), None, None), words)
    words, off = _runs(succ)
    return Components(n, k, (None, _addr(words), _addr(off), _addr(off) + off.itemsize),
                      (words, off))


class Run:
    """A set of NFA states that C holds: the run of `len` words at `addr`
    (see _native.c), kept alive by `owner`; false when empty, and int()
    gives its mask."""

    __slots__ = ("addr", "len", "owner")

    def __init__(self, addr, length, owner):
        self.addr, self.len, self.owner = addr, length, owner

    def __bool__(self):
        return self.len > 0

    def __int__(self):
        return _ints(_copy(self.addr, "Q", self.len), [0], [self.len])[0]


class Words:
    """The words of a finite language that closure_front listed, in C:
    len() of them, in the order of sorted letter tuples, as the cone
    takes them; iterating reads them as letter tuples."""

    __slots__ = ("letters", "off", "count", "owner")

    def __init__(self, f, owner):
        self.letters, self.off, self.count, self.owner = f.letters, f.word_off, f.nwords, owner

    def __len__(self):
        return self.count

    def __iter__(self):
        off = _copy(self.off, "q", self.count + 1)
        letters = _copy(self.letters, "i", off[-1]).tolist()
        return (tuple(letters[i:j]) for i, j in zip(off, off[1:]))


class Rows:
    """The successor table of a closure NFA that closure_front built, in
    C: `cells` rows, runs that the members of a component may share, and
    `fin`, the Run of the closure's final states.  The subset construction
    takes it as its `succ` and tells which subsets meet `fin`; masks()
    reads the rows as the ints of a successor table."""

    __slots__ = ("words", "off", "end", "cells", "fin", "owner")

    def __init__(self, f, cells, owner):
        self.words, self.off, self.end, self.cells = f.words, f.row_off, f.row_end, cells
        self.fin = Run(f.fin, f.fin_len, owner)
        self.owner = owner

    def masks(self):
        off = _copy(self.off, "q", self.cells)
        end = _copy(self.end, "q", self.cells)
        return _ints(_copy(self.words, "Q", max(end, default=0)), off, end)


class Front:
    """What closure_front prepared for one closure, in C: `words`, the
    Words of a finite language for the cone, or None, and then `rows`,
    `init` (a Run, already reduced when `reduced` is true) and `reduced`
    for the subset construction."""

    __slots__ = ("_p", "words", "rows", "init", "reduced")

    def __init__(self, p, cells):
        self._p = p
        f = ctypes.cast(p, ctypes.POINTER(_FrontFields)).contents
        if f.nwords >= 0:
            self.words = Words(f, self)
            self.rows = self.init = self.reduced = None
        else:
            self.words = None
            self.rows = Rows(f, cells, self)
            self.init = Run(f.init, f.init_len, self)
            self.reduced = bool(f.reduced)

    def __del__(self, free=_lib.front_free):
        free(self._p)


def closure_front(components, initial, final, up, reduce_min, word_cap, suffix_cap, step_cap):
    """The Front of closures.closure_dfa's closure of the automaton with
    the Components `components`, the initial states `initial` and the
    final states `final`.  Up: the words of a finite language within the
    cone caps word_cap, suffix_cap and step_cap, or else the up-closure
    NFA; down: the down-closure NFA, reduced above reduce_min states."""
    initial = array("i", initial)
    final = array("i", final)
    p = ctypes.c_void_p()
    rc = _lib.closure_front(components.n, components.k, *components.table, _addr(initial),
                            len(initial), _addr(final), len(final), int(up), reduce_min,
                            word_cap, suffix_cap, step_cap, ctypes.byref(p))
    _check(rc, "closure_front")
    return Front(p.value, components.n * components.k)


class Subsets:
    """The subsets of a subset construction over Rows, in C: len() of
    them, and `finals`, the array('i') of those that meet the rows' final
    set.  A subset becomes a Python int only when it is read."""

    __slots__ = ("_words", "_off", "_count", "finals")

    def __init__(self, words, off, count, finals):
        self._words, self._off, self._count, self.finals = words, off, count, finals

    def __len__(self):
        return self._count

    def __getitem__(self, i):
        if not 0 <= i < self._count:
            raise IndexError(i)
        lo, hi = _copy(self._off + 8 * i, "q", 2)
        return _ints(_copy(self._words + 8 * lo, "Q", hi - lo), [0], [hi - lo])[0]

    def __del__(self, free=_lib.native_free):
        free(self._words)
        free(self._off)


def cone_closure(k, words, budget):
    """_kernels_py.cone_closure, with the tables, the BFS and the step in
    C: the words cross as one array of letters and their offsets, or are
    the Words of closure_front, in C already."""
    if not 0 <= k <= _MAX_STATES:
        raise ValueError(_kernels_py.CONE_LETTER_ERROR)
    if not words:
        return _kernels_py.cone_closure(k, words, budget)
    if isinstance(words, Words):
        at = words.letters, words.off
    else:
        try:
            letters = array("i", chain.from_iterable(words))
        except OverflowError:
            raise ValueError(_kernels_py.CONE_LETTER_ERROR) from None
        off = array("q", accumulate(map(len, words), initial=0))
        at = _addr(letters), _addr(off)
    delta_p = ctypes.c_void_p()
    count = ctypes.c_int64()
    final = ctypes.c_int64()
    rc = _lib.cone_closure(k, len(words), *at, max(0, min(budget, _MAX_STATES)),
                           ctypes.byref(delta_p), ctypes.byref(count), ctypes.byref(final))
    if rc == _BADINPUT:
        raise ValueError(_kernels_py.CONE_LETTER_ERROR)
    _check(rc, "closure antichain states", budget)
    delta = _take(delta_p, "i", count.value * k)
    return count.value, delta, [final.value] if final.value >= 0 else []


def subset_construction(n, k, succ, init_mask, budget, reduced=False):
    """_kernels_py.subset_construction, in C.  `succ` may also be the Rows
    of closure_front, with init_mask its Run: the delta and the subsets
    then stay in C (an _Owned array and Subsets, with the subsets that
    meet the rows' final set)."""
    out = ctypes.c_void_p
    delta_p, words_p, off_p, finals_p = out(), out(), out(), out()
    count, nfinals = ctypes.c_int64(), ctypes.c_int64()
    cap = max(0, min(budget, _MAX_STATES))
    if isinstance(succ, Rows):
        fin = succ.fin
        rc = _lib.subset_construction(n, k, succ.words, succ.off, succ.end, init_mask.addr,
                                      init_mask.len, int(reduced), cap, fin.addr, fin.len,
                                      ctypes.byref(delta_p), ctypes.byref(words_p),
                                      ctypes.byref(off_p), ctypes.byref(count),
                                      ctypes.byref(finals_p), ctypes.byref(nfinals))
        _check(rc, "determinization subset states", budget)
        count = count.value
        return _Owned(delta_p.value, count * k), Subsets(
            words_p.value, off_p.value, count, _take(finals_p, "i", nfinals.value))
    if len(succ) != n * k:
        raise ValueError("subset_construction: a successor table is not states * letters long")
    rows, row_off = _runs(succ)
    init, _ = _runs([init_mask])
    off = _addr(row_off)
    rc = _lib.subset_construction(n, k, _addr(rows), off, off + row_off.itemsize, _addr(init),
                                  len(init), int(reduced), cap, None, 0,
                                  ctypes.byref(delta_p), ctypes.byref(words_p),
                                  ctypes.byref(off_p), ctypes.byref(count), None, None)
    _check(rc, "determinization subset states", budget)
    count = count.value
    delta = _take(delta_p, "i", count * k)
    off = _take(off_p, "q", count + 1)
    words = _take(words_p, "Q", off[-1])
    if len(words) == count:  # one word each
        return delta, words.tolist()
    return delta, _ints(words, off, off[1:])


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
    """_kernels_py.dfa_minimize, in C; delta may also be the _Owned delta
    of a subset construction over Rows."""
    if isinstance(delta, _Owned):
        table = delta.addr
    else:
        if not (isinstance(delta, array) and delta.typecode == "i"):
            delta = array("i", delta)
        table = _addr(delta)
    if len(delta) != n * k:
        raise ValueError(f"dfa_minimize: delta has {len(delta)} entries, not n*k = {n * k}")
    if not (isinstance(finals, array) and finals.typecode == "i"):
        finals = array("i", finals)
    delta_p, finals_p = ctypes.c_void_p(), ctypes.c_void_p()
    count, nfinals = ctypes.c_int64(), ctypes.c_int64()
    rc = _lib.dfa_minimize(n, k, table, initial, _addr(finals), len(finals),
                           ctypes.byref(delta_p), ctypes.byref(finals_p),
                           ctypes.byref(count), ctypes.byref(nfinals))
    _check(rc, "dfa_minimize")
    if not count.value:
        return 1, [-1] * k, []
    return (count.value, _take(delta_p, "i", count.value * k),
            list(_take(finals_p, "i", nfinals.value)))
