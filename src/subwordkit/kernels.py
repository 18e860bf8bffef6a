"""The kernel layer: every caller reaches the kernels through this module.

The kernels live in `_kernels_py`, in pure Python.  Three of them, the
cone closure, subset construction and Hopcroft minimisation, also have
a compiled form in `_native` (`_native.c`, built on first use); the
dispatchers here run it when it loads and the pure one otherwise.  The
pure ones stay the fallback and the oracles they are tested against.
Callers look the four whole algorithms up here at each call, as
`kernels.<name>`, so that a tool can rebind one name in this namespace
to wrap every call of it.  The powerset primitives run once per subset,
too often to wrap: `rows`, which gives a subset's k successor sets from
one walk over its members, is the one every powerset search steps with;
`step`, one letter's successor set, is only for reading one letter at a
time; `bits` and `maximal` list and shrink a subset.

`explore` is the one loop that numbers the states of a construction: BFS
from the start state, letters in index order, at most `budget` states
(state number budget + 1 raises BudgetExceededError).  The kernels and the
constructions of `core` and `interiors` all number their states with it,
and the compiled kernels number theirs under the same rule.

`ACTIVE` names the backend of the three, "compiled" or "pure" (exported
as subwordkit.KERNEL_BACKEND).  The compiled kernels are loaded once, on
the first cone call, the first read of `ACTIVE`, or the first subset
construction or minimisation that reaches LOAD_MIN_WORK; never at
import.  Until then those two run pure, so a small command loads nothing.
"""

from . import _kernels_py
from ._kernels_py import bits, explore, is_subword, maximal, rows, step
from .errors import BudgetExceededError

# Until the compiled kernels are loaded, a subset construction or a
# minimisation runs pure while its states times its letters stay below
# this bound: a subset construction first runs pure with its budget cut
# to LOAD_MIN_WORK // k subsets, and only when that stops loads the
# compiled kernels and starts again there.  Loading them (ctypes, hashlib
# and the library) takes 8-13 ms in process and 10-26 ms in a CLI child.
# Pure Hopcroft spends 1.4-2.6 us per state and letter (2.6 ms on the
# 500-state path DFA, k = 2; 34 ms on D(11)'s 2048 states, k = 12), so
# loading pays from a few thousand states times letters on.  The CLI's
# path closures of up to 2000 states (k = 2) stay pure, as before, while
# `closure down` on D(12) or notU(12) (4096 states, k = 12 or 11) loads
# them (Python 3.11, 2 shared vCPUs).
LOAD_MIN_WORK = 4096

_backend = None  # the module whose kernels run, once loaded


def _load():
    global _backend, ACTIVE
    try:
        from . import _native as backend
    except ImportError:
        backend, ACTIVE = _kernels_py, "pure"
    else:
        ACTIVE = "compiled"
    _backend = backend
    return backend


def cone_closure(num_suffixes, k, nxt, eps_id, dom_masks, start, budget):
    """Minimal DFA of the upward closure of a finite word set: see
    _kernels_py.cone_closure, whose results every backend returns."""
    return (_backend or _load()).cone_closure(num_suffixes, k, nxt, eps_id, dom_masks,
                                              start, budget)


def subset_construction(n, k, succ, init_mask, budget, reduced=False):
    """Powerset construction: see _kernels_py.subset_construction, whose
    results every backend returns."""
    if _backend is None:
        cap = LOAD_MIN_WORK // k
        try:
            return _kernels_py.subset_construction(n, k, succ, init_mask, min(budget, cap),
                                                   reduced)
        except BudgetExceededError:
            if budget <= cap:
                raise
        _load()
    return _backend.subset_construction(n, k, succ, init_mask, budget, reduced)


def dfa_minimize(n, k, delta, initial, finals):
    """Canonical minimal partial DFA: see _kernels_py.dfa_minimize, whose
    results every backend returns."""
    backend = _backend
    if backend is None:
        backend = _kernels_py if n * k < LOAD_MIN_WORK else _load()
    return backend.dfa_minimize(n, k, delta, initial, finals)


def __getattr__(name):
    if name == "ACTIVE":
        _load()
        return ACTIVE
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
