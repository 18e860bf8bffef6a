"""The kernel layer: every caller reaches the kernels through this module.

The kernels live in `_kernels_py`, in pure Python.  Four of them, the
cone closure, subset construction, the interiors' antichain search and
Hopcroft minimisation, also have a compiled form in `_native`
(`_native.c`, built on first use); the dispatchers here run it when it
loads and the pure one otherwise.  The pure ones stay the fallback and
the oracles they are tested against.  Callers look the five whole
algorithms up here at each call, as `kernels.<name>`, so that a tool can
rebind one name in this namespace to wrap every call of it.  The
powerset primitives run once per subset, too often to wrap: `rows`,
which gives a subset's k successor sets from one walk over its members,
is the one every powerset search steps with; `step`, one letter's
successor set, is only for reading one letter at a time; `bits` and
`maximal` list and shrink a subset, `minimal_masks` shrinks a set of
subsets to its inclusion-minimal members, and `minimal_words` a set of
words to its subword-minimal ones.

The cone closure takes its finite language as a list of letter tuples,
and builds everything else (the minimal words, their suffix ids and the
dominators) in the backend: the compiled one in C, so that a finite
up-closure is one kernel call.

closures.closure_dfa's front end, the work between an input automaton
and those kernels, is compiled too: `strong_components` takes the
input's own table across (a DFA's array as it is), and `closure_front`,
one call into C, finds the components from it and prepares the
closure, the finite language's words for the cone or the closure NFA's
rows for the subset construction.  What it prepares stays in C, and the
compiled cone, subset construction and minimisation take it as it is,
so that no subset becomes a Python int.  They have no pure form here:
until the compiled kernels are loaded they return None, and core and
closures compose the same steps in Python, the twin they are tested
against.

`explore` is the one loop that numbers the states of a construction: BFS
from the start state, letters in index order, at most `budget` states
(state number budget + 1 raises BudgetExceededError).  The pure kernels
and the constructions of `core` all number their states with it, and the
compiled kernels number theirs with its C twin, under the same rule.

`ACTIVE` names the backend of the four, "compiled" or "pure" (exported
as subwordkit.KERNEL_BACKEND).  The compiled kernels are loaded once, on
the first cone call, the first read of `ACTIVE`, or the first subset
construction, antichain search or minimisation that reaches
LOAD_MIN_WORK; never at import, and never by the front end, which only
runs once they are loaded.  Until then those three run pure, so a small
command loads nothing.
"""

from . import _kernels_py
from ._kernels_py import (bits, explore, is_subword, maximal, minimal_masks, minimal_words,
                          rows, step)
from .errors import BudgetExceededError

# Until the compiled kernels are loaded, a subset construction, an
# antichain search or a minimisation runs pure while its states times its
# letters stay below this bound: the two searches first run pure with
# their budget cut to LOAD_MIN_WORK // letters states, and only when that
# stops load the compiled kernels and start again there.  Loading them (ctypes, hashlib
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


def compiled():
    """Whether the compiled kernels are loaded; loads nothing."""
    return _backend is not None and _backend is not _kernels_py


def strong_components(n, k, delta, succ):
    """The strong components of the automaton with the DFA table `delta`
    or, when delta is None, the NFA table `succ`, in C: a
    `_native.Components`, which reads as core.strong_components' tuple.
    None until the compiled kernels are loaded, and with the pure ones:
    core.strong_components then runs its own Tarjan, the pure twin."""
    if not compiled():
        return None
    return _backend.strong_components(n, k, delta, succ)


def closure_front(components, initial, final, up, reduce_min, word_cap, suffix_cap, step_cap):
    """What closure_dfa hands the closure kernels, prepared in C, in one
    call, from the table of the `components` that strong_components
    returned: see _native.closure_front.  None for the tuple of the pure Tarjan, whose
    closure closures.closure_dfa composes in Python, the pure twin."""
    if not compiled() or not isinstance(components, _backend.Components):
        return None
    return _backend.closure_front(components, initial, final, up, reduce_min, word_cap,
                                  suffix_cap, step_cap)


def cone_closure(k, words, budget):
    """Minimal DFA of the upward closure of a finite language, given as
    letter tuples over k letters: see _kernels_py.cone_closure, whose
    results every backend returns."""
    return (_backend or _load()).cone_closure(k, words, budget)


def _gated(letters, budget, run):
    """run(backend, budget), on the compiled kernels once they are loaded.
    Until then, run pure with the budget cut to LOAD_MIN_WORK // letters
    states, and only when that stops load them and start again."""
    if _backend is None:
        cap = LOAD_MIN_WORK // letters
        try:
            return run(_kernels_py, min(budget, cap))
        except BudgetExceededError:
            if budget <= cap:
                raise
        _load()
    return run(_backend, budget)


def subset_construction(n, k, succ, init_mask, budget, reduced=False):
    """Powerset construction: see _kernels_py.subset_construction, whose
    results every backend returns."""
    return _gated(k, budget, lambda backend, budget: backend.subset_construction(
        n, k, succ, init_mask, budget, reduced))


def antichain_preimage(n, k, succ, init_mask, final_mask, ks, budget):
    """The interiors' antichain search: see _kernels_py.antichain_preimage,
    whose results every backend returns."""
    return _gated(len(ks) - 1, budget, lambda backend, budget: backend.antichain_preimage(
        n, k, succ, init_mask, final_mask, ks, budget))


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
