"""The kernel layer: every caller reaches the kernels through this module.

The kernels live in `_kernels_py`, in pure Python.  The cone closure has
a second, compiled step, `_cone_c` (`_cone.c`, built on first use);
`cone_closure` here runs it when it loads and the pure one otherwise.
The pure one stays the fallback and the oracle it is tested against.
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
and the compiled cone numbers its states under the same rule.

`ACTIVE` names the cone's backend, "compiled" or "pure" (exported as
subwordkit.KERNEL_BACKEND).  The compiled step is loaded once, on the
first cone call or the first read of `ACTIVE`, never at import, so a
command that builds no cone loads nothing.
"""

from . import _kernels_py
from ._kernels_py import (bits, dfa_minimize, explore, is_subword, maximal, rows,
                          step, subset_construction)

_cone = None  # the backend's cone_closure, once loaded


def _load():
    global _cone, ACTIVE
    try:
        from . import _cone_c
    except ImportError:
        _cone, ACTIVE = _kernels_py.cone_closure, "pure"
    else:
        _cone, ACTIVE = _cone_c.cone_closure, "compiled"
    return _cone


def cone_closure(num_suffixes, k, nxt, eps_id, dom_masks, start, budget):
    """Minimal DFA of the upward closure of a finite word set: see
    _kernels_py.cone_closure, whose results every backend returns."""
    return (_cone or _load())(num_suffixes, k, nxt, eps_id, dom_masks, start, budget)


def __getattr__(name):
    if name == "ACTIVE":
        _load()
        return ACTIVE
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
