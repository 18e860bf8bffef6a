"""The kernel layer: every caller reaches the kernels through this module.

The kernels themselves live in `_kernels_py`, their one implementation, in
pure Python.  Callers look the four whole algorithms up here at each call,
as `kernels.<name>`, so that a tool can rebind one name in this namespace
to wrap every call of it.  The powerset primitives run once per subset,
too often to wrap: `rows`, which gives a subset's k successor sets from
one walk over its members, is the one every powerset search steps with;
`step`, one letter's successor set, is only for reading one letter at a
time; `bits` and `maximal` list and shrink a subset.

`explore` is the one loop that numbers the states of a construction: BFS
from the start state, letters in index order, at most `budget` states
(state number budget + 1 raises BudgetExceededError).  The kernels and the
constructions of `core` and `interiors` all number their states with it.
"""

from ._kernels_py import (bits, cone_closure, dfa_minimize, explore, is_subword,
                          maximal, rows, step, subset_construction)

# The kernel implementation in use, exported as subwordkit.KERNEL_BACKEND.
ACTIVE = "pure"
