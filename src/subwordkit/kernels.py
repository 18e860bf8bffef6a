"""The kernel layer: every caller reaches the kernels through this module.

The kernels themselves live in `_kernels_py`, their one implementation, in
pure Python.  Callers look the four whole algorithms up here at each call,
as `kernels.<name>`, so that a tool can rebind one name in this namespace
to wrap every call of it.  The powerset primitives `step`, `bits` and
`maximal` run once per subset and letter, too often to wrap.

`explore` is the one loop that numbers the states of a construction: BFS
from the start state, letters in index order, at most `budget` states
(state number budget + 1 raises BudgetExceededError).  The kernels and the
constructions of `core` and `interiors` all number their states with it.
"""

from ._kernels_py import (bits, cone_closure, dfa_minimize, explore, is_subword,
                          maximal, step, subset_construction)

# The kernel implementation in use, exported as subwordkit.KERNEL_BACKEND.
ACTIVE = "pure"
