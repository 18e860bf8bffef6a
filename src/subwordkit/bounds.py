"""Lower-bound certificates: fooling sets and rank arguments.

A fooling set for L is a list of pairs (x_i, y_i) with every x_i y_i in L
and, for i != j, x_i y_j or x_j y_i outside L.  Any NFA for L needs at
least as many states as the fooling set has pairs.

For unambiguous NFAs the sharper bound comes from the rank of the 0/1
matrix M[i][j] = [x_i y_j in L]: a UFA needs at least rank(M) states, and
one more if no y_i is itself in L but the UFA's initial state is useful.
Ranks are computed exactly, by fraction-free integer elimination.

Cross-memberships are read off two state sets per pair rather than a run
per (i, j): fwd[i], the states an automaton reaches on x_i, and bwd[j],
the states from which y_j leads it to a final state.  x_i y_j is in L
exactly when fwd[i] & bwd[j] is nonzero, so F pairs cost 2F runs and F²
ANDs instead of F² runs over whole words.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import index

from .errors import InputError, VerificationError
from .core import Word, as_nfa
from .kernels import bits, step


@dataclass(frozen=True)
class FoolingSet:
    """Candidate fooling set: a tuple of (x, y) word pairs over one alphabet."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((x, y) for x, y in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise InputError("a fooling set needs at least one pair")
        alphabet = pairs[0][0].alphabet
        for x, y in pairs:
            if not isinstance(x, Word) or not isinstance(y, Word):
                raise InputError("fooling set entries must be Word pairs")
            if x.alphabet != alphabet or y.alphabet != alphabet:
                raise InputError("all fooling set words must share one alphabet")
        if len(set(pairs)) != len(pairs):
            raise InputError("fooling set pairs must be distinct")

    @property
    def alphabet(self):
        return self.pairs[0][0].alphabet

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


@dataclass(frozen=True)
class FoolingMatrix:
    """Square 0/1 matrix of cross-memberships M[i][j] = [x_i y_j in L]."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        m = len(rows)
        for row in rows:
            if len(row) != m:
                raise InputError("fooling matrix must be square")
            for v in row:
                if v not in (0, 1):
                    raise InputError("fooling matrix entries must be 0 or 1")

    @property
    def m(self):
        return len(self.entries)


def subsets_in_order(k):
    """All subsets of range(k) ordered by size, then lexicographically."""
    out = []
    for size in range(k + 1):
        out.extend(frozenset(c) for c in combinations(range(k), size))
    return out


def _cross_masks(a, pairs):
    """(fwd, bwd) of the NFA a for the word pairs (x_i, y_i): fwd[i], the
    states a reaches on x_i from its initial ones, and bwd[i], the states
    from which y_i leads to a final one, a run of the reversed table."""
    k = a.k
    succ = a.succ_masks()
    rev = [0] * len(succ)
    for i, m in enumerate(succ):
        p, x = divmod(i, k)
        for q in bits(m):
            rev[q * k + x] |= 1 << p
    fwd, bwd = [], []
    init, final = a.init_mask(), a.final_mask()
    for x, y in pairs:
        m = init
        for c in x.letters:
            m = step(succ, k, m, c)
        fwd.append(m)
        m = final
        for c in reversed(y.letters):
            m = step(rev, k, m, c)
        bwd.append(m)
    return fwd, bwd


def verify_fooling(l, s):
    """Check the fooling-set conditions of s against automaton l.

    Returns len(s) on success, which is then a lower bound on the number
    of states of any NFA for L(l).  Raises VerificationError naming the
    offending pair otherwise: the first diagonal pair (i, i) whose x_i y_i
    is outside the language, else the first pair (i, j), i < j in
    row-major order, with both x_i y_j and x_j y_i inside it.
    """
    a = as_nfa(l)
    if not isinstance(s, FoolingSet):
        s = FoolingSet(tuple(s))
    if s.alphabet != a.alphabet:
        raise VerificationError("fooling set alphabet does not match the automaton")
    fwd, bwd = _cross_masks(a, s.pairs)
    for i, (f, b) in enumerate(zip(fwd, bwd)):
        if not f & b:
            raise VerificationError(f"fooling pair ({i + 1},{i + 1}): x_i y_i is not in the language")
    for i, (fi, bi) in enumerate(zip(fwd, bwd)):
        for j in range(i + 1, len(fwd)):
            if fi & bwd[j] and fwd[j] & bi:
                raise VerificationError(
                    f"fooling pair ({i + 1},{j + 1}): both cross concatenations are in the language")
    return len(fwd)


def _fooling_masks(l, s):
    """(a, fwd, bwd): the NFA of l and the `_cross_masks` of the pair list s."""
    a = as_nfa(l)
    if not isinstance(s, FoolingSet):
        s = FoolingSet(tuple(s))
    if s.alphabet != a.alphabet:
        raise InputError("pair list alphabet does not match the automaton")
    return (a, *_cross_masks(a, s.pairs))


def _matrix(fwd, bwd):
    return FoolingMatrix(tuple(tuple(1 if f & b else 0 for b in bwd) for f in fwd))


def fooling_matrix(l, s):
    """Cross-membership matrix of a pair list against automaton l."""
    _, fwd, bwd = _fooling_masks(l, s)
    return _matrix(fwd, bwd)


def rational_rank(matrix):
    """Rank over the rationals of a FoolingMatrix or of any table of
    integer rows of equal length.

    Bareiss elimination: the step at pivot p replaces each lower row r by
    (p * r - r[col] * pivot row) / (previous pivot), a division that is
    exact, so every entry stays an integer minor of the input and no
    fraction is formed.
    """
    entries = matrix.entries if isinstance(matrix, FoolingMatrix) else tuple(matrix)
    try:
        rows = [[index(v) for v in row] for row in entries]
    except TypeError:
        raise InputError("rank needs a table of integer rows") from None
    if not rows:
        return 0
    m = len(rows)
    cols = len(rows[0])
    if any(len(row) != cols for row in rows):
        raise InputError("rank needs rows of equal length")
    rank = 0
    prev = 1
    for col in range(cols):
        pivot = next((r for r in range(rank, m) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rowp = rows[rank]
        p = rowp[col]
        for rowr in rows[rank + 1:]:
            f = rowr[col]
            rowr[col] = 0
            for c in range(col + 1, cols):
                rowr[c] = (p * rowr[c] - f * rowp[c]) // prev
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


def mx_matrix(n):
    """The 2^n x 2^n intersection matrix M_X[S][T] = [S ∩ T != ∅].

    Rows and columns are indexed by the subsets of an n-element set in
    canonical order (by size, then lexicographically).  Its rank is
    2^n - 1: the all-zero row for S = ∅ is the only defect.
    """
    if not isinstance(n, int) or not 1 <= n <= 6:
        raise InputError("mx_matrix supports 1 <= n <= 6")
    subsets = subsets_in_order(n)
    rows = tuple(
        tuple(1 if s & t else 0 for t in subsets)
        for s in subsets)
    return FoolingMatrix(rows)


def ufa_lower_bound(l, s, initial_excluded=False):
    """Rank lower bound on the size of any unambiguous NFA for L(l).

    The bound is rank(M) for M the cross-membership matrix of s.  With
    initial_excluded=True the bound is rank(M) + 1, which is only sound
    when no suffix y_i is itself in the language (so the initial state
    never doubles as a witness state); that side condition is checked.
    """
    a, fwd, bwd = _fooling_masks(l, s)
    r = rational_rank(_matrix(fwd, bwd))
    if not initial_excluded:
        return r
    init = a.init_mask()
    for i, b in enumerate(bwd):
        if b & init:
            raise VerificationError(
                f"initial_excluded unsound: suffix y_{i + 1} is in the language")
    return r + 1
