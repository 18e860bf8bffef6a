"""Upward and downward interiors of regular languages.

The interior of L in a direction is the largest closed subset of L:

    up_interior(L)   = largest upward-closed subset  = Σ*∖↓(Σ*∖L)
    down_interior(L) = largest downward-closed subset = Σ*∖↑(Σ*∖L)

Both a duality pipeline (complement, opposite closure, complement) and a
direct antichain construction are provided, and they must agree.

The antichain construction generalises to preimages of substitutions.  A
substitution maps a word x = b_1 ... b_m over a target alphabet to the
language K_0 K_{b_1} ... K_{b_m}; the preimage automaton recognises
{x | sigma(x) ⊆ L}.  Its states are inclusion-minimal antichains of
powerset states (De Wulf, Doyen, Henzinger, Raskin, CAV 2006).  That is
what keeps the construction finite: the number of antichains over an
n-element universe is the Dedekind-style count psi(n) that
dedekind_count computes, so any interior DFA has fewer than psi(n)
states.  The search runs in the kernel layer, `kernels.antichain_preimage`:
pure in `_kernels_py`, where a state is a frozenset of the int bitmasks
of its members, and compiled in `_native.c`, where a state is the
ascending run of its members' ids in a table that numbers the masks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .core import (
    Alphabet,
    Dfa,
    Nfa,
    as_nfa,
    check_budget,
    complement,
    determinize,
    minimize,
    DEFAULT_BUDGET,
)
from .closures import closure_dfa
from . import kernels


@dataclass(frozen=True)
class SubstitutionSpec:
    """A substitution given by automata: sigma(b_1...b_m) = K_0 K_1 ... K_m.

    gamma is the target alphabet; k0 recognises sigma(epsilon) and ks[i]
    recognises the language substituted for the i-th target letter.  Each
    K automaton may be an NFA or a DFA and is stored as an NFA.  All the K
    automata share one source alphabet.
    """

    gamma: Alphabet
    k0: Nfa
    ks: tuple

    def __post_init__(self):
        object.__setattr__(self, "k0", as_nfa(self.k0))
        object.__setattr__(self, "ks", tuple(as_nfa(m) for m in self.ks))
        if len(self.ks) != self.gamma.k:
            raise InputError("need one substituted language per target letter")
        for m in self.ks:
            if m.alphabet != self.k0.alphabet:
                raise InputError("all substituted languages must share the source alphabet")

    @property
    def source(self):
        return self.k0.alphabet


def _sigma_star_nfa(alphabet):
    k = alphabet.k
    return Nfa(alphabet, 1, {(0, a, 0) for a in range(k)}, {0}, {0})


def _contains_letter_nfa(alphabet, i):
    # Sigma* b_i Sigma*
    k = alphabet.k
    trans = {(0, a, 0) for a in range(k)} | {(1, a, 1) for a in range(k)} | {(0, i, 1)}
    return Nfa(alphabet, 2, trans, {0}, {1})


def _epsilon_nfa(alphabet):
    return Nfa(alphabet, 1, (), {0}, {0})


def _letter_or_epsilon_nfa(alphabet, i):
    return Nfa(alphabet, 2, {(0, i, 1)}, {0}, {0, 1})


def _letter_nfa(alphabet, i):
    return Nfa(alphabet, 2, {(0, i, 1)}, {0}, {1})


def up_interior_spec(alphabet):
    """sigma(x) = all superwords of x: K_0 = Σ*, K_i = Σ* b_i Σ*."""
    return SubstitutionSpec(alphabet, _sigma_star_nfa(alphabet),
                            tuple(_contains_letter_nfa(alphabet, i) for i in range(alphabet.k)))


def down_interior_spec(alphabet):
    """sigma(x) = all subwords of x: K_0 = {ε}, K_i = {b_i, ε}."""
    return SubstitutionSpec(alphabet, _epsilon_nfa(alphabet),
                            tuple(_letter_or_epsilon_nfa(alphabet, i) for i in range(alphabet.k)))


def identity_substitution(alphabet):
    """sigma(x) = {x}: K_0 = {ε}, K_i = {b_i}."""
    return SubstitutionSpec(alphabet, _epsilon_nfa(alphabet),
                            tuple(_letter_nfa(alphabet, i) for i in range(alphabet.k)))


def substitution_preimage(a, spec, budget=DEFAULT_BUDGET):
    """DFA over spec.gamma recognising {x | sigma(x) ⊆ L(a)}.

    States are antichains of powerset states of `a`.  A state accepts when
    every member subset is accepting, so the empty antichain (no
    constraint on the word read so far) accepts everything, and any
    antichain containing the empty subset (a substituted word left no run
    alive) is the rejecting sink {∅}.  The search is the kernel
    `kernels.antichain_preimage` (compiled when the K automata have at
    most 64 states each, as the built-in specs do); its states are
    numbered under `budget`, and the result is minimised here.
    """
    check_budget(a, budget)
    a = as_nfa(a)
    if not isinstance(spec, SubstitutionSpec):
        raise InputError(f"expected a SubstitutionSpec, got {type(spec).__name__}")
    if a.alphabet != spec.source:
        raise InputError("automaton is not over the substitution's source alphabet")
    ks = [(m.n, m.succ_masks(), m.init_mask(), m.final_mask()) for m in (spec.k0,) + spec.ks]
    count, delta, finals = kernels.antichain_preimage(a.n, a.k, a.succ_masks(), a.init_mask(),
                                                      a.final_mask(), ks, budget)
    return minimize(Dfa._of_table(spec.gamma, count, delta, 0, finals))


def up_interior(a, method="antichain", budget=DEFAULT_BUDGET):
    """Minimal DFA of the largest upward-closed subset of L(a)."""
    return _interior(a, "up", method, budget)


def down_interior(a, method="antichain", budget=DEFAULT_BUDGET):
    """Minimal DFA of the largest downward-closed subset of L(a)."""
    return _interior(a, "down", method, budget)


def _interior(a, direction, method, budget):
    a = as_nfa(a)
    if method == "duality":
        comp = complement(determinize(a, budget))
        closed = closure_dfa(comp, "down" if direction == "up" else "up", budget)
        return minimize(complement(closed))
    if method == "antichain":
        spec = up_interior_spec(a.alphabet) if direction == "up" else down_interior_spec(a.alphabet)
        return substitution_preimage(a, spec, budget)
    raise InputError(f"unknown interior method {method!r} (want duality or antichain)")


def dedekind_count(n):
    """Number of antichains over the subsets of an n-element set (n <= 6).

    Counts the empty antichain, matching the sequence 2, 3, 6, 20, 168,
    7581, 7828354.  Brute force over the 2^(2^n) candidate families is
    avoided by branching on one lattice element at a time: an element is
    either excluded, or included and everything comparable to it excluded.
    """
    if not isinstance(n, int) or not 0 <= n <= 6:
        raise InputError("dedekind_count supports 0 <= n <= 6")
    size = 1 << n
    comparable = []
    for e in range(size):
        m = 0
        for f in range(size):
            inter = e & f
            if inter == e or inter == f:
                m |= 1 << f
        comparable.append(m)
    # Branch on extremal elements first: they are comparable to the most
    # others, so the inclusion branch prunes hardest.
    pick_order = sorted(range(size), key=lambda e: -comparable[e].bit_count())
    memo = {}

    def count(avail):
        if avail == 0:
            return 1
        cached = memo.get(avail)
        if cached is not None:
            return cached
        for e in pick_order:
            if avail >> e & 1:
                break
        r = count(avail & ~(1 << e)) + count(avail & ~comparable[e])
        memo[avail] = r
        return r

    return count((1 << size) - 1)
