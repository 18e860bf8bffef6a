"""Closure operators over the subword order.

The upward closure of L is every word containing some member of L as a
scattered subword; the downward closure is every subword of a member.  Both
are regular for any L and are produced here as epsilon-free NFAs on the same
state set, plus a canonical minimal DFA entry point with a fast path for
finite languages (where the generic powerset route can be exponentially
larger than the minimal DFA it eventually shrinks to).
"""

from __future__ import annotations

from itertools import chain

from .core import (DEFAULT_BUDGET, Dfa, Nfa, Word, as_nfa, check_budget, determinize,
                   empty_language_dfa, minimize, strong_components, trim)
from .errors import InputError
from .subwords import minimal_words
from . import kernels

# Cone fast-path limits: beyond these the generic route is used.
CONE_WORD_CAP = 64
CONE_SUFFIX_CAP = 2048
_CONE_STEP_CAP = 50_000


def up_closure(a):
    """NFA for all superwords: a self-loop on every letter at every state
    lets the run skip the inserted letters."""
    a = as_nfa(a)
    k = a.k
    succ = [m | 1 << (i // k) for i, m in enumerate(a.succ_masks())]
    return Nfa._of_masks(a.alphabet, a.n, succ, a.initial, a.final)


def down_closure(a):
    """NFA for all subwords, on the same states, without epsilon transitions.

    Deleting a letter is a silent move along any edge, so q steps on x to
    every x-successor of a state that q reaches, and q is final when it
    reaches a final state.  All states of one strongly connected component
    reach the same states, so their rows are one: the rows are built per
    component, in reverse topological order, each as the OR of its
    members' rows and of the rows of the components its edges enter.
    That is O((n + m)·k) bitmask ORs, with no triple set and no
    reachability set per state.
    """
    a = as_nfa(a)
    k = a.k
    succ = a.succ_masks()
    comps, comp_of, below = strong_components(a)
    rows = []
    co = []  # co[c]: component c reaches a final state
    for c, members in enumerate(comps):
        p = members[0]
        row = succ[p * k:p * k + k]
        for p in members[1:]:
            row = [m | m2 for m, m2 in zip(row, succ[p * k:p * k + k])]
        reaches = not a.final.isdisjoint(members)
        for d in below[c]:
            row = [m | m2 for m, m2 in zip(row, rows[d])]
            reaches = reaches or co[d]
        rows.append(row)
        co.append(reaches)
    table = tuple(chain.from_iterable(map(rows.__getitem__, comp_of)))
    final = [q for q, c in enumerate(comp_of) if co[c]]
    return Nfa._of_masks(a.alphabet, a.n, table, a.initial, final)


def closure_dfa(a, direction, budget=DEFAULT_BUDGET):
    """Canonical minimal DFA of the chosen closure.

    Equal to minimize(determinize(<closure NFA>)) in all cases.  For upward
    closures of small finite languages the minimal DFA is built directly as
    antichains of pending suffixes, which avoids materialising the powerset
    (the generic route can need far more subsets than the answer has states).
    """
    if direction not in ("up", "down"):
        raise InputError(f"direction must be 'up' or 'down', got {direction!r}")
    check_budget(a, budget)
    a = as_nfa(a)
    if direction == "up":
        words = _finite_language(a)
        if words is not None:
            return _cone_dfa(a.alphabet, words, budget)
        return minimize(determinize(up_closure(a), budget))
    return minimize(determinize(down_closure(a), budget))


def _finite_language(a):
    """The full word list when `a` is acyclic and small, else None."""
    t = trim(a)
    if t.n == 0:
        return []
    # acyclic: no state with a self-loop, and every component one state
    k = t.k
    if (any(m >> (i // k) & 1 for i, m in enumerate(t.succ_masks()))
            or len(strong_components(t)[0]) < t.n):
        return None
    succ = {}
    for p, x, q in t.transitions:
        succ.setdefault(p, []).append((x, q))
    words = set()
    steps = 0
    stack = [(q, ()) for q in sorted(t.initial)]
    while stack:
        q, path = stack.pop()
        steps += 1
        if steps > _CONE_STEP_CAP:
            return None
        if q in t.final:
            words.add(path)
            if len(words) > CONE_WORD_CAP:
                return None
        for x, r in succ.get(q, ()):
            stack.append((r, path + (x,)))
    if sum(len(w) + 1 for w in words) > CONE_SUFFIX_CAP:
        return None
    return [Word(t.alphabet, w) for w in sorted(words)]


def _cone_dfa(alphabet, words, budget):
    """Minimal DFA of the upward closure of a finite word list.

    States of the closure's minimal DFA correspond to antichains of the
    yet-unmatched suffixes of the generating words, keyed by suffix content;
    the kernel explores them in BFS order, so the result needs no minimize
    pass (asserted against the generic route in the tests).
    """
    gens = minimal_words(words)
    if not gens:
        return empty_language_dfa(alphabet)
    k = alphabet.k
    sid = {}
    for w in gens:
        for i in range(len(w.letters) + 1):
            s = w.letters[i:]
            if s not in sid:
                sid[s] = len(sid)
    num = len(sid)
    by_id = [None] * num
    for s, i in sid.items():
        by_id[i] = s
    nxt = [0] * (num * k)
    for s, i in sid.items():
        for x in range(k):
            nxt[i * k + x] = sid[s[1:]] if s and s[0] == x else i
    dom = [0] * num
    for i, s in enumerate(by_id):
        for j, v in enumerate(by_id):
            if i != j and v != s and kernels.is_subword(v, s):
                dom[i] |= 1 << j
    start = [sid[w.letters] for w in gens]
    n, delta, finals = kernels.cone_closure(num, k, nxt, sid[()], dom, start, budget)
    return Dfa(alphabet, n, delta, 0, finals)
