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

from .core import (DEFAULT_BUDGET, Dfa, Nfa, _determinize, _usefulness, as_nfa,
                   check_budget, determinize, empty_language_dfa, minimize,
                   strong_components)
from .errors import InputError
from . import kernels

# Cone fast-path limits: beyond these the generic route is used.
CONE_WORD_CAP = 64
CONE_SUFFIX_CAP = 2048
_CONE_STEP_CAP = 50_000

# Down closures of inputs with more states than this reduce their subsets
# (see _reduced_down_closure).
REDUCE_MIN_STATES = 64


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
    return _down_closure(a, strong_components(a))


def _down_closure(a, components):
    """down_closure of the NFA `a`, given its strong_components(a)."""
    k = a.k
    succ = a.succ_masks()
    comps, comp_of, below = components
    rows = []
    for c, members in enumerate(comps):
        p = members[0]
        row = succ[p * k:p * k + k]
        for p in members[1:]:
            row = [m | m2 for m, m2 in zip(row, succ[p * k:p * k + k])]
        for d in below[c]:
            row = [m | m2 for m, m2 in zip(row, rows[d])]
        rows.append(row)
    co = _usefulness(a, components)[1]
    table = tuple(chain.from_iterable(map(rows.__getitem__, comp_of)))
    final = [q for q, c in enumerate(comp_of) if co[c]]
    return Nfa._of_masks(a.alphabet, a.n, table, a.initial, final)


def _reduced_down_closure(a, components=None):
    """The down-closure NFA of `a` and whether its subsets may be reduced
    to their `kernels.maximal` part: False for inputs of at most
    REDUCE_MIN_STATES states, True above.  `a` may be a Dfa;
    `components` is strong_components(a) when the caller already has it,
    else they are found from `a` as given, so that a DFA's table crosses
    to the compiled kernels as it is.

    A state q of a down-closure NFA simulates every state r it reaches:
    q's row contains r's row letter by letter, and q is final when r is.
    So a subset has the language of any of its parts that reaches all of
    it, and the subset construction and the product search of
    `shortest_in_difference` may replace every subset they make by its
    reachability-maximal members (`kernels.maximal`).  Doing so never
    makes a new subset: a dropped member's row lies inside the row of a
    member that reaches it, so a subset and its reduction step to the
    same set, and the reduced subsets are the reductions of the subsets
    the unreduced route makes.  Their count is at most the unreduced
    count (the traced `kernels.subset_construction.subsets` falls by
    design), and a budget that was enough before is still enough.  The
    results do not move: minimisation maps equal languages to byte-equal
    DFAs, and a breadth-first product search keeps each pair's least
    access word, while a reduced pair has the language of the pair it
    replaces, so the length-lex least witness is the same.

    `maximal` is sound in any numbering; the numbering sets how much it
    drops per iteration.  When no edge of `a` enters a lower state, the
    lowest member of a subset is reached by no other member, and one
    iteration per kept member clears the rest.  Otherwise `a` is first
    renumbered so that its strongly connected components come in
    topological order, each one's members contiguous: then the lowest
    member's reach (its own bit and the OR of its k rows, no table
    beyond the rows) covers the rest of its component and no other
    member reaches it.  The components are carried through the
    renumbering, not found again.  On a 2000-state path numbered against
    its edges, `closure_dfa` down took 2.5 s reduced on the input's own
    numbering, 0.68 s unreduced and 0.05 s renumbered.  Inputs already in
    order skip the renumbering, which took a transition-free
    1,000,000-state file 2 s on top of the closure's own 3 s.

    On small inputs the route costs more than it saves: taking it on
    every input made the 840 down operations of the `decisions` benchmark
    (seed 1), all on inputs of 5-16 states, 1.8x slower, median per
    operation, best of 7 (Python 3.11, 2 shared vCPUs).
    """
    if components is None:
        components = strong_components(a)
    a = as_nfa(a)
    n, k = a.n, a.k
    if n <= REDUCE_MIN_STATES:
        return _down_closure(a, components), False
    succ = a.succ_masks()
    if any(m and m >> (i // k) << (i // k) != m for i, m in enumerate(succ)):
        # components come sinks first; state q is numbered pos[q], and
        # order[j] is the state numbered j
        comps, comp_of, below = components
        order = list(chain.from_iterable(reversed(comps)))
        pos = [0] * n
        for j, q in enumerate(order):
            pos[q] = j
        renumbered = [0] * (n * k)
        for i, m in enumerate(succ):
            t = 0
            for q in kernels.bits(m):
                t |= 1 << pos[q]
            renumbered[pos[i // k] * k + i % k] = t
        a = Nfa._of_masks(a.alphabet, n, renumbered, map(pos.__getitem__, a.initial),
                          map(pos.__getitem__, a.final))
        components = ([[pos[q] for q in members] for members in comps],
                      list(map(comp_of.__getitem__, order)), below)
    return _down_closure(a, components), True


def _check_direction(direction):
    if direction not in ("up", "down"):
        raise InputError(f"unknown direction {direction!r} (want up or down)")


def closure_dfa(a, direction, budget=DEFAULT_BUDGET):
    """Canonical minimal DFA of the chosen closure.

    Equal to minimize(determinize(<closure NFA>)) in all cases.  For upward
    closures of small finite languages the minimal DFA is built directly as
    antichains of pending suffixes, which avoids materialising the powerset
    (the generic route can need far more subsets than the answer has states).
    Downward closures of inputs above REDUCE_MIN_STATES states determinise
    subsets reduced to their reachability-maximal states (see
    _reduced_down_closure).

    The input's components are found once (strong_components), which
    loads the compiled kernels for an input of kernels.LOAD_MIN_WORK
    states times letters or more.  On compiled components, which only
    take the input's table across, one call into C (kernels.closure_front)
    finds the components and runs the rest of the front end: the
    usefulness of each component, the finite-language check and its words
    under the cone caps, or the closure NFA's rows, initial and final
    sets.  Its result goes to the cone, or to the subset construction and
    then Hopcroft, as tables that C holds: no subset becomes a Python int,
    and a DFA input is read from its own table.  On the pure Tarjan's
    components, that is with the pure kernels or for a smaller input
    before anything has loaded them, closure_front returns None and the
    same steps run in Python (_composed_closure_dfa), to the same kernel
    calls.
    """
    _check_direction(direction)
    check_budget(a, budget)
    up = direction == "up"
    components = strong_components(a)
    initial = (a.initial,) if isinstance(a, Dfa) else a.initial
    front = kernels.closure_front(components, initial, a.final, up, REDUCE_MIN_STATES,
                                  CONE_WORD_CAP, CONE_SUFFIX_CAP, _CONE_STEP_CAP)
    if front is None:
        return _composed_closure_dfa(as_nfa(a), up, budget, components)
    if front.words is not None:
        return _cone_dfa(a.alphabet, front.words, budget)
    if not front.init:
        return minimize(empty_language_dfa(a.alphabet))
    delta, subsets = kernels.subset_construction(a.n, a.k, front.rows, front.init, budget,
                                                 front.reduced)
    n, delta, finals = kernels.dfa_minimize(len(subsets), a.k, delta, 0, subsets.finals)
    return Dfa._of_table(a.alphabet, n, delta, 0, finals)


def _composed_closure_dfa(a, up, budget, components):
    """closure_dfa of the NFA `a`, with the components strong_components(a),
    composed in Python: the compiled front end's twin."""
    if up:
        words = _finite_language(a, components)
        if words is not None:
            return _cone_dfa(a.alphabet, words, budget)
        return minimize(determinize(up_closure(a), budget))
    closure, reduced = _reduced_down_closure(a, components)
    return minimize(_determinize(closure, budget, reduced)[0])


def _finite_language(a, components):
    """The full word list, as sorted letter tuples, when the NFA `a`, with
    the components strong_components(a), has a finite language and the
    cone caps allow, else None.

    The language is finite iff every useful component (see
    core._usefulness) is one state without a self-loop.  The words are
    enumerated by a depth-first search over the useful states only, from
    the useful initial states in ascending order, so it visits the same
    paths in the same order as on trim(a).
    """
    k = a.k
    succ = a.succ_masks()
    fwd, co = _usefulness(a, components)
    useful = set()
    for c, members in enumerate(components[0]):
        if fwd[c] and co[c]:
            q = members[0]
            if len(members) > 1 or any(m >> q & 1 for m in succ[q * k:q * k + k]):
                return None
            useful.add(q)
    if not useful:
        return []
    # each useful state's (letter, useful target) edges, read off the table once
    out = {q: [(x, r) for x in range(k) for r in kernels.bits(succ[q * k + x]) if r in useful]
           for q in useful}
    words = set()
    steps = 0
    stack = [(q, ()) for q in sorted(a.initial & useful)]
    while stack:
        q, path = stack.pop()
        steps += 1
        if steps > _CONE_STEP_CAP:
            return None
        if q in a.final:
            words.add(path)
            if len(words) > CONE_WORD_CAP:
                return None
        for x, r in out[q]:
            stack.append((r, path + (x,)))
    if sum(len(w) + 1 for w in words) > CONE_SUFFIX_CAP:
        return None
    return sorted(words)


def _cone_dfa(alphabet, words, budget):
    """Minimal DFA of the upward closure of a finite list of letter tuples,
    built by the cone kernel (see _kernels_py.cone_closure) as antichains
    of pending suffixes; the empty language loads no kernel."""
    if not words:
        return empty_language_dfa(alphabet)
    n, delta, finals = kernels.cone_closure(alphabet.k, words, budget)
    return Dfa._of_table(alphabet, n, delta, 0, finals)
