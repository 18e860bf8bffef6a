"""Decision procedures with certificates.

Every decision returns a Certificate whose witness field is populated
exactly when the verdict is negative:

    is_closed           witness = shortest word in closure(L) ∖ L
    dfa_closed_witness  witness = triple (u, a, v) of Words, |a| = 1
    closure_inclusion   witness = shortest word in closure(A) ∖ closure(B)
    closure_equal       witness = shortest word on the failing side
    down_universal      witness = shortest word outside the down-closure

Witness words are canonical: length-lexicographically least.  The triple
witness of dfa_closed_witness satisfies uv ∈ L and uav ∉ L for the up
direction (so L is not up-closed), and uv ∉ L, uav ∈ L for down; its
lengths obey |u| < n and |v| < n² for an n-state input DFA, since both
parts come out of breadth-first searches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, InputError, VerificationError
from .core import (
    DEFAULT_BUDGET,
    Dfa,
    Word,
    _usefulness,
    as_nfa,
    check_budget,
    complement,
    completed,
    sigma_star_dfa,
    strong_components,
)
from .closures import _check_direction, _reduced_down_closure, up_closure
from .kernels import maximal, rows


@dataclass(frozen=True)
class Certificate:
    verdict: bool
    witness: object = None

    def __post_init__(self):
        if self.verdict and self.witness is not None:
            raise InputError("a positive certificate carries no witness")
        if not self.verdict and self.witness is None:
            raise InputError("a negative certificate needs a witness")

    def __bool__(self):
        return self.verdict


def _closure_nfa(a, direction):
    """The closure NFA of `a` and whether its subsets are reduced (only a
    down closure on the reduced route of closures._reduced_down_closure)."""
    return (up_closure(a), False) if direction == "up" else _reduced_down_closure(a)


def shortest_in_difference(a, b, budget=DEFAULT_BUDGET):
    """Length-lex least word in L(a) ∖ L(b), or None if the difference is empty.

    Runs a breadth-first search over pairs of powerset states, built on
    the fly, so neither side is determinised up front.  Pairs are found
    in length-lex order of the words that reach them, each pair is kept
    with the first (least) such word, and the search stops at the first
    pair accepted by a and not by b; so the word returned is the least of
    the difference.
    """
    return _shortest_in_difference(a, b, budget, False, False)


def _shortest_in_difference(a, b, budget, areduced, breduced):
    """shortest_in_difference, with every subset that side a reaches
    replaced by its `kernels.maximal` part on a's own table when
    `areduced`, and likewise for b.

    The decisions below set the flag of a down-closure side that
    closures._reduced_down_closure reduces (inputs of more than
    REDUCE_MIN_STATES states): `maximal` keeps a subset's
    reachability-maximal members.  That is sound because in a down
    closure a state simulates every state it reaches, so a reduced pair
    has the language of the pair it replaces.  The witness stays the
    length-lex least: the breadth-first search keeps each pair's least
    access word, and the reduced pair inherits it.  A side steps to the
    same set from a subset and from its reduction, so the search meets
    no more pairs than without it and a budget that was enough before
    still is; the saving is in the rows ORed per subset, which fall from
    every member's to the kept members'.

    Each side's successors come from `rows`, one walk per subset for all
    k letters, memoised by subset for the length of one search: pairs
    share subsets, so a subset is walked (and its rows reduced) once
    however many pairs hold it.  The memo has no more entries than
    `parent` has pairs, and equal masks in it are one int object, so it
    holds k references per subset rather than k copies of wide masks
    (in `closure_equal` up of E(10) and its closure DFA, the traced
    peak falls from 6.0 to 3.5 MB with it).  It changes neither the
    pairs met, nor their order, nor their count.
    """
    check_budget(a, budget)
    check_budget(b, budget)
    a = as_nfa(a)
    b = as_nfa(b)
    _check_alphabets(a, b)
    k = a.k
    asucc = a.succ_masks()
    bsucc = b.succ_masks()
    afin = a.final_mask()
    bfin = b.final_mask()
    canon = {}  # one int object per mask value, for both sides

    def memo(succ, reduced):
        rows_of = {}

        def walk(mask):
            row = rows(succ, k, mask)
            if reduced:
                row = [maximal(succ, k, m) for m in row]
            rows_of[mask] = row = [canon.setdefault(m, m) for m in row]
            return row

        return rows_of, walk

    arows, awalk = memo(asucc, areduced)
    brows, bwalk = memo(bsucc, breduced)
    start = (maximal(asucc, k, a.init_mask()) if areduced else a.init_mask(),
             maximal(bsucc, k, b.init_mask()) if breduced else b.init_mask())
    if not start[0]:
        return None
    if start[0] & afin and not start[1] & bfin:
        return Word(a.alphabet, ())
    parent = {start: None}
    frontier = [start]
    count = 1
    while frontier:
        nxt = []
        for pair in frontier:
            am, bm = pair
            # a row list has k >= 1 entries, so a stored one is truthy
            arow = arows.get(am) or awalk(am)
            brow = brows.get(bm) or bwalk(bm)
            for x, am2 in enumerate(arow):
                if not am2:
                    continue
                key = (am2, brow[x])
                if key in parent:
                    continue
                parent[key] = (pair, x)
                count += 1
                if count > budget:
                    raise BudgetExceededError("difference product states", budget)
                if am2 & afin and not key[1] & bfin:
                    letters = []
                    cur = key
                    while parent[cur] is not None:
                        cur, x0 = parent[cur]
                        letters.append(x0)
                    return Word(a.alphabet, tuple(reversed(letters)))
                nxt.append(key)
        frontier = nxt
    return None


def _check_alphabets(a, b):
    if a.alphabet != b.alphabet:
        raise InputError("automata must share an alphabet")


def is_closed(a, direction, budget=DEFAULT_BUDGET):
    """Is L(a) up- or down-closed?  The closure always contains L, so this
    reduces to emptiness of closure(L) ∖ L."""
    check_budget(a, budget)
    _check_direction(direction)
    # a DFA is converted once, for both the closure and the search, but
    # its components are read off its own table
    nfa = as_nfa(a)
    if direction == "up":
        closure, reduced = up_closure(nfa), False
    else:
        closure, reduced = _reduced_down_closure(nfa, strong_components(a))
    w = _shortest_in_difference(closure, nfa, budget, reduced, False)
    return Certificate(w is None, w)


def dfa_closed_witness(d, direction):
    """Closedness of a DFA's language, with a structured counterexample.

    A DFA's language fails to be up-closed exactly when some insertion
    leaves it: uv ∈ L but uav ∉ L.  The down direction is decided on the
    complement, so there the triple satisfies uv ∉ L and uav ∈ L.  Among
    all violating triples the result is the least in the order of
    (|u| + |v|, |u|, u, a, v), words compared lexicographically.

    One breadth-first search runs over pairs of states of the completed
    (up) or complemented (down) DFA; a triple leads to the pair (state
    after uv, state after uav), and a pair is violating when its first
    state is final and its second is not.  Level L holds the pairs first
    reached with |u| + |v| = L, each with the triple that reached it.  It
    lists the successors of level L - 1 first, pair by pair and letter by
    letter (each appends one letter to v), then the pairs (p, p·a) of the
    states p whose least access word u has length L, in breadth-first
    order of p and then by a.  So, by induction, every level is in
    (|u|, u, a, v) order: a successor keeps its parent's place, and the
    pairs that start at level L have a longer u than those carried over.
    A pair reached again keeps its first triple, the lesser one, and its
    continuations from either triple are the same.  The first violating
    pair therefore carries the least violating triple.  Starting only from
    least access words loses nothing: putting the access word of its state
    in place of u gives a violating triple that is no larger.
    """
    if not isinstance(d, Dfa):
        raise InputError("dfa_closed_witness needs a Dfa")
    _check_direction(direction)
    base = completed(d) if direction == "up" else complement(d)
    k = base.k
    flat = base.delta_flat()
    final = base.final
    # the reachable states in breadth-first order, each with the length of
    # its least access word and the (state, letter) it is first reached by
    depth = {base.initial: 0}
    via = {}
    order = [base.initial]
    for p in order:
        for x in range(k):
            q = flat[p * k + x]
            if q not in depth:
                depth[q] = depth[p] + 1
                via[q] = (p, x)
                order.append(q)
    # parent[pair] = (the pair before it, last letter of v), or (None, a)
    # for the pair (p, p·a) that starts a triple
    parent = {}
    level = []
    starts = 0  # order[starts:] are the states that have not started triples
    length = 0
    while level or starts < len(order):
        found = [((flat[p * k + x], flat[q * k + x]), (p, q), x)
                 for p, q in level for x in range(k)]
        while starts < len(order) and depth[order[starts]] == length:
            p = order[starts]
            found.extend(((p, flat[p * k + x]), None, x) for x in range(k))
            starts += 1
        level = []
        for pair, prev, x in found:
            if pair in parent:
                continue
            parent[pair] = (prev, x)
            if pair[0] in final and pair[1] not in final:
                v = []
                while prev is not None:
                    v.append(x)
                    pair = prev
                    prev, x = parent[pair]
                u = []
                q = pair[0]
                while q in via:
                    q, y = via[q]
                    u.append(y)
                triple = (tuple(reversed(u)), (x,), tuple(reversed(v)))
                return Certificate(False, tuple(Word(d.alphabet, t) for t in triple))
            level.append(pair)
        length += 1
    return Certificate(True)


def closure_inclusion(a, b, direction, budget=DEFAULT_BUDGET):
    """Does closure(L(a)) ⊆ closure(L(b)) hold for the given direction?

    A negative certificate's witness is the shortest word of the
    difference.  For up its length is strictly below a's state count
    (pump a shortest accepted subword).  For down it is at most b's
    state count: the subset chain of the witness run is strictly
    decreasing, but it may bottom out at the empty set, which costs one
    extra letter over the strict bound one would get otherwise.
    """
    _check_operands(a, b, direction, budget)
    return _inclusion(a, b, direction, budget,
                      _closure_nfa(a, direction), _closure_nfa(b, direction))


def closure_equal(a, b, direction, budget=DEFAULT_BUDGET):
    """Closure equivalence; the witness names a word on the failing side.

    The same certificate as closure_inclusion(a, b) and, when that holds,
    closure_inclusion(b, a), but each closure NFA is built once and
    searched in both orders.
    """
    _check_operands(a, b, direction, budget)
    ca = _closure_nfa(a, direction)
    cb = _closure_nfa(b, direction)
    first = _inclusion(a, b, direction, budget, ca, cb)
    if not first.verdict:
        return first
    return _inclusion(b, a, direction, budget, cb, ca)


def _check_operands(a, b, direction, budget):
    """Every check of a binary decision that needs no closure."""
    check_budget(a, budget)
    check_budget(b, budget)
    _check_alphabets(a, b)
    _check_direction(direction)


def _inclusion(a, b, direction, budget, closure_a, closure_b):
    """closure_inclusion(a, b) from the (NFA, reduced) pairs of
    _closure_nfa for a and for b."""
    (ca, areduced), (cb, breduced) = closure_a, closure_b
    w = _shortest_in_difference(ca, cb, budget, areduced, breduced)
    if w is None:
        return Certificate(True)
    if direction == "up":
        assert a.n == 0 or len(w) < a.n, "shortest witness escaped its length bound"
    else:
        assert len(w) <= b.n, "shortest witness escaped its length bound"
    return Certificate(False, w)


def down_universal(a, budget=DEFAULT_BUDGET):
    """Is the down-closure of L(a) all of Σ*?

    Decided on the graph alone: the down-closure is universal iff some
    useful state q can, for every letter a, reach a transition labelled a
    and come back (then arbitrarily long words embed into words of L).
    Such a transition lies inside q's strongly connected component, so
    the test runs once per component: it must be useful (reachable from
    an initial state and reaching a final one, core._usefulness) and hold
    an internal transition for every letter.  The witness of a negative
    answer is the shortest word missing from the down-closure; its
    closure route reuses the components found here.
    """
    check_budget(a, budget)
    components = strong_components(a)
    a = as_nfa(a)
    k = a.k
    succ = a.succ_masks()
    fwd, co = _usefulness(a, components)
    for i, members in enumerate(components[0]):
        if not (fwd[i] and co[i]):
            continue
        inside = 0
        for p in members:
            inside |= 1 << p
        if all(any(succ[p * k + x] & inside for p in members) for x in range(k)):
            return Certificate(True)
    closure, reduced = _reduced_down_closure(a, components)
    w = _shortest_in_difference(sigma_star_dfa(a.alphabet), closure, budget, False, reduced)
    return Certificate(False, w)
