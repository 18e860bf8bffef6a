"""Hypothesis strategies for random automata."""

from hypothesis import strategies as st

from subwordkit import Dfa, Nfa, auto_alphabet


@st.composite
def nfas(draw, max_states=8, max_letters=3, k=None):
    """Random NFAs with up to max_states states over 1..max_letters letters
    (over k letters, when k is given).

    Cycles, self-loops, several (or no) initial states and states that no
    initial state reaches all occur, as does the zero-state NFA.
    """
    n = draw(st.integers(0, max_states))
    if k is None:
        k = draw(st.integers(1, max_letters))
    if n == 0:
        return Nfa(auto_alphabet(k), 0, (), (), ())
    state = st.integers(0, n - 1)
    trans = draw(st.sets(st.tuples(state, st.integers(0, k - 1), state), max_size=3 * n))
    initial = draw(st.sets(state, max_size=3))
    final = draw(st.sets(state, max_size=n))
    return Nfa(auto_alphabet(k), n, trans, initial, final)


@st.composite
def dags(draw, min_states=2, max_states=140, k=None, back_edges=0):
    """Random NFAs that are acyclic apart from self-loops and up to
    `back_edges` edges that go back, over k letters (1 to 3 when k is
    None).

    States are numbered in a shuffled order; each one after the first is
    entered from one of the twelve before it, so the first state reaches
    them all along a tree whose branches do not reach each other.  Extra
    forward edges and a few self-loops join branches, and each back edge
    goes at most twelve places back, closing a cycle where it lands on a
    branch that reaches it.  Sizes on both sides of
    closures.REDUCE_MIN_STATES occur, so inputs take both the reduced and
    the unreduced down-closure route.
    """
    n = draw(st.integers(min_states, max_states))
    if k is None:
        k = draw(st.integers(1, 3))
    order = draw(st.permutations(range(n)))
    letters = st.integers(0, k - 1)
    trans = {(order[draw(st.integers(max(0, j - 12), j - 1))], draw(letters), order[j])
             for j in range(1, n)}
    for _ in range(draw(st.integers(0, n // 3))):
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, min(n - 1, i + 12)))
        trans.add((order[i], draw(letters), order[j]))
    for q in draw(st.lists(st.sampled_from(order), max_size=3)):
        trans.add((q, draw(letters), q))
    for _ in range(draw(st.integers(0, back_edges))):
        j = draw(st.integers(1, n - 1))
        i = draw(st.integers(max(0, j - 12), j - 1))
        trans.add((order[j], draw(letters), order[i]))
    initial = draw(st.sets(st.sampled_from(order[:3]), min_size=1, max_size=2))
    final = draw(st.sets(st.sampled_from(order[n // 2:]), min_size=1, max_size=4))
    return Nfa(auto_alphabet(k), n, trans, initial, final)


@st.composite
def dfas(draw, max_states=6, max_letters=3):
    """Random partial DFAs with 1..max_states states over 1..max_letters
    letters.

    Missing edges, cycles, self-loops, unreachable states and any initial
    state occur; the final set may be empty.
    """
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, max_letters))
    state = st.integers(0, n - 1)
    delta = draw(st.dictionaries(st.tuples(state, st.integers(0, k - 1)), state))
    initial = draw(state)
    final = draw(st.sets(state, max_size=n))
    return Dfa(auto_alphabet(k), n, delta, initial, final)


@st.composite
def wide_nfas(draw, sizes=(63, 64, 65, 129, 200)):
    """Random NFAs with one of `sizes` states over 1 to 3 letters, whose
    state sets span 64-bit word boundaries.

    Each state has up to four edges, to any state, so that subsets hold
    members on both sides of a boundary, and some subset constructions
    outgrow any small budget; one or two initial states.
    """
    n = draw(st.sampled_from(sizes))
    k = draw(st.integers(1, 3))
    state = st.integers(0, n - 1)
    trans = set()
    for p in range(n):
        for _ in range(draw(st.integers(0, 4))):
            trans.add((p, draw(st.integers(0, k - 1)), draw(state)))
    initial = draw(st.sets(state, min_size=1, max_size=2))
    final = draw(st.sets(state, max_size=n // 4))
    return Nfa(auto_alphabet(k), n, trans, initial, final)


@st.composite
def copied_dfas(draw, max_core=12, max_copies=30):
    """Random partial DFAs of up to max_core * max_copies states, most of
    which minimisation merges: each state of a random core DFA is copied
    several times, and each copy's edge enters some copy of the core
    edge's target.  The final set is drawn, empty or every state; the
    initial state is any copy, so some copies are unreachable.
    """
    m = draw(st.integers(1, max_core))
    k = draw(st.integers(1, 3))
    copies = draw(st.integers(1, max_copies))
    core = draw(st.dictionaries(st.tuples(st.integers(0, m - 1), st.integers(0, k - 1)),
                                st.integers(0, m - 1)))
    finals = draw(st.sampled_from(["drawn", "none", "all"]))
    core_final = {"drawn": draw(st.sets(st.integers(0, m - 1))), "none": set(),
                  "all": set(range(m))}[finals]
    n = m * copies
    delta = {}
    for q in range(n):
        for a in range(k):
            t = core.get((q % m, a))
            if t is not None:
                delta[(q, a)] = t + m * draw(st.integers(0, copies - 1))
    initial = draw(st.integers(0, n - 1))
    final = {q for q in range(n) if q % m in core_final}
    return Dfa(auto_alphabet(k), n, delta, initial, final)


@st.composite
def cone_inputs(draw):
    """The arguments of kernels.cone_closure, budget left out: k and a
    finite language over k = 1 to 3 letters, as a list of letter tuples.

    Words end in one of a few shared tails, so that they share suffixes
    and some embed into others.  Duplicates, the empty word and the empty
    list occur.
    """
    k = draw(st.integers(1, 3))
    word = st.lists(st.integers(0, k - 1), max_size=5).map(tuple)
    tails = draw(st.lists(word, min_size=1, max_size=3))
    ends = st.tuples(word, st.sampled_from(tails)).map(lambda p: p[0] + p[1])
    words = draw(st.lists(ends, max_size=6))
    if words:
        words += draw(st.lists(st.sampled_from(words), max_size=2))
    return k, words
