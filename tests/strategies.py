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
