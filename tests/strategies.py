"""Hypothesis strategies for random automata."""

from hypothesis import strategies as st

from subwordkit import Nfa, auto_alphabet


@st.composite
def nfas(draw, max_states=8, max_letters=3):
    """Random NFAs with up to max_states states over 1..max_letters letters.

    Cycles, self-loops, several (or no) initial states and states that no
    initial state reaches all occur, as does the zero-state NFA.
    """
    n = draw(st.integers(0, max_states))
    k = draw(st.integers(1, max_letters))
    if n == 0:
        return Nfa(auto_alphabet(k), 0, (), (), ())
    state = st.integers(0, n - 1)
    trans = draw(st.sets(st.tuples(state, st.integers(0, k - 1), state), max_size=3 * n))
    initial = draw(st.sets(state, max_size=3))
    final = draw(st.sets(state, max_size=n))
    return Nfa(auto_alphabet(k), n, trans, initial, final)
