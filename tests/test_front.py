"""closure_dfa's compiled front end, core.strong_components and
kernels.closure_front in C, against its pure twin: the Tarjan of
core._strong_components and the composition of closures
(_finite_language, up_closure, _reduced_down_closure), on the same
kernels; and the build of `_native.c` with strict warnings and under
UBSan, where every compiled kernel meets its twin."""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subwordkit import (DEFAULT_BUDGET, BudgetExceededError, Dfa, Nfa, _kernels_py, auto_alphabet,
                        closure_dfa, gen_family, kernels)
from subwordkit.closures import CONE_SUFFIX_CAP, CONE_WORD_CAP, _CONE_STEP_CAP
from subwordkit.core import _strong_components, as_nfa, dfa_from_words, empty_language_dfa
from subwordkit.formats import serialize_automaton

from oracles import least_absent_subword, strong_components_naive
from strategies import dags, dfas, nfas, wide_nfas
from twins import (compiled_components, compiled_front, composed, construction_states, front_of,
                   pure_front)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The compiled front end needs the compiled kernels; where they cannot be
# built (no C compiler), closure_dfa runs its pure twin, which the other
# test files cover, and this module is skipped.
_native = pytest.importorskip("subwordkit._native", exc_type=ImportError)
assert kernels.ACTIVE == "compiled"  # closure_dfa takes the compiled route from here on

automata = st.one_of(nfas(), dags(max_states=90, back_edges=6), dfas(), wide_nfas())


@settings(max_examples=200, deadline=None)
@given(automata)
def test_compiled_components_are_the_pure_tarjans(a):
    assert tuple(compiled_components(a)) == _strong_components(as_nfa(a))


@settings(max_examples=150, deadline=None)
@given(st.one_of(dags(max_states=90, back_edges=6), nfas(max_states=12), dfas()))
def test_each_below_is_ascending_and_holds_the_components_entered(a):
    naive = strong_components_naive(a)
    of = {q: c for c in naive for q in c}
    entered = {c: set() for c in naive}
    for p, _, q in as_nfa(a).transitions:
        if of[p] != of[q]:
            entered[of[p]].add(of[q])
    for comps, _, below in (_strong_components(as_nfa(a)), compiled_components(a)):
        for i, b in enumerate(below):
            assert all(x < y for x, y in zip(b, b[1:]))
            assert {frozenset(comps[j]) for j in b} == entered[frozenset(comps[i])]


@settings(max_examples=300, deadline=None)
@given(automata, st.booleans())
def test_the_front_end_hands_the_kernels_what_the_pure_composition_does(a, up):
    assert compiled_front(a, up) == pure_front(a, up)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(st.one_of(nfas(), dfas()), st.sampled_from(["up", "down"])),
                 st.tuples(dags(max_states=90, back_edges=4), st.just("down"))))
def test_closure_dfa_needs_the_budget_of_the_pure_composition(case):
    # at the least budget both routes give the same DFA; one below, both
    # stop with the same error
    a, direction = case
    budget = construction_states(a, direction)
    assert closure_dfa(a, direction, budget) == composed(a, direction, budget)
    if budget > 1:
        stops = []
        for run in (closure_dfa, composed):
            with pytest.raises(BudgetExceededError) as e:
                run(a, direction, budget - 1)
            stops.append((e.value.what, e.value.budget))
        assert stops[0] == stops[1]


@settings(max_examples=150, deadline=None)
@given(dfas(), st.sampled_from(["up", "down"]))
@example(dfa_from_words(auto_alphabet(2), [(0, 1), (1,), (0, 0, 1)]), "up")  # the cone
@example(gen_family("U", 3), "up")  # the subset construction
def test_a_dfa_closes_as_its_nfa_does(d, direction):
    assert closure_dfa(d, direction) == closure_dfa(d.to_nfa(), direction)


@settings(max_examples=100, deadline=None)
@given(st.one_of(nfas(), dags(max_states=90, back_edges=4), wide_nfas(sizes=(65, 129))),
       st.booleans())
def test_subsets_over_the_front_ends_rows_are_the_pure_ones(a, up):
    f = front_of(a, up)
    if f.words is not None or not f.init:
        return
    masks, init, fin = f.rows.masks(), int(f.init), int(f.rows.fin)
    budget = 1 << 12
    try:
        delta, subsets = _kernels_py.subset_construction(a.n, a.k, masks, init, budget, f.reduced)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            _native.subset_construction(a.n, a.k, f.rows, f.init, budget, f.reduced)
        return
    got_delta, got = _native.subset_construction(a.n, a.k, f.rows, f.init, budget, f.reduced)
    assert list(_native._copy(got_delta.addr, "i", len(got_delta))) == list(delta)
    assert [got[i] for i in range(len(got))] == subsets
    assert list(got.finals) == [i for i, s in enumerate(subsets) if s & fin]


@pytest.mark.parametrize("a", [
    Nfa(auto_alphabet(2), 0, (), (), ()),
    Nfa(auto_alphabet(2), 3, {(0, 0, 1), (1, 1, 2)}, (), {2}),  # no initial state
    Nfa(auto_alphabet(2), 3, {(0, 0, 1), (1, 1, 1)}, {0}, ()),  # no final state
    Dfa(auto_alphabet(1), 1, {}, 0, ()),
    # more states than the reduction bound, against its edges, none initial
    Nfa(auto_alphabet(2), 70, {(q + 1, q % 2, q) for q in range(69)}, (), {0}),
], ids=["no states", "no initial", "no final", "empty DFA", "70 states no initial"])
@pytest.mark.parametrize("direction", ["up", "down"])
def test_empty_languages_close_to_the_empty_language(a, direction):
    assert compiled_front(a, direction == "up") == pure_front(a, direction == "up")
    assert closure_dfa(a, direction) == composed(a, direction, DEFAULT_BUDGET)
    assert closure_dfa(a, direction) == empty_language_dfa(a.alphabet)


def binary_words(count, length):
    return [tuple(int(b) for b in format(i, f"0{length}b")) for i in range(count)]


@pytest.mark.parametrize("words, cone", [
    (binary_words(CONE_WORD_CAP, 7), True),
    (binary_words(CONE_WORD_CAP + 1, 7), False),
    ([(0,) * (CONE_SUFFIX_CAP - 1)], True),  # suffixes: the word's length + 1
    ([(0,) * CONE_SUFFIX_CAP], False),
    # every word's suffixes count, not only the subword-minimal ones'
    ([(0,) * 1000, (0,) * (CONE_SUFFIX_CAP - 1002)], True),
    ([(0,) * 1000, (0,) * (CONE_SUFFIX_CAP - 1001)], False),
], ids=["word cap", "word cap + 1", "suffix cap", "suffix cap + 1", "two words at the suffix cap",
        "two words past it"])
def test_the_front_end_at_the_word_and_suffix_caps(words, cone):
    a = dfa_from_words(auto_alphabet(2), words)
    front = compiled_front(a, True)
    assert front == pure_front(a, True)
    assert (front[0] == "words") == cone
    assert closure_dfa(a, "up") == composed(a, "up", DEFAULT_BUDGET)


@pytest.mark.parametrize("extra", [0, 1], ids=["step cap", "step cap + 1"])
def test_the_front_end_at_the_step_cap(extra):
    # the search for the words steps once per path from an initial state:
    # here 1 + 1 + 78 + 78 * 640, all spelling aaa; an isolated initial
    # and final state adds one step, and the empty word
    assert 2 + 78 + 78 * 640 == _CONE_STEP_CAP
    layer_b, layer_c = range(2, 80), range(80, 720)
    trans = ({(0, 0, 1)} | {(1, 0, q) for q in layer_b}
             | {(p, 0, q) for p in layer_b for q in layer_c})
    more = {720} if extra else set()
    a = Nfa(auto_alphabet(1), 720 + extra, trans, {0} | more, set(layer_c) | more)
    front = compiled_front(a, True)
    assert front == pure_front(a, True)
    assert (front[0] == "words") == (not extra)
    assert closure_dfa(a, "up") == composed(a, "up", DEFAULT_BUDGET)


def test_the_source_builds_strictly_and_meets_its_twins_under_ubsan(tmp_path, monkeypatch):
    # -Werror makes a warning fail the build; under UBSan, undefined
    # behaviour in any kernel ends the child that runs them all against
    # their twins (tests/twins.py)
    cc = _native.compiler()
    flags = _native.FLAGS
    monkeypatch.setattr(_native, "FLAGS", (*flags, "-Wall", "-Wextra", "-Werror"))
    assert _native.load(str(tmp_path / "strict"), cc).closure_front
    ubsan = (*flags, "-fsanitize=undefined", "-fno-sanitize-recover=undefined")
    done = subprocess.run([sys.executable, os.path.join(HERE, "twins.py"), str(tmp_path / "ubsan"),
                           *ubsan], env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
    assert done.stdout.split() == ["ok"]


# Runs in a fresh interpreter: closes the automaton in the file argv[2]
# downwards (argv[1] "nfa" or "dfa", the parser) or decides whether its
# down-closure is universal ("universal"), and prints what closure_front
# returned (True for a Front), whether ctypes and the compiled kernels
# are loaded, and the result.
_ROUTE_CHILD = """
import json, sys
from subwordkit import (closure_dfa, down_universal, kernels, parse_automaton, parse_dfa,
                        serialize_automaton)
kind, path = sys.argv[1:]
fronts = []
front = kernels.closure_front
def traced(*args):
    f = front(*args)
    fronts.append(f is not None)
    return f
kernels.closure_front = traced
text = open(path).read()
if kind == "universal":
    c = down_universal(parse_automaton(text))
    out = [c.verdict, list(c.witness.letters)]
else:
    out = serialize_automaton(closure_dfa((parse_dfa if kind == "dfa" else parse_automaton)(text),
                                          "down"))
print(json.dumps([fronts, "ctypes" in sys.modules, "subwordkit._native" in sys.modules, out]))
"""


def route_in_child(tmp_path, kind, a):
    path = tmp_path / "in.aut"
    path.write_text(serialize_automaton(a))
    child = subprocess.run([sys.executable, "-c", _ROUTE_CHILD, kind, str(path)],
                           env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr[-4000:]
    return json.loads(child.stdout)


def two_letter_path(n):
    rng = random.Random(n)
    word = [rng.randrange(2) for _ in range(n - 1)]
    return word, Nfa(auto_alphabet(2), n, {(q, x, q + 1) for q, x in enumerate(word)}, {0},
                     {n - 1})


# The route follows the input: from LOAD_MIN_WORK states times letters on
# (a 2048-state path over two letters), the first component search loads
# the compiled kernels and closure_dfa's front end runs in C, whatever ran
# before in the process; one state less, nothing loads.
@pytest.mark.parametrize("n, kind, compiled", [(2048, "nfa", True), (2048, "dfa", True),
                                               (2047, "nfa", False)])
def test_a_fresh_process_closes_by_the_inputs_size(tmp_path, n, kind, compiled):
    assert 2048 * 2 == kernels.LOAD_MIN_WORK
    a = two_letter_path(n)[1]
    fronts, with_ctypes, loaded, out = route_in_child(tmp_path, kind, a)
    assert (fronts, with_ctypes, loaded) == ([compiled], compiled, compiled)
    assert out == serialize_automaton(composed(a, "down", DEFAULT_BUDGET))


def test_a_fresh_process_decides_a_large_down_universality_on_the_compiled_components(tmp_path):
    word, a = two_letter_path(2048)
    fronts, with_ctypes, loaded, out = route_in_child(tmp_path, "universal", a)
    assert (fronts, with_ctypes, loaded) == ([], True, True)
    assert out == [False, list(least_absent_subword(word, 2))]
