import copy
import inspect
import random
from array import array
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subwordkit
from subwordkit import (
    Alphabet, BudgetExceededError, DEFAULT_BUDGET, Dfa, InputError, Nfa, Word, accepts,
    as_nfa, auto_alphabet, canonical_dfa, closure_dfa, complement, completed, determinize,
    determinize_subsets, dfa_from_words, down_interior, empty_language_dfa,
    enumerate_upto, equivalent, gen_family, intersect, is_unambiguous, map_symbols,
    minimize, serialize_automaton, sigma_star_dfa, trim, up_interior,
)
from subwordkit.closures import down_closure
from subwordkit.core import strong_components
from subwordkit.experiments import EXPERIMENTS, random_dfa, random_nfa
from subwordkit import kernels
from subwordkit.kernels import explore, rows, step

from oracles import (
    accepts_naive, all_words, count_accepting_runs, language_upto,
    minimal_dfa_size, strong_components_naive, useful_states_naive,
)
from strategies import dags, nfas


def test_alphabet_basics():
    ab = Alphabet(("a", "b", "c"))
    assert ab.k == 3
    assert ab.index("b") == 1
    assert ab.word("a", "c").letters == (0, 2)
    assert ab.word_of((2, 0)).names() == ("c", "a")


def test_alphabet_rejects_duplicates_and_unknowns():
    with pytest.raises(InputError):
        Alphabet(("a", "a"))
    with pytest.raises(InputError):
        Alphabet(("a", "b")).index("c")


def test_auto_alphabet_names():
    assert auto_alphabet(3).symbols == ("a1", "a2", "a3")
    assert auto_alphabet(2, prefix="x").symbols == ("x1", "x2")


def test_word_operations():
    ab = auto_alphabet(2)
    w = Word(ab, (0, 1, 0))
    assert len(w) == 3
    assert list(w) == [0, 1, 0]
    assert (w + Word(ab, (1,))).letters == (0, 1, 0, 1)
    assert (w * 2).letters == (0, 1, 0, 0, 1, 0)
    assert w.count(0) == 2
    assert str(w) == "a1 a2 a1"
    assert str(Word(ab, ())) == "ε"


def test_word_validation():
    ab = auto_alphabet(2)
    with pytest.raises(InputError):
        Word(ab, (0, 2))
    with pytest.raises(InputError):
        Word(ab, (-1,))


def test_nfa_validation():
    ab = auto_alphabet(2)
    with pytest.raises(InputError):
        Nfa(ab, 2, {(0, 0, 2)}, {0}, {1})
    with pytest.raises(InputError):
        Nfa(ab, 2, {(0, 2, 1)}, {0}, {1})
    with pytest.raises(InputError):
        Nfa(ab, 1, set(), {1}, set())


@settings(max_examples=200, deadline=None)
@given(nfas())
def test_nfa_from_masks_equals_nfa_from_triples(a):
    b = Nfa._of_masks(a.alphabet, a.n, a.succ_masks(), a.initial, a.final)
    assert serialize_automaton(a) == serialize_automaton(b)
    assert b.transitions == a.transitions
    assert b.transitions_sorted() == sorted(a.transitions)
    assert a == b and hash(a) == hash(b)
    c = Nfa(a.alphabet, a.n, b.transitions, a.initial, a.final)
    assert c == b and hash(c) == hash(b)
    assert copy.deepcopy(b) == a
    if a.n:
        extra = (0, 0, a.n - 1)
        other = Nfa(a.alphabet, a.n, a.transitions ^ {extra}, a.initial, a.final)
        assert other != b


def test_nfa_is_immutable_and_dfa_converts_to_equal_masks():
    rng = random.Random(3)
    for _ in range(50):
        d = random_dfa(rng, rng.randint(1, 8), rng.randint(1, 3))
        a = d.to_nfa()
        b = Nfa(d.alphabet, d.n, set(d.transitions()), {d.initial}, d.final)
        assert a == b and hash(a) == hash(b)
        assert a.transitions == b.transitions
    with pytest.raises(FrozenInstanceError):
        a.n = 3
    with pytest.raises(FrozenInstanceError):
        a.transitions = frozenset()
    with pytest.raises(FrozenInstanceError):
        del a.final


@settings(max_examples=200, deadline=None)
@given(nfas())
def test_strong_components_match_mutual_reachability(a):
    comps, comp_of, below = strong_components(a)
    assert {frozenset(c) for c in comps} == strong_components_naive(a)
    assert all(comp_of[q] == i for i, c in enumerate(comps) for q in c)
    entered = [set() for _ in comps]
    for p, _, q in a.transitions:
        if comp_of[p] != comp_of[q]:
            entered[comp_of[p]].add(comp_of[q])
    assert [set(b) for b in below] == entered
    assert all(j < i for i, b in enumerate(below) for j in b)


@settings(max_examples=100, deadline=None)
@given(st.one_of(dags(max_states=90, back_edges=6), nfas(max_states=12)))
def test_strong_components_enter_the_naive_components_below_them(a):
    # below[i] lists each component that an edge from component i enters,
    # by the naive components, once, and all of them come before i
    comps, comp_of, below = strong_components(a)
    naive = strong_components_naive(a)
    of = {q: c for c in naive for q in c}
    entered = {c: set() for c in naive}
    for p, _, q in a.transitions:
        if of[p] != of[q]:
            entered[of[p]].add(of[q])
    assert {frozenset(c) for c in comps} == naive
    for i, b in enumerate(below):
        assert all(j < i for j in b)
        assert len(set(b)) == len(b)
        assert {frozenset(comps[j]) for j in b} == entered[frozenset(comps[i])]


def test_strong_components_of_a_long_path_need_no_recursion():
    n = 5000
    a = Nfa(auto_alphabet(2), n, {(i, i % 2, i + 1) for i in range(n - 1)}, {0}, {n - 1})
    comps, comp_of, below = strong_components(a)
    assert comps == [[q] for q in reversed(range(n))]
    assert below == [()] + [(i - 1,) for i in range(1, n)]
    d = down_closure(a)
    assert d.final == frozenset(range(n))
    assert d.succ_masks()[0] == sum(1 << (i + 1) for i in range(0, n - 1, 2))


def test_dfa_construction_mapping_and_flat():
    ab = auto_alphabet(2)
    d1 = Dfa(ab, 2, {(0, 0): 1, (1, 1): 0}, 0, (1,))
    d2 = Dfa(ab, 2, [1, -1, -1, 0], 0, (1,))
    assert d1 == d2
    assert hash(d1) == hash(d2)
    assert d1.delta(0, 0) == 1
    assert d1.delta(0, 1) is None
    assert list(d1.transitions()) == [(0, 0, 1), (1, 1, 0)]
    assert d1.num_transitions() == 2
    assert not d1.is_complete()


def test_dfa_validation():
    ab = auto_alphabet(2)
    with pytest.raises(InputError):
        Dfa(ab, 0, {}, 0, ())
    with pytest.raises(InputError):
        Dfa(ab, 2, {(0, 0): 2}, 0, ())
    with pytest.raises(InputError):
        Dfa(ab, 2, {}, 2, ())
    with pytest.raises(InputError):
        Dfa(ab, 2, [0], 0, ())


def test_dfa_of_a_kernel_table_equals_the_checked_constructor():
    # Dfa._of_table takes a kernel's table unchecked; Dfa(...) checks and
    # copies the same table to an equal DFA
    for a in (gen_family("D", 5), gen_family("notU", 4), down_closure(gen_family("E", 4))):
        d = determinize(a)
        n, delta, finals = kernels.dfa_minimize(d.n, d.k, d.delta_flat(), d.initial,
                                                sorted(d.final))
        fast = Dfa._of_table(d.alphabet, n, delta, 0, finals)
        checked = Dfa(d.alphabet, n, delta, 0, finals)
        assert fast == checked and hash(fast) == hash(checked)
        assert fast.delta_flat() is delta
        assert checked.delta_flat() is not delta
    empty = Dfa._of_table(auto_alphabet(2), 1, [-1, -1], 0, [])
    assert empty == empty_language_dfa(auto_alphabet(2))


def test_dfa_rejects_an_out_of_range_target_in_a_flat_table():
    ab = auto_alphabet(2)
    for bad in (2, -2):
        with pytest.raises(InputError, match="out of range"):
            Dfa(ab, 2, array("i", [1, bad, -1, 0]), 0, (1,))


def test_as_nfa_passthrough_and_conversion():
    ab = auto_alphabet(2)
    d = Dfa(ab, 2, {(0, 0): 1}, 0, (1,))
    a = as_nfa(d)
    assert isinstance(a, Nfa)
    assert a.initial == frozenset([0])
    assert a.transitions == frozenset([(0, 0, 1)])
    assert as_nfa(a) is a


def test_sigma_star_and_empty_language():
    ab = auto_alphabet(2)
    full = sigma_star_dfa(ab)
    assert full.n == 1 and full.is_complete() and 0 in full.final
    none = empty_language_dfa(ab)
    assert none.n == 1 and not none.final
    assert accepts(full, Word(ab, (0, 1))) and not accepts(none, Word(ab, ()))


def test_dfa_from_words_accepts_exactly_the_given_words():
    ab = auto_alphabet(2)
    words = [Word(ab, t) for t in [(), (0, 1), (0, 0, 1), (1,)]]
    d = dfa_from_words(ab, words)
    want = {t.letters for t in words}
    got = {w.letters for w in all_words(ab, 4) if accepts(d, w)}
    assert got == want


def test_accepts_matches_naive_simulation():
    rng = random.Random(11)
    for _ in range(150):
        a = random_nfa(rng, rng.randint(1, 6), 2)
        for w in all_words(a.alphabet, 3):
            assert accepts(a, w) == accepts_naive(a, w)


def test_accepts_rejects_letter_indices_out_of_range():
    # Letter 2 of a two-letter alphabet would read state 1's row for
    # letter 0 in the flat tables, and accept.
    a = Nfa(auto_alphabet(2), 3, {(0, 0, 1), (1, 0, 2)}, {0}, {2})
    d = Dfa(auto_alphabet(2), 3, {(0, 0): 1, (1, 0): 2}, 0, {2})
    for m in (a, d):
        assert accepts(m, [0, 0])
        for w in ([2], [0, -1], [0, 0, 5], ["a1"]):
            with pytest.raises(InputError):
                accepts(m, w)


def _random_nfa_from_triples(rng, n, k, density=0.18, single_initial=False):
    # random_nfa as it was written once: the same draws, kept as triples
    trans = set()
    for p in range(n):
        for x in range(k):
            for q in range(n):
                if rng.random() < density:
                    trans.add((p, x, q))
    if single_initial:
        initial = {rng.randrange(n)}
    else:
        initial = {q for q in range(n) if rng.random() < 0.3} or {rng.randrange(n)}
    final = {q for q in range(n) if rng.random() < 0.3} or {rng.randrange(n)}
    return Nfa(auto_alphabet(k), n, trans, initial, final)


def test_random_nfa_draws_what_the_triples_drew():
    for seed in range(60):
        n, k = 1 + seed % 9, 1 + seed % 3
        density = (0.06, 0.18, 0.3)[seed % 3]
        single = seed % 2 == 0
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        new = random_nfa(new_rng, n, k, density, single)
        old = _random_nfa_from_triples(old_rng, n, k, density, single)
        assert new == old and hash(new) == hash(old)
        assert serialize_automaton(new) == serialize_automaton(old)
        assert new_rng.random() == old_rng.random()


@settings(max_examples=150, deadline=None)
@given(nfas(max_states=10, max_letters=4), st.data())
def test_rows_is_every_letter_of_step(a, data):
    succ = a.succ_masks()
    mask = data.draw(st.integers(0, (1 << a.n) - 1))
    assert rows(succ, a.k, mask) == [step(succ, a.k, mask, x) for x in range(a.k)]


def test_determinize_preserves_language():
    rng = random.Random(12)
    for _ in range(80):
        a = random_nfa(rng, rng.randint(1, 5), 2)
        d = determinize(a)
        for w in all_words(a.alphabet, 4):
            assert accepts(d, w) == accepts_naive(a, w)


def test_determinize_subsets_labels_are_consistent():
    rng = random.Random(13)
    for _ in range(40):
        a = random_nfa(rng, rng.randint(1, 5), 2)
        d, subsets = determinize_subsets(a)
        assert len(subsets) == d.n
        assert subsets[d.initial] == frozenset(a.initial)
        for q in range(d.n):
            assert (q in d.final) == bool(subsets[q] & a.final)
            for x in range(a.k):
                t = d.delta(q, x)
                moved = frozenset(r for p, y, r in a.transitions
                                  if y == x and p in subsets[q])
                if t is None:
                    assert not moved
                else:
                    assert subsets[t] == moved


def test_determinize_budget():
    # the down-closure NFA of D(9) needs 2^9 = 512 subsets
    from subwordkit import down_closure, gen_family
    a = down_closure(gen_family("D", 9))
    with pytest.raises(BudgetExceededError):
        determinize(a, budget=500)
    assert determinize(a, budget=2048).n >= 512


def test_determinize_checks_the_input_size_first():
    a = Nfa(auto_alphabet(2), 101, (), {0}, {0})
    with pytest.raises(BudgetExceededError) as exc:
        determinize(a, budget=100)
    assert exc.value.what == "input states"
    assert determinize(a, budget=101).n == 1
    for budget in (0, -5):
        with pytest.raises(InputError):
            determinize(a, budget=budget)


def test_explore_numbers_in_bfs_letter_order_within_the_budget():
    graph = {"r": ("b", "a"), "a": ("x", "r"), "b": ("c", "x"), "c": ("a", "c")}
    expanded = []

    def successors(state):
        expanded.append(state)
        return graph[state]

    states, delta = explore("r", successors, 4, "test states", missing="x")
    assert states == ["r", "b", "a", "c"]
    assert list(delta) == [1, 2, 3, -1, -1, 0, 2, 3]
    assert expanded == states
    with pytest.raises(BudgetExceededError) as exc:
        explore("r", graph.__getitem__, 3, "test states", missing="x")
    assert (exc.value.what, exc.value.budget) == ("test states", 3)
    # without `missing`, None is the missing edge
    states, delta = explore(0, lambda s: [s + 1 if s < 2 else None], 3, "test states")
    assert states == [0, 1, 2] and list(delta) == [1, 2, -1]


# Each construction holds exactly `count` states: that budget is enough, one
# less stops it with the construction's own label.
BUDGET_CASES = [
    # the down-closure NFA of D(6) has 2^6 reachable subsets
    ("determinize", lambda b: determinize(down_closure(gen_family("D", 6)), b),
     64, "determinization subset states"),
    # E(5) is finite, so its up-closure takes the cone route: 2^5 + 1 states
    ("closure up", lambda b: closure_dfa(gen_family("E", 5), "up", b),
     33, "closure antichain states"),
    ("closure down", lambda b: closure_dfa(gen_family("D", 5), "down", b),
     32, "determinization subset states"),
    ("up interior", lambda b: up_interior(gen_family("upIntWitness", 7), "antichain", b),
     9, "interior antichain states"),
    ("down interior", lambda b: down_interior(gen_family("upIntWitness", 7), "antichain", b),
     20, "interior antichain states"),
]


@pytest.mark.parametrize("build, count, what", [case[1:] for case in BUDGET_CASES],
                         ids=[case[0] for case in BUDGET_CASES])
def test_budget_admits_exactly_the_state_count(build, count, what):
    build(count)
    with pytest.raises(BudgetExceededError) as exc:
        build(count - 1)
    assert (exc.value.what, exc.value.budget) == (what, count - 1)


def test_every_budget_defaults_to_the_one_default():
    budgets = {name: inspect.signature(fn).parameters["budget"].default
               for name, fn in inspect.getmembers(subwordkit, inspect.isfunction)
               if name in subwordkit.__all__ and "budget" in inspect.signature(fn).parameters}
    assert {"enumerate_upto", "substitution_preimage", "up_interior"} <= set(budgets)
    assert budgets == dict.fromkeys(budgets, DEFAULT_BUDGET)
    runners = {exp_id: inspect.signature(runner).parameters["budget"].default
               for exp_id, (_, runner) in EXPERIMENTS.items()
               if "budget" in inspect.signature(runner).parameters}
    # the twoLetter(4) cone needs more than the default
    assert runners.pop("two-letter-binomial") == 1 << 22
    assert runners and runners == dict.fromkeys(runners, DEFAULT_BUDGET)


def test_minimize_size_matches_moore_oracle():
    rng = random.Random(14)
    for _ in range(250):
        d = random_dfa(rng, rng.randint(1, 9), rng.randint(1, 3))
        assert minimize(d).n == minimal_dfa_size(d)


def test_minimize_preserves_language():
    rng = random.Random(15)
    for _ in range(100):
        d = random_dfa(rng, rng.randint(1, 8), 2)
        m = minimize(d)
        for w in all_words(d.alphabet, 4):
            assert accepts(m, w) == accepts(d, w)


def test_minimize_is_canonical_under_state_permutation():
    rng = random.Random(16)
    for _ in range(60):
        d = random_dfa(rng, rng.randint(2, 7), 2)
        perm = list(range(d.n))
        rng.shuffle(perm)
        delta = {(perm[p], x): perm[q] for p, x, q in d.transitions()}
        shuffled = Dfa(d.alphabet, d.n, delta, perm[d.initial],
                       tuple(perm[q] for q in d.final))
        assert minimize(d) == minimize(shuffled)


def test_minimize_idempotent():
    rng = random.Random(17)
    for _ in range(60):
        d = random_dfa(rng, rng.randint(1, 7), 2)
        m = minimize(d)
        assert minimize(m) == m


def test_minimize_empty_language_convention():
    ab = auto_alphabet(2)
    d = Dfa(ab, 3, {(0, 0): 1, (1, 1): 2}, 0, ())
    m = minimize(d)
    assert m.n == 1 and not m.final and m.num_transitions() == 0


def test_canonical_dfa_equals_minimize_of_determinize():
    rng = random.Random(18)
    for _ in range(60):
        a = random_nfa(rng, rng.randint(1, 5), 2)
        assert canonical_dfa(a) == minimize(determinize(a))


def test_completed_adds_sink_only_when_needed():
    ab = auto_alphabet(2)
    partial = Dfa(ab, 1, {(0, 0): 0}, 0, (0,))
    c = completed(partial)
    assert c.n == 2 and c.is_complete()
    full = sigma_star_dfa(ab)
    assert completed(full).n == full.n
    for w in all_words(ab, 3):
        assert accepts(c, w) == accepts(partial, w)


def test_complement_flips_membership():
    rng = random.Random(19)
    for _ in range(50):
        d = random_dfa(rng, rng.randint(1, 6), 2)
        c = complement(d)
        for w in all_words(d.alphabet, 3):
            assert accepts(c, w) != accepts(d, w)


def test_intersect_is_conjunction():
    rng = random.Random(20)
    for _ in range(50):
        d1 = random_dfa(rng, rng.randint(1, 5), 2)
        d2 = random_dfa(rng, rng.randint(1, 5), 2)
        p = intersect(d1, d2)
        for w in all_words(d1.alphabet, 3):
            assert accepts(p, w) == (accepts(d1, w) and accepts(d2, w))


def test_equivalent_on_constructed_pairs():
    from subwordkit import gen_family
    d = gen_family("D", 2)
    assert equivalent(d, minimize(d))
    assert equivalent(as_nfa(d), d)
    assert not equivalent(d, gen_family("E", 2))
    with pytest.raises(InputError):
        equivalent(d, gen_family("D", 3))


def test_equivalent_agrees_with_bounded_enumeration():
    # sound direction both ways on small instances where the bound suffices
    rng = random.Random(21)
    for _ in range(60):
        a = random_nfa(rng, rng.randint(1, 3), 2)
        b = random_nfa(rng, rng.randint(1, 3), 2)
        same = language_upto(a, 12) == language_upto(b, 12)
        if equivalent(a, b):
            assert same
        if not same:
            assert not equivalent(a, b)


def test_trim_keeps_only_useful_states():
    ab = auto_alphabet(2)
    # state 2 unreachable, state 3 a dead end
    a = Nfa(ab, 4, {(0, 0, 1), (2, 0, 1), (0, 1, 3)}, {0}, {1})
    t = trim(a)
    assert t.n == 2
    assert t.transitions == frozenset([(0, 0, 1)])
    for w in all_words(ab, 3):
        assert accepts(t, w) == accepts(a, w)


@settings(max_examples=150, deadline=None)
@given(st.one_of(nfas(), dags(max_states=80, back_edges=4)))
def test_trim_keeps_the_states_of_a_forward_and_backward_search(a):
    keep = useful_states_naive(a)
    remap = {q: i for i, q in enumerate(keep)}
    t = trim(a)
    assert t.n == len(keep)
    assert t.transitions == {(remap[p], x, remap[q]) for p, x, q in a.transitions
                             if p in remap and q in remap}
    assert t.initial == {remap[q] for q in a.initial if q in remap}
    assert t.final == {remap[q] for q in a.final if q in remap}


def test_trim_empty_language_gives_zero_states():
    ab = auto_alphabet(1)
    a = Nfa(ab, 2, {(0, 0, 0)}, {0}, {1})
    assert trim(a).n == 0


def test_is_unambiguous_known_cases():
    ab = auto_alphabet(1)
    # two initial states reaching the same final on "a": two runs
    amb = Nfa(ab, 3, {(0, 0, 2), (1, 0, 2)}, {0, 1}, {2})
    assert not is_unambiguous(amb)
    # same shape but only one initial
    assert is_unambiguous(Nfa(ab, 3, {(0, 0, 2), (1, 0, 2)}, {0}, {2}))
    assert is_unambiguous(sigma_star_dfa(auto_alphabet(2)))


def test_is_unambiguous_against_run_counting():
    rng = random.Random(22)
    inputs = [random_nfa(rng, rng.randint(1, 4), 2) for _ in range(120)]
    for n in (2, 3):
        inputs += [gen_family("notU", n), down_closure(gen_family("D", n)),
                   gen_family("downIntWitness", 2 * n + 1)]
    for a in inputs:
        brute_ok = all(count_accepting_runs(a, w) <= 1
                       for w in all_words(a.alphabet, 5))
        if is_unambiguous(a):
            assert brute_ok
        if not brute_ok:
            assert not is_unambiguous(a)


def test_enumerate_upto_order_and_content():
    rng = random.Random(23)
    for _ in range(40):
        a = random_nfa(rng, rng.randint(1, 5), 2)
        out = enumerate_upto(a, 4)
        keys = [(len(w), w.letters) for w in out]
        assert keys == sorted(keys)
        assert {w.letters for w in out} == language_upto(a, 4)


def test_map_symbols_carries_language():
    src = auto_alphabet(2)
    dst = Alphabet(("x", "y", "z"))
    d = Dfa(src, 2, {(0, 0): 1, (1, 1): 1}, 0, (1,))
    m = map_symbols(d, dst, {0: 2, 1: 0})
    assert m.alphabet == dst
    assert accepts(m, dst.word("z", "x", "x"))
    assert not accepts(m, dst.word("y"))
    with pytest.raises(InputError):
        map_symbols(d, dst, {0: 1, 1: 1})
    with pytest.raises(InputError, match="expected an automaton, got str"):
        map_symbols("x", dst, {0: 0})
