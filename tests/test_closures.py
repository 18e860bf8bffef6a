import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subwordkit import (
    BudgetExceededError, InputError, Nfa, accepts, auto_alphabet,
    canonical_dfa, closure_dfa, down_closure, embeds, enumerate_upto,
    gen_family, minimize, determinize, up_closure,
)
from subwordkit.experiments import random_nfa

from subwordkit._kernels_py import dominators
from subwordkit.closures import REDUCE_MIN_STATES, _reduced_down_closure
from subwordkit.kernels import bits, cone_closure, maximal, step

from oracles import (
    all_words, cone_closure_words_naive, dominators_all_pairs, dominators_scan,
    down_closure_saturation, down_member, up_closure_saturation, up_member,
)
from strategies import cone_inputs, dags, nfas


def test_up_closure_membership_semantics():
    rng = random.Random(51)
    for _ in range(80):
        a = random_nfa(rng, rng.randint(1, 5), 2)
        up = up_closure(a)
        for w in all_words(a.alphabet, 4):
            assert accepts(up, w) == up_member(a, w)


def test_down_closure_membership_semantics():
    rng = random.Random(52)
    for _ in range(80):
        a = random_nfa(rng, rng.randint(1, 5), 2)
        dn = down_closure(a)
        for w in all_words(a.alphabet, 4):
            assert accepts(dn, w) == down_member(a, w)


def test_closures_add_no_states():
    rng = random.Random(53)
    for _ in range(40):
        a = random_nfa(rng, rng.randint(1, 6), 2)
        assert up_closure(a).n == a.n
        assert down_closure(a).n == a.n


def test_down_closure_has_no_epsilon_artifacts():
    # saturation instead of epsilon edges: result is a plain Nfa over the
    # same states, and a second application changes nothing semantically
    rng = random.Random(54)
    for _ in range(40):
        a = random_nfa(rng, rng.randint(1, 5), 2)
        once = down_closure(a)
        twice = down_closure(once)
        assert canonical_dfa(once) == canonical_dfa(twice)


def test_closure_idempotence_and_monotonicity():
    rng = random.Random(55)
    for _ in range(40):
        a = random_nfa(rng, rng.randint(1, 4), 2)
        for direction, build in (("up", up_closure), ("down", down_closure)):
            d1 = closure_dfa(a, direction)
            d2 = closure_dfa(build(a), direction)
            assert d1 == d2
            # L is contained in its closure
            for w in enumerate_upto(a, 3):
                assert accepts(d1, w)


def test_closure_dfa_is_canonical_minimal():
    rng = random.Random(56)
    for _ in range(60):
        a = random_nfa(rng, rng.randint(1, 5), 2)
        for direction, build in (("up", up_closure), ("down", down_closure)):
            d = closure_dfa(a, direction)
            assert d == minimize(determinize(build(a)))


def test_closure_dfa_rejects_bad_direction():
    a = gen_family("E", 2)
    with pytest.raises(InputError):
        closure_dfa(a, "sideways")


def test_cone_fast_path_agrees_with_generic_route():
    # finite languages take the antichain route; compare against the
    # powerset+minimize route on the same input
    rng = random.Random(57)
    from subwordkit import Word, dfa_from_words
    for _ in range(150):
        k = rng.randint(1, 3)
        ab = auto_alphabet(k)
        words = [Word(ab, tuple(rng.randrange(k) for _ in range(rng.randrange(6))))
                 for _ in range(rng.randint(1, 6))]
        d = dfa_from_words(ab, words)
        fast = closure_dfa(d, "up")
        generic = minimize(determinize(up_closure(d)))
        assert fast == generic


def test_cone_fast_path_beyond_64_suffixes():
    # suffix-id bitmasks must not truncate or wrap at 64 bits: equal-length
    # words are pairwise incomparable, so every word is a generator; with
    # this seed, dropping or wrapping the ids >= 64 changes the result
    rng = random.Random(73)
    from subwordkit import Word, dfa_from_words
    ab = auto_alphabet(2)
    for _ in range(3):
        words = {tuple(rng.randrange(2) for _ in range(8)) for _ in range(12)}
        assert len({w[i:] for w in words for i in range(9)}) > 64
        d = dfa_from_words(ab, [Word(ab, w) for w in words])
        assert closure_dfa(d, "up") == minimize(determinize(up_closure(d)))


def test_cone_fast_path_on_witness_families():
    for n in (2, 3, 4):
        e = gen_family("E", n)
        assert closure_dfa(e, "up").n == 2 ** n + 1
    t = gen_family("twoLetter", 2)
    assert closure_dfa(t, "up").n == 94


def test_up_closure_of_infinite_language_takes_generic_route():
    ab = auto_alphabet(2)
    # (a1)* is infinite: no cone path, still canonical
    a = Nfa(ab, 1, {(0, 0, 0)}, {0}, {0})
    d = closure_dfa(a, "up")
    assert d == minimize(determinize(up_closure(a)))
    assert d.n == 1


def test_closure_sizes_on_known_families():
    assert closure_dfa(gen_family("D", 4), "down").n == 16
    assert closure_dfa(gen_family("notU", 4), "down").n == 15
    assert closure_dfa(gen_family("heam", 5), "up").n == 141


def test_closed_languages_are_fixed_points():
    for k in (1, 2, 3):
        u = gen_family("U", k)
        v = gen_family("V", k)
        assert closure_dfa(u, "up") == canonical_dfa(u)
        assert closure_dfa(v, "down") == canonical_dfa(v)


def test_closure_budget_errors():
    d = gen_family("D", 9)
    with pytest.raises(BudgetExceededError):
        closure_dfa(d, "down", budget=100)
    e = gen_family("E", 9)
    with pytest.raises(BudgetExceededError):
        closure_dfa(e, "up", budget=100)


def test_up_closure_members_embed_some_generator():
    # every word of |E(2)|'s up-closure contains a square of a letter
    e = gen_family("E", 2)
    d = closure_dfa(e, "up")
    gens = [e.alphabet.word("a1", "a1"), e.alphabet.word("a2", "a2")]
    for w in all_words(e.alphabet, 5):
        assert accepts(d, w) == any(embeds(g, w) for g in gens)


@settings(max_examples=300, deadline=None)
@given(nfas())
def test_closures_match_the_saturation_oracle(a):
    down = down_closure(a)
    triples, final = down_closure_saturation(a)
    assert down.transitions == triples
    assert (down.n, down.initial, down.final) == (a.n, a.initial, final)
    assert down == Nfa(a.alphabet, a.n, triples, a.initial, final)
    up = up_closure(a)
    assert up.transitions == up_closure_saturation(a)
    assert (up.n, up.initial, up.final) == (a.n, a.initial, a.final)


def test_down_closure_dfa_of_a_path_stays_small_in_memory():
    # The closure NFA of an n-state path has about n²/2 transitions; kept
    # as n·k successor masks it costs a few hundred kilobytes here.
    rng = random.Random(5)
    n = 400
    a = Nfa(auto_alphabet(2), n, {(i, rng.randrange(2), i + 1) for i in range(n - 1)},
            {0}, {n - 1})
    tracemalloc.start()
    try:
        d = closure_dfa(a, "down")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.n == n
    assert peak < 2_000_000


@settings(max_examples=100, deadline=None)
@given(st.one_of(dags(), dags(back_edges=4)))
def test_reduced_down_closure_dfa_matches_the_powerset_route(a):
    # inputs above REDUCE_MIN_STATES reduce their subsets; the canonical
    # DFA must not move, and the unreduced route's subset count (or the
    # input size, whichever is larger) must still be budget enough
    unreduced = determinize(down_closure(a))
    expected = minimize(unreduced)
    assert closure_dfa(a, "down") == expected
    assert closure_dfa(a, "down", budget=max(a.n, unreduced.n)) == expected


@settings(max_examples=40, deadline=None)
@given(dags(min_states=REDUCE_MIN_STATES + 1, back_edges=4), st.randoms(use_true_random=False))
def test_reduced_down_closure_keeps_the_lowest_member_of_each_maximal_component(a, rng):
    # the route numbers the closure so that `maximal` on its table, in one
    # pass from the lowest bit, keeps exactly the members that no other
    # member reaches, and of members that reach each other the lowest
    closure, reduced = _reduced_down_closure(a)
    assert reduced
    n, k, succ = closure.n, closure.k, closure.succ_masks()
    reach = []
    for q in range(n):
        seen, frontier = 1 << q, 1 << q
        while frontier:
            nxt = 0
            for x in range(k):
                nxt |= step(succ, k, frontier, x)
            frontier = nxt & ~seen
            seen |= frontier
        reach.append(seen)
    for _ in range(8):
        mask = rng.getrandbits(n) & rng.getrandbits(n) if rng.random() < 0.5 else rng.getrandbits(n)
        members = list(bits(mask))
        kept = {m for m in members
                if all(not reach[p] >> m & 1 or (reach[m] >> p & 1 and m < p)
                       for p in members if p != m)}
        assert set(bits(maximal(succ, k, mask))) == kept


def test_down_closure_dfa_of_a_5000_state_path():
    rng = random.Random(5)
    n = 5000
    a = Nfa(auto_alphabet(2), n, {(i, rng.randrange(2), i + 1) for i in range(n - 1)},
            {0}, {n - 1})
    d = closure_dfa(a, "down")
    assert d.n == 5000
    assert d.final == frozenset(range(5000))


def test_reduced_down_closure_of_a_transition_free_nfa_stays_small_in_memory():
    # every state is its own component, so the reduced route is taken; it
    # keeps no reach mask per state (those alone would take n²/8 bytes)
    n = 20_000
    assert n > REDUCE_MIN_STATES
    a = Nfa(auto_alphabet(2), n, (), {0}, {0})
    tracemalloc.start()
    try:
        d = closure_dfa(a, "down")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (d.n, d.final) == (1, frozenset({0}))
    assert peak < 10_000_000


@pytest.mark.parametrize("seed", range(6))
def test_cone_dominators_match_the_all_pairs_scan(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    words = {tuple(rng.randrange(k) for _ in range(rng.randint(0, 12)))
             for _ in range(rng.randint(1, 10))}
    sid = {}
    for w in sorted(words):
        for i in range(len(w) + 1):
            sid.setdefault(w[i:], len(sid))
    by_id = sorted(sid, key=sid.get)
    assert dominators(by_id, sid) == dominators_all_pairs(by_id)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.lists(
           st.lists(st.integers(0, k - 1), max_size=14).map(tuple), min_size=1, max_size=8)),
       st.randoms(use_true_random=False))
def test_dominators_match_the_scan_of_every_shorter_suffix(words, rng):
    # Testing only the shorter ids that the tail does not already cover
    # finds the same dominators, in any numbering of the suffixes.
    suffixes = list(dict.fromkeys(w[i:] for w in words for i in range(len(w) + 1)))
    rng.shuffle(suffixes)
    sid = {s: i for i, s in enumerate(suffixes)}
    assert dominators(suffixes, sid) == dominators_scan(suffixes, sid)


@settings(max_examples=300, deadline=None)
@given(cone_inputs(), st.randoms(use_true_random=False))
def test_cone_closure_matches_the_member_by_member_step(args, rng):
    # The moving-members-only step on the kernel's own suffix numbering
    # must number the same states in the same order as the
    # member-by-member one on any numbering of the suffixes, and be
    # charged the same budget: it succeeds at exactly the naive count,
    # and one less stops it.
    def numbering(count):
        ids = list(range(count))
        rng.shuffle(ids)
        return ids

    n, delta, finals = cone_closure_words_naive(*args, 1 << 20, numbering)
    got = cone_closure(*args, n)
    assert (got[0], list(got[1]), got[2]) == (n, delta, finals)
    if n > 1:
        with pytest.raises(BudgetExceededError) as e:
            cone_closure(*args, n - 1)
        assert (e.value.what, e.value.budget) == ("closure antichain states", n - 1)
