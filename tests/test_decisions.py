import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subwordkit.decisions as decisions
from subwordkit import (
    BudgetExceededError, Certificate, Dfa, InputError, Nfa, accepts, auto_alphabet,
    canonical_dfa, closure_dfa, closure_equal, closure_inclusion, determinize,
    down_closure, down_universal, dfa_closed_witness, enumerate_upto, equivalent,
    gen_family, is_closed, shortest_in_difference, sigma_star_dfa,
)
from subwordkit.experiments import random_dfa, random_nfa

from oracles import all_words, down_member, product_search_naive, up_member
from strategies import dags, dfas, nfas


def test_certificate_invariants():
    assert Certificate(True)
    ab = auto_alphabet(1)
    c = Certificate(False, ab.word("a1"))
    assert not c and c.witness == ab.word("a1")
    with pytest.raises(InputError):
        Certificate(True, ab.word("a1"))
    with pytest.raises(InputError):
        Certificate(False)


def test_shortest_in_difference_known():
    d2 = gen_family("D", 2)
    e2 = gen_family("E", 2)
    w = shortest_in_difference(down_closure(d2), down_closure(e2))
    assert w == d2.alphabet.word("a1", "a2")
    assert shortest_in_difference(e2, e2) is None
    # epsilon case: the empty word separates when only one side accepts it
    ab = auto_alphabet(1)
    eps_lang = Nfa(ab, 1, (), {0}, {0})
    empty = Nfa(ab, 1, (), {0}, set())
    assert shortest_in_difference(eps_lang, empty) == ab.word()


def test_shortest_in_difference_is_length_lex_least():
    rng = random.Random(81)
    for _ in range(80):
        a = random_nfa(rng, rng.randint(1, 4), 2)
        b = random_nfa(rng, rng.randint(1, 4), 2)
        w = shortest_in_difference(a, b)
        brute = [x for x in all_words(a.alphabet, 4)
                 if accepts(a, x) and not accepts(b, x)]
        if w is None:
            assert not brute
        elif brute and len(brute[0]) <= 4:
            assert (len(w), w.letters) == (len(brute[0]), brute[0].letters)


def test_shortest_in_difference_alphabet_check_and_budget():
    with pytest.raises(InputError):
        shortest_in_difference(gen_family("D", 2), gen_family("D", 3))
    d9 = gen_family("D", 9)
    with pytest.raises(BudgetExceededError):
        shortest_in_difference(sigma_star_dfa(d9.alphabet), down_closure(d9), budget=50)


@settings(max_examples=120, deadline=None)
@given(nfas(max_states=6, max_letters=3), st.data())
def test_shortest_in_difference_numbers_the_pairs_of_the_naive_search(a, data):
    # The per-side row memo must change neither the least word nor the
    # count of pairs the budget is charged for: the search succeeds at
    # exactly the naive count, and one less stops it.
    b = data.draw(nfas(max_states=6, k=a.k))
    letters, count = product_search_naive(a, b)
    need = max(count, a.n, b.n, 1)
    w = shortest_in_difference(a, b, need)
    assert (None if w is None else w.letters) == letters
    if count > max(a.n, b.n, 1):
        with pytest.raises(BudgetExceededError):
            shortest_in_difference(a, b, count - 1)


def test_closure_decisions_check_alphabets_before_building_closures(monkeypatch):
    def fail(*args):
        raise AssertionError("closure built before the alphabet check")

    monkeypatch.setattr(decisions, "_closure_nfa", fail)
    a, b = gen_family("D", 2), gen_family("D", 3)
    for direction in ("up", "down"):
        with pytest.raises(InputError, match="share an alphabet"):
            closure_inclusion(a, b, direction)
        with pytest.raises(InputError, match="share an alphabet"):
            closure_equal(a, b, direction)


@settings(max_examples=120, deadline=None)
@given(nfas(max_states=6, max_letters=3), st.data())
def test_closure_equal_is_both_closure_inclusions(a, data):
    b = data.draw(nfas(max_states=6, k=a.k))
    for direction in ("up", "down"):
        want = closure_inclusion(a, b, direction)
        if want.verdict:
            want = closure_inclusion(b, a, direction)
        assert closure_equal(a, b, direction) == want


def test_positive_closure_equal_builds_each_closure_once(monkeypatch):
    calls = []
    build = decisions._closure_nfa

    def counting(a, direction):
        calls.append(direction)
        return build(a, direction)

    monkeypatch.setattr(decisions, "_closure_nfa", counting)
    for name, direction in (("E", "up"), ("D", "down")):
        a = gen_family(name, 4)
        calls.clear()
        assert closure_equal(a, closure_dfa(a, direction), direction).verdict
        assert calls == [direction, direction]


def test_each_operation_finds_the_components_of_its_input_once(monkeypatch):
    import subwordkit.closures as closures
    import subwordkit.core as core

    calls = []
    find = core.strong_components

    def counting(a):
        calls.append(a.n)
        return find(a)

    for module in (core, closures, decisions):
        monkeypatch.setattr(module, "strong_components", counting)
    # a path of 100 states numbered against its edges: its down closure
    # takes the reduced route and renumbers the states
    n = 100
    assert n > closures.REDUCE_MIN_STATES
    path = Nfa(auto_alphabet(2), n, {(i + 1, i % 2, i) for i in range(n - 1)}, {n - 1}, {0})
    e6, d6 = gen_family("E", 6), gen_family("D", 6)
    for run in (lambda: closure_dfa(e6, "up"), lambda: down_universal(d6),
                lambda: closure_dfa(path, "down")):
        calls.clear()
        run()
        assert len(calls) == 1
    assert not down_universal(d6).verdict


def test_is_closed_known_cases():
    assert is_closed(gen_family("U", 2), "up").verdict
    assert is_closed(gen_family("V", 2), "down").verdict
    cert = is_closed(gen_family("E", 2), "up")
    assert not cert.verdict
    assert cert.witness == auto_alphabet(2).word("a1", "a1", "a1")
    with pytest.raises(InputError):
        is_closed(gen_family("E", 2), "diagonal")


def test_is_closed_against_membership_oracles():
    rng = random.Random(82)
    for _ in range(120):
        a = random_nfa(rng, rng.randint(1, 5), 2)
        for direction, member in (("up", up_member), ("down", down_member)):
            cert = is_closed(a, direction)
            violations = [w for w in all_words(a.alphabet, 4)
                          if member(a, w) and not accepts(a, w)]
            if cert.verdict:
                assert not violations
            else:
                w = cert.witness
                assert member(a, w) and not accepts(a, w)
                if violations:
                    first = violations[0]
                    assert (len(w), w.letters) == (len(first), first.letters)


def test_dfa_closed_witness_canonical_triples():
    e = gen_family("E", 2)
    cert = dfa_closed_witness(e, "up")
    assert not cert.verdict
    u, mid, v = cert.witness
    assert (u.letters, mid.letters, v.letters) == ((), (0,), (0, 0))
    d = gen_family("D", 2)
    cert2 = dfa_closed_witness(d, "down")
    u2, mid2, v2 = cert2.witness
    assert (u2.letters, mid2.letters, v2.letters) == ((), (0,), ())
    assert dfa_closed_witness(closure_dfa(e, "up"), "up").verdict
    assert dfa_closed_witness(sigma_star_dfa(e.alphabet), "up").verdict


def test_dfa_closed_witness_agrees_and_reverifies():
    rng = random.Random(83)
    for _ in range(250):
        n = rng.randint(1, 6)
        d = random_dfa(rng, n, rng.randint(1, 3))
        for direction in ("up", "down"):
            cert = dfa_closed_witness(d, direction)
            assert cert.verdict == is_closed(d, direction).verdict
            if cert.verdict:
                continue
            u, mid, v = cert.witness
            assert len(mid) == 1
            assert len(u) < n and len(v) < n * n
            without = accepts(d, u + v)
            within = accepts(d, u + mid + v)
            if direction == "up":
                assert without and not within
            else:
                assert within and not without


def violating_triples(d, direction, maxlen):
    """Every triple (u, a, v) with |u| + |v| <= maxlen that shows L(d) not
    closed, in (|u| + |v|, |u|, u, a, v) order."""
    k = d.k
    for total in range(maxlen + 1):
        for lu in range(total + 1):
            for u, a, v in itertools.product(itertools.product(range(k), repeat=lu),
                                             range(k),
                                             itertools.product(range(k), repeat=total - lu)):
                without = accepts(d, u + v)
                within = accepts(d, u + (a,) + v)
                if (without and not within) if direction == "up" else (within and not without):
                    yield u, (a,), v


@settings(max_examples=150, deadline=None)
@given(dfas(max_states=4, max_letters=2), st.sampled_from(("up", "down")))
def test_dfa_closed_witness_is_the_least_triple(d, direction):
    cert = dfa_closed_witness(d, direction)
    least = next(violating_triples(d, direction, 8), None)
    if least is not None:
        assert not cert.verdict
        assert tuple(w.letters for w in cert.witness) == least
    else:
        assert cert.verdict or len(cert.witness[0]) + len(cert.witness[2]) > 8


def test_dfa_closed_witness_of_a_long_path_stays_small_in_memory():
    # One access word per state would hold n²/2 letters; the search keeps
    # a parent and a depth per state and spells out u for the witness only.
    rng = random.Random(5)
    n = 6000
    delta = [-1] * (2 * n)
    for i in range(n - 1):
        delta[2 * i + rng.randrange(2)] = i + 1
    d = Dfa(auto_alphabet(2), n, delta, 0, [n - 1])
    tracemalloc.start()
    try:
        cert = dfa_closed_witness(d, "up")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(w) for w in cert.witness] == [0, 1, n - 1]
    assert not accepts(d, cert.witness[0] + cert.witness[1] + cert.witness[2])
    assert peak < 20_000_000


def test_dfa_closed_witness_requires_direction():
    with pytest.raises(InputError):
        dfa_closed_witness(gen_family("E", 2), "sideways")


def test_closure_inclusion_known_cases():
    d2 = gen_family("D", 2)
    e2 = gen_family("E", 2)
    assert closure_inclusion(e2, d2, "down").verdict
    cert = closure_inclusion(d2, e2, "down")
    assert not cert.verdict
    assert cert.witness == d2.alphabet.word("a1", "a2")
    assert closure_inclusion(d2, d2, "up").verdict


def test_closure_inclusion_witness_bounds_and_membership():
    # up witnesses stay under a's state count; down witnesses can reach
    # exactly b's state count when the powerset run dies, never beyond
    rng = random.Random(84)
    seen_down_at_bound = 0
    for _ in range(200):
        a = random_nfa(rng, rng.randint(1, 5), rng.randint(1, 3))
        b = random_nfa(rng, rng.randint(1, 5), a.k)
        for direction, member in (("up", up_member), ("down", down_member)):
            cert = closure_inclusion(a, b, direction)
            if cert.verdict:
                continue
            w = cert.witness
            assert member(a, w) and not member(b, w)
            if direction == "up":
                assert len(w) < a.n
            else:
                assert len(w) <= b.n
                seen_down_at_bound += len(w) == b.n
    assert seen_down_at_bound  # the boundary case genuinely occurs


def test_closure_inclusion_down_witness_reaches_b_state_count():
    # B accepts only the empty word with one state and no edges, A = {a1}:
    # the shortest word of down(A) - down(B) is a1, of length exactly b.n
    ab = auto_alphabet(1)
    b = Nfa(ab, 1, (), {0}, {0})
    a = Nfa(ab, 2, {(0, 0, 1)}, {0}, {1})
    cert = closure_inclusion(a, b, "down")
    assert not cert.verdict
    assert cert.witness == ab.word("a1")
    assert len(cert.witness) == b.n == 1


def test_closure_equal_known_cases():
    u2 = gen_family("U", 2)
    a = random_nfa(random.Random(85), 4, 2)
    assert closure_equal(a, down_closure(a), "down").verdict
    cert = closure_equal(u2, gen_family("Uprime", 2), "up")
    assert not cert.verdict
    assert cert.witness == u2.alphabet.word("a1", "a2")
    assert not closure_equal(gen_family("E", 2), gen_family("D", 2), "down").verdict


def test_down_universal_known_cases():
    ab = auto_alphabet(2)
    assert down_universal(sigma_star_dfa(ab)).verdict
    cert = down_universal(gen_family("notU", 2))
    assert not cert.verdict
    assert cert.witness == ab.word("a1", "a2")
    # (a1 a2)* covers both letters from one cycle state
    cyc = Nfa(ab, 2, {(0, 0, 1), (1, 1, 0)}, {0}, {0})
    assert down_universal(cyc).verdict
    assert not down_universal(Nfa(ab, 1, (), {0}, {0})).verdict


def test_down_universal_agrees_with_closure_oracle():
    from subwordkit import equivalent
    rng = random.Random(86)
    for _ in range(200):
        k = rng.randint(1, 3)
        a = random_nfa(rng, rng.randint(1, 5), k)
        cert = down_universal(a)
        want = equivalent(closure_dfa(a, "down"), sigma_star_dfa(a.alphabet))
        assert cert.verdict == want
        if not cert.verdict:
            w = cert.witness
            assert not down_member(a, w)
            for x in all_words(a.alphabet, len(w) - 1):
                assert down_member(a, x)


@settings(max_examples=300, deadline=None)
@given(nfas())
def test_down_universal_agrees_with_the_closure_dfa(a):
    from subwordkit import equivalent
    cert = down_universal(a)
    assert cert.verdict == equivalent(closure_dfa(a, "down"), sigma_star_dfa(a.alphabet))
    if not cert.verdict:
        assert not down_member(a, cert.witness)


@settings(max_examples=150, deadline=None)
@given(dfas(), st.data())
def test_a_dfa_decides_as_its_nfa(d, data):
    # a DFA's components are found from its own table, not from its NFA's
    a = d.to_nfa()
    b = data.draw(nfas(max_states=6, k=d.k))
    assert down_universal(d) == down_universal(a)
    for direction in ("up", "down"):
        assert is_closed(d, direction) == is_closed(a, direction)
        for decide in (closure_inclusion, closure_equal):
            assert decide(d, b, direction) == decide(a, b, direction)
            assert decide(b, d, direction) == decide(b, a, direction)


def test_a_large_dfa_decides_as_its_nfa_on_the_reduced_route():
    # above REDUCE_MIN_STATES states the down closure renumbers and reduces
    rng = random.Random(22)
    for n in (70, 130):
        d = random_dfa(rng, n, 2)
        a = d.to_nfa()
        b = random_nfa(rng, 8, 2)
        assert down_universal(d) == down_universal(a)
        for direction in ("up", "down"):
            assert is_closed(d, direction) == is_closed(a, direction)
            assert closure_equal(d, b, direction) == closure_equal(a, b, direction)
            assert closure_inclusion(b, d, direction) == closure_inclusion(b, a, direction)


@pytest.mark.parametrize("budget", [0, -5])
def test_decisions_reject_nonpositive_budgets(budget):
    a = gen_family("D", 3)
    for decide in (lambda: is_closed(a, "down", budget),
                   lambda: closure_inclusion(a, a, "up", budget),
                   lambda: down_universal(a, budget),
                   lambda: shortest_in_difference(a, a, budget),
                   # a is a DFA: canonical_dfa and equivalent only minimize it
                   lambda: canonical_dfa(a, budget),
                   lambda: equivalent(a, a, budget),
                   lambda: enumerate_upto(a, 2, budget)):
        with pytest.raises(InputError):
            decide()


def test_decisions_check_the_input_size_first():
    a = gen_family("D", 3)
    big = Nfa(a.alphabet, 101, (), {0}, {0})
    for decide in (lambda: is_closed(big, "down", 100),
                   lambda: closure_inclusion(a, big, "down", 100),
                   lambda: down_universal(big, 100)):
        with pytest.raises(BudgetExceededError) as exc:
            decide()
        assert exc.value.what == "input states"


@pytest.mark.parametrize("call", [
    lambda x: closure_dfa(x, "up"),
    determinize,
    lambda x: is_closed(x, "down"),
    lambda x: closure_inclusion(x, gen_family("D", 2), "up"),
    canonical_dfa,
    lambda x: equivalent(x, gen_family("D", 2)),
    lambda x: enumerate_upto(x, 2),
    down_universal,
    lambda x: shortest_in_difference(x, gen_family("D", 2)),
], ids=["closure_dfa", "determinize", "is_closed", "closure_inclusion", "canonical_dfa",
        "equivalent", "enumerate_upto", "down_universal", "shortest_in_difference"])
def test_budgeted_entries_reject_a_non_automaton(call):
    with pytest.raises(InputError, match="expected an automaton, got str"):
        call("x")


def test_unary_closure_equal_reduces_to_extremal_lengths():
    """One-letter alphabet: up-closure equality is equality of shortest
    accepted lengths, down-closure equality is equality of longest
    (infinite when the useful part has a cycle)."""
    from subwordkit import trim
    rng = random.Random(87)

    def shortest_len(a):
        ws = enumerate_upto(a, a.n)
        return len(ws[0]) if ws else None

    def longest_len(a):
        t = trim(a)
        if t.n == 0:
            return None
        # every trimmed state sits on an accepting path, so any cycle
        # in the trimmed graph makes the language infinite
        adj = {}
        for p, _, q in t.transitions:
            adj.setdefault(p, set()).add(q)
        color = [0] * t.n
        def dfs(p):
            color[p] = 1
            for q in adj.get(p, ()):
                if color[q] == 1 or (color[q] == 0 and dfs(q)):
                    return True
            color[p] = 2
            return False
        if any(color[p] == 0 and dfs(p) for p in range(t.n)):
            return float("inf")
        ws = enumerate_upto(t, t.n)
        return max(len(w) for w in ws)

    for _ in range(150):
        a = random_nfa(rng, rng.randint(1, 4), 1)
        b = random_nfa(rng, rng.randint(1, 4), 1)
        up = closure_equal(a, b, "up").verdict
        assert up == (shortest_len(a) == shortest_len(b))
        down = closure_equal(a, b, "down").verdict
        assert down == (longest_len(a) == longest_len(b))


def _least_budget(run, low):
    """The least budget, at least `low`, for which run(budget) raises no
    BudgetExceededError."""
    high = low
    while True:
        try:
            run(high)
            break
        except BudgetExceededError:
            low, high = high + 1, high * 2
    while low < high:
        mid = (low + high) // 2
        try:
            run(mid)
            high = mid
        except BudgetExceededError:
            low = mid + 1
    return high


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reduced_down_decisions_match_the_unreduced_search(data):
    # Down-closure sides of inputs above closures.REDUCE_MIN_STATES search
    # reduced subsets.  Each decision must give the certificate of the
    # plain search over the unreduced closures, within the budget that
    # plain search needed.
    k = data.draw(st.integers(1, 3))
    a = data.draw(dags(k=k, back_edges=data.draw(st.sampled_from((0, 4)))))
    b = data.draw(dags(k=k, back_edges=data.draw(st.sampled_from((0, 4)))))
    da, db = down_closure(a), down_closure(b)
    sigma = sigma_star_dfa(a.alphabet)
    low = max(a.n, b.n)

    def cert(w):
        return Certificate(w is None, w)

    def equal(m):
        first = cert(shortest_in_difference(da, db, m))
        return first if not first else cert(shortest_in_difference(db, da, m))

    searches = (
        (lambda m: cert(shortest_in_difference(da, db, m)),
         lambda m: closure_inclusion(a, b, "down", m)),
        (equal, lambda m: closure_equal(a, b, "down", m)),
        (lambda m: cert(shortest_in_difference(da, a, m)),
         lambda m: is_closed(a, "down", m)),
        (lambda m: cert(shortest_in_difference(sigma, db, m)),
         lambda m: down_universal(b, m)),
    )
    for plain, decision in searches:
        budget = _least_budget(plain, low)
        assert decision(budget) == plain(budget)
