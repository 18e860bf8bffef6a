import random

import pytest
from hypothesis import given, settings, strategies as st

from subwordkit import (
    FoolingMatrix, FoolingSet, InputError, VerificationError, Word,
    auto_alphabet, down_closure, fooling_for, fooling_matrix, gen_family,
    mx_matrix, rational_rank, sigma_star_dfa, subsets_in_order,
    ufa_lower_bound, up_closure, verify_fooling,
)

from oracles import (accepts_naive, fooling_matrix_pairwise, known_rank_matrix,
                     language_upto, rank_fractions, verify_fooling_pairwise)
from strategies import nfas


def test_fooling_set_validation():
    ab = auto_alphabet(2)
    s = FoolingSet(((ab.word("a1"), ab.word("a2")),))
    assert len(s) == 1 and s.alphabet == ab
    assert list(s) == [(ab.word("a1"), ab.word("a2"))]
    with pytest.raises(InputError):
        FoolingSet(())
    with pytest.raises(InputError):
        FoolingSet(((ab.word("a1"), "a2"),))
    with pytest.raises(InputError):
        FoolingSet(((ab.word("a1"), auto_alphabet(3).word("a1")),))
    with pytest.raises(InputError):
        # duplicate pair
        FoolingSet(((ab.word("a1"), ab.word()), (ab.word("a1"), ab.word())))


def test_fooling_matrix_validation():
    FoolingMatrix(((1, 0), (0, 1)))
    with pytest.raises(InputError):
        FoolingMatrix(((1, 0),))
    with pytest.raises(InputError):
        FoolingMatrix(((1, 2), (0, 1)))


def test_subsets_in_order():
    assert subsets_in_order(2) == [frozenset(), frozenset([0]), frozenset([1]),
                                   frozenset([0, 1])]
    assert len(subsets_in_order(4)) == 16
    sizes = [len(s) for s in subsets_in_order(4)]
    assert sizes == sorted(sizes)


def test_verify_fooling_certifies_the_classic_families():
    for k in (1, 2, 3, 4):
        assert verify_fooling(gen_family("U", k), fooling_for("U", k)) == 2 ** k
        assert verify_fooling(gen_family("V", k), fooling_for("V", k)) == 2 ** k
        assert verify_fooling(gen_family("Uprime", k), fooling_for("Uprime", k)) == 2 ** k + 1
        assert verify_fooling(gen_family("D", k), fooling_for("D", k)) == k + 1


def test_verify_fooling_diagonal_failure():
    ab = auto_alphabet(2)
    e = gen_family("E", 2)
    bogus = FoolingSet(((ab.word("a1"), ab.word("a2")),))
    with pytest.raises(VerificationError) as err:
        verify_fooling(e, bogus)
    assert "not in the language" in str(err.value)


def test_verify_fooling_cross_failure():
    ab = auto_alphabet(2)
    full = sigma_star_dfa(ab)
    pairs = FoolingSet(((ab.word("a1"), ab.word("a1")),
                        (ab.word("a2"), ab.word("a2"))))
    with pytest.raises(VerificationError) as err:
        verify_fooling(full, pairs)
    assert "cross" in str(err.value)


def test_verify_fooling_alphabet_mismatch():
    with pytest.raises(VerificationError):
        verify_fooling(gen_family("U", 2), fooling_for("U", 3))


def test_fooling_matrix_entries():
    m = fooling_matrix(gen_family("U", 1), fooling_for("U", 1))
    assert m.entries == ((1, 0), (1, 1))


def test_rational_rank_hand_cases():
    assert rational_rank(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 3
    assert rational_rank(((0, 0), (0, 0))) == 0
    assert rational_rank(((1, 1), (1, 1))) == 1
    assert rational_rank(((0, 0), (0, 1))) == 1
    assert rational_rank(FoolingMatrix(((1, 1), (0, 1)))) == 2


def test_rational_rank_on_constructed_matrices():
    rng = random.Random(71)
    for _ in range(120):
        r = rng.randint(0, 4)
        rows = rng.randint(max(r, 1), 6)
        cols = rng.randint(max(r, 1), 6)
        m = known_rank_matrix(rng, rows, cols, r)
        assert rational_rank(m) == r


@st.composite
def low_rank_tables(draw):
    """Integer row tables of up to 12 x 12, built as products of an m x r
    and an r x n factor, so that every rank up to full occurs."""
    m, r, n = draw(st.integers(0, 12)), draw(st.integers(0, 12)), draw(st.integers(0, 12))
    entry = st.integers(-3, 3)
    a = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    return [[sum(a[i][t] * b[t][j] for t in range(r)) for j in range(n)] for i in range(m)]


@settings(max_examples=300, deadline=None)
@given(low_rank_tables())
def test_rational_rank_matches_fraction_elimination(rows):
    assert rational_rank(rows) == rank_fractions(rows)


def test_rational_rank_rejects_ragged_and_non_integer_tables():
    for bad in ([[1, 0], [1]], [[1], [1, 0]], [[0.5, 1]], [1, 0]):
        with pytest.raises(InputError):
            rational_rank(bad)


def test_mx_matrix_values_and_ranks():
    assert mx_matrix(1).entries == ((0, 0), (0, 1))
    for n in (1, 2, 3, 4, 5):
        m = mx_matrix(n)
        assert len(m.entries) == 2 ** n
        assert rational_rank(m) == 2 ** n - 1
    with pytest.raises(InputError):
        mx_matrix(0)
    with pytest.raises(InputError):
        mx_matrix(7)


def test_ufa_lower_bounds_on_the_three_instances():
    for n in (1, 2, 3):
        not_u = gen_family("notU", n)
        assert ufa_lower_bound(not_u, fooling_for("notU", n)) == 2 ** n - 1
        down_d = down_closure(gen_family("D", n))
        assert ufa_lower_bound(down_d, fooling_for("downD", n)) == 2 ** n
        up_e = up_closure(gen_family("E", n))
        assert ufa_lower_bound(up_e, fooling_for("upE", n),
                               initial_excluded=True) == 2 ** n + 1


def test_ufa_initial_excluded_side_condition():
    # downD has suffixes inside the language, so the +1 variant is unsound
    down_d = down_closure(gen_family("D", 2))
    with pytest.raises(VerificationError):
        ufa_lower_bound(down_d, fooling_for("downD", 2), initial_excluded=True)


@st.composite
def pair_lists(draw):
    """A random NFA and a list of distinct word pairs over its alphabet.
    In about half the lists every pair splits a word of the language, so
    that the diagonal holds and the cross checks decide; in the others
    the pairs are random words, and the diagonal mostly fails."""
    split = draw(st.booleans())
    # most random NFAs accept no word of length 4 or less
    automata = nfas(max_states=6)
    a = draw(automata.filter(lambda a: language_upto(a, 4)) if split else automata)
    inside = sorted(language_upto(a, 4))
    word = st.lists(st.integers(0, a.k - 1), max_size=4).map(tuple)
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        if split:
            w = draw(st.sampled_from(inside))
            cut = draw(st.integers(0, len(w)))
            pair = (w[:cut], w[cut:])
        else:
            pair = (draw(word), draw(word))
        if pair not in pairs:
            pairs.append(pair)
    return a, [(a.alphabet.word_of(x), a.alphabet.word_of(y)) for x, y in pairs]


def outcome(check, *args):
    try:
        return check(*args)
    except VerificationError as e:
        return str(e)


@settings(max_examples=400, deadline=None)
@given(pair_lists())
def test_cross_memberships_by_masks_match_a_run_per_pair(case):
    # The same matrix, and the same verdict or error naming the same pair;
    # ufa_lower_bound's suffix check names the same first suffix.
    a, pairs = case
    matrix = fooling_matrix_pairwise(a, pairs)
    assert fooling_matrix(a, pairs).entries == matrix
    assert outcome(verify_fooling, a, pairs) == outcome(verify_fooling_pairwise, a, pairs)
    inside = [i for i, (_, y) in enumerate(pairs) if accepts_naive(a, y)]
    want = (f"initial_excluded unsound: suffix y_{inside[0] + 1} is in the language" if inside
            else rank_fractions(matrix) + 1)
    assert outcome(ufa_lower_bound, a, pairs, True) == want


def test_fooling_errors_by_masks_on_broken_family_sets():
    # The paper's sets pass; with each x_i moved to the next pair some
    # diagonal fails, and with a pair of two equal halves added some
    # cross check may fail: every verdict and message matches the runs.
    seen = set()
    for name in ("U", "V", "Uprime", "D"):
        for k in (1, 2, 3):
            a = gen_family(name, k)
            pairs = list(fooling_for(name, k).pairs)
            shifted = [(x, y) for (x, _), (_, y) in zip(pairs, pairs[1:] + pairs[:1])]
            doubled = pairs + [(pairs[0][0], pairs[-1][1])]
            for case in (pairs, shifted, list(dict.fromkeys(doubled))):
                got = outcome(verify_fooling, a, case)
                assert got == outcome(verify_fooling_pairwise, a, case)
                seen.add(got if isinstance(got, int) else got.split(":")[1])
    assert {" x_i y_i is not in the language",
            " both cross concatenations are in the language"} <= seen
