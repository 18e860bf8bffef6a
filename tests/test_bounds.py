import random

import pytest
from hypothesis import given, settings, strategies as st

from subwordkit import (
    FoolingMatrix, FoolingSet, InputError, VerificationError, Word,
    auto_alphabet, down_closure, fooling_for, fooling_matrix, gen_family,
    mx_matrix, rational_rank, sigma_star_dfa, subsets_in_order,
    ufa_lower_bound, up_closure, verify_fooling,
)

from oracles import known_rank_matrix, rank_fractions


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
