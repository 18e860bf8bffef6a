import random

import pytest
from hypothesis import example, given, settings, strategies as st

from subwordkit import (
    BudgetExceededError, InputError, SubstitutionSpec, accepts, as_nfa, auto_alphabet,
    canonical_dfa, complement, dedekind_count, determinize, down_interior,
    down_interior_spec, gen_family, identity_substitution, sigma_star_dfa,
    substitution_preimage, up_interior, up_interior_spec,
)
from subwordkit.experiments import random_nfa
from subwordkit.kernels import minimal_masks

from oracles import (all_words, antichain_count_naive, down_member, minimal_masks_naive,
                     up_member)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 15), max_size=6))
@example([])
@example([0b011, 0b001, 0b110, 0b111, 0b001])
@example([0b101, 0, 0b001, 0])
def test_minimal_masks_matches_all_pairs(masks):
    assert minimal_masks(masks) == minimal_masks_naive(masks)


def test_antichain_reduce():
    assert minimal_masks([0b011, 0b001, 0b110, 0b111, 0b001]) == {0b001, 0b110}
    assert minimal_masks([]) == frozenset()


def test_antichain_reduce_result_is_reduced():
    rng = random.Random(61)
    for _ in range(150):
        masks = [sum(1 << q for q in range(4) if rng.random() < 0.5)
                 for _ in range(rng.randrange(6))]
        fam = minimal_masks(masks)
        for m in fam:
            for other in fam:
                if m != other:
                    assert other & m != m
        # generates the same up-set
        for s in masks:
            assert any(m & s == m for m in fam)


def test_substitution_spec_validation():
    ab = auto_alphabet(2)
    spec = down_interior_spec(ab)
    assert spec.gamma == ab and len(spec.ks) == 2
    with pytest.raises(InputError):
        SubstitutionSpec(ab, spec.k0, spec.ks[:1])
    with pytest.raises(InputError):
        SubstitutionSpec(ab, "ab", spec.ks)
    with pytest.raises(InputError):
        SubstitutionSpec(ab, spec.k0, (spec.ks[0], "b"))
    with pytest.raises(InputError):
        substitution_preimage(gen_family("D", 2), (spec.k0,) + spec.ks)


def test_substitution_spec_takes_dfa_parts():
    a = gen_family("D", 2)
    ab = a.alphabet
    d = sigma_star_dfa(ab)
    spec = SubstitutionSpec(ab, d, (d, d))
    assert spec.k0 == as_nfa(d)
    assert substitution_preimage(a, spec) == substitution_preimage(
        a, SubstitutionSpec(ab, as_nfa(d), (as_nfa(d), as_nfa(d))))


def test_identity_substitution_preimage_is_the_language():
    rng = random.Random(62)
    for _ in range(60):
        a = random_nfa(rng, rng.randint(1, 5), 2)
        d = substitution_preimage(a, identity_substitution(a.alphabet))
        assert d == canonical_dfa(a)


def test_up_interior_membership():
    # x is in the up-interior iff no superword of x escapes the language
    rng = random.Random(63)
    for _ in range(60):
        a = random_nfa(rng, rng.randint(1, 4), 2)
        ui = up_interior(a)
        outside = complement(determinize(a))
        for w in all_words(a.alphabet, 3):
            assert accepts(ui, w) == (not down_member(outside, w))


def test_down_interior_membership():
    # x is in the down-interior iff every subword of x is in the language
    rng = random.Random(64)
    for _ in range(60):
        a = random_nfa(rng, rng.randint(1, 4), 2)
        di = down_interior(a)
        outside = complement(determinize(a))
        for w in all_words(a.alphabet, 3):
            assert accepts(di, w) == (not up_member(outside, w))


def test_interior_methods_agree():
    rng = random.Random(65)
    for _ in range(120):
        a = random_nfa(rng, rng.randint(1, 5), rng.randint(1, 3))
        assert up_interior(a, "antichain") == up_interior(a, "duality")
        assert down_interior(a, "antichain") == down_interior(a, "duality")


def test_interior_of_closed_language_is_itself():
    for k in (1, 2, 3):
        u = gen_family("U", k)
        assert up_interior(u) == canonical_dfa(u)
        v = gen_family("V", k)
        assert down_interior(v) == canonical_dfa(v)


def test_interiors_are_closed_and_contained():
    from subwordkit import is_closed
    rng = random.Random(66)
    for _ in range(30):
        a = random_nfa(rng, rng.randint(1, 4), 2)
        for direction, interior in (("up", up_interior), ("down", down_interior)):
            d = interior(a)
            assert is_closed(d, direction).verdict
            for w in all_words(a.alphabet, 3):
                if accepts(d, w):
                    assert accepts(a, w)


def test_interior_rejects_unknown_method():
    a = gen_family("U", 2)
    with pytest.raises(InputError):
        up_interior(a, method="magic")


def test_interior_budget():
    a = gen_family("downIntWitness", 7)
    with pytest.raises(BudgetExceededError):
        down_interior(a, "antichain", budget=10)


@pytest.mark.parametrize("budget", [0, -5])
def test_interiors_reject_nonpositive_budgets(budget):
    a = gen_family("D", 3)
    for interior in (up_interior, down_interior):
        for method in ("antichain", "duality"):
            with pytest.raises(InputError):
                interior(a, method, budget)
    with pytest.raises(InputError):
        substitution_preimage(a, up_interior_spec(a.alphabet), budget)


def test_substitution_preimage_rejects_alphabet_mismatch():
    a = gen_family("U", 2)
    with pytest.raises(InputError):
        substitution_preimage(a, up_interior_spec(auto_alphabet(3)))


def test_dedekind_count_known_values():
    assert [dedekind_count(n) for n in range(7)] == [2, 3, 6, 20, 168, 7581, 7828354]


def test_dedekind_count_matches_brute_force():
    for n in range(5):
        assert dedekind_count(n) == antichain_count_naive(n)


def test_dedekind_count_rejects_out_of_range():
    with pytest.raises(InputError):
        dedekind_count(7)
    with pytest.raises(InputError):
        dedekind_count(-1)
