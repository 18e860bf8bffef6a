import random
import tracemalloc

import pytest

from subwordkit import (
    Alphabet, BudgetExceededError, Dfa, FormatError, InputError, Nfa, auto_alphabet, equivalent,
    gen_family, parse_automaton, parse_dfa, render_dot, serialize_automaton,
)
from subwordkit.experiments import random_dfa, random_nfa


SAMPLE = """\
# a small NFA
alphabet a b
states 3
initial 0 1
final 2
0 a 1   # comment after a transition
1 b 2
1 a 1
"""


def test_parse_sample():
    a = parse_automaton(SAMPLE)
    assert isinstance(a, Nfa)
    assert a.alphabet.symbols == ("a", "b")
    assert a.n == 3
    assert a.initial == frozenset({0, 1})
    assert a.final == frozenset({2})
    assert a.transitions == frozenset({(0, 0, 1), (1, 1, 2), (1, 0, 1)})


def test_round_trip_random():
    rng = random.Random(91)
    for _ in range(120):
        a = random_nfa(rng, rng.randint(1, 6), rng.randint(1, 3))
        assert parse_automaton(serialize_automaton(a)) == a
        d = random_dfa(rng, rng.randint(1, 6), rng.randint(1, 3))
        d2 = parse_dfa(serialize_automaton(d))
        assert isinstance(d2, Dfa) and d2 == d
        for parse, x in ((parse_automaton, a), (parse_dfa, d)):
            # the states header is checked against the budget, with the
            # rule of check_budget: a budget below 1 is bad input
            text = serialize_automaton(x)
            assert parse(text, x.n) == x
            with pytest.raises(InputError if x.n == 1 else BudgetExceededError):
                parse(text, x.n - 1)


def test_a_huge_states_header_is_refused_before_any_table():
    # a table sized by this header would need petabytes
    text = "alphabet a1 a2\nstates 1000000000000000\ninitial 0\nfinal 0\n"
    for parse in (parse_automaton, parse_dfa):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="input states exceeded budget"):
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def test_serializing_a_long_dfa_builds_no_mask_table():
    # A bitmask per edge would hold about n²/2 bits on a path; the
    # triples of a DFA are linear in its size.
    n = 20000
    d = Dfa(auto_alphabet(2), n, {(i, i % 2): i + 1 for i in range(n - 1)}, 0, {n - 1})
    tracemalloc.start()
    try:
        text = serialize_automaton(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 4 + n - 1
    assert peak < 15_000_000


def test_a_dfa_writes_as_its_nfa_does():
    rng = random.Random(29)
    for _ in range(150):
        d = random_dfa(rng, rng.randint(1, 8), rng.randint(1, 3), rng.uniform(0.3, 1.0))
        d = Dfa(d.alphabet, d.n, d.delta_flat(), rng.randrange(d.n), d.final)
        assert serialize_automaton(d) == serialize_automaton(d.to_nfa())
        assert render_dot(d) == render_dot(d.to_nfa())


def test_serialize_is_canonical_and_newline_terminated():
    text = serialize_automaton(parse_automaton(SAMPLE))
    assert text == (
        "alphabet a b\n"
        "states 3\n"
        "initial 0 1\n"
        "final 2\n"
        "0 a 1\n"
        "1 a 1\n"
        "1 b 2\n"
    )


def test_empty_state_sets_round_trip():
    a = Nfa(auto_alphabet(1), 2, {(0, 0, 1)}, set(), set())
    text = serialize_automaton(a)
    lines = text.splitlines()
    assert "initial" in lines and "final" in lines
    assert parse_automaton(text) == a


def test_parse_errors_carry_line_numbers():
    cases = [
        ("", None, "alphabet"),
        ("alphabet\n", 1, "alphabet"),
        ("alphabet a\nstates x\n", 2, "integer"),
        ("alphabet a\nstates -1\n", 2, "nonnegative"),
        ("alphabet a\nstates 1\nfinal\n", 3, "initial"),
        ("alphabet a\nstates 1\ninitial 3\n", 3, "out of range"),
        ("alphabet a\nstates 1\ninitial q\n", 3, "non-integer"),
        ("alphabet a\nstates 1\ninitial 0\n", None, "final"),
        ("alphabet a\nstates 2\ninitial 0\nfinal 1\n0 a\n", 5, "expected"),
        ("alphabet a\nstates 2\ninitial 0\nfinal 1\n0 b 1\n", 5, "not in the alphabet"),
        ("alphabet a a\nstates 1\ninitial 0\nfinal\n", 1, "duplicate"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(FormatError) as exc:
            parse_automaton(text)
        assert fragment in str(exc.value)
        if line is not None:
            assert exc.value.line == line
            assert str(exc.value).startswith(f"line {line}:")


def test_parse_dfa_rejections():
    multi = "alphabet a\nstates 2\ninitial 0 1\nfinal 1\n"
    with pytest.raises(FormatError) as exc:
        parse_dfa(multi)
    assert "exactly one initial" in str(exc.value)
    dup = "alphabet a\nstates 2\ninitial 0\nfinal 1\n0 a 1\n\n0 a 0\n"
    with pytest.raises(FormatError) as exc:
        parse_dfa(dup)
    assert "duplicate transition for state 0 on 'a' (first on line 5)" in str(exc.value)
    assert exc.value.line == 7
    # the same text is a legitimate NFA
    assert parse_automaton(dup).n == 2


def test_comments_and_blank_lines_ignored():
    noisy = "\n\n# header\nalphabet a # trailing\n\nstates 1\ninitial 0\nfinal 0\n# done\n"
    a = parse_automaton(noisy)
    assert a.n == 1 and a.initial == frozenset({0})


def test_render_dot_content():
    d = gen_family("E", 2)
    dot = render_dot(d)
    assert dot.startswith("digraph automaton {")
    assert dot.endswith("}\n")
    assert "rankdir=LR" in dot
    assert "__start0 [shape=point" in dot
    assert "__start0 -> 0;" in dot
    assert dot.count("doublecircle") == len(d.final)
    assert '0 -> 1 [label="a1"];' in dot
    lines = dot.splitlines()
    assert all(l.startswith(("digraph", "  ", "}")) for l in lines)


def test_render_dot_escapes_quotes_and_backslashes_in_labels():
    a = Nfa(Alphabet(('a"b', "c\\")), 2, {(0, 0, 1), (0, 1, 1)}, {0}, {1})
    assert parse_automaton(serialize_automaton(a)) == a
    assert '  0 -> 1 [label="a\\"b,c\\\\"];' in render_dot(a).splitlines()


def test_render_dot_groups_parallel_edges():
    ab = auto_alphabet(2)
    a = Nfa(ab, 3, {(0, 0, 1), (0, 1, 1), (0, 0, 2)}, {0, 2}, {1})
    dot = render_dot(a)
    assert 'label="a1,a2"' in dot
    assert "__start0 -> 0;" in dot and "__start1 -> 2;" in dot


def test_round_trip_preserves_language():
    rng = random.Random(92)
    for _ in range(40):
        a = random_nfa(rng, rng.randint(1, 5), 2)
        b = parse_automaton(serialize_automaton(a))
        assert equivalent(a, b)
