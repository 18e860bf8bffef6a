"""The compiled kernels (the cone, subset construction, the interiors'
antichain search and minimisation) against the pure ones and the
oracles, and the loader's fallback to the pure kernels."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subwordkit import BudgetExceededError, Dfa, Nfa, SubstitutionSpec, Word, auto_alphabet
from subwordkit import _kernels_py, closure_dfa, determinize, gen_family, kernels, minimize
from subwordkit.closures import CONE_SUFFIX_CAP, down_closure, up_closure
from subwordkit.core import as_nfa, dfa_from_words
from subwordkit.interiors import down_interior_spec, identity_substitution, up_interior_spec
from subwordkit.kernels import maximal

from oracles import cone_closure_words_naive, minimal_dfa_size
from strategies import copied_dfas, cone_inputs, dags, dfas, nfas, wide_nfas

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Every test here runs or loads the compiled kernels.  Where they cannot be
# built (no C compiler), the pure kernels that the other test files cover
# are all there is, and this module is skipped.
_native = pytest.importorskip("subwordkit._native", exc_type=ImportError)


def backends_agree(args, n, delta, finals):
    """Both backends give (n, delta, finals) at budget n, and one less
    stops both with the same error."""
    for mod in (_native, _kernels_py):
        got = mod.cone_closure(*args, n)
        assert (got[0], list(got[1]), got[2]) == (n, delta, finals), mod.__name__
        assert got[1].typecode == "i"
        if n > 1:
            with pytest.raises(BudgetExceededError) as e:
                mod.cone_closure(*args, n - 1)
            assert (e.value.what, e.value.budget) == ("closure antichain states", n - 1)


def shuffled(rng):
    """A suffix numbering (see oracles.cone_closure_words_naive) shuffled
    by rng."""
    def numbering(count):
        ids = list(range(count))
        rng.shuffle(ids)
        return ids
    return numbering


def cone_oracles(k, words, rng):
    """(n, delta, finals) of the cone of `words`, the same from the
    member-by-member oracle with the suffixes numbered in word order,
    reversed and shuffled, and from the powerset route on the NFA of the
    words."""
    numberings = (range, lambda count: range(count - 1, -1, -1), shuffled(rng))
    results = {(n, tuple(delta), tuple(finals)) for n, delta, finals in (
        cone_closure_words_naive(k, words, 1 << 20, numbering) for numbering in numberings)}
    assert len(results) == 1
    n, delta, finals = results.pop()
    al = auto_alphabet(k)
    generic = minimize(determinize(up_closure(dfa_from_words(al, [Word(al, w) for w in words]))))
    assert (generic.n, tuple(generic.delta_flat()), tuple(sorted(generic.final))) == (
        n, delta, finals)
    return n, list(delta), list(finals)


@settings(max_examples=300, deadline=None)
@given(cone_inputs(), st.randoms(use_true_random=False))
def test_compiled_cone_matches_the_pure_one_and_the_oracle(args, rng):
    n, delta, finals = cone_oracles(*args, rng)
    backends_agree(args, n, delta, finals)


@pytest.mark.parametrize("words", [
    [(0, 1), (0, 1), (1,), (1,)],       # duplicates
    [(), (0, 1, 0)],                   # the empty word: every word
    [(0, 1, 0), (0,), (1, 1, 0, 1)],   # words that others embed into
    [(1, 0), (0, 1, 1, 0), (1, 0)],
    [],                                # the empty language
], ids=["duplicates", "empty word", "embedded", "embedded duplicate", "no words"])
def test_both_cones_keep_the_minimal_words_once(words):
    n, delta, finals = cone_oracles(2, words, random.Random(0))
    backends_agree((2, words), n, delta, finals)


@settings(max_examples=3, deadline=None)
@given(st.integers(1, 3), st.integers(CONE_SUFFIX_CAP - 64, CONE_SUFFIX_CAP - 1),
       st.integers(0, 2**32))
def test_compiled_cone_on_one_word_near_the_suffix_cap(k, length, seed):
    # 1985 to 2048 suffix ids: 32 words per state, so heads, tails and
    # drops fall in every word.  The upward closure of one word w is read
    # off w: state i has matched w's first i letters, moves on w[i] and
    # loops on every other letter.
    rng = random.Random(seed)
    word = tuple(rng.randrange(k) for _ in range(length))
    assert (len(word) + 1 + 63) // 64 == 32
    delta = [i + 1 if i < length and a == word[i] else i
             for i in range(length + 1) for a in range(k)]
    backends_agree((k, [word]), length + 1, delta, [length])


def cone_args(a):
    """The arguments that closure_dfa(a, "up") hands the cone kernel,
    budget left out."""
    class Seen(Exception):
        pass

    def seen(*args):
        raise Seen(args[:-1])

    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernels, "cone_closure", seen)
        with pytest.raises(Seen) as e:
            closure_dfa(a, "up")
    return e.value.args[0]


def seeded_words():
    """Ten seeded words of length 16 over two letters: 16,074 cone states."""
    rng = random.Random(3)
    al = auto_alphabet(2)
    return dfa_from_words(al, [Word(al, tuple(rng.randrange(2) for _ in range(16)))
                               for _ in range(10)])


@pytest.mark.parametrize("make", [lambda: gen_family("E", 11), lambda: gen_family("E", 12),
                                  lambda: gen_family("heam", 9), lambda: gen_family("heam", 10),
                                  seeded_words],
                         ids=["E(11)", "E(12)", "heam(9)", "heam(10)", "seeded words"])
def test_compiled_cone_across_table_growths_and_batches(make):
    # 2049 to 16,074 states: the slot table, 2048 slots at first, grows
    # once to four times, and the counts are no multiples of the batch
    args = cone_args(make())
    n, delta, finals = _kernels_py.cone_closure(*args, 1 << 22)
    assert n > 2048
    backends_agree(args, n, list(delta), finals)


def test_both_cone_backends_refuse_a_letter_outside_the_alphabet():
    error = "cone_closure: a letter outside \\[0, k\\)"
    for mod in (_native, _kernels_py):
        assert mod.cone_closure(2, [(0, 1)], 10)[0] == 3
        for k, words in ((2, [(0, 2)]), (2, [(1,), (-1,)]), (2, [(0,), (2**40,)]),
                         (0, [(0,)]), (-1, [()]), (-1, [])):
            with pytest.raises(ValueError, match=error):
                mod.cone_closure(k, words, 10)


def subset_backends_agree(a, reduced, budget=1 << 20):
    """Both backends determinise the NFA a alike: the same subsets, table
    and error at `budget`; and, when they finish, the same result at a
    budget of exactly the subset count and the same error one below."""
    succ, init = a.succ_masks(), a.init_mask()
    if not init:
        return
    if reduced:
        init = maximal(succ, a.k, init)
    args = (a.n, a.k, succ, init)
    results = []
    for mod in (_kernels_py, _native):
        try:
            delta, subsets = mod.subset_construction(*args, budget, reduced)
        except BudgetExceededError as e:
            results.append((e.what, e.budget))
        else:
            assert delta.typecode == "i"
            results.append((list(delta), list(subsets)))
    assert results[0] == results[1]
    if isinstance(results[0][1], int):  # both stopped
        return
    count = len(results[0][1])
    for mod in (_kernels_py, _native):
        delta, subsets = mod.subset_construction(*args, count, reduced)
        assert (list(delta), list(subsets)) == results[0]
        if count > 1:
            with pytest.raises(BudgetExceededError) as e:
                mod.subset_construction(*args, count - 1, reduced)
            assert (e.value.what, e.value.budget) == ("determinization subset states",
                                                      count - 1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(nfas(), dags(), dags(back_edges=4)), st.booleans())
def test_compiled_subset_construction_matches_the_pure_one(a, reduced):
    subset_backends_agree(a, reduced)


@settings(max_examples=100, deadline=None)
@given(st.one_of(dags(), dags(back_edges=4)))
def test_compiled_subset_construction_matches_on_reduced_down_closures(a):
    # the reduced route's own input: a down-closure NFA, `maximal` sound
    subset_backends_agree(down_closure(a), True)


@settings(max_examples=60, deadline=None)
@given(wide_nfas(), st.booleans())
def test_compiled_subset_construction_across_word_boundaries(a, reduced):
    # 63 to 200 states: subsets and rows of one to four words; a random
    # table may blow up, so both backends must then stop alike at 3000
    subset_backends_agree(a, reduced, budget=3000)


@pytest.mark.parametrize("reduced", [False, True])
def test_compiled_subset_construction_across_table_growths(reduced):
    # the 4096 subsets of D(12)'s down-closure outgrow the first 2048 slots
    subset_backends_agree(down_closure(gen_family("D", 12)), reduced)


def test_compiled_subset_construction_refuses_a_row_past_n():
    with pytest.raises(ValueError, match="out of range"):
        _native.subset_construction(2, 1, [0b100, 0], 1, 10)


def test_compiled_subset_construction_refuses_a_short_table():
    with pytest.raises(ValueError, match="not states \\* letters long"):
        _native.subset_construction(4, 2, [0b1], 1, 10)


SPECS = (up_interior_spec, down_interior_spec, identity_substitution)


def preimage_args(a, spec):
    """The arguments of kernels.antichain_preimage, budget left out."""
    ks = [(m.n, m.succ_masks(), m.init_mask(), m.final_mask()) for m in (spec.k0,) + spec.ks]
    return a.n, a.k, a.succ_masks(), a.init_mask(), a.final_mask(), ks


def antichain_backends_agree(args, budget=1 << 20):
    """Both backends search alike: the same table, finals and error at
    `budget`; and, when they finish, the same result at a budget of
    exactly the state count and the same error one below."""
    results = []
    for mod in (_kernels_py, _native):
        try:
            count, delta, finals = mod.antichain_preimage(*args, budget)
        except BudgetExceededError as e:
            results.append((e.what, e.budget))
        else:
            assert delta.typecode == "i"
            results.append((count, list(delta), finals))
    assert results[0] == results[1]
    if len(results[0]) == 2:  # both stopped
        return
    count = results[0][0]
    for mod in (_kernels_py, _native):
        count2, delta, finals = mod.antichain_preimage(*args, count)
        assert (count2, list(delta), finals) == results[0]
        if count > 1:
            with pytest.raises(BudgetExceededError) as e:
                mod.antichain_preimage(*args, count - 1)
            assert (e.value.what, e.value.budget) == ("interior antichain states", count - 1)


@settings(max_examples=150, deadline=None)
@given(nfas(), st.sampled_from(SPECS))
def test_compiled_antichain_search_matches_the_pure_one(a, spec):
    antichain_backends_agree(preimage_args(a, spec(a.alphabet)))


@settings(max_examples=30, deadline=None)
@given(wide_nfas(), st.sampled_from(SPECS))
def test_compiled_antichain_search_across_word_boundaries(a, spec):
    # masks of one to four words; a search that outgrows 3000 states must
    # stop alike on both backends
    antichain_backends_agree(preimage_args(a, spec(a.alphabet)), budget=3000)


@st.composite
def random_specs(draw):
    """A random NFA and a substitution of 1 to 3 target letters whose K
    automata are random NFAs of 1 to 3 states over its alphabet."""
    a = draw(nfas(max_states=6))

    def k_automaton():
        n = draw(st.integers(1, 3))
        state = st.integers(0, n - 1)
        trans = draw(st.sets(st.tuples(state, st.integers(0, a.k - 1), state), max_size=3 * n))
        return Nfa(a.alphabet, n, trans, draw(st.sets(state, min_size=1, max_size=n)),
                   draw(st.sets(state, max_size=n)))

    m = draw(st.integers(1, 3))
    return a, SubstitutionSpec(auto_alphabet(m, "b"), k_automaton(),
                               tuple(k_automaton() for _ in range(m)))


@settings(max_examples=150, deadline=None)
@given(random_specs())
def test_compiled_antichain_search_on_random_substitutions(case):
    a, spec = case
    antichain_backends_agree(preimage_args(a, spec), budget=3000)


def path_automaton(alphabet, n):
    """An n-state path on the first letter, accepting at its end only."""
    return Nfa(alphabet, n, {(q, 0, q + 1) for q in range(n - 1)}, {0}, {n - 1})


@pytest.mark.parametrize("states", [64, 65])
def test_compiled_antichain_search_takes_k_automata_of_at_most_64_states(monkeypatch, states):
    # A K automaton of 64 states fits the compiled step's one-word sets; one
    # of 65 states runs the pure search, and the library is not called.
    a = up_interior_spec(auto_alphabet(2)).ks[0]  # Σ* a1 Σ*, two states
    long = path_automaton(a.alphabet, states)
    args = preimage_args(a, SubstitutionSpec(a.alphabet, long, (long, a)))
    want = _kernels_py.antichain_preimage(*args, 1 << 20)
    if states > 64:
        monkeypatch.setattr(_native, "_lib", None)
    got = _native.antichain_preimage(*args, 1 << 20)
    assert (got[0], list(got[1]), got[2]) == (want[0], list(want[1]), want[2])


def test_compiled_antichain_search_clears_a_grown_pairs_table():
    # sigma(b_x) = x^40: a reach on a target letter walks 41 (mask, K
    # state set) pairs, past the 24 that the pairs table's first 32 slots
    # take, and a reach on K_0 = {ε} one pair, so the grown table is
    # cleared both after long reaches and after short ones
    a = as_nfa(gen_family("U", 4))
    power = [Nfa(a.alphabet, 41, {(q, x, q + 1) for q in range(40)}, {0}, {40})
             for x in range(a.k)]
    ident = identity_substitution(a.alphabet)
    args = preimage_args(a, SubstitutionSpec(ident.gamma, ident.k0, tuple(power)))
    assert _kernels_py.antichain_preimage(*args, 1 << 20)[0] == 16
    antichain_backends_agree(args)


def test_compiled_antichain_search_refuses_a_row_past_n_and_a_short_table():
    ks = [(1, [0], 1, 1), (1, [0], 1, 1)]
    with pytest.raises(ValueError, match="out of range"):
        _native.antichain_preimage(2, 1, [0b100, 0], 1, 1, ks, 10)
    with pytest.raises(ValueError, match="out of range"):  # a K row past its states
        _native.antichain_preimage(2, 1, [0b10, 0], 1, 1, [(1, [0b10], 1, 1), ks[1]], 10)
    with pytest.raises(ValueError, match="not states \\* letters long"):
        _native.antichain_preimage(2, 1, [0b10, 0], 1, 1, [(2, [0], 1, 1), ks[1]], 10)


def minimize_backends_agree(d):
    args = (d.n, d.k, d.delta_flat(), d.initial, sorted(d.final))
    n, delta, finals = _kernels_py.dfa_minimize(*args)
    got = _native.dfa_minimize(*args)
    assert (got[0], list(got[1]), got[2]) == (n, list(delta), finals)
    assert n == minimal_dfa_size(d)


@settings(max_examples=300, deadline=None)
@given(dfas(max_states=8))
def test_compiled_minimize_matches_the_pure_one_and_the_oracle(d):
    minimize_backends_agree(d)


@settings(max_examples=100, deadline=None)
@given(copied_dfas())
def test_compiled_minimize_merges_copied_states_like_the_pure_one(d):
    minimize_backends_agree(d)


def test_compiled_minimize_of_the_empty_language_and_a_bad_target():
    d = Dfa(auto_alphabet(2), 3, [1, -1, 2, -1, 2, 2], 0, ())
    assert _native.dfa_minimize(d.n, d.k, d.delta_flat(), 0, []) == (1, [-1, -1], [])
    with pytest.raises(ValueError, match="out of range"):
        _native.dfa_minimize(2, 1, [1, 2], 0, [1])


def test_the_source_compiles_without_warnings(tmp_path):
    # stricter than FLAGS, and into tmp_path, so the cached build is not
    # touched; the module is skipped where no compiler is on the PATH
    out = tmp_path / "native.so"
    done = subprocess.run([_native.compiler(), "-O2", "-Wall", "-Wextra", "-Werror", "-shared",
                           "-fPIC", "-o", str(out), _native.SOURCE], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert out.stat().st_size


def test_loader_needs_a_compiler(tmp_path):
    with pytest.raises(ImportError, match="no C compiler"):
        _native.load(str(tmp_path), None)


def test_loader_needs_a_writable_cache(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(ImportError):
        _native.load(str(blocker / "cache"), _native.compiler())


def test_loader_refuses_a_cache_that_others_may_write(tmp_path):
    cache = tmp_path / "cache"
    lib = _native.load(str(cache), _native.compiler())
    assert lib.cone_closure
    (build,) = cache.iterdir()
    build.chmod(0o722)
    with pytest.raises(ImportError, match="not private"):
        _native.load(str(cache), _native.compiler())
    build.chmod(0o700)
    cache.chmod(0o777)
    with pytest.raises(ImportError, match="not private"):
        _native.load(str(cache), _native.compiler())


PROBE = """
import random
from subwordkit import canonical_dfa, closure_dfa, gen_family, kernels, serialize_automaton
from subwordkit.experiments import random_dfa
print(kernels.ACTIVE)
# Reading ACTIVE loads the compiled kernels, so where they build every
# kernel below runs compiled: cones, subset constructions (U(5) up, D(9)
# down) and minimisations, one of a 2100-state DFA.
dfas = [closure_dfa(gen_family(name, n), "up")
        for name, n in (("E", 5), ("heam", 6), ("twoLetter", 2), ("U", 5))]
dfas.append(closure_dfa(gen_family("D", 9), "down"))
dfas.append(canonical_dfa(random_dfa(random.Random(0), 2100, 2)))
for d in dfas:
    print(serialize_automaton(d).replace("\\n", "|"))
"""


@pytest.mark.parametrize("broken", ["no compiler", "cache under a file"])
def test_kernels_fall_back_to_the_pure_cone(tmp_path, broken):
    # A child with no compiler on its PATH, or whose home is a file (so no
    # cache directory can be made), runs the pure kernels, to the same DFAs.
    home = tmp_path / "home"
    if broken == "cache under a file":
        home.write_text("")
        path = os.environ.get("PATH", "")
    else:
        home.mkdir()
        path = ""
    env = dict(os.environ, HOME=str(home), PATH=path, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    same = subprocess.run([sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == "pure"
    assert same[0] == "compiled"
    assert len(out) == 7 and out[1:] == same[1:]


def test_the_compiled_step_loads_on_first_use_only():
    code = ("import sys\n"
            "from subwordkit import closure_dfa, gen_family, kernels\n"
            "closure_dfa(gen_family('D', 3), 'down')\n"
            "print('subwordkit._native' in sys.modules, 'ctypes' in sys.modules)\n"
            "closure_dfa(gen_family('E', 3), 'up')\n"
            "print('subwordkit._native' in sys.modules, kernels.ACTIVE)\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["False False", "True compiled"]



def test_a_construction_past_the_load_bound_loads_the_compiled_kernels():
    # D(9) down has 512 subsets over 9 letters: past LOAD_MIN_WORK // 9 =
    # 455, the pure run stops and the compiled one starts again; a budget
    # below that bound stops the pure run with its own error.  A DFA is
    # minimised pure below LOAD_MIN_WORK states times letters.
    code = ("import random, sys\n"
            "from subwordkit import BudgetExceededError, closure_dfa, gen_family, kernels\n"
            "from subwordkit import minimize\n"
            "from subwordkit.experiments import random_dfa\n"
            "assert kernels.LOAD_MIN_WORK // 9 == 455\n"
            "closure_dfa(gen_family('D', 6), 'down')\n"
            "minimize(random_dfa(random.Random(0), kernels.LOAD_MIN_WORK // 2 - 1, 2))\n"
            "print('subwordkit._native' in sys.modules)\n"
            "try:\n"
            "    closure_dfa(gen_family('D', 9), 'down', budget=100)\n"
            "except BudgetExceededError as e:\n"
            "    print(e.what, e.budget, 'subwordkit._native' in sys.modules)\n"
            "d = closure_dfa(gen_family('D', 9), 'down')\n"
            "print(d.n, 'subwordkit._native' in sys.modules, kernels.ACTIVE)\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["False", "determinization subset states 100 False", "512 True compiled"]
    code = ("import random, sys\n"
            "from subwordkit import kernels, minimize\n"
            "from subwordkit.experiments import random_dfa\n"
            "minimize(random_dfa(random.Random(0), kernels.LOAD_MIN_WORK // 2, 2))\n"
            "print('subwordkit._native' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["True"]


def test_an_interior_past_the_load_bound_loads_the_compiled_kernels():
    # downIntWitness(9)'s down interior numbers 519 antichain states over 8
    # target letters: past LOAD_MIN_WORK // 8 = 512, the pure search stops
    # and the compiled one starts again.  downIntWitness(7)'s 35 states
    # stay pure, and a budget below the bound stops the pure search with
    # its own error.
    code = ("import sys\n"
            "from subwordkit import BudgetExceededError, down_interior, gen_family, kernels\n"
            "assert kernels.LOAD_MIN_WORK // 8 == 512\n"
            "d = down_interior(gen_family('downIntWitness', 7))\n"
            "print(d.n, 'subwordkit._native' in sys.modules, 'ctypes' in sys.modules)\n"
            "try:\n"
            "    down_interior(gen_family('downIntWitness', 9), budget=100)\n"
            "except BudgetExceededError as e:\n"
            "    print(e.what, e.budget, 'subwordkit._native' in sys.modules)\n"
            "d = down_interior(gen_family('downIntWitness', 9))\n"
            "print(d.n, 'subwordkit._native' in sys.modules, kernels.ACTIVE)\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["16 False False", "interior antichain states 100 False", "256 True compiled"]
