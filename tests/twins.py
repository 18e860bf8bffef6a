"""The compiled kernels and closure_dfa's compiled front end beside their
pure twins, on the same inputs.

The helpers serve tests/test_front.py.  Run as a script, this checks every
compiled kernel and the front end against the pure ones on a fixed set of
family inputs and seeded random automata, on the library that
`_native.load` builds from `_native.c` with the given compiler flags into
the cache directory CACHE; it exits nonzero at the first difference:

    PYTHONPATH=src python tests/twins.py CACHE FLAG...
"""

import random
import sys

from subwordkit import Dfa, Nfa, _kernels_py, auto_alphabet, closure_dfa, gen_family, kernels
from subwordkit.closures import (CONE_SUFFIX_CAP, CONE_WORD_CAP, REDUCE_MIN_STATES,
                                 _CONE_STEP_CAP, _composed_closure_dfa, _finite_language,
                                 _reduced_down_closure, up_closure)
from subwordkit.core import _strong_components, as_nfa, check_budget
from subwordkit.experiments import random_dfa, random_nfa
from subwordkit.interiors import down_interior_spec, up_interior_spec
from subwordkit.kernels import maximal


def compiled_components(a):
    """core.strong_components of `a` in C, read as its tuple of lists."""
    from subwordkit import _native
    if isinstance(a, Dfa):
        return _native.strong_components(a.n, a.k, a.delta_flat(), None)
    a = as_nfa(a)
    return _native.strong_components(a.n, a.k, None, a.succ_masks())


def front_of(a, up):
    """The _native.Front that closure_dfa prepares for `a` in C."""
    from subwordkit import _native
    initial = (a.initial,) if isinstance(a, Dfa) else a.initial
    return _native.closure_front(compiled_components(a), initial, a.final, up, REDUCE_MIN_STATES,
                                 CONE_WORD_CAP, CONE_SUFFIX_CAP, _CONE_STEP_CAP)


def compiled_front(a, up):
    """What the compiled front end hands the closure kernels for `a`:
    ("words", words) or ("rows", masks, init, final, reduced)."""
    f = front_of(a, up)
    if f.words is not None:
        return "words", list(f.words)
    return "rows", f.rows.masks(), int(f.init), int(f.rows.fin), f.reduced


def pure_front(a, up):
    """The same from the pure composition of closures."""
    a = as_nfa(a)
    components = _strong_components(a)
    if up:
        words = _finite_language(a, components)
        if words is not None:
            return "words", words
        closure, reduced = up_closure(a), False
    else:
        closure, reduced = _reduced_down_closure(a, components)
    succ = closure.succ_masks()
    init = closure.init_mask()
    if reduced:
        init = maximal(succ, closure.k, init)
    return "rows", list(succ), init, closure.final_mask(), reduced


def composed(a, direction, budget):
    """closure_dfa by the pure composition, on the loaded kernels."""
    check_budget(a, budget)
    a = as_nfa(a)
    return _composed_closure_dfa(a, direction == "up", budget, _strong_components(a))


def construction_states(a, direction):
    """The least budget that closure_dfa(a, direction) runs within: the
    input's states, or the states its cone or subset construction numbers
    if more."""
    front = pure_front(a, direction == "up")
    if front[0] == "words":
        count = kernels.cone_closure(a.k, front[1], 1 << 30)[0] if front[1] else 1
    elif front[2]:
        _, succ, init, _, reduced = front
        count = len(_kernels_py.subset_construction(a.n, a.k, succ, init, 1 << 30, reduced)[1])
    else:
        count = 1
    return max(a.n, count)


def inputs(seed=0):
    """Family inputs and seeded random NFAs and DFAs, small and wide."""
    out = [gen_family(name, n) for name, ns in (
        ("E", (3, 6)), ("heam", (4, 7)), ("D", (4, 7)), ("notU", (4, 6)), ("U", (3, 5)),
        ("V", (3, 5)), ("Uprime", (3, 4)), ("twoLetter", (2,)), ("downIntWitness", (5,)),
        ("upIntWitness", (7,))) for n in ns]
    rng = random.Random(seed)
    for i in range(40):
        out.append(random_nfa(rng, rng.randint(1, 12), 1 + i % 3, rng.uniform(0.05, 0.3)))
        out.append(random_dfa(rng, rng.randint(1, 12), 1 + i % 3))
    for n in (63, 64, 65, 100, 130):
        # a path numbered against its edges, with a shortcut and a cycle
        trans = {(q + 1, q % 2, q) for q in range(n - 1)} | {(n - 1, 0, n // 2), (3, 1, 5)}
        out.append(Nfa(auto_alphabet(2), n, trans, {n - 1}, {0, n // 3}))
    return out


def main(cache, flags):
    from subwordkit import _native
    _native.FLAGS = tuple(flags)
    _native._lib = _native.load(cache, _native.compiler())
    assert kernels.ACTIVE == "compiled"
    budget = 1 << 16
    for a in inputs():
        assert tuple(compiled_components(a)) == _strong_components(as_nfa(a))
        for direction in ("up", "down"):
            up = direction == "up"
            front = pure_front(a, up)
            assert compiled_front(a, up) == front, (a, direction)
            assert closure_dfa(a, direction, budget) == composed(a, direction, budget)
            if front[0] == "words":
                if front[1]:
                    assert (_native.cone_closure(a.k, front[1], budget)[:2]
                            == _kernels_py.cone_closure(a.k, front[1], budget)[:2])
                continue
            _, succ, init, fin, reduced = front
            if not init:
                continue
            for red in {False, reduced}:
                args = (a.n, a.k, succ, maximal(succ, a.k, init) if red else init, budget, red)
                delta, subsets = _native.subset_construction(*args)
                pure = _kernels_py.subset_construction(*args)
                assert (list(delta), subsets) == (list(pure[0]), pure[1])
                finals = [i for i, s in enumerate(subsets) if s & fin]
                args = (len(subsets), a.k, delta, 0, finals)
                got, want = _native.dfa_minimize(*args), _kernels_py.dfa_minimize(*args)
                assert (got[0], list(got[1]), got[2]) == (want[0], list(want[1]), want[2])
        if a.n <= 12:
            a = as_nfa(a)
            for make in (down_interior_spec, up_interior_spec):
                spec = make(a.alphabet)
                ks = [(m.n, m.succ_masks(), m.init_mask(), m.final_mask())
                      for m in (spec.k0,) + spec.ks]
                args = (a.n, a.k, a.succ_masks(), a.init_mask(), a.final_mask(), ks, budget)
                got, want = _native.antichain_preimage(*args), _kernels_py.antichain_preimage(*args)
                assert (got[0], list(got[1]), got[2]) == (want[0], list(want[1]), want[2])
    print("ok")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
