"""Time the kernels on one representative workload each.

Each `workload_*(rng)` builds one kernel's flat inputs and returns
(name, description, run), where run(module) calls that kernel of the given
kernel module; the best of --repeat runs is printed for each pure kernel.
The kernels with a compiled form (the cone, subset construction, the
interiors' antichain search and minimisation) and closure_dfa's front end
get a second column for `_native` when that loads (a C compiler is on the
PATH).

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --repeat 5 --seed 1
"""

import argparse
import os
import random
import sys
import time

from subwordkit import DEFAULT_BUDGET, decisions, down_closure, gen_family, up_closure
from subwordkit import _kernels_py
from subwordkit.experiments import random_nfa
from subwordkit.interiors import down_interior_spec, up_interior_spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))
from twins import compiled_front, pure_front  # noqa: E402  (the front end and its twin)


def bench(fn, repeat):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def workload_is_subword(rng):
    pairs = []
    for _ in range(2000):
        x = tuple(rng.randrange(4) for _ in range(rng.randint(10, 50)))
        y = tuple(rng.randrange(4) for _ in range(400))
        pairs.append((x, y))

    def run(mod):
        return sum(1 for x, y in pairs if mod.is_subword(x, y))

    return "is_subword", "2000 pairs, |y|=400, k=4", run


def workload_subset(rng):
    a = down_closure(gen_family("D", 14))
    succ = a.succ_masks()
    init = a.init_mask()

    def run(mod):
        delta, subsets = mod.subset_construction(a.n, a.k, succ, init, DEFAULT_BUDGET)
        return len(subsets), list(delta)

    return "subset_construction", "down-closure of D(14), 2^14 subsets", run


def workload_minimize(rng):
    a = down_closure(gen_family("D", 13))
    delta, subsets = _kernels_py.subset_construction(
        a.n, a.k, a.succ_masks(), a.init_mask(), DEFAULT_BUDGET)
    fmask = a.final_mask()
    finals = sorted(i for i, s in enumerate(subsets) if s & fmask)

    def run(mod):
        n2, d2, f2 = mod.dfa_minimize(len(subsets), a.k, delta, 0, finals)
        return n2, list(d2), list(f2)

    return "dfa_minimize", f"partial DFA, {len(subsets)} states, k={a.k}", run


def workload_cone(rng):
    # equal-length words are pairwise incomparable, keeping all generators
    k = 3
    words = sorted({tuple(rng.randrange(k) for _ in range(9))
                    for _ in range(12)})
    suffixes = len({w[i:] for w in words for i in range(len(w) + 1)})

    def run(mod):
        n, delta, finals = mod.cone_closure(k, words, DEFAULT_BUDGET)
        return n, list(delta), list(finals)

    return "cone_closure", f"{len(words)} generators, {suffixes} suffixes", run


def workload_antichain(rng):
    # the two largest antichain interiors of the paper's families
    searches = []
    for name, n, make_spec in (("downIntWitness", 9, down_interior_spec),
                               ("upIntWitness", 10, up_interior_spec)):
        a = gen_family(name, n)
        spec = make_spec(a.alphabet)
        ks = [(m.n, m.succ_masks(), m.init_mask(), m.final_mask()) for m in (spec.k0,) + spec.ks]
        searches.append((a.n, a.k, a.succ_masks(), a.init_mask(), a.final_mask(), ks))

    def run(mod):
        # a kernel module without this kernel (a compiled twin built
        # before it) has nothing to compare: it runs the pure one
        search = getattr(mod, "antichain_preimage", _kernels_py.antichain_preimage)
        out = []
        for args in searches:
            count, delta, finals = search(*args, DEFAULT_BUDGET)
            out.append((count, list(delta), list(finals)))
        return out

    return "antichain_preimage", "downIntWitness(9) down, upIntW(10) up", run


def workload_front(rng):
    # closure_dfa's front end on three families ops: the strong components,
    # then the finite language's words for the cone or the closure NFA's
    # rows for the subset construction, read back as Python values.  A
    # module without the compiled front end runs the pure composition.
    cases = [(gen_family("U", 6), False), (gen_family("V", 6), True),
             (gen_family("heam", 10), True)]

    def run(mod):
        front = compiled_front if hasattr(mod, "closure_front") else pure_front
        return [front(a, up) for a, up in cases]

    return "closure_front", "U(6) down, V(6) up, heam(10) up", run


def workload_product_search(rng):
    # Seeded closure pairs through the product search, which steps both
    # sides by `rows` from the package's kernel layer, whatever module is
    # passed in.  A closure against itself has an empty difference, so
    # that search meets every reachable pair; the others mostly stop early.
    searches = []
    for i in range(200):
        k = 2 + i % 2
        closure = up_closure if i % 2 else down_closure
        a = closure(random_nfa(rng, rng.randint(8, 14), k, 0.15))
        b = closure(random_nfa(rng, rng.randint(8, 14), k, 0.15))
        searches += [(a, b), (a, a)]

    def run(mod):
        out = []
        for a, b in searches:
            w = decisions._shortest_in_difference(a, b, DEFAULT_BUDGET, False, False)
            out.append(None if w is None else w.letters)
        return out

    return "product_search", "200 seeded closure pairs, n 8-14, k 2-3", run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed runs per kernel; best is reported")
    args = parser.parse_args()

    try:
        from subwordkit import _native
    except ImportError as e:
        print(f"# compiled kernels unavailable: {e}")
        _native = None
    head = f"{'kernel':<22}{'workload':<38}{'pure':>11}" + (f"{'compiled':>11}" if _native else "")
    print(head)
    print("-" * len(head))
    for make in (workload_is_subword, workload_subset, workload_minimize,
                 workload_cone, workload_antichain, workload_front, workload_product_search):
        name, desc, run = make(random.Random(args.seed))
        compiled = getattr(_native, name, None)
        mods = [_kernels_py]
        if compiled is not None and compiled is not getattr(_kernels_py, name, None):
            mods.append(_native)
        cols = "".join(f"{bench(lambda: run(mod), args.repeat) * 1000:>9.1f}ms" for mod in mods)
        print(f"{name:<22}{desc:<38}{cols}")


if __name__ == "__main__":
    main()
