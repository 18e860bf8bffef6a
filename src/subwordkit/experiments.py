"""Reproducible experiments pairing measured quantities with predictions.

Each experiment produces rows (param, measured, predicted, verdict).  The
verdict is "exact-match" or "bound-satisfied" when the measurement meets
the prediction and "mismatch" otherwise; a report passes when no row
mismatches.  Random experiments draw everything from one seeded
random.Random, so a report is reproducible from (experiment, seed).

run_experiment(experiment_id, params) runs one experiment; params is an
optional dict overriding the experiment's keyword defaults (sample
counts, parameter ranges, budgets, the seed).
"""

from __future__ import annotations

import csv
import inspect
import io
import math
import random
import time
from dataclasses import dataclass
from itertools import combinations, product

from .errors import InputError, VerificationError
from .core import (
    DEFAULT_BUDGET,
    Dfa,
    Nfa,
    Word,
    accepts,
    auto_alphabet,
    canonical_dfa,
    enumerate_upto,
    equivalent,
    intersect,
    map_symbols,
    minimize,
    sigma_star_dfa,
)
from .subwords import embeds
from .closures import closure_dfa, down_closure, up_closure
from .interiors import dedekind_count, down_interior, up_interior
from .witnesses import (
    TwoLetterParams,
    c_word,
    distinguisher_words,
    fooling_for,
    gen_family,
    min_cover_power,
    max_prefix_power,
    morphism_value,
)
from .bounds import FoolingSet, mx_matrix, rational_rank, ufa_lower_bound, verify_fooling
from .decisions import (
    closure_inclusion,
    dfa_closed_witness,
    down_universal,
    is_closed,
)

VERDICTS = ("exact-match", "bound-satisfied", "mismatch")


@dataclass(frozen=True)
class ExperimentRow:
    param: str
    measured: object
    predicted: object
    verdict: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise InputError(f"unknown verdict {self.verdict!r}")


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    seed: object
    runtime: float
    rows: tuple

    @property
    def passed(self):
        return all(r.verdict != "mismatch" for r in self.rows)

    def to_text(self):
        head = [f"experiment: {self.experiment}"]
        if self.seed is not None:
            head.append(f"seed: {self.seed}")
        head.append(f"rows: {len(self.rows)}  passed: {'yes' if self.passed else 'no'}"
                    f"  runtime: {self.runtime:.2f}s")
        table = [("param", "measured", "predicted", "verdict")]
        table.extend((r.param, str(r.measured), str(r.predicted), r.verdict) for r in self.rows)
        widths = [max(len(row[i]) for row in table) for i in range(4)]
        body = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
                for row in table]
        return "\n".join(head + body) + "\n"

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(("experiment", "param", "measured", "predicted", "verdict"))
        for r in self.rows:
            w.writerow((self.experiment, r.param, str(r.measured), str(r.predicted), r.verdict))
        return buf.getvalue()


def _exact(param, measured, predicted):
    verdict = "exact-match" if measured == predicted else "mismatch"
    return ExperimentRow(param, measured, predicted, verdict)


def _bound(param, measured, predicted, ok):
    return ExperimentRow(param, measured, predicted, "bound-satisfied" if ok else "mismatch")


def random_nfa(rng, n, k, density=0.18, single_initial=False):
    """Random n-state NFA over a1..ak; each possible transition is kept
    with the given probability, and initial/final sets are nonempty."""
    if n < 1 or k < 1:
        raise InputError("random_nfa needs n >= 1 and k >= 1")
    # the n*k table of successor masks, drawn in (p, x, q) order
    succ = []
    for _ in range(n * k):
        m = 0
        for q in range(n):
            if rng.random() < density:
                m |= 1 << q
        succ.append(m)
    if single_initial:
        initial = {rng.randrange(n)}
    else:
        initial = {q for q in range(n) if rng.random() < 0.3} or {rng.randrange(n)}
    final = {q for q in range(n) if rng.random() < 0.3} or {rng.randrange(n)}
    return Nfa._of_masks(auto_alphabet(k), n, succ, initial, final)


def random_dfa(rng, n, k, density=0.85):
    """Random partial DFA with initial state 0 and a nonempty final set."""
    if n < 1 or k < 1:
        raise InputError("random_dfa needs n >= 1 and k >= 1")
    delta = {}
    for p in range(n):
        for x in range(k):
            if rng.random() < density:
                delta[(p, x)] = rng.randrange(n)
    final = {q for q in range(n) if rng.random() < 0.4} or {rng.randrange(n)}
    return Dfa(auto_alphabet(k), n, delta, 0, final)


def _exp_up_closure(ns=(3, 4, 5, 6, 7, 8), budget=DEFAULT_BUDGET):
    return [_exact(f"n={n}", closure_dfa(gen_family("E", n - 2), "up", budget).n, 2 ** (n - 2) + 1)
            for n in ns]


def _exp_down_closure(ns=(2, 3, 4, 5, 6, 7, 8), budget=DEFAULT_BUDGET):
    return [_exact(f"n={n}", closure_dfa(gen_family("D", n - 1), "down", budget).n, 2 ** (n - 1))
            for n in ns]


def _exp_not_u(ns=(1, 2, 3, 4, 5, 6), budget=DEFAULT_BUDGET):
    rows = []
    for n in ns:
        a = gen_family("notU", n)
        rows.append(_exact(f"n={n} states", a.n, n))
        rows.append(_exact(f"n={n} down closure", closure_dfa(a, "down", budget).n, 2 ** n - 1))
    return rows


def _exp_down_strict(count=500, seed=0, budget=DEFAULT_BUDGET):
    rng = random.Random(seed)
    worst = {4: 0, 5: 0, 6: 0}
    samples = {4: 0, 5: 0, 6: 0}
    for _ in range(count):
        n = rng.choice((4, 5, 6))
        k = rng.randrange(1, n - 1)
        a = random_nfa(rng, n, k, rng.uniform(0.08, 0.3), single_initial=True)
        samples[n] += 1
        worst[n] = max(worst[n], closure_dfa(a, "down", budget).n)
    return [_bound(f"n={n} samples={samples[n]}", worst[n], f"< {2 ** (n - 1)}",
                   worst[n] < 2 ** (n - 1))
            for n in (4, 5, 6)]


def _exp_two_letter_binomial(ns=(2, 4), budget=1 << 22):
    # The up-closure at n=4 runs past a million states, hence the budget.
    rows = []
    for n in ns:
        d = gen_family("twoLetter", n)
        rows.append(_exact(f"n={n} minimal", d.n, 3 * n ** 3 + 1))
        bound = math.comb(n + 1, n // 2)
        for direction in ("down", "up"):
            size = closure_dfa(d, direction, budget).n
            rows.append(_bound(f"n={n} {direction} closure", size, f">= {bound}", size >= bound))
    return rows


def _exp_two_letter_lemmas(ns=(2, 4), max_len=3):
    rows = []
    for n in ns:
        h = TwoLetterParams(n).h
        members = [c_word(i, n) * n for i in h]

        def up_member(w):
            return any(embeds(m, w) for m in members)

        def down_member(w):
            return any(embeds(w, m) for m in members)

        cover_fail = 0
        prefix_fail = 0
        checked = 0
        for length in range(max_len + 1):
            for sigma in product(h, repeat=length):
                for i in h:
                    checked += 1
                    if min_cover_power(sigma, i, n) != morphism_value("theta", i, sigma):
                        cover_fail += 1
                    if max_prefix_power(sigma, i, n) != morphism_value("eta", i, sigma):
                        prefix_fail += 1
        rows.append(_exact(f"n={n} cover powers ({checked} cases)", cover_fail, 0))
        rows.append(_exact(f"n={n} prefix powers ({checked} cases)", prefix_fail, 0))

        subsets = [frozenset(c) for c in combinations(h, n // 2)]
        # the up lemma needs eta_j(Y) = n/2 + 1 < n, i.e. n >= 4; below that
        # every w'_X is itself a member, so all of them have residual Sigma*
        up_in_range = n >= 4
        down_fail = up_fail = down_checked = up_checked = 0
        for xs in subsets:
            for ys in subsets:
                if xs == ys:
                    continue
                wx_down = distinguisher_words(xs, n, "down")
                wy_down = distinguisher_words(ys, n, "down")
                wx_up = distinguisher_words(xs, n, "up")
                wy_up = distinguisher_words(ys, n, "up")
                for i in sorted(xs - ys):
                    v = c_word(i, n)
                    down_checked += 1
                    if not (down_member(wx_down + v) and not down_member(wy_down + v)):
                        down_fail += 1
                    if not up_in_range:
                        continue
                    v = c_word(i, n) * (n // 2 - 1)
                    up_checked += 1
                    if not (up_member(wx_up + v) and not up_member(wy_up + v)):
                        up_fail += 1
        rows.append(_exact(f"n={n} down distinguishers ({down_checked} cases)", down_fail, 0))
        if up_in_range:
            rows.append(_exact(f"n={n} up distinguishers ({up_checked} cases)", up_fail, 0))
        else:
            in_family = sum(distinguisher_words(xs, n, "up") in members for xs in subsets)
            rows.append(_exact(f"n={n} up distinguishers outside the lemma (needs n >= 4): "
                               f"w'_X in twoLetter(n)", in_family, len(subsets)))
    return rows


def _phi_ceil_over_7(n):
    # ceil(phi^n / 7) exactly, from phi^n = (lucas(n) + fib(n) sqrt(5)) / 2;
    # phi^n is irrational for n >= 1, so the ceiling is the floor plus one.
    f0, f1 = 0, 1
    l0, l1 = 2, 1
    for _ in range(n):
        f0, f1 = f1, f0 + f1
        l0, l1 = l1, l0 + l1
    return (l0 + math.isqrt(5 * f0 * f0)) // 14 + 1


def _exp_heam(states_ns=(2, 3, 4, 5, 6), phi_ns=(4, 5, 6, 7, 8), budget=DEFAULT_BUDGET):
    rows = [_exact(f"n={n} states", gen_family("heam", n).n, (n + 1) ** 2)
            for n in states_ns]
    for n in phi_ns:
        size = closure_dfa(gen_family("heam", n), "up", budget).n
        bound = _phi_ceil_over_7(n)
        rows.append(_bound(f"n={n} up closure", size, f">= {bound}", size >= bound))
    return rows


def _exp_dedekind(count=200, seed=0, budget=DEFAULT_BUDGET):
    expected = (2, 3, 6, 20, 168, 7581)
    rows = [_exact(f"psi({n})", dedekind_count(n), expected[n]) for n in range(6)]
    rng = random.Random(seed)
    psi = {n: dedekind_count(n) for n in range(1, 6)}
    disagree = 0
    oversize = 0
    for _ in range(count):
        n = rng.randrange(1, 6)
        k = rng.randrange(1, 4)
        a = random_nfa(rng, n, k, rng.uniform(0.1, 0.4))
        for interior in (up_interior, down_interior):
            d1 = interior(a, "antichain", budget)
            d2 = interior(a, "duality", budget)
            if d1 != d2:
                disagree += 1
            if not d1.n < psi[n]:
                oversize += 1
    rows.append(_exact(f"duality agreement samples={count}", disagree, 0))
    rows.append(_exact(f"psi size bound samples={count}", oversize, 0))
    return rows


def _remap_words(s, alphabet):
    return FoolingSet(tuple((Word(alphabet, x.letters), Word(alphabet, y.letters))
                            for x, y in s.pairs))


def _exp_down_int_witness(ns=(3, 5), budget=DEFAULT_BUDGET):
    rows = []
    for n in ns:
        a = gen_family("downIntWitness", n)
        rows.append(_bound(f"n={n} states", a.n, f"<= {n}", a.n <= n))
        d = down_interior(a, budget=budget)
        v = map_symbols(gen_family("V", a.k), a.alphabet, {i: i for i in range(a.k)})
        rows.append(_exact(f"n={n} interior", "V" if equivalent(d, v) else "other", "V"))
        s = _remap_words(fooling_for("V", a.k), a.alphabet)
        try:
            m = verify_fooling(d, s)
        except VerificationError:
            m = "rejected"
        rows.append(_exact(f"n={n} fooling", m, 2 ** a.k))
    return rows


def _exp_up_int_witness(n=7, budget=DEFAULT_BUDGET):
    a = gen_family("upIntWitness", n)
    rows = [_bound(f"n={n} states", a.n, f"<= {n}", a.n <= n)]
    d = up_interior(a, budget=budget)
    g = 1 << ((n - 4) // 3)
    gamma_star = Dfa(a.alphabet, 1, {(0, i): 0 for i in range(g)}, 0, (0,))
    inter = minimize(intersect(d, gamma_star))
    u = map_symbols(gen_family("Uprime", g), a.alphabet, {i: i for i in range(g)})
    rows.append(_exact(f"n={n} interior on Gamma*", "Uprime" if equivalent(inter, u) else "other",
                       "Uprime"))
    s = _remap_words(fooling_for("Uprime", g), a.alphabet)
    try:
        m = verify_fooling(inter, s)
    except VerificationError:
        m = "rejected"
    rows.append(_exact(f"n={n} fooling", m, 2 ** g + 1))
    return rows


def _exp_ufa(rank_ns=(1, 2, 3, 4), instance_ns=(1, 2, 3), budget=DEFAULT_BUDGET):
    rows = [_exact(f"rank mx n={n}", rational_rank(mx_matrix(n)), 2 ** n - 1)
            for n in rank_ns]
    for n in instance_ns:
        cases = (
            ("notU", gen_family("notU", n), fooling_for("notU", n), False, 2 ** n - 1),
            ("downD", down_closure(gen_family("D", n)), fooling_for("downD", n),
             False, 2 ** n),
            ("upE", up_closure(gen_family("E", n)), fooling_for("upE", n),
             True, 2 ** n + 1),
        )
        for name, a, s, excluded, want in cases:
            lb = ufa_lower_bound(a, s, excluded)
            d = canonical_dfa(a, budget)
            rows.append(_exact(f"{name} n={n} bound", lb, want))
            rows.append(_exact(f"{name} n={n} minimal dfa", d.n, want))
    return rows


def _closed_by_enumeration(a, direction, cap=6):
    """Closure check by exhaustive search over words of length <= cap."""
    words = enumerate_upto(a, cap)
    accepted = {w.letters for w in words}
    if direction == "down":
        for w in accepted:
            for pos in range(len(w)):
                if w[:pos] + w[pos + 1:] not in accepted:
                    return False
        return True
    k = a.k
    for w in accepted:
        if len(w) >= cap:
            continue
        for pos in range(len(w) + 1):
            for x in range(k):
                if w[:pos] + (x,) + w[pos:] not in accepted:
                    return False
    return True


def _exp_decisions(count=500, pairs=200, seed=0, budget=DEFAULT_BUDGET):
    rng = random.Random(seed)
    rows = []

    disagree = 0
    for _ in range(count):
        n = rng.randrange(1, 6)
        k = rng.randrange(1, 4)
        a = random_nfa(rng, n, k, rng.uniform(0.1, 0.45))
        for direction in ("up", "down"):
            if is_closed(a, direction, budget).verdict != _closed_by_enumeration(a, direction):
                disagree += 1
    rows.append(_exact(f"is_closed vs enumeration samples={count}", disagree, 0))

    bad = 0
    for _ in range(count):
        n = rng.randrange(1, 7)
        k = rng.randrange(1, 4)
        d = random_dfa(rng, n, k, rng.uniform(0.5, 1.0))
        for direction in ("up", "down"):
            cert = dfa_closed_witness(d, direction)
            if cert.verdict != is_closed(d, direction, budget).verdict:
                bad += 1
                continue
            if cert.verdict:
                continue
            u, mid, v = cert.witness
            without = accepts(d, u + v)
            within = accepts(d, u + mid + v)
            ok = (without and not within) if direction == "up" else (within and not without)
            if not (ok and len(u) < n and len(v) < n * n and len(mid) == 1):
                bad += 1
    rows.append(_exact(f"closedness triples samples={count}", bad, 0))

    bad = 0
    for _ in range(pairs):
        k = rng.randrange(1, 4)
        a = random_nfa(rng, rng.randrange(1, 6), k, rng.uniform(0.1, 0.45))
        c = random_nfa(rng, rng.randrange(1, 6), k, rng.uniform(0.1, 0.45))
        for direction in ("up", "down"):
            cert = closure_inclusion(a, c, direction, budget)
            if cert.verdict:
                continue
            w = cert.witness
            # up witnesses stay strictly under a's state count; down ones may
            # reach c's state count exactly (see closure_inclusion)
            in_bound = len(w) < a.n if direction == "up" else len(w) <= c.n
            if not (in_bound
                    and accepts(closure_dfa(a, direction, budget), w)
                    and not accepts(closure_dfa(c, direction, budget), w)):
                bad += 1
    rows.append(_exact(f"inclusion witnesses pairs={pairs}", bad, 0))

    disagree = 0
    for _ in range(count):
        n = rng.randrange(1, 6)
        k = rng.randrange(1, 4)
        a = random_nfa(rng, n, k, rng.uniform(0.1, 0.45))
        cert = down_universal(a, budget)
        closed = closure_dfa(a, "down", budget)
        want = equivalent(closed, sigma_star_dfa(auto_alphabet(k)), budget)
        if cert.verdict != want:
            disagree += 1
        elif not cert.verdict and accepts(closed, cert.witness):
            disagree += 1
    rows.append(_exact(f"down universal samples={count}", disagree, 0))
    return rows


def _exp_fooling(ks=(1, 2, 3, 4), budget=DEFAULT_BUDGET):
    rows = []
    for k in ks:
        for name in ("U", "V", "Uprime"):
            want = 2 ** k + (1 if name == "Uprime" else 0)
            a = gen_family(name, k)
            rows.append(_exact(f"{name} k={k} fooling", verify_fooling(a, fooling_for(name, k)),
                               want))
            rows.append(_exact(f"{name} k={k} minimal dfa", canonical_dfa(a, budget).n, want))
    return rows


EXPERIMENTS = {
    "up-closure-exact": ("up-closure of E(n-2) has exactly 2^(n-2)+1 states",
                         _exp_up_closure),
    "down-closure-exact": ("down-closure of D(n-1) has exactly 2^(n-1) states",
                           _exp_down_closure),
    "not-u-closure": ("notU(n) has n states and its down-closure needs 2^n - 1",
                      _exp_not_u),
    "down-closure-strict": ("random single-initial NFAs stay under the 2^(n-1) down bound",
                            _exp_down_strict),
    "two-letter-binomial": ("twoLetter sizes 3n^3+1 and binomial closure lower bounds",
                            _exp_two_letter_binomial),
    "two-letter-lemmas": ("cover and prefix powers match the morphisms; down distinguishers "
                          "work, up ones for n >= 4 (below that w'_X lies in twoLetter(n))",
                          _exp_two_letter_lemmas),
    "heam-growth": ("heam(n) has (n+1)^2 states and an up-closure above phi^n/7",
                    _exp_heam),
    "dedekind-psi-bound": ("psi values, antichain/duality agreement, interiors under psi(n)",
                           _exp_dedekind),
    "down-interior-witness": ("small NFAs whose down-interior is V with certified fooling set",
                              _exp_down_int_witness),
    "up-interior-witness": ("a 7-state NFA whose up-interior meets Gamma* in Uprime",
                            _exp_up_int_witness),
    "ufa-rank": ("mx matrix ranks and UFA lower bounds matching minimal DFA sizes",
                 _exp_ufa),
    "decision-agreement": ("decision procedures agree with enumeration and closure oracles",
                           _exp_decisions),
    "fooling-exact": ("fooling sets certify U, V and Uprime tightly",
                      _exp_fooling),
}


def experiment_ids():
    return tuple(EXPERIMENTS)


def describe_experiment(exp_id):
    try:
        return EXPERIMENTS[exp_id][0]
    except KeyError:
        raise InputError(f"unknown experiment {exp_id!r}") from None


def run_experiment(exp_id, params=None):
    """Run one registered experiment and collect its report."""
    if exp_id not in EXPERIMENTS:
        raise InputError(f"unknown experiment {exp_id!r}; known: {', '.join(EXPERIMENTS)}")
    runner = EXPERIMENTS[exp_id][1]
    params = dict(params or {})
    accepted = inspect.signature(runner).parameters
    unknown = set(params) - set(accepted)
    if unknown:
        raise InputError(f"experiment {exp_id} does not take {sorted(unknown)}"
                         f" (accepted: {sorted(accepted)})")
    seed = params.get("seed", 0) if "seed" in accepted else None
    start = time.perf_counter()
    rows = runner(**params)
    return ExperimentReport(exp_id, seed, time.perf_counter() - start, tuple(rows))
