"""Operation lists of the in-process workloads and the input files of the
CLI workload.

Runs only inside benchmark child processes, with the library on the path.
Every op calls one public library function with an explicit budget, so a
change to DEFAULT_BUDGET or to the budget mechanism cannot silently reshape
a workload; a BudgetExceededError makes the op fail.  Each op carries a
check that runs after the timed call and either returns the output's
sha256 (for seed-independent automaton outputs, compared by the parent
against expected.json) or raises CheckFailed.
"""

import hashlib
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import subwordkit as sk
from subwordkit.experiments import random_dfa, random_nfa

import cli_ops
from cli_ops import need, spread

sys.path.insert(0, os.path.join(os.getcwd(), "tests"))
import oracles  # noqa: E402  (reference implementations of the test suite)

BUDGET = 1 << 20
CONE_BUDGET_TL4 = 1 << 22
ANTICHAIN_BUDGET = 1 << 16
RANDOM_INTERIORS = 4
SMALL_OP_REPEATS = 6  # rounds of the small families ops per pass, half on each side of the cone


@dataclass
class Op:
    id: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    same_as: Optional[str] = None  # id of an op whose output digest must be equal
    pinned: bool = True  # seed-independent: digest is pinned in expected.json


def automaton_digest(a):
    """sha256 of serialize_automaton(a), streamed for DFAs.

    The output text is produced line by line from the flat table, byte for
    byte what serialize_automaton returns, so the 1.3M-state twoLetter(4)
    closure is hashed without building its 2.6M-triple NFA view.
    """
    if not isinstance(a, sk.Dfa):
        return hashlib.sha256(sk.serialize_automaton(a).encode()).hexdigest()
    h = hashlib.sha256()
    names = a.alphabet.symbols
    k = a.k
    h.update(("alphabet " + " ".join(names) + f"\nstates {a.n}\n").encode())
    h.update((f"initial {a.initial}\n").encode())
    h.update(("final " + " ".join(map(str, sorted(a.final)))).rstrip().encode() + b"\n")
    flat = a.delta_flat()
    lines = []
    for i, t in enumerate(flat):
        if t >= 0:
            lines.append(f"{i // k} {names[i % k]} {t}\n")
            if len(lines) >= 65536:
                h.update("".join(lines).encode())
                lines.clear()
    h.update("".join(lines).encode())
    return h.hexdigest()


def _states(exact=None, at_least=None):
    """Check of an automaton output: exact size or paper lower bound."""
    def check(d):
        if exact is not None:
            need(d.n == exact, f"{d.n} states, want {exact}")
        if at_least is not None:
            need(d.n >= at_least, f"{d.n} states, want >= {at_least}")
        return automaton_digest(d)
    return check


def _equals(want):
    def check(v):
        need(v == want, f"got {v}, want {want}")
    return check


# ---------------------------------------------------------------- families

def families_ops(seed):
    """The paper's witness instances, plus seeded interiors of small NFAs."""
    ops = []

    def closure(name, param, direction, check, budget=BUDGET):
        a = sk.gen_family(name, param)
        ops.append(Op(f"closure_dfa {direction} {name}({param})",
                      lambda: sk.closure_dfa(a, direction, budget), check))

    # up-closures of finite languages: the cone route
    for n in range(4, 13):
        closure("E", n, "up", _states(exact=2 ** n + 1))
    phi = (1 + 5 ** 0.5) / 2
    for n in range(4, 11):
        closure("heam", n, "up", _states(at_least=math.ceil(phi ** n / 7)))
    closure("twoLetter", 2, "up", _states(at_least=math.comb(3, 1)))
    closure("twoLetter", 4, "up", _states(at_least=math.comb(5, 2)), CONE_BUDGET_TL4)
    cone = ops.pop()
    # powerset and Hopcroft route
    for n in range(4, 14):
        closure("D", n, "down", _states(exact=2 ** n))
    for n in range(4, 11):
        closure("notU", n, "down", _states(exact=2 ** n - 1))
    for n in (2, 4):
        closure("twoLetter", n, "down", _states(at_least=math.comb(n + 1, n // 2)))
    for n in range(3, 7):
        closure("U", n, "up", _states(exact=2 ** n))
        closure("U", n, "down", _states())
        closure("V", n, "up", _states())
        closure("V", n, "down", _states(exact=2 ** n))
        closure("Uprime", n, "up", _states(exact=2 ** n + 1))
        closure("Uprime", n, "down", _states())

    def interiors(label, a, directions, states=None, skip=(), pinned=True):
        for direction in directions:
            # looked up at call time, so that a traced pass sees the wrapper
            fn = f"{direction}_interior"
            base = f"{fn} {label}"
            ops.append(Op(f"{base} antichain",
                          lambda fn=fn: getattr(sk, fn)(a, "antichain", ANTICHAIN_BUDGET),
                          _states(exact=states), pinned=pinned))
            if (direction, "duality") not in skip:
                ops.append(Op(f"{base} duality",
                              lambda fn=fn: getattr(sk, fn)(a, "duality", BUDGET),
                              _states(exact=states), same_as=f"{base} antichain",
                              pinned=pinned))

    for n in (3, 5, 7, 9):
        # the down-interior is V(k) over k = 2^((n-3)/2) letters
        interiors(f"downIntWitness({n})", sk.gen_family("downIntWitness", n), ("down",),
                  states=2 ** (2 ** ((n - 3) // 2)))
    for n in (7, 10):
        # the duality route on the down-interior of upIntWitness(10) takes ~37 s
        interiors(f"upIntWitness({n})", sk.gen_family("upIntWitness", n), ("up", "down"),
                  skip={("down", "duality")} if n == 10 else ())

    # a cross-check (antichain == duality) more than a load: one or two
    # letters, so that no seed adds an op slow enough to move p90
    rng = random.Random(seed)
    for i in range(RANDOM_INTERIORS):
        n = 3 + i * 5 // (RANDOM_INTERIORS - 1)
        k = 1 + i % 2
        a = random_nfa(rng, n, k, rng.uniform(0.1, 0.4))
        interiors(f"random#{i}(n={n},k={k})", a, ("up", "down"), pinned=False)

    for name in ("U", "V", "Uprime"):
        for k in range(2, 7):
            a = sk.gen_family(name, k)
            s = sk.fooling_for(name, k)
            ops.append(Op(f"verify_fooling {name}({k})", lambda a=a, s=s: sk.verify_fooling(a, s),
                          _equals(2 ** k + (name == "Uprime"))))
    for n in range(1, 7):
        m = sk.mx_matrix(n)
        ops.append(Op(f"rational_rank mx_matrix({n})", lambda m=m: sk.rational_rank(m),
                      _equals(2 ** n - 1)))
    # The cone closure of twoLetter(4) takes ~10 s, all other ops together
    # ~2 s.  Those repeat in each pass, half of the rounds before the cone
    # and half after it, so that their latencies, and with them p50 and
    # p90, sample the whole run rather than one stretch of it.
    half = SMALL_OP_REPEATS // 2
    return ops * half + [cone] + ops * (SMALL_OP_REPEATS - half)

# --------------------------------------------------------------- decisions

POSITIVE = (("D", (8, 9, 10), "down"), ("notU", (8, 9), "down"),
            ("E", (8, 9, 10), "up"), ("heam", (4, 5), "up"))
# Random op latencies spread over two decades, so their p50 and p90 need
# over a thousand independent draws to move little between seeds.
RANDOM_OPS = 1470
RANDOM_DFAS = 96
RANDOM_ROUNDS = 8  # rounds of the random decision ops per pass
RANDOM_KINDS = (("closure_inclusion", "up"), ("closure_inclusion", "down"),
                ("closure_equal", "up"), ("closure_equal", "down"),
                ("is_closed", "up"), ("is_closed", "down"), ("down_universal", "down"))
DENSITIES = (0.06, 0.1, 0.14, 0.18, 0.22)


def _closure_member(a, w, direction):
    return oracles.up_member(a, w) if direction == "up" else oracles.down_member(a, w)


def _witness_bound(w, a, b, direction):
    # documented bounds of closure_inclusion: < a.n up, <= b.n down
    if direction == "up":
        need(len(w) < a.n, f"up witness of length {len(w)} >= {a.n}")
    else:
        need(len(w) <= b.n, f"down witness of length {len(w)} > {b.n}")


def _inclusion_check(a, b, direction):
    def check(cert):
        if cert.verdict:
            return
        w = cert.witness
        need(_closure_member(a, w, direction), f"witness {w} not in the closure of A")
        need(not _closure_member(b, w, direction), f"witness {w} in the closure of B")
        _witness_bound(w, a, b, direction)
    return check


def _equal_check(a, b, direction):
    def check(cert):
        if cert.verdict:
            return
        w = cert.witness
        in_a = _closure_member(a, w, direction)
        in_b = _closure_member(b, w, direction)
        need(in_a != in_b, f"witness {w} does not separate the closures")
        _witness_bound(w, *((a, b) if in_a else (b, a)), direction)
    return check


def _closed_check(a, direction):
    def check(cert):
        if cert.verdict:
            return
        w = cert.witness
        need(_closure_member(a, w, direction), f"witness {w} not in the closure")
        need(not sk.accepts(a, w), f"witness {w} is in the language")
    return check


def _universal_check(a):
    def check(cert):
        if not cert.verdict:
            need(not oracles.down_member(a, cert.witness),
                 f"witness {cert.witness} is in the down-closure")
    return check


def _triple_check(d, direction):
    def check(cert):
        if cert.verdict:
            # cross-check against the pair-space decision
            need(sk.is_closed(d, direction, BUDGET).verdict, "is_closed disagrees")
            return
        u, mid, v = cert.witness
        without = sk.accepts(d, u + v)
        within = sk.accepts(d, u + mid + v)
        ok = (without and not within) if direction == "up" else (within and not without)
        need(ok, f"triple {u}|{mid}|{v} does not violate closedness")
        need(len(mid) == 1 and len(u) < d.n and len(v) < d.n ** 2,
             f"triple {u}|{mid}|{v} escapes its length bounds")
    return check


def decisions_ops(seed):
    positive, ops = [], []
    for name, params, direction in POSITIVE:
        for n in params:
            x = sk.gen_family(name, n)
            c = sk.closure_dfa(x, direction, BUDGET)
            positive.append(Op(f"is_closed {direction} closure_dfa({name}({n}))",
                               lambda c=c, d=direction: sk.is_closed(c, d, BUDGET),
                               _equals(sk.Certificate(True))))
            positive.append(Op(f"closure_equal {direction} {name}({n})",
                               lambda x=x, c=c, d=direction: sk.closure_equal(x, c, d, BUDGET),
                               _equals(sk.Certificate(True))))
    # Every random op gets its own instance, so the op mix, and with it
    # p50, averages over many independent draws; sizes, letters and
    # densities are spread over their ranges, and the seed draws only the
    # transitions.
    rng = random.Random(seed)
    for i in range(RANDOM_OPS):
        kind, d = RANDOM_KINDS[i % len(RANDOM_KINDS)]
        k = 2 + i % 2
        na = 5 + (i * 11 // (RANDOM_OPS - 1))
        nb = 16 - (i * 11 // (RANDOM_OPS - 1))
        density = DENSITIES[i % len(DENSITIES)]
        a = random_nfa(rng, na, k, density)
        b = random_nfa(rng, nb, k, density)
        tag = f"{kind} {d} random#{i}(n={na},{nb},k={k})"
        if kind == "closure_inclusion":
            ops.append(Op(tag, lambda d=d, a=a, b=b: sk.closure_inclusion(a, b, d, BUDGET),
                          _inclusion_check(a, b, d)))
        elif kind == "closure_equal":
            ops.append(Op(tag, lambda d=d, a=a, b=b: sk.closure_equal(a, b, d, BUDGET),
                          _equal_check(a, b, d)))
        elif kind == "is_closed":
            ops.append(Op(tag, lambda d=d, a=a: sk.is_closed(a, d, BUDGET), _closed_check(a, d)))
        else:
            ops.append(Op(tag, lambda a=a: sk.down_universal(a, BUDGET), _universal_check(a)))
    for i in range(RANDOM_DFAS):
        d = random_dfa(rng, 10 + i * 70 // (RANDOM_DFAS - 1), 2 + i % 2)
        direction = ("up", "down")[i % 2]
        ops.append(Op(f"dfa_closed_witness {direction} random#{i}(n={d.n},k={d.k})",
                      lambda d=d, di=direction: sk.dfa_closed_witness(d, di),
                      _triple_check(d, direction)))
    # The positive decisions take ~13 s of a pass, one round of the random
    # ops ~1.3 s.  The rounds repeat with the positive ops spread evenly
    # among them, so that the random ops' latencies, and with them p50 and
    # p90, sample the whole run rather than a second or two of each pass.
    return spread(ops * RANDOM_ROUNDS, positive)


BUILDERS = {"families": families_ops, "decisions": decisions_ops}


# ----------------------------------------------------------- CLI workload

def write_cli_inputs(seed, workdir):
    """Input files of the cli-files workload (see cli_ops.INPUTS)."""
    os.makedirs(workdir, exist_ok=True)
    files = {}
    letter = {name: i for i, name in enumerate(cli_ops.PATH_ALPHABET)}
    for stem, word in cli_ops.path_words(seed).items():
        n = len(word) + 1
        trans = {(i, letter[x], i + 1) for i, x in enumerate(word)}
        files[stem] = sk.Nfa(sk.Alphabet(cli_ops.PATH_ALPHABET), n, trans, {0}, {n - 1})
    for name, param in cli_ops.FAMILY_FILES:
        files[f"{name}{param}"] = sk.gen_family(name, param)
    for name, param, direction in cli_ops.CLOSED_FILES:
        x = sk.gen_family(name, param)
        files[f"{direction}{name}{param}"] = sk.closure_dfa(x, direction, BUDGET)
    for stem, a in files.items():
        with open(os.path.join(workdir, stem + ".aut"), "w", encoding="utf-8") as f:
            f.write(sk.serialize_automaton(a))
