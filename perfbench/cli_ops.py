"""The cli-files workload: one CLI child process per op.

Inputs are written once per run by a setup child (ops.write_cli_inputs):
path NFAs recognising one seeded word, paper witness families, and the
closures of two of them.  Every op lists its argv (relative to the input
directory), the exit code it must end with, and a check on its stdout or
output file.  Checks here use plain string logic, so the parent process
never imports the library.
"""

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

PATH_SIZES = (250, 500, 1000, 2000)
# More 500-state paths, each down-closed by one op.  With the other
# closures of 500-state paths and of D(12), notU(12), they form a tier of
# ops of like cost that p90 falls in, so that p90 is an order statistic of
# about ten ops rather than the latency of one.
TIER_PATHS = 7
PATH_ALPHABET = ("a", "b")
FAMILY_FILES = (("E", 6), ("E", 8), ("D", 6), ("D", 8), ("D", 11), ("D", 12), ("notU", 6),
                ("notU", 11), ("notU", 12), ("heam", 4), ("U", 4), ("V", 4), ("Uprime", 4),
                ("downIntWitness", 7), ("upIntWitness", 7))
CLOSED_FILES = (("E", 6, "up"), ("D", 6, "down"))
BUDGET = str(1 << 20)
ANTICHAIN_BUDGET = str(1 << 16)


class CheckFailed(Exception):
    """An op ran to completion, but its output is wrong."""


@dataclass
class CliOp:
    id: str
    argv: Tuple[str, ...]
    rc: int
    check: Callable[[str, str], Optional[str]]  # (stdout, out-file text) -> digest
    out: bool = False  # writes its automaton to out.aut instead of stdout
    same_as: Optional[str] = None
    pinned: bool = True  # seed-independent: digest is pinned in expected.json


def path_words(seed):
    """The seeded word behind each path NFA, by file stem: path<n> and the
    tier paths path500_<i>.  A word of length n-1 gives an n-state path."""
    rng = random.Random(seed)
    sizes = ([(f"path{n}", n) for n in PATH_SIZES]
             + [(f"path500_{i}", 500) for i in range(1, TIER_PATHS + 1)])
    return {stem: "".join(rng.choice(PATH_ALPHABET) for _ in range(n - 1)) for stem, n in sizes}


def is_subsequence(x, y):
    it = iter(y)
    return all(c in it for c in x)


def need(cond, message):
    if not cond:
        raise CheckFailed(message)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _header(text):
    lines = text.split("\n")
    need(len(lines) >= 4 and lines[1].startswith("states "), "no automaton header")
    return int(lines[1].split()[1]), lines[3].split()[1:]


def _states(n=None, finals=None):
    def check(stdout, out):
        size, fin = _header(out)
        if n is not None:
            need(size == n, f"{size} states, want {n}")
        if finals is not None:
            need(len(fin) == finals(size), f"{len(fin)} final states")
        return _digest(out)
    return check


def _stdout_digest(stdout, out):
    return _digest(stdout)


def _witness(stdout):
    for line in stdout.splitlines():
        if line.startswith("witness: "):
            w = line[len("witness: "):]
            return "" if w == "ε" else w.replace(" ", "")
    raise CheckFailed("no witness printed")


def _verdict(stdout, yes):
    first = stdout.split("\n", 1)[0]
    need(first.endswith(": yes" if yes else ": no"), f"verdict line {first!r}")


def _decision(yes, witness_ok=None):
    """Check of a seeded decide command: verdict and, if no, the witness."""
    def check(stdout, out):
        _verdict(stdout, yes)
        if not yes:
            w = _witness(stdout)
            need(witness_ok(w), f"witness {w!r} fails its check")
    return check


def cli_ops(seed):
    words = path_words(seed)
    ops = []

    def add(argv, rc=0, check=_stdout_digest, out=False, same_as=None):
        pinned = not any(arg.startswith("path") for arg in argv)
        ops.append(CliOp(" ".join(argv), tuple(argv), rc, check, out, same_as, pinned))

    def budget(argv):
        return argv + ["--budget", BUDGET]

    # gen: witness families straight to a file
    for name, params in (("E", (4, 6, 8, 10)), ("D", (4, 6, 8, 10)), ("notU", (4, 6, 8, 10)),
                         ("heam", (3, 5, 7, 8)), ("U", range(3, 7)), ("V", (3, 5, 7)),
                         ("Uprime", range(3, 7)), ("twoLetter", (2, 4)),
                         ("downIntWitness", (5, 9)), ("upIntWitness", (7, 10))):
        for p in params:
            add(["gen", name, str(p), "--out", "out.aut"], check=_states(), out=True)

    # closures and minimisation of family files (seed-independent, digested);
    # the down-closures of D(11,12) and notU(11,12) spend most of their time
    # in the subset-construction and Hopcroft kernels
    for stem, direction, n in (("E6", "up", 65), ("E8", "up", 257), ("D6", "down", 64),
                               ("D8", "down", 256), ("D11", "down", 2048),
                               ("D12", "down", 4096), ("notU6", "down", 63),
                               ("notU11", "down", 2047), ("notU12", "down", 4095),
                               ("heam4", "up", None), ("U4", "up", 16), ("V4", "down", 16),
                               ("Uprime4", "up", 17)):
        add(budget(["closure", direction, "--in", f"{stem}.aut", "--out", "out.aut"]),
            check=_states(n), out=True)
    for stem in ("E6", "E8", "D6", "D8", "notU6", "heam4", "U4", "V4", "Uprime4",
                 "downIntWitness7", "upIntWitness7"):
        add(budget(["minimize", "--in", f"{stem}.aut", "--out", "out.aut"]),
            check=_states(), out=True)

    # path NFAs: the down-closure and the minimal DFA of one word of length
    # n-1 both have n states; every state of the down-closure accepts
    for n in PATH_SIZES:
        add(budget(["closure", "down", "--in", f"path{n}.aut", "--out", "out.aut"]),
            check=_states(n, finals=lambda size: size), out=True)
        add(budget(["minimize", "--in", f"path{n}.aut", "--out", "out.aut"]),
            check=_states(n, finals=lambda size: 1), out=True)
    for i in range(1, TIER_PATHS + 1):
        add(budget(["closure", "down", "--in", f"path500_{i}.aut", "--out", "out.aut"]),
            check=_states(500, finals=lambda size: size), out=True)
    add(budget(["closure", "up", "--in", "path250.aut", "--out", "out.aut"]),
        check=_states(250, finals=lambda size: 1), out=True)

    # interiors: antichain and duality must print the same DFA
    for stem, direction, n in (("downIntWitness7", "down", 16), ("upIntWitness7", "up", 5),
                               ("upIntWitness7", "down", 1), ("E6", "up", None),
                               ("D6", "down", None)):
        base = ["interior", direction, "--in", f"{stem}.aut", "--out", "out.aut"]
        anti = base + ["--method", "antichain", "--budget", ANTICHAIN_BUDGET]
        add(anti, check=_states(n), out=True)
        add(base + ["--method", "duality", "--budget", BUDGET], check=_states(n), out=True,
            same_as=" ".join(anti))
    # the largest down-closed subset of one nonempty word is empty
    add(["interior", "down", "--in", "path250.aut", "--method", "antichain",
         "--budget", ANTICHAIN_BUDGET, "--out", "out.aut"],
        check=_states(1, finals=lambda size: 0), out=True)

    # decisions on family files: verdict and witness text are digested
    for kind, direction, a, b, rc in (
            ("closed", "up", "upE6", None, 0), ("closed", "down", "downD6", None, 0),
            ("closed", "up", "E6", None, 1), ("closed", "down", "D6", None, 1),
            ("closed", "down", "notU6", None, 0),
            ("inclusion", "up", "E6", "upE6", 0), ("inclusion", "down", "D6", "downD6", 0),
            ("inclusion", "up", "D6", "E6", 1), ("inclusion", "down", "D6", "notU6", 1),
            ("equal", "up", "E6", "upE6", 0), ("equal", "down", "D6", "downD6", 0),
            ("equal", "down", "notU6", "D6", 1),
            ("universal", None, "upE6", None, 0), ("universal", None, "D6", None, 1),
            ("universal", None, "heam4", None, 1),
            ("closed", "up", "heam4", None, 1), ("closed", "down", "V4", None, 0),
            ("closed", "up", "U4", None, 0), ("universal", None, "E6", None, 1),
            ("universal", None, "notU6", None, 1), ("inclusion", "up", "U4", "Uprime4", 1)):
        argv = ["decide", kind]
        if direction:
            argv += ["--direction", direction]
        argv += ["--in", f"{a}.aut"]
        if b:
            argv += ["--in2", f"{b}.aut"]
        add(budget(argv), rc=rc)

    # Decisions on path NFAs, checked against subsequence logic on the words.
    # With the kernel-heavy closures above, about 20 ops do more than start,
    # parse and serialise (over 0.25 s each); p90 falls among them.
    for n in (250, 500, 1000):
        w = words[f"path{n}"]
        # ε is a subword of w but not in {w}
        add(budget(["decide", "closed", "--direction", "down", "--in", f"path{n}.aut"]), rc=1,
            check=_decision(False, lambda x: x == ""))
        # the shortest word outside the subwords of w
        add(budget(["decide", "universal", "--in", f"path{n}.aut"]), rc=1,
            check=_decision(False, lambda x, w=w: not is_subsequence(x, w)))
    for n in (250, 500):
        w = words[f"path{n}"]
        add(budget(["decide", "closed", "--direction", "up", "--in", f"path{n}.aut"]), rc=1,
            check=_decision(False, lambda x, w=w: len(x) == len(w) + 1 and is_subsequence(w, x)))
    for na, nb in ((500, 250), (250, 250)):
        wa, wb = words[f"path{na}"], words[f"path{nb}"]
        yes = is_subsequence(wa, wb)
        add(budget(["decide", "inclusion", "--direction", "down", "--in", f"path{na}.aut",
                    "--in2", f"path{nb}.aut"]), rc=0 if yes else 1,
            check=_decision(yes, lambda x, wa=wa, wb=wb, nb=nb: len(x) <= nb and is_subsequence(
                x, wa) and not is_subsequence(x, wb)))
    add(budget(["decide", "inclusion", "--direction", "up", "--in", "path250.aut",
                "--in2", "path250.aut"]), check=_decision(True))
    # The path ops hold most of a pass's time.  Spread evenly among the
    # others, they let the start-up-bound ops around p50 sample the whole
    # run rather than the stretches between two blocks of path ops.
    return spread([op for op in ops if op.pinned], [op for op in ops if not op.pinned])


def spread(rest, spaced):
    """`rest` with the items of `spaced` spread evenly among them; both keep their order."""
    out, i = [], 0
    step = len(rest) / len(spaced)
    for j, item in enumerate(spaced):
        end = round((j + 0.5) * step)
        out += rest[i:end]
        out.append(item)
        i = end
    return out + rest[i:]
