import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import subwordkit
from subwordkit import (
    DEFAULT_BUDGET, Nfa, auto_alphabet, canonical_dfa, closure_dfa, down_interior, equivalent,
    gen_family, parse_automaton, parse_dfa, serialize_automaton, sigma_star_dfa,
    up_interior,
)
from subwordkit import experiments
from subwordkit.cli import main
from subwordkit.experiments import ExperimentRow


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_family(tmp_path, name, param, fname=None):
    p = tmp_path / (fname or f"{name}{param}.aut")
    p.write_text(serialize_automaton(gen_family(name, param)))
    return str(p)


def test_gen_round_trip(capsys, tmp_path):
    out = tmp_path / "e2.aut"
    code, stdout, _ = run(capsys, ["gen", "E", "2", "--out", str(out)])
    assert code == 0 and stdout == ""
    assert parse_dfa(out.read_text()) == gen_family("E", 2)
    code, stdout, _ = run(capsys, ["gen", "heam", "2"])
    assert code == 0
    assert parse_dfa(stdout) == gen_family("heam", 2)


def test_gen_dot_format(capsys):
    code, stdout, _ = run(capsys, ["gen", "U", "1", "--format", "dot"])
    assert code == 0
    assert stdout.startswith("digraph automaton {")
    assert "doublecircle" in stdout


def test_gen_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "W", "2"])
    assert "invalid choice" in capsys.readouterr().err


def test_minimize_via_stdio(capsys, monkeypatch):
    a = gen_family("notU", 3)
    code, stdout, _ = run(capsys, ["minimize", "--in", "-"],
                          stdin=serialize_automaton(a), monkeypatch=monkeypatch)
    assert code == 0
    assert parse_dfa(stdout) == canonical_dfa(a)


def test_closure_command(capsys, tmp_path):
    inp = write_family(tmp_path, "D", 3)
    out = tmp_path / "down.aut"
    code, _, _ = run(capsys, ["closure", "down", "--in", inp, "--out", str(out)])
    assert code == 0
    got = parse_dfa(out.read_text())
    assert got == closure_dfa(gen_family("D", 3), "down")
    assert got.n == 8


def test_interior_command(capsys, tmp_path):
    inp = write_family(tmp_path, "downIntWitness", 3)
    want = down_interior(gen_family("downIntWitness", 3))
    for method in ("antichain", "duality"):
        code, stdout, _ = run(capsys, ["interior", "down", "--method", method, "--in", inp])
        assert code == 0
        assert parse_dfa(stdout) == want


def test_decide_closed(capsys, tmp_path):
    u = write_family(tmp_path, "U", 2)
    code, stdout, _ = run(capsys, ["decide", "closed", "--direction", "up", "--in", u])
    assert code == 0 and stdout == "up-closed: yes\n"
    e = write_family(tmp_path, "E", 2)
    code, stdout, _ = run(capsys, ["decide", "closed", "--direction", "up", "--in", e])
    assert code == 1
    assert stdout == "up-closed: no\nwitness: a1 a1 a1\n"


def test_decide_inclusion_and_equal(capsys, tmp_path):
    d = write_family(tmp_path, "D", 2)
    e = write_family(tmp_path, "E", 2)
    code, stdout, _ = run(
        capsys, ["decide", "inclusion", "--direction", "down", "--in", e, "--in2", d])
    assert code == 0 and stdout == "closure-inclusion (down): yes\n"
    code, stdout, _ = run(
        capsys, ["decide", "inclusion", "--direction", "down", "--in", d, "--in2", e])
    assert code == 1
    assert stdout == "closure-inclusion (down): no\nwitness: a1 a2\n"
    code, stdout, _ = run(
        capsys, ["decide", "equal", "--direction", "down", "--in", d, "--in2", d])
    assert code == 0 and stdout == "closure-equal (down): yes\n"


def test_decide_universal(capsys, tmp_path):
    star = tmp_path / "star.aut"
    star.write_text(serialize_automaton(sigma_star_dfa(gen_family("U", 2).alphabet)))
    code, stdout, _ = run(capsys, ["decide", "universal", "--in", str(star)])
    assert code == 0 and stdout == "down-universal: yes\n"
    notu = write_family(tmp_path, "notU", 2)
    code, stdout, _ = run(capsys, ["decide", "universal", "--in", str(notu)])
    assert code == 1
    assert stdout == "down-universal: no\nwitness: a1 a2\n"


def test_decide_missing_arguments(capsys, tmp_path):
    e = write_family(tmp_path, "E", 2)
    code, _, err = run(capsys, ["decide", "closed", "--in", e])
    assert code == 2 and "needs --direction" in err
    code, _, err = run(capsys, ["decide", "inclusion", "--direction", "down", "--in", e])
    assert code == 2 and "needs --in2" in err


def test_bounds_fooling(capsys):
    code, stdout, _ = run(capsys, ["bounds", "fooling", "--family", "Uprime", "--param", "3"])
    assert code == 0
    assert stdout == "fooling set certified: any NFA needs at least 9 states\n"


def test_bounds_fooling_verification_failure(capsys):
    # notU's pairs form a rank certificate, not a fooling set
    code, _, err = run(capsys, ["bounds", "fooling", "--family", "notU", "--param", "2"])
    assert code == 4 and err.startswith("error:")
    assert "not in the language" in err


def test_bounds_rank(capsys):
    code, stdout, _ = run(capsys, ["bounds", "rank", "--n", "4"])
    assert code == 0 and stdout == "rank = 15\n"
    code, stdout, _ = run(capsys, ["bounds", "rank", "--family", "downD", "--param", "2"])
    assert code == 0
    assert stdout == "rank = 4\nUFA lower bound = 4\n"
    code, stdout, _ = run(
        capsys,
        ["bounds", "rank", "--family", "upE", "--param", "2", "--initial-excluded"])
    assert code == 0
    assert stdout == "rank = 4\nUFA lower bound = 5\n"
    code, _, err = run(capsys, ["bounds", "rank"])
    assert code == 2 and "error:" in err


def test_experiment_list_and_run(capsys, tmp_path):
    code, stdout, _ = run(capsys, ["experiment", "list"])
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 13
    assert lines[0].startswith("up-closure-exact:")
    code, stdout, _ = run(capsys, ["experiment", "up-closure-exact"])
    assert code == 0
    assert stdout.startswith("experiment: up-closure-exact")
    assert "passed: yes" in stdout
    out = tmp_path / "rows.csv"
    code, stdout, _ = run(capsys, ["experiment", "not-u-closure", "--csv", "--out", str(out)])
    assert code == 0 and stdout == ""
    csv_lines = out.read_text().strip().splitlines()
    assert csv_lines[0] == "experiment,param,measured,predicted,verdict"
    assert len(csv_lines) == 13


def test_experiment_failure_and_unknown(capsys, monkeypatch):
    # a registered experiment that reports a mismatch row
    desc, _ = experiments.EXPERIMENTS["two-letter-lemmas"]
    monkeypatch.setitem(experiments.EXPERIMENTS, "two-letter-lemmas",
                        (desc, lambda: [ExperimentRow("p", 1, 0, "mismatch")]))
    code, stdout, _ = run(capsys, ["experiment", "two-letter-lemmas"])
    assert code == 1 and "passed: no" in stdout
    code, _, err = run(capsys, ["experiment", "frobnicate"])
    assert code == 2 and "unknown experiment" in err


def test_input_error_paths(capsys, tmp_path):
    code, _, err = run(capsys, ["minimize", "--in", str(tmp_path / "missing.aut")])
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.aut"
    bad.write_text("alphabet a\nstates x\n")
    code, _, err = run(capsys, ["minimize", "--in", str(bad)])
    assert code == 2 and "line 2" in err


def test_budget_exit_code(capsys, tmp_path):
    d = write_family(tmp_path, "D", 5)
    code, _, err = run(capsys, ["closure", "down", "--in", d, "--budget", "10"])
    assert code == 3 and "budget" in err


def test_declared_state_count_is_checked_against_the_budget(capsys, tmp_path):
    # no transitions: the states header alone is over the budget
    f = tmp_path / "wide.aut"
    f.write_text("alphabet a b\nstates 101\ninitial 0\nfinal 0\n")
    code, _, err = run(capsys, ["closure", "down", "--in", str(f), "--budget", "100"])
    assert code == 3 and "input states exceeded budget of 100" in err
    code, _, _ = run(capsys, ["closure", "down", "--in", str(f), "--budget", "101"])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["closure", "down"], ["minimize"], ["decide", "universal"], ["interior", "up"],
    ["bounds", "fooling", "--family", "U", "--param", "2"],
    ["bounds", "rank", "--family", "U", "--param", "2"],
    ["decide", "inclusion", "--direction", "up"],
])
def test_a_huge_states_header_is_refused_before_any_table(capsys, tmp_path, argv):
    # a table sized by this header would need petabytes
    f = tmp_path / "huge.aut"
    f.write_text("alphabet a1 a2\nstates 1000000000000000\ninitial 0\nfinal 0\n")
    files = ["--in", str(f)]
    if "inclusion" in argv:  # the second file is read under the budget too
        files = ["--in", write_family(tmp_path, "D", 2), "--in2", str(f)]
    code, _, err = run(capsys, argv + files)
    assert code == 3 and "input states exceeded budget" in err


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["closure", "down"], ["interior", "up"], ["minimize"],
    ["decide", "universal"], ["experiment", "up-closure-exact"],
])
def test_budget_must_be_positive(capsys, tmp_path, argv, budget):
    # rejected as bad input before any work, not reported as exceeded
    d = write_family(tmp_path, "D", 3)
    inp = [] if argv[0] == "experiment" else ["--in", d]
    with pytest.raises(SystemExit) as exc:
        main(argv + inp + ["--budget", budget])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_interior_without_budget_gets_the_default(capsys, tmp_path, monkeypatch):
    calls = []

    def recording(a, method, budget):
        calls.append((method, budget))
        return up_interior(a, method, budget)

    monkeypatch.setattr("subwordkit.interiors.up_interior", recording)
    u = write_family(tmp_path, "U", 2)
    for method in ("antichain", "duality"):
        code, _, _ = run(capsys, ["interior", "up", "--method", method, "--in", u])
        assert code == 0
    assert calls == [("antichain", DEFAULT_BUDGET), ("duality", DEFAULT_BUDGET)]


def test_pipeline_gen_closure_decide(capsys, tmp_path):
    # a full round trip: family to file, closure to file, then decide on it
    e = write_family(tmp_path, "E", 3)
    closed = tmp_path / "up.aut"
    code, _, _ = run(capsys, ["closure", "up", "--in", e, "--out", str(closed)])
    assert code == 0
    code, stdout, _ = run(capsys, ["decide", "closed", "--direction", "up",
                                   "--in", str(closed)])
    assert code == 0 and stdout == "up-closed: yes\n"
    assert equivalent(parse_automaton(closed.read_text()),
                      closure_dfa(gen_family("E", 3), "up"))


# Runs in a fresh interpreter: `import subwordkit`, then the CLI command
# given as arguments (if any), and prints its exit code and the modules
# loaded by then.
_CHILD = """
import contextlib, io, json, sys
import subwordkit
code = 0
if sys.argv[1:]:
    from subwordkit.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def child_modules(*argv, rc=0):
    """The modules that the CLI command argv has loaded in a fresh
    interpreter when it exits, with exit code rc."""
    src = str(Path(subwordkit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", _CHILD, *argv], capture_output=True,
                           text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert child.returncode == 0, child.stderr
    code, modules = json.loads(child.stdout)
    assert code == rc, child.stderr
    return set(modules)


def loaded_modules(*argv):
    return {m.removeprefix("subwordkit.") for m in child_modules(*argv)
            if m.startswith("subwordkit.")}


def test_import_loads_no_submodule():
    assert loaded_modules() == set()


_HEAVY = {"experiments", "bounds", "interiors", "decisions"}


@pytest.mark.parametrize("argv, unused", [
    (["gen", "E", "2"], _HEAVY),
    (["closure", "down"], _HEAVY),
    (["closure", "up"], _HEAVY),
    (["minimize"], _HEAVY),
    (["interior", "up"], _HEAVY - {"interiors"}),
    (["decide", "closed", "--direction", "up"], _HEAVY - {"decisions"}),
])
def test_command_loads_only_the_modules_it_calls(tmp_path, argv, unused):
    # U(2) is up-closed, so the decision answers yes and exits 0
    if argv[0] != "gen":
        argv = [*argv, "--in", write_family(tmp_path, "U", 2)]
    loaded = loaded_modules(*argv)
    assert "cli" in loaded and not loaded & unused, sorted(loaded)


# Loading the compiled kernels costs a CLI child 10-26 ms, more than
# small commands spend on their work, so these load neither ctypes nor
# the library; the cone of `closure up` on E(6) always loads both.
@pytest.mark.parametrize("argv, rc, loads", [
    (["closure", "down", "--in", "D6"], 0, False),
    (["closure", "down", "--in", "path2000"], 0, False),
    (["closure", "up", "--in", "U4"], 0, False),
    (["minimize", "--in", "E6"], 0, False),
    (["decide", "closed", "--direction", "down", "--in", "D6"], 1, False),
    (["decide", "inclusion", "--direction", "down", "--in", "D6", "--in2", "notU6"], 1, False),
    (["decide", "universal", "--in", "D6"], 1, False),
    (["interior", "up", "--method", "antichain", "--in", "upIntWitness7"], 0, False),
    (["interior", "down", "--method", "duality", "--in", "D6"], 0, False),
    (["gen", "V", "3"], 0, False),
    (["closure", "up", "--in", "E6"], 0, True),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_small_commands_load_no_compiled_kernels(tmp_path, argv, rc, loads):
    def write(stem):
        if stem != "path2000":
            name = stem.rstrip("0123456789")
            return write_family(tmp_path, name, int(stem[len(name):]))
        rng = random.Random(2000)
        path = Nfa(auto_alphabet(2), 2000, {(q, rng.randrange(2), q + 1) for q in range(1999)},
                   {0}, {1999})
        out = tmp_path / "path2000.aut"
        out.write_text(serialize_automaton(path))
        return str(out)

    if loads and subwordkit.KERNEL_BACKEND != "compiled":
        pytest.skip("the compiled kernels cannot be built here")
    argv = [write(arg) if flag in ("--in", "--in2") else arg
            for flag, arg in zip(["", *argv], argv)]
    modules = child_modules(*argv, rc=rc)
    assert ("ctypes" in modules, "subwordkit._native" in modules) == (loads, loads)
