"""Tests of the benchmark itself: python3 -m pytest perfbench/tests (from the repo root)."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import cli_ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.beyond(100, 90) == 10
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(99) == 50
    assert stats.tail_percentile(199) == 90
    assert stats.tail_percentile(200) == 95
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(10000) == 99.9
    assert stats.tail_percentile(20) == 50
    assert stats.tail_percentile(19) is None


def test_nearest_rank_percentile():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 90) == 90
    assert stats.percentile(reversed(xs), 90) == 90
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.median([3, 1, 2, 4]) == 2.5


def _span(name, start, end, parent, counts=None):
    return [name, start, end, parent, "op", counts]


def test_cli_op_order_keeps_each_reference_before_the_ops_that_must_match_it():
    assert cli_ops.spread(list("abcdefgh"), [1, 2]) == ["a", "b", 1, "c", "d", "e", "f", 2,
                                                        "g", "h"]
    ops = cli_ops.cli_ops(1)
    order = {op.id: i for i, op in enumerate(ops)}
    assert len(order) == len(ops) >= run.MIN_OPS
    assert all(order[op.same_as] < order[op.id] for op in ops if op.same_as)


def test_self_time_of_nested_and_reentrant_spans():
    # a duality interior whose closure_dfa calls closure_dfa again
    trace = [
        _span("interiors.duality", 0.0, 10.0, -1),
        _span("closures.closure_dfa", 1.0, 7.0, 0),
        _span("core.determinize", 2.0, 4.0, 1),
        _span("closures.closure_dfa", 4.5, 6.0, 1),
        _span("core.minimize", 5.0, 5.5, 3),
        _span("core.minimize", 8.0, 9.0, 0),
    ]
    assert spans.self_times(trace) == pytest.approx([3.0, 2.5, 2.0, 1.0, 0.5, 1.0])
    assert sum(spans.self_times(trace)) == pytest.approx(10.0)
    m = spans.layer_metrics([trace, [_span("closures.closure_dfa", 0.0, 0.25, -1)]])
    assert m["closures.closure_dfa.calls"] == (3, "count")
    assert m["closures.closure_dfa.self_ms"][0] == pytest.approx(3750.0)
    assert m["interiors.duality.self_ms"][0] == pytest.approx(3000.0)
    assert m["core.minimize.self_ms"][0] == pytest.approx(1500.0)
    assert m["closures.cone_route_share"] == (0, "ratio")


def test_ratio_metrics_carry_their_base():
    trace = [_span("kernels.subset_construction", 0, 1, -1, {"subsets": 8}),
             _span("kernels.dfa_minimize", 1, 2, -1, {"states_in": 8, "states_out": 2})]
    m = spans.layer_metrics([trace])
    assert m["kernels.subset_construction.subsets"] == (8, "count")
    assert m["core.powerset_yield"] == (0.25, "ratio")


def test_installed_wrappers_trace_every_namespace():
    import subwordkit as sk

    tracer = spans.Tracer()
    spans.install(tracer)
    a = sk.gen_family("downIntWitness", 5)
    sk.down_interior(a, "duality")  # no op set: nothing recorded
    assert tracer.spans == []
    tracer.op = "probe"
    sk.down_interior(a, "duality")
    tracer.op = None
    names = [s[0] for s in tracer.spans]
    # complement, closure (a finite language here: the cone route), complement
    assert names == ["interiors.duality", "core.determinize", "kernels.subset_construction",
                     "closures.closure_dfa", "kernels.cone_closure", "core.minimize",
                     "kernels.dfa_minimize"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0, 3, 0, 5]
    root = tracer.spans[0]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(root[2] - root[1])


def test_streamed_digest_matches_serialize_automaton():
    import subwordkit as sk
    import ops

    for a in (sk.gen_family("E", 3), sk.closure_dfa(sk.gen_family("heam", 3), "up"),
              sk.empty_language_dfa(sk.auto_alphabet(2)), sk.gen_family("notU", 3)):
        want = hashlib.sha256(sk.serialize_automaton(a).encode()).hexdigest()
        assert ops.automaton_digest(a) == want


def _result(rows):
    return {"passes": [{"traced": False, "ops": rows}], "pinned": {"a", "b", "c"},
            "same_as": {"c": "b"}}


def test_corrupted_digest_is_exactly_one_failed_op():
    rows = [["a", 1.0, None, "d1"], ["b", 1.0, None, "d2"], ["c", 1.0, None, "d2"]]
    assert run.judge(_result(rows), {"a": "d1", "b": "d2", "c": "d2"})[:2] == (3, 0)
    attempted, failed, failures = run.judge(_result(rows), {"a": "d1", "b": "XX", "c": "d2"})
    assert (attempted, failed) == (3, 1)
    assert failures[0].startswith("b: digest")
    # an antichain/duality pair that disagrees fails once, on the second op
    rows[2][3] = "d3"
    assert run.judge(_result(rows), {"a": "d1", "b": "d2", "c": "d3"})[1] == 1


def test_corrupted_digest_gives_nonzero_exit(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(BENCH, checkout / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(os.path.join(ROOT, "src"), checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(os.path.join(ROOT, "tests"), checkout / "tests",
                    ignore=shutil.ignore_patterns("__pycache__"))
    expected_path = checkout / "perfbench" / "expected.json"
    expected = json.loads(expected_path.read_text())
    # the one op of the list that runs once per pass; --seconds 0 makes one pass
    expected["families"]["closure_dfa up twoLetter(4)"] = "0" * 64
    expected_path.write_text(json.dumps(expected))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "families",
                           "--seed", "3", "--seconds", "0"],
                          cwd=checkout, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] == 1
    assert "closure_dfa up twoLetter(4): digest" in proc.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "families"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_parity_names_the_kernel_that_differs():
    import types

    from subwordkit import _kernels_py
    import parity

    assert parity.mismatches(_kernels_py, ROOT) == []

    def off_by_one(*args):
        n, delta, finals = _kernels_py.dfa_minimize(*args)
        return n + 1, delta, finals

    twin = types.SimpleNamespace(**{name: getattr(_kernels_py, name) for name in (
        "is_subword", "subset_construction", "dfa_minimize", "cone_closure")})
    twin.dfa_minimize = off_by_one
    assert parity.mismatches(twin, ROOT) == ["dfa_minimize"]


def test_hung_child_is_killed_while_its_output_is_read():
    t0 = time.monotonic()
    proc, timer = run.spawn([sys.executable, "-c", "import time; time.sleep(60)"], 0.5, ROOT,
                            stdout=subprocess.PIPE)
    with proc.stdout:
        assert proc.stdout.read() == b""
    code, _ = run.reap(proc, timer)
    assert code < 0
    assert time.monotonic() - t0 < 30
