"""subwordkit benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload families --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one report

Run from the repository root.  Each workload is one closed-loop client:
ops run back to back, in-process ones in a single worker child, CLI ones
as one child process at a time.  With --trace 0 the run measures whole
passes of the workload's fixed op list, as many as fill --seconds, and
reports the end-to-end metrics; with --trace 1 it runs a traced pass
between two untraced ones and reports the per-layer metrics and the
tracing overhead.  Every op's output is checked; the last stdout line is
one JSON object, and the exit code is 1 if any op failed.  See README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cli_ops  # noqa: E402
import spans as tracing  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("families", "decisions", "cli-files")
SETUP_LAUNCHES = 9      # set-up is timed this many times per run; the median is reported
MIN_OPS = 100           # at least ten ops lie beyond p90
CLI_OP_TIMEOUT_S = 60   # a CLI child running longer is killed and its op fails
SETUP_TIMEOUT_S = 60    # likewise for a worker that only sets up, or checks parity
EXPECTED = os.path.join(HERE, "expected.json")
END_TO_END_UNITS = {"run_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark itself could not run (missing source, dead child)."""


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker_timeout(seconds):
    """Seconds a running worker may take: its set-up, passes until
    `seconds`, and one more pass (three passes when traced)."""
    return 150 + 2 * seconds


def spawn(argv, timeout, root, **popen_args):
    """Start a child that is killed if it runs longer than `timeout` seconds.

    Returns the process and its kill timer, which `reap` cancels.
    """
    proc = subprocess.Popen(argv, env=child_env(root), **popen_args)
    timer = threading.Timer(timeout, proc.kill)
    timer.daemon = True
    timer.start()
    return proc, timer


def reap(proc, timer):
    """Wait for a child with os.wait4; return (exit code, ru_maxrss in KB).

    A child killed by its timer shows a negative exit code.
    """
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


# ------------------------------------------------------------ in-process

def launch_worker(root, argv, timeout=SETUP_TIMEOUT_S):
    """Start a worker; return (seconds from launch to READY, stdout rest, rss KB)."""
    t0 = time.monotonic()
    proc, timer = spawn([sys.executable, os.path.join(HERE, "worker.py"), *argv], timeout,
                        root, cwd=root, stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        ready = proc.stdout.readline()
        setup = time.monotonic() - t0
        rest = proc.stdout.read()
    code, rss = reap(proc, timer)
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with code {code}")
    return setup, rest, rss


def time_setups(root, argv, count):
    return [launch_worker(root, ["setup", *argv])[0] for _ in range(count)]


def run_inprocess(workload, seed, seconds, trace, root, work):
    # Set-up is timed before and after the run, so that its median samples
    # the machine over the whole run and not over one moment of it.
    base = [workload, str(seed), work]
    extra = 0 if trace else SETUP_LAUNCHES - 1
    setups = time_setups(root, base, extra // 2)
    setup, rest, rss = launch_worker(root, ["run", *base, str(seconds), str(int(trace))],
                                     worker_timeout(seconds))
    setups += [setup] + time_setups(root, base, extra - extra // 2)
    out = json.loads(rest.strip().splitlines()[-1])
    with open(os.path.join(work, "spans.json"), encoding="utf-8") as f:
        span_lists = [json.load(f)]
    return {"setups": setups, "passes": out["passes"], "rss_kb": rss,
            "same_as": out["same_as"], "pinned": set(out["pinned"]),
            "span_lists": span_lists, "startup_ms": 0.0}


# ------------------------------------------------------------- CLI files

def run_cli_op(op, indir, root, traced):
    """Run one CLI child; return (row, rss KB, its spans, startup ms)."""
    out_path = os.path.join(indir, "out.aut")
    spans_path = os.path.join(indir, "spans.json")
    for path in (out_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    if traced:
        argv = [sys.executable, os.path.join(HERE, "cli_boot.py"), spans_path, op.id, *op.argv]
    else:
        argv = [sys.executable, "-m", "subwordkit.cli", *op.argv]
    with open(os.path.join(indir, "stderr.txt"), "w+", encoding="utf-8") as err:
        t0 = time.monotonic()
        proc, timer = spawn(argv, CLI_OP_TIMEOUT_S, root, cwd=indir, stdout=subprocess.PIPE,
                            stderr=err, text=True)
        with proc.stdout:
            stdout = proc.stdout.read()
        code, rss = reap(proc, timer)
        ms = (time.monotonic() - t0) * 1000
        err.seek(0)
        stderr = err.read().strip()
    error = digest = None
    if code != op.rc:
        error = f"exit code {code}, want {op.rc}: {stderr[-200:]}"
    else:
        try:
            text = ""
            if op.out:
                with open(out_path, encoding="utf-8") as f:
                    text = f.read()
            digest = op.check(stdout, text)
        except (cli_ops.CheckFailed, OSError) as e:
            error = f"wrong output: {e}"
    child_spans, startup = [], 0.0
    if traced and os.path.exists(spans_path):  # absent if the child was killed
        with open(spans_path, encoding="utf-8") as f:
            data = json.load(f)
        child_spans = data["spans"]
        startup = (data["imported"] - t0) * 1000
    return [op.id, ms, error, digest], rss, child_spans, startup


def run_cli(seed, seconds, trace, root, work):
    indir = os.path.join(work, "cli")
    base = ["cli-files", str(seed), indir]
    before = 1 if trace else (SETUP_LAUNCHES + 1) // 2
    setups = time_setups(root, base, before)
    ops = cli_ops.cli_ops(seed)
    passes, span_lists = [], []
    rss = 0
    startup_ms = 0.0
    for traced in stats.pass_plan(trace, seconds):
        rows = []
        for op in ops:
            row, op_rss, child_spans, startup = run_cli_op(op, indir, root, traced)
            rows.append(row)
            if traced:
                span_lists.append(child_spans)
                startup_ms += startup
            else:
                rss = max(rss, op_rss)
        passes.append({"traced": traced, "ops": rows})
    if not trace:
        setups += time_setups(root, base, SETUP_LAUNCHES - before)
    return {"setups": setups, "passes": passes, "rss_kb": rss,
            "same_as": {op.id: op.same_as for op in ops if op.same_as},
            "pinned": {op.id for op in ops if op.pinned},
            "span_lists": span_lists, "startup_ms": startup_ms}


# ------------------------------------------------------------ judgement

def judge(result, expected):
    """Count attempted and failed ops and list the failures.

    An op fails if it raised, ran out of budget, exited with an unexpected
    code, failed its output check, returned a digest other than the one
    pinned in `expected`, or differs from the op it must agree with.
    """
    attempted = failed = 0
    failures = []
    for p in result["passes"]:
        latest = {}  # digest of each op's most recent run; the reference op runs first
        for op_id, _, error, digest in p["ops"]:
            attempted += 1
            if error is None and op_id in result["pinned"] and digest is not None:
                want = expected.get(op_id)
                if want is None:
                    error = "no expected digest recorded"
                elif digest != want:
                    error = f"digest {digest[:12]} differs from expected {want[:12]}"
            other = result["same_as"].get(op_id)
            if error is None and other is not None and latest.get(other) != digest:
                error = f"output differs from {other!r}"
            latest[op_id] = digest
            if error is not None:
                failed += 1
                failures.append(f"{op_id}: {error}")
    return attempted, failed, failures


def op_latencies(passes):
    """Each op's median latency over the run, in op-list order.

    An op that runs several times in a run (in several passes, or in
    several rounds of one pass) counts once, so a burst of machine noise
    that hits one of its runs moves p50 and p90 less.
    """
    by_op = {}
    for p in passes:
        for row in p["ops"]:
            by_op.setdefault(row[0], []).append(row[1])
    return [stats.median(v) for v in by_op.values()]


def end_to_end(result):
    passes = [p for p in result["passes"] if not p["traced"]]
    latencies = op_latencies(passes)
    if len(latencies) < MIN_OPS:
        raise BenchError(f"only {len(latencies)} ops, need {MIN_OPS} for p90")
    values = {
        "run_s": stats.median([sum(row[1] for row in p["ops"]) / 1000 for p in passes]),
        "op_p50_ms": stats.percentile(latencies, 50),
        "op_p90_ms": stats.percentile(latencies, 90),
        "peak_rss_mb": result["rss_kb"] / 1024,
        "setup_s": stats.median(result["setups"]),
    }
    notes = {
        "run_s": f"median of {len(passes)} pass(es) of {len(passes[0]['ops'])} ops",
        "op_p50_ms": f"over n={len(latencies)} ops, each its median latency",
        "op_p90_ms": f"n={len(latencies)}, highest percentile with >= {stats.TAIL_SAMPLES} "
                     f"ops beyond: p{stats.tail_percentile(len(latencies))}",
        "peak_rss_mb": "ru_maxrss of the workload's child process(es)",
        "setup_s": f"median of {len(result['setups'])} set-ups",
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, notes


def per_layer(result):
    traced = [sum(r[1] for r in p["ops"]) for p in result["passes"] if p["traced"]]
    plain = [sum(r[1] for r in p["ops"]) for p in result["passes"] if not p["traced"]]
    metrics = tracing.layer_metrics(result["span_lists"],
                                    {"cli.startup_ms": result["startup_ms"]})
    metrics["bench.trace_overhead"] = (traced[0] / stats.median(plain), "ratio")
    return metrics, {"bench.trace_overhead": "traced run_s / median of the untraced ones"}


# ------------------------------------------------------------------- main

def stamp(root, workload, seed, trace, backend):
    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    src = os.path.join(root, "src", "subwordkit")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return {"workload": workload, "seed": seed, "trace": int(trace), "backend": backend,
            "python": sys.version.split()[0], "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": h.hexdigest()}


def parity(root):
    """Backend stamp and pure-vs-compiled parity, from a fresh child."""
    _, out, _ = launch_worker(root, ["parity"])
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, root, expected, record, par):
    work = os.path.join(root, ".perfbench", workload)
    os.makedirs(work, exist_ok=True)
    if workload == "cli-files":
        result = run_cli(seed, seconds, trace, root, work)
    else:
        result = run_inprocess(workload, seed, seconds, trace, root, work)
    info = stamp(root, workload, seed, trace, par["backend"])
    info["compiled_parity"] = (None if not par["compiled"]
                               else "ok" if not par["mismatches"] else par["mismatches"])
    if record:
        expected[workload] = {row[0]: row[3] for p in result["passes"] for row in p["ops"]
                              if row[0] in result["pinned"] and row[3] is not None}
    attempted, failed, failures = judge(result, expected.get(workload, {}))
    if par["mismatches"]:
        failed += 1
        failures.append(f"compiled kernels differ from pure: {par['mismatches']}")
    metrics, notes = per_layer(result) if trace else end_to_end(result)
    report = {"stamp": info, "attempted": attempted, "failed": failed, "failures": failures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "passes": result["passes"]}
    results = os.path.join(root, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as f:
        json.dump(report, f)
    print(f"# {json.dumps(info)}")
    for failure in failures:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{workload:<10} {name:<44} {value:>14.6g} {unit:<6} {note}")
    rate = failed / attempted
    print(f"{workload:<10} {'error_rate':<44} {rate:>14.6g} {'ratio':<6} {failed}/{attempted} ops")
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="subwordkit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="pin the seed-independent output digests of this run in "
                             "expected.json instead of checking them")
    args = parser.parse_args(argv)

    root = os.getcwd()
    for need in ("src/subwordkit/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"error: {need} not found; run from the repository root", file=sys.stderr)
            return 2
    with open(EXPECTED, encoding="utf-8") as f:
        expected = json.load(f)

    attempted = failed = 0
    metrics = {}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        par = parity(root)
        for w in workloads:
            a, f_, m = run_workload(w, args.seed, args.seconds, args.trace, root, expected,
                                    args.record_digests, par)
            attempted += a
            failed += f_
            prefix = f"{w}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.record_digests:
        with open(EXPECTED, "w", encoding="utf-8") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
