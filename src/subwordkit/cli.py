"""Command line interface.

    subwordkit gen heam 4 --format dot
    subwordkit closure down --in a.aut --out closed.aut
    subwordkit interior up --method duality --in a.aut
    subwordkit minimize --in a.aut
    subwordkit decide closed --direction up --in a.aut
    subwordkit decide inclusion --direction down --in a.aut --in2 b.aut
    subwordkit decide universal --in a.aut
    subwordkit bounds fooling --family Uprime --param 3
    subwordkit bounds rank --n 4
    subwordkit experiment up-closure-exact --csv

Automata are read from --in ('-' or omitted means stdin) in the text
format of subwordkit.formats.  Exit codes: 0 success (and "yes" for
decisions), 1 refuted decision or failed experiment, 2 bad input, 3
budget exceeded, 4 certificate verification failure.

Each command imports the functions it calls from their own modules when it
runs, so a command loads only the modules it uses, and rebinding a module
attribute (say `subwordkit.interiors.up_interior`) reaches the CLI.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import BudgetExceededError, InputError, VerificationError
from .core import DEFAULT_BUDGET
from .witnesses import FAMILY_NAMES, FOOLING_NAMES


def _read_text(path):
    if path in (None, "-"):
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _read_automaton(path, budget):
    from .formats import parse_automaton
    return parse_automaton(_read_text(path), budget)


def _emit(args, automaton):
    from .formats import render_dot, serialize_automaton
    text = render_dot(automaton) if args.format == "dot" else serialize_automaton(automaton)
    _write_text(args.out, text)


def _add_io(p, with_input=True):
    if with_input:
        p.add_argument("--in", dest="inp", metavar="FILE",
                       help="input automaton ('-' or omitted reads stdin)")
    p.add_argument("--out", metavar="FILE", help="output file (default stdout)")
    p.add_argument("--format", choices=("text", "dot"), default="text",
                   help="output as canonical text or Graphviz dot")


def _positive_int(text):
    """argparse type of --budget: a state cap of at least one."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _cmd_gen(args):
    from .witnesses import gen_family
    _emit(args, gen_family(args.family, args.param))
    return 0


def _cmd_closure(args):
    from .closures import closure_dfa
    a = _read_automaton(args.inp, args.budget)
    _emit(args, closure_dfa(a, args.direction, args.budget))
    return 0


def _cmd_interior(args):
    from .interiors import down_interior, up_interior
    a = _read_automaton(args.inp, args.budget)
    interior = up_interior if args.direction == "up" else down_interior
    _emit(args, interior(a, args.method, args.budget))
    return 0


def _cmd_minimize(args):
    from .core import canonical_dfa
    a = _read_automaton(args.inp, args.budget)
    _emit(args, canonical_dfa(a, args.budget))
    return 0


def _cmd_decide(args):
    from .decisions import closure_equal, closure_inclusion, down_universal, is_closed
    a = _read_automaton(args.inp, args.budget)
    kind = args.kind
    if kind == "universal":
        cert = down_universal(a, args.budget)
        label = "down-universal"
    else:
        if args.direction is None:
            raise InputError(f"decide {kind} needs --direction up or down")
        if kind == "closed":
            cert = is_closed(a, args.direction, args.budget)
            label = f"{args.direction}-closed"
        else:
            if args.in2 is None:
                raise InputError(f"decide {kind} needs --in2")
            b = _read_automaton(args.in2, args.budget)
            decide = closure_inclusion if kind == "inclusion" else closure_equal
            cert = decide(a, b, args.direction, args.budget)
            label = f"closure-{kind} ({args.direction})"
    print(f"{label}: {'yes' if cert.verdict else 'no'}")
    if not cert.verdict:
        print(f"witness: {cert.witness}")
    return 0 if cert.verdict else 1


def _bounds_instance(args):
    """The automaton that the bounds commands check: the --in file, within
    the default budget (they take no --budget), or the family's own."""
    from .closures import down_closure, up_closure
    from .witnesses import gen_family
    if args.inp:
        return _read_automaton(args.inp, DEFAULT_BUDGET)
    family, param = args.family, args.param
    if family in ("U", "V", "Uprime", "E", "D", "notU"):
        return gen_family(family, param)
    if family == "downD":
        return down_closure(gen_family("D", param))
    if family == "upE":
        return up_closure(gen_family("E", param))
    raise InputError(f"no default instance for family {family!r}")


def _cmd_bounds(args):
    from .witnesses import fooling_for
    from .bounds import fooling_matrix, mx_matrix, rational_rank, ufa_lower_bound, verify_fooling
    if args.kind == "fooling":
        if args.family is None or args.param is None:
            raise InputError("bounds fooling needs --family and --param")
        s = fooling_for(args.family, args.param)
        inst = _bounds_instance(args)
        m = verify_fooling(inst, s)
        print(f"fooling set certified: any NFA needs at least {m} states")
        return 0
    if args.family is not None:
        if args.param is None:
            raise InputError("bounds rank needs --param with --family")
        s = fooling_for(args.family, args.param)
        inst = _bounds_instance(args)
        print(f"rank = {rational_rank(fooling_matrix(inst, s))}")
        print(f"UFA lower bound = {ufa_lower_bound(inst, s, args.initial_excluded)}")
        return 0
    if args.n is not None:
        print(f"rank = {rational_rank(mx_matrix(args.n))}")
        return 0
    raise InputError("bounds rank needs --family/--param or --n")


def _cmd_experiment(args):
    from .experiments import describe_experiment, experiment_ids, run_experiment
    if args.id == "list":
        for exp_id in experiment_ids():
            print(f"{exp_id}: {describe_experiment(exp_id)}")
        return 0
    params = {}
    if args.seed is not None:
        params["seed"] = args.seed
    if args.budget is not None:
        params["budget"] = args.budget
    report = run_experiment(args.id, params)
    _write_text(args.out, report.to_csv() if args.csv else report.to_text())
    return 0 if report.passed else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="subwordkit",
        description="subword closures, interiors and state-complexity certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a witness family automaton")
    p.add_argument("family", choices=FAMILY_NAMES)
    p.add_argument("param", type=int)
    _add_io(p, with_input=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("closure", help="minimal DFA of the up- or down-closure")
    p.add_argument("direction", choices=("up", "down"))
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    _add_io(p)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("interior", help="minimal DFA of the up- or down-interior")
    p.add_argument("direction", choices=("up", "down"))
    p.add_argument("--method", choices=("antichain", "duality"), default="antichain")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    _add_io(p)
    p.set_defaults(func=_cmd_interior)

    p = sub.add_parser("minimize", help="canonical minimal DFA of the input")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    _add_io(p)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("decide", help="decision procedures with witnesses")
    p.add_argument("kind", choices=("closed", "inclusion", "equal", "universal"))
    p.add_argument("--direction", choices=("up", "down"))
    p.add_argument("--in", dest="inp", metavar="FILE")
    p.add_argument("--in2", metavar="FILE", help="second automaton for inclusion/equal")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("bounds", help="fooling-set and rank lower bounds")
    p.add_argument("kind", choices=("fooling", "rank"))
    p.add_argument("--family", choices=FOOLING_NAMES)
    p.add_argument("--param", type=int)
    p.add_argument("--n", type=int, help="rank of the subset intersection matrix")
    p.add_argument("--in", dest="inp", metavar="FILE",
                   help="verify against this automaton instead of the built-in instance")
    p.add_argument("--initial-excluded", action="store_true",
                   help="add one for an initial state that no suffix revisits")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="run a registered experiment ('list' to enumerate)")
    p.add_argument("id")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=_positive_int)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except VerificationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
