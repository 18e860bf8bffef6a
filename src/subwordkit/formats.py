"""Plain-text automaton format and Graphviz export.

The text format is line oriented.  `#` starts a comment; blank lines are
skipped.  The four header lines come first, in this order, followed by
one transition per line:

    alphabet a b c
    states 4
    initial 0
    final 2 3
    0 a 1
    1 b 2

State lists may be empty ("initial" on its own line is the empty set).
Transitions name the symbol, not its index.  serialize_automaton writes
the same format back canonically: transitions sorted by source state,
symbol index, then target state.

parse_dfa additionally requires a single initial state and at most one
transition per (state, symbol) pair, and returns a Dfa.

The `states` header is untrusted: both parsers take a state budget and
refuse a count above it (BudgetExceededError, as core.check_budget
would) before anything is sized by it.  Every state and symbol is then
checked as it is read, and the transitions go straight into the
automaton's table.
"""

from __future__ import annotations

from array import array

from .errors import FormatError, InputError
from .core import DEFAULT_BUDGET, Alphabet, Dfa, Nfa, _check_states, as_nfa


def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_header_ints(tokens, lineno, n, what):
    out = []
    for tok in tokens:
        try:
            q = int(tok)
        except ValueError:
            raise FormatError(f"{what} list has non-integer entry {tok!r}", lineno)
        if not 0 <= q < n:
            raise FormatError(f"{what} state {q} out of range for {n} states", lineno)
        out.append(q)
    return out


def _parse(text, require_dfa, budget):
    lines = _logical_lines(text)
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise FormatError("empty input, expected an alphabet line")
    if tokens[0] != "alphabet" or len(tokens) < 2:
        raise FormatError("expected 'alphabet <symbol>...'", lineno)
    try:
        alphabet = Alphabet(tuple(tokens[1:]))
    except InputError as e:
        raise FormatError(str(e), lineno)

    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise FormatError("missing 'states' line")
    if tokens[0] != "states" or len(tokens) != 2:
        raise FormatError("expected 'states <count>'", lineno)
    try:
        n = int(tokens[1])
    except ValueError:
        raise FormatError(f"state count {tokens[1]!r} is not an integer", lineno)
    if n < 0:
        raise FormatError("state count must be nonnegative", lineno)
    _check_states(n, budget)

    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise FormatError("missing 'initial' line")
    if tokens[0] != "initial":
        raise FormatError("expected 'initial <state>...'", lineno)
    initial = _parse_header_ints(tokens[1:], lineno, n, "initial")
    initial_lineno = lineno
    if require_dfa and len(initial) != 1:
        raise FormatError("a DFA needs exactly one initial state", initial_lineno)

    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise FormatError("missing 'final' line")
    if tokens[0] != "final":
        raise FormatError("expected 'final <state>...'", lineno)
    final = _parse_header_ints(tokens[1:], lineno, n, "final")

    k = alphabet.k
    table = array("i", [-1]) * (n * k) if require_dfa else [0] * (n * k)
    seen = {}
    for lineno, tokens in lines:
        if len(tokens) != 3:
            raise FormatError("expected '<state> <symbol> <state>'", lineno)
        src = _parse_header_ints(tokens[:1], lineno, n, "transition")[0]
        dst = _parse_header_ints(tokens[2:], lineno, n, "transition")[0]
        try:
            sym = alphabet.index(tokens[1])
        except InputError:
            raise FormatError(f"symbol {tokens[1]!r} is not in the alphabet", lineno)
        if require_dfa:
            before = seen.setdefault((src, sym), lineno)
            if before != lineno:
                raise FormatError(
                    f"duplicate transition for state {src} on {tokens[1]!r}"
                    f" (first on line {before})", lineno)
            table[src * k + sym] = dst
        else:
            table[src * k + sym] |= 1 << dst

    if require_dfa:
        return Dfa._of_table(alphabet, n, table, initial[0], final)
    return Nfa._of_masks(alphabet, n, table, initial, final)


def parse_automaton(text, budget=DEFAULT_BUDGET):
    """Parse the text format into an Nfa of at most `budget` states."""
    return _parse(text, False, budget)


def parse_dfa(text, budget=DEFAULT_BUDGET):
    """Parse the text format into a Dfa of at most `budget` states,
    rejecting nondeterminism."""
    return _parse(text, True, budget)


def _sorted_parts(a):
    """(alphabet, n, sorted initial states, final set, transitions sorted by
    source, symbol, target) of an automaton, read off its table in that
    order.  A Dfa's come from its flat table, so a long DFA builds no mask
    table."""
    if isinstance(a, Dfa):
        k = a.k
        return (a.alphabet, a.n, [a.initial], a.final,
                ((i // k, i % k, t) for i, t in enumerate(a.delta_flat()) if t >= 0))
    nfa = as_nfa(a)
    return nfa.alphabet, nfa.n, sorted(nfa.initial), nfa.final, nfa.transitions_sorted()


def serialize_automaton(a):
    """Canonical text form of an automaton (Nfa or Dfa)."""
    alphabet, n, initial, final, transitions = _sorted_parts(a)
    out = ["alphabet " + " ".join(alphabet.symbols)]
    out.append(f"states {n}")
    out.append(("initial " + " ".join(str(q) for q in initial)).rstrip())
    out.append(("final " + " ".join(str(q) for q in sorted(final))).rstrip())
    names = alphabet.symbols
    for p, x, q in transitions:
        out.append(f"{p} {names[x]} {q}")
    return "\n".join(out) + "\n"


def render_dot(a):
    """Graphviz digraph for an automaton.  Finals are double circles and
    initial states get an arrow from an invisible point; parallel edges
    are grouped into one arrow with a comma-separated label, in which
    each `\\` and `"` of a symbol is escaped."""
    alphabet, n, initial, final, transitions = _sorted_parts(a)
    names = [s.replace("\\", "\\\\").replace('"', '\\"') for s in alphabet.symbols]
    out = ["digraph automaton {", "  rankdir=LR;"]
    for q in range(n):
        shape = "doublecircle" if q in final else "circle"
        out.append(f"  {q} [shape={shape}];")
    for i, q in enumerate(initial):
        out.append(f"  __start{i} [shape=point, style=invis];")
        out.append(f"  __start{i} -> {q};")
    grouped = {}
    for p, x, q in transitions:
        grouped.setdefault((p, q), []).append(x)
    for (p, q), xs in sorted(grouped.items()):
        label = ",".join(names[x] for x in sorted(xs))
        out.append(f'  {p} -> {q} [label="{label}"];')
    out.append("}")
    return "\n".join(out) + "\n"
