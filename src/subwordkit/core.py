"""Automaton core: alphabets, words, NFA/DFA types, and the standard
constructions everything else is built from.

Conventions used throughout the package:

- NFAs have no epsilon transitions and may have several initial states.
- DFAs are partial (missing edges reject) with a single initial state.
- `minimize` output is canonical: reachable states only, dead states
  stripped, renumbered in BFS discovery order from the initial state with
  symbols scanned in index order.  Equal languages give equal tables, so
  equivalence checks reduce to structural equality.
- The empty language has a one-state DFA with no transitions and no finals.
"""

from __future__ import annotations

from array import array
from dataclasses import FrozenInstanceError, dataclass
from operator import or_
from typing import Mapping

from .errors import BudgetExceededError, InputError
from . import kernels
from .kernels import bits, explore, rows, step

DEFAULT_BUDGET = 1 << 20


@dataclass(frozen=True)
class Alphabet:
    """Ordered alphabet; letters are referred to by index, printed by name."""

    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) == 0:
            raise InputError("alphabet must have at least one symbol")
        seen = set()
        for s in self.symbols:
            if not isinstance(s, str) or not s or any(c.isspace() for c in s) or "#" in s:
                raise InputError(f"bad symbol name {s!r}")
            if s in seen:
                raise InputError(f"duplicate symbol name {s!r}")
            seen.add(s)

    @property
    def k(self):
        return len(self.symbols)

    def index(self, name):
        try:
            return self.symbols.index(name)
        except ValueError:
            raise InputError(f"symbol {name!r} not in alphabet") from None

    def word(self, *names):
        """Word from symbol names: ab.word("a", "b", "a")."""
        return Word(self, tuple(self.index(s) for s in names))

    def word_of(self, indices):
        return Word(self, tuple(indices))


def auto_alphabet(k, prefix="a"):
    """Alphabet with symbols prefix1..prefixk (the witness-family default)."""
    if k < 1:
        raise InputError("alphabet size must be at least 1")
    return Alphabet(tuple(f"{prefix}{i}" for i in range(1, k + 1)))


@dataclass(frozen=True)
class Word:
    alphabet: Alphabet
    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        k = self.alphabet.k
        for a in self.letters:
            if not isinstance(a, int) or not 0 <= a < k:
                raise InputError(f"letter index {a!r} out of range for alphabet of size {k}")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __add__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        if other.alphabet != self.alphabet:
            raise InputError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def __mul__(self, times):
        return Word(self.alphabet, self.letters * times)

    __rmul__ = __mul__

    def names(self):
        return tuple(self.alphabet.symbols[a] for a in self.letters)

    def count(self, letter_index):
        return self.letters.count(letter_index)

    def __str__(self):
        return " ".join(self.names()) if self.letters else "ε"


class Nfa:
    """Epsilon-free NFA.  States are 0..n-1; transitions are (p, a, q)
    triples with a a letter index; any number of initial states.

    An NFA holds its transitions in one form, the flat n*k table of
    successor bitmasks that the kernels read (`succ_masks`).  The
    constructor checks the triples it is given and ORs them into that
    table; the closures, `Dfa.to_nfa` and the parser build the table
    directly (`_of_masks`).  The constructor trusts `n` to size the table:
    a count read from an untrusted source is checked against a budget
    before an NFA is built (the parsers of `formats` do so).
    `transitions` is derived from the table on every read and not kept,
    so the triple set of a closure NFA (about n²/2 triples for the
    down-closure of a path) lives only as long as its reader holds it.
    Two NFAs are equal when they have the same alphabet, states,
    transitions, initial and final states.  Instances are immutable.
    """

    __slots__ = ("alphabet", "n", "initial", "final", "_succ")

    def __init__(self, alphabet, n, transitions, initial, final):
        initial = frozenset(initial)
        final = frozenset(final)
        if n < 0:
            raise InputError("state count must be nonnegative")
        k = alphabet.k
        succ = [0] * (n * k)
        for p, a, q in transitions:
            if not (0 <= p < n and 0 <= q < n):
                raise InputError(f"transition ({p},{a},{q}) uses a state out of range")
            if not 0 <= a < k:
                raise InputError(f"transition ({p},{a},{q}) uses a letter out of range")
            succ[p * k + a] |= 1 << q
        for s in initial | final:
            if not 0 <= s < n:
                raise InputError(f"state {s} out of range")
        self._init(alphabet, n, initial, final, tuple(succ))

    @classmethod
    def _of_masks(cls, alphabet, n, succ, initial, final):
        """NFA over a ready n*k successor table, taken as valid (for
        constructions of the package, which build the table directly)."""
        nfa = cls.__new__(cls)
        nfa._init(alphabet, n, frozenset(initial), frozenset(final), tuple(succ))
        return nfa

    def _init(self, alphabet, n, initial, final, succ):
        for name, value in (("alphabet", alphabet), ("n", n), ("initial", initial),
                            ("final", final), ("_succ", succ)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Nfa._of_masks, (self.alphabet, self.n, self.succ_masks(),
                                self.initial, self.final))

    @property
    def k(self):
        return self.alphabet.k

    @property
    def transitions(self):
        """Frozenset of (p, a, q) triples, derived from the table on every
        read."""
        return frozenset(self.transitions_sorted())

    def succ_masks(self):
        """Flat n*k table of successor bitmasks (kernel input form):
        entry p*k + a has bit q set for each transition (p, a, q)."""
        return self._succ

    def init_mask(self):
        m = 0
        for q in self.initial:
            m |= 1 << q
        return m

    def final_mask(self):
        m = 0
        for q in self.final:
            m |= 1 << q
        return m

    def transitions_sorted(self):
        """The (p, a, q) triples in (p, a, q) order, read off the table."""
        k = self.k
        return [(i // k, i % k, q) for i, m in enumerate(self.succ_masks()) for q in bits(m)]

    def __eq__(self, other):
        if not isinstance(other, Nfa):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.n == other.n
                and self.initial == other.initial and self.final == other.final
                and self.succ_masks() == other.succ_masks())

    def __hash__(self):
        return hash((self.alphabet, self.n, self.initial, self.final, self.succ_masks()))

    def __repr__(self):
        count = sum(m.bit_count() for m in self.succ_masks())
        return (f"Nfa(n={self.n}, k={self.k}, initial={sorted(self.initial)}, "
                f"final={sorted(self.final)}, transitions={count})")


class Dfa:
    """Partial DFA backed by a flat transition array (n*k, -1 = missing)."""

    __slots__ = ("alphabet", "n", "initial", "final", "_delta")

    def __init__(self, alphabet, n, delta, initial=0, final=()):
        if n < 1:
            raise InputError("a DFA needs at least one state")
        k = alphabet.k
        if isinstance(delta, Mapping):
            flat = [-1] * (n * k)
            for (q, a), t in delta.items():
                if not (0 <= q < n and 0 <= a < k):
                    raise InputError(f"transition key ({q},{a}) out of range")
                flat[q * k + a] = t
        else:
            # an array('i') from a kernel is kept as it is: listing it would
            # box every entry as an int object
            flat = delta if isinstance(delta, array) else list(delta)
            if len(flat) != n * k:
                raise InputError(f"flat delta must have n*k = {n * k} entries, got {len(flat)}")
        for t in flat:
            if t != -1 and not 0 <= t < n:
                raise InputError(f"transition target {t} out of range")
        if not 0 <= initial < n:
            raise InputError(f"initial state {initial} out of range")
        final = frozenset(final)
        for q in final:
            if not 0 <= q < n:
                raise InputError(f"final state {q} out of range")
        self._init(alphabet, n, array("i", flat), initial, final)

    @classmethod
    def _of_table(cls, alphabet, n, delta, initial, final):
        """DFA over a flat n*k table of a kernel or of `explore`, taken as
        valid: every target is -1 or below n by construction.  An
        array('i') is kept as it is, not copied."""
        dfa = cls.__new__(cls)
        if not isinstance(delta, array):
            delta = array("i", delta)
        dfa._init(alphabet, n, delta, initial, frozenset(final))
        return dfa

    def _init(self, alphabet, n, delta, initial, final):
        self.alphabet = alphabet
        self.n = n
        self.initial = initial
        self.final = final
        self._delta = delta

    @property
    def k(self):
        return self.alphabet.k

    def delta(self, q, a):
        """Target of (q, a), or None when the edge is missing."""
        if not (0 <= q < self.n and 0 <= a < self.k):
            raise InputError(f"({q},{a}) out of range")
        t = self._delta[q * self.k + a]
        return None if t < 0 else t

    def delta_flat(self):
        """The backing flat table (do not mutate)."""
        return self._delta

    def transitions(self):
        """Iterate (p, a, q) in (p, a) order."""
        k = self.k
        for i, t in enumerate(self._delta):
            if t >= 0:
                yield (i // k, i % k, t)

    def num_transitions(self):
        return sum(1 for t in self._delta if t >= 0)

    def is_complete(self):
        return all(t >= 0 for t in self._delta)

    def to_nfa(self):
        succ = [1 << t if t >= 0 else 0 for t in self._delta]
        return Nfa._of_masks(self.alphabet, self.n, succ, (self.initial,), self.final)

    def __eq__(self, other):
        if not isinstance(other, Dfa):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.n == other.n
                and self.initial == other.initial and self.final == other.final
                and self._delta == other._delta)

    def __hash__(self):
        return hash((self.alphabet, self.n, self.initial, self.final, self._delta.tobytes()))

    def __repr__(self):
        return (f"Dfa(n={self.n}, k={self.k}, initial={self.initial}, "
                f"final={sorted(self.final)}, transitions={self.num_transitions()})")


def as_nfa(a):
    if isinstance(a, Nfa):
        return a
    if isinstance(a, Dfa):
        return a.to_nfa()
    raise InputError(f"expected an automaton, got {type(a).__name__}")


def empty_language_dfa(alphabet):
    return Dfa(alphabet, 1, {}, 0, ())


def sigma_star_dfa(alphabet):
    return Dfa(alphabet, 1, {(0, a): 0 for a in range(alphabet.k)}, 0, {0})


def dfa_from_words(alphabet, words):
    """Trie DFA of a finite word list (exact language, not minimal)."""
    delta = {}
    final = set()
    count = 1
    for w in words:
        letters = w.letters if isinstance(w, Word) else tuple(w)
        q = 0
        for a in letters:
            t = delta.get((q, a))
            if t is None:
                t = count
                count += 1
                delta[(q, a)] = t
            q = t
        final.add(q)
    return Dfa(alphabet, count, delta, 0, final)


def accepts(a, w):
    """Membership test; w may be a Word or a sequence of letter indices."""
    if not isinstance(a, Dfa):
        a = as_nfa(a)
    k = a.k
    if isinstance(w, Word):
        if w.alphabet != a.alphabet:
            raise InputError("word and automaton alphabets differ")
        letters = w.letters
    else:
        # a raw index out of range would read another state's row
        letters = tuple(w)
        for x in letters:
            if not isinstance(x, int) or not 0 <= x < k:
                raise InputError(f"letter index {x!r} out of range for alphabet of size {k}")
    if isinstance(a, Dfa):
        q = a.initial
        for x in letters:
            q = a._delta[q * k + x]
            if q < 0:
                return False
        return q in a.final
    succ = a.succ_masks()
    cur = a.init_mask()
    for x in letters:
        cur = step(succ, k, cur, x)
        if not cur:
            return False
    return bool(cur & a.final_mask())


def check_budget(a, budget):
    """Validate a state budget against the input automaton, before any work.

    Raises InputError for an argument that is not an automaton, and
    otherwise applies `_check_states` to its state count.  The automaton
    is built by then, so this bounds the work, not the input's own
    tables: a state count read from untrusted text is checked by the
    parsers of `formats`, before anything sized by it is allocated.
    """
    if not isinstance(a, (Nfa, Dfa)):
        raise InputError(f"expected an automaton, got {type(a).__name__}")
    _check_states(a.n, budget)


def _check_states(n, budget):
    """The budget rule for an input of n states: InputError for a budget
    below 1, BudgetExceededError when n exceeds the budget."""
    if budget < 1:
        raise InputError(f"budget must be at least 1, got {budget}")
    if n > budget:
        raise BudgetExceededError("input states", budget)


def determinize(a, budget=DEFAULT_BUDGET):
    """Subset construction; result states are reachable subsets in BFS order."""
    return _determinize(a, budget)[0]


def determinize_subsets(a, budget=DEFAULT_BUDGET):
    """Like determinize, but also returns the subset behind each DFA state."""
    dfa, subsets = _determinize(a, budget)
    return dfa, tuple(frozenset(bits(s)) for s in subsets)


def _determinize(a, budget, reduced=False):
    """The determinized DFA and the bitmask subset behind each of its states.

    With `reduced`, every subset is replaced by its `kernels.maximal` part,
    which has the same language when `a` is a down-closure NFA (see
    kernels.subset_construction)."""
    check_budget(a, budget)
    a = as_nfa(a)
    init = a.init_mask()
    if init == 0:
        return empty_language_dfa(a.alphabet), (0,)
    succ = a.succ_masks()
    if reduced:
        init = kernels.maximal(succ, a.k, init)
    delta, subsets = kernels.subset_construction(a.n, a.k, succ, init, budget, reduced)
    fmask = a.final_mask()
    final = [i for i, s in enumerate(subsets) if s & fmask]
    return Dfa._of_table(a.alphabet, len(subsets), delta, 0, final), subsets


def _adjacency(a):
    """Per state of the NFA a, the mask of its successors on any letter."""
    k = a.k
    succ = a.succ_masks()
    adj = list(succ[0::k])
    for x in range(1, k):
        adj = list(map(or_, adj, succ[x::k]))
    return adj


def strong_components(a):
    """Strongly connected components of a's transition graph, letters
    ignored, by `_strong_components` until the compiled kernels are
    loaded.  From then on C finds the same components
    (kernels.strong_components) from the input's own table, a DFA's too,
    when they are first read as that tuple, or when closures.closure_dfa
    hands them to kernels.closure_front."""
    if isinstance(a, Dfa):
        found = kernels.strong_components(a.n, a.k, a.delta_flat(), None)
    else:
        a = as_nfa(a)
        found = kernels.strong_components(a.n, a.k, None, a.succ_masks())
    return _strong_components(as_nfa(a)) if found is None else found


def _strong_components(a):
    """strong_components of the NFA a in Python, the compiled one's twin.

    An iterative Tarjan, so a long path needs no deep recursion; it keeps
    the state it searches in local variables and takes each state's edges
    off its adjacency mask, lowest first.  Returns (comps, comp_of,
    below): comps[i] lists the members of component i, comp_of[q] is the
    component of state q, and below[i] is the ascending tuple of the other
    components that an edge from component i enters, read off one mask of
    them.  Components come in reverse topological order: every j in
    below[i] is below i.  A component with at most one edge out builds no
    mask, so n states without edges cost O(n), not O(n²).
    """
    n = a.n
    adj = _adjacency(a)
    index = [-1] * n
    comp_of = [-1] * n
    comps = []
    below = []
    stack = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        m = adj[root]
        if not m:
            # no edge out, so a component of its own: the common case of
            # states that a header declares and no transition uses
            index[root] = counter
            counter += 1
            comp_of[root] = len(comps)
            comps.append([root])
            below.append(())
            continue
        # v is the state being searched, m its edges not yet taken and lv
        # its low link; `path` keeps the same three for each state the
        # search will return to
        v = root
        index[v] = lv = counter
        counter += 1
        stack.append(v)
        path = []
        while True:
            while m:
                bit = m & -m
                m ^= bit
                w = bit.bit_length() - 1
                iw = index[w]
                if iw < 0:
                    path.append((v, m, lv))
                    v = w
                    index[v] = lv = counter
                    counter += 1
                    stack.append(v)
                    m = adj[v]
                elif iw < lv and comp_of[w] < 0:
                    lv = iw
            if lv == index[v]:
                c = len(comps)
                w = stack.pop()
                comp_of[w] = c
                members = [w]
                out = adj[w]
                while w != v:
                    w = stack.pop()
                    comp_of[w] = c
                    members.append(w)
                    out |= adj[w]
                comps.append(members)
                if out & (out - 1):
                    entered = 0
                    for q in bits(out):
                        entered |= 1 << comp_of[q]
                    entered ^= entered & 1 << c
                    ds = []
                    while entered:
                        low = entered & -entered
                        ds.append(low.bit_length() - 1)
                        entered ^= low
                    below.append(tuple(ds))
                else:  # no edge out, or one
                    d = comp_of[out.bit_length() - 1] if out else c
                    below.append((d,) if d != c else ())
            if not path:
                break
            v, m, lu = path.pop()
            if lu < lv:
                lv = lu
    return comps, comp_of, below


def _usefulness(a, components):
    """(fwd, co) for the components of `components`, which is
    strong_components(a): fwd[i] says that component i is reachable from
    an initial state, co[i] that it reaches a final state.  A state is
    useful when its component has both."""
    comps, comp_of, below = components
    co = [False] * len(comps)
    for q in a.final:
        co[comp_of[q]] = True
    for i, entered in enumerate(below):  # `below` comes first
        co[i] = co[i] or any(co[j] for j in entered)
    fwd = [False] * len(comps)
    for q in a.initial:
        fwd[comp_of[q]] = True
    for i in reversed(range(len(comps))):  # the reversed order is topological
        if fwd[i]:
            for j in below[i]:
                fwd[j] = True
    return fwd, co


def minimize(d):
    """Canonical minimal partial DFA recognising the same language."""
    if not isinstance(d, Dfa):
        raise InputError("minimize expects a Dfa; use canonical_dfa for NFAs")
    n2, delta2, finals2 = kernels.dfa_minimize(d.n, d.k, d._delta, d.initial, sorted(d.final))
    return Dfa._of_table(d.alphabet, n2, delta2, 0, finals2)


def canonical_dfa(a, budget=DEFAULT_BUDGET):
    """Minimal canonical DFA of any automaton (determinize as needed)."""
    check_budget(a, budget)
    if isinstance(a, Dfa):
        return minimize(a)
    return minimize(determinize(a, budget))


def completed(d):
    """Complete DFA: add a rejecting sink for the missing edges (state n)."""
    if d.is_complete():
        return d
    k = d.k
    flat = [t if t >= 0 else d.n for t in d._delta]
    flat.extend([d.n] * k)
    return Dfa(d.alphabet, d.n + 1, flat, d.initial, d.final)


def complement(d):
    """Complement over the same alphabet (completes, then flips finals)."""
    c = completed(d)
    return Dfa(c.alphabet, c.n, c._delta, c.initial,
               frozenset(range(c.n)) - c.final)


def intersect(d1, d2):
    """Product DFA of the reachable pairs (partial: both edges must exist)."""
    if d1.alphabet != d2.alphabet:
        raise InputError("intersect needs a common alphabet")
    k = d1.k
    delta1, delta2 = d1._delta, d2._delta

    def successors(pair):
        p, q = pair
        return [(t1, t2) if t1 >= 0 and t2 >= 0 else None
                for t1, t2 in zip(delta1[p * k:p * k + k], delta2[q * k:q * k + k])]

    # d1.n * d2.n pairs exist, so the budget never stops the product
    pairs, delta = explore((d1.initial, d2.initial), successors, d1.n * d2.n,
                           "product states")
    final = [i for i, (p, q) in enumerate(pairs) if p in d1.final and q in d2.final]
    return Dfa(d1.alphabet, len(pairs), delta, 0, final)


def equivalent(a, b, budget=DEFAULT_BUDGET):
    """Language equality via canonical forms."""
    check_budget(a, budget)
    check_budget(b, budget)
    if a.alphabet != b.alphabet:
        raise InputError("equivalence needs a common alphabet")
    return canonical_dfa(a, budget) == canonical_dfa(b, budget)


def trim(a):
    """Restrict an NFA to useful states (reachable and co-reachable).

    The useful states are the members of the components that `_usefulness`
    finds both reachable and co-reachable, read off one pass of
    `strong_components`.  Kept states are renumbered in ascending original
    order.  An automaton with empty language trims to zero states.
    """
    a = as_nfa(a)
    components = strong_components(a)
    fwd, co = _usefulness(a, components)
    comp_of = components[1]
    keep = [q for q, c in enumerate(comp_of) if fwd[c] and co[c]]
    remap = {q: i for i, q in enumerate(keep)}
    k = a.k
    succ = a.succ_masks()
    table = []
    for p in keep:
        for m in succ[p * k:p * k + k]:
            t = 0
            for q in bits(m):
                if q in remap:
                    t |= 1 << remap[q]
            table.append(t)
    return Nfa._of_masks(a.alphabet, len(keep), table,
                         [remap[q] for q in a.initial if q in remap],
                         [remap[q] for q in a.final if q in remap])


def is_unambiguous(a):
    """No word has two distinct accepting runs.

    DFAs are trivially unambiguous.  For an NFA one forward search runs
    over pairs of runs on a common word, as triples (p, q, split): p and q
    are the states the two runs are in, and split says that the runs have
    differed somewhere.  The NFA is ambiguous exactly when a split triple
    with both states final is reachable from a pair of initial states.
    """
    if isinstance(a, Dfa):
        return True
    a = as_nfa(a)
    k = a.k
    succ = a.succ_masks()
    final = a.final
    stack = [(p, q, p != q) for p in a.initial for q in a.initial]
    seen = set(stack)
    while stack:
        p, q, split = stack.pop()
        if split and p in final and q in final:
            return False
        for x in range(k):
            for p2 in bits(succ[p * k + x]):
                for q2 in bits(succ[q * k + x]):
                    t = (p2, q2, split or p2 != q2)
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
    return True


def enumerate_upto(a, maxlen, budget=DEFAULT_BUDGET):
    """All accepted words of length at most maxlen, in length-lex order.

    The budget counts enumeration nodes (the words reached, accepted or
    not), not states."""
    check_budget(a, budget)
    a = as_nfa(a)
    succ = a.succ_masks()
    k = a.k
    fmask = a.final_mask()
    out = []
    frontier = [((), a.init_mask())]
    if frontier[0][1] & fmask:
        out.append(Word(a.alphabet, ()))
    visited = 1
    for _ in range(maxlen):
        nxt = []
        for letters, mask in frontier:
            for x, t in enumerate(rows(succ, k, mask)):
                if not t:
                    continue
                visited += 1
                if visited > budget:
                    raise BudgetExceededError("enumeration nodes", budget)
                w = letters + (x,)
                nxt.append((w, t))
                if t & fmask:
                    out.append(Word(a.alphabet, w))
        frontier = nxt
        if not frontier:
            break
    return out


def map_symbols(a, target, index_map):
    """Relabel letters through an injective index map into another alphabet.

    Useful for comparing automata over a sub-alphabet with automata over a
    larger one (the language is carried letter-for-letter).
    """
    if not isinstance(a, Dfa):
        a = as_nfa(a)
    amap = dict(index_map)
    if len(set(amap.values())) != len(amap):
        raise InputError("symbol map must be injective")
    for src, dst in amap.items():
        if not 0 <= src < a.alphabet.k:
            raise InputError(f"source letter {src} out of range")
        if not 0 <= dst < target.k:
            raise InputError(f"target letter {dst} out of range")
    # a DFA's flat table (-1 = missing) or an NFA's mask table (0 = none)
    if isinstance(a, Dfa):
        source, missing = a.delta_flat(), -1
    else:
        source, missing = a.succ_masks(), 0
    k = a.k
    table = [missing] * (a.n * target.k)
    for i, t in enumerate(source):
        if t != missing:
            x = i % k
            if x not in amap:
                raise InputError(f"letter {x} used but not mapped")
            table[i // k * target.k + amap[x]] = t
    if isinstance(a, Dfa):
        return Dfa(target, a.n, table, a.initial, a.final)
    return Nfa._of_masks(target, a.n, table, a.initial, a.final)
