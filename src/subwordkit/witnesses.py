"""Witness language families with known closure and interior complexity.

gen_family(name, param) builds the named family member as an automaton:

    U(k)               words using every one of the k letters
    V(k)               words in which no letter occurs twice
    Uprime(k)          any letter, then a word using every letter
    E(k)               the two-letter squares {a_i a_i}
    D(k)               words whose first letter never occurs again
    notU(n)            complement of U(n), as an n-state NFA
    heam(n)            {a^i b a^(2j) b a^i : i+j+1 = n}
    twoLetter(n)       {c(i)^n : n <= i <= 2n} over {a, b}
    downIntWitness(n)  an n-state NFA whose down-interior is huge
    upIntWitness(n)    an n-state NFA whose up-interior is huge

U and V are the canonical hard cases for up- and down-closure (they equal
their own closures); E and D are the hard cases for closure blowup: the
up-closure of E(k) needs 2^k + 1 states and the down-closure of D(k)
needs 2^k.

fooling_for(name, param) returns the matching fooling-set certificate for
the U, V, Uprime and D languages themselves and for the closures notU(n),
downD(n) = down-closure of D(n), upE(n) = up-closure of E(n).

The twoLetter helpers expose the arithmetic used to reason about that
family: c_word/d_word blocks, the theta/eta letter-count morphisms, and
the brute-force powers min_cover_power/max_prefix_power they predict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .core import Alphabet, Word, Nfa, Dfa, auto_alphabet, completed, dfa_from_words, minimize
from .subwords import embeds

FAMILY_NAMES = ("U", "V", "Uprime", "E", "D", "notU",
                "heam", "twoLetter", "downIntWitness", "upIntWitness")

FOOLING_NAMES = ("U", "V", "Uprime", "D", "notU", "downD", "upE")


def _check_k(name, param):
    if not isinstance(param, int) or param < 1:
        raise InputError(f"family {name} needs an integer parameter >= 1")


def gen_family(name, param):
    """Automaton for the named family member; minimal for the DFA families."""
    if name == "U":
        return _gen_u(param)
    if name == "V":
        return _gen_v(param)
    if name == "Uprime":
        return _gen_uprime(param)
    if name == "E":
        return _gen_e(param)
    if name == "D":
        return _gen_d(param)
    if name == "notU":
        return _gen_not_u(param)
    if name == "heam":
        return _gen_heam(param)
    if name == "twoLetter":
        return _gen_two_letter(param)
    if name == "downIntWitness":
        return _gen_down_int_witness(param)
    if name == "upIntWitness":
        return _gen_up_int_witness(param)
    raise InputError(f"unknown family {name!r} (choose from {', '.join(FAMILY_NAMES)})")


def _gen_u(k):
    _check_k("U", k)
    size = 1 << k
    delta = {}
    for m in range(size):
        for i in range(k):
            delta[(m, i)] = m | (1 << i)
    return Dfa(auto_alphabet(k), size, delta, 0, (size - 1,))


def _gen_v(k):
    _check_k("V", k)
    size = 1 << k
    delta = {}
    for m in range(size):
        for i in range(k):
            if not (m >> i) & 1:
                delta[(m, i)] = m | (1 << i)
    return Dfa(auto_alphabet(k), size, delta, 0, tuple(range(size)))


def _gen_uprime(k):
    _check_k("Uprime", k)
    size = (1 << k) + 1
    delta = {}
    for i in range(k):
        delta[(0, i)] = 1
    for m in range(1 << k):
        for i in range(k):
            delta[(1 + m, i)] = 1 + (m | (1 << i))
    return Dfa(auto_alphabet(k), size, delta, 0, (1 << k,))


def _gen_e(k):
    _check_k("E", k)
    delta = {}
    for i in range(k):
        delta[(0, i)] = 1 + i
        delta[(1 + i, i)] = k + 1
    return Dfa(auto_alphabet(k), k + 2, delta, 0, (k + 1,))


def _gen_d(k):
    _check_k("D", k)
    delta = {}
    for i in range(k):
        delta[(0, i)] = 1 + i
        for j in range(k):
            if j != i:
                delta[(1 + i, j)] = 1 + i
    return Dfa(auto_alphabet(k), k + 1, delta, 0, tuple(range(1, k + 1)))


def _gen_not_u(n):
    _check_k("notU", n)
    trans = {(q, x, q) for q in range(n) for x in range(n) if x != q}
    states = frozenset(range(n))
    return Nfa(auto_alphabet(n), n, trans, states, states)


def _gen_heam(n):
    _check_k("heam", n)
    alphabet = Alphabet(("a", "b"))
    words = []
    for i in range(n):
        j = n - 1 - i
        words.append(Word(alphabet, (0,) * i + (1,) + (0,) * (2 * j) + (1,) + (0,) * i))
    return completed(minimize(dfa_from_words(alphabet, words)))


def _gen_two_letter(n):
    params = TwoLetterParams(n)
    words = [c_word(i, n) * n for i in params.h]
    return minimize(dfa_from_words(params.alphabet, words))


def _gen_down_int_witness(n):
    if not isinstance(n, int) or n < 3 or n % 2 == 0:
        raise InputError("downIntWitness needs an odd parameter >= 3")
    l = (n - 3) // 2
    if l == 0:
        alphabet = Alphabet(("0",))
        trans = {(0, 0, 1), (1, 0, 2), (2, 0, 1), (2, 0, 2)}
        return Nfa(alphabet, 3, trans, {0}, {0, 1})
    k = 1 << l
    alphabet = Alphabet(tuple(str(v) for v in range(k)))

    def guess(t, b):
        return 2 * (t - 1) + 1 + b

    fi = 2 * l + 1
    u = 2 * l + 2
    trans = set()
    for x in range(k):
        for t in range(1, l + 1):
            trans.add((0, x, guess(t, (x >> (t - 1)) & 1)))
    for t in range(1, l + 1):
        for b in (0, 1):
            s = guess(t, b)
            for y in range(k):
                trans.add((s, y, u))
                if ((y >> (t - 1)) & 1) != b:
                    trans.add((s, y, fi))
    for z in range(k):
        trans.add((u, z, fi))
        trans.add((fi, z, fi))
    final = {0, fi} | {guess(t, b) for t in range(1, l + 1) for b in (0, 1)}
    return Nfa(alphabet, 2 * l + 3, trans, {0}, final)


def _gen_up_int_witness(n):
    if not isinstance(n, int) or not 7 <= n <= 13:
        raise InputError("upIntWitness needs a parameter between 7 and 13")
    l = (n - 4) // 3
    g = 1 << l
    names = tuple(f"g{v}" for v in range(g)) + tuple(f"u{t}" for t in range(1, l + 1))
    alphabet = Alphabet(names)

    def r(t, b):
        return 2 * (t - 1) + 1 + b

    def tstate(t):
        return 2 * l + t

    fi = 3 * l + 1
    o = 3 * l + 2
    e = 3 * l + 3
    sigma = range(g + l)
    trans = set()
    for x in range(g):
        for t in range(1, l + 1):
            trans.add((0, x, r(t, (x >> (t - 1)) & 1)))
        trans.add((0, x, o))
        trans.add((e, x, fi))
    for t in range(1, l + 1):
        ups = g + t - 1
        trans.add((0, ups, fi))
        trans.add((tstate(t), ups, fi))
        trans.add((o, ups, fi))
        for b in (0, 1):
            s = r(t, b)
            for z in sigma:
                trans.add((s, z, s))
            for y in range(g):
                if ((y >> (t - 1)) & 1) == b:
                    trans.add((s, y, tstate(t)))
    for z in sigma:
        trans.add((fi, z, fi))
        trans.add((o, z, e))
        trans.add((e, z, o))
    return Nfa(alphabet, 3 * l + 4, trans, {0}, {0, fi, e})


def _ascending(alphabet, letters):
    return Word(alphabet, tuple(sorted(letters)))


def fooling_for(name, param):
    """The standard fooling set certifying the named language's NFA size.

    The parameter is the alphabet size, exactly as in gen_family; downD
    and upE certify the down-closure of D(param) and the up-closure of
    E(param).  Sizes: 2^k pairs for U, V and notU; 2^k + 1 for Uprime,
    downD and upE; k + 1 for D.
    """
    from .bounds import FoolingSet, subsets_in_order
    _check_k(name, param)
    k = param
    alphabet = auto_alphabet(k)
    full = frozenset(range(k))
    subsets = subsets_in_order(k)

    def asc(s):
        return _ascending(alphabet, s)

    a1 = Word(alphabet, (0,))
    eps = Word(alphabet, ())
    if name in ("U", "V"):
        pairs = [(asc(g), asc(full - g)) for g in subsets]
    elif name == "Uprime":
        pairs = [(a1 + asc(g), asc(full - g)) for g in subsets]
        pairs.append((eps, a1 + asc(full)))
    elif name == "D":
        pairs = [(eps, asc(full))]
        pairs.extend((Word(alphabet, (i,)), asc(full - {i})) for i in range(k))
    elif name == "notU":
        pairs = [(asc(full - g), asc(full - g)) for g in subsets]
    elif name == "downD":
        pairs = [(a1 + asc(full - g), asc(full - g)) for g in subsets]
        pairs.append((eps, asc(full)))
    elif name == "upE":
        pairs = [(asc(g), asc(g)) for g in subsets]
        pairs.append((a1 + a1, eps))
    else:
        raise InputError(f"no fooling set for {name!r} (choose from {', '.join(FOOLING_NAMES)})")
    return FoolingSet(tuple(pairs))


@dataclass(frozen=True)
class TwoLetterParams:
    """Parameters of the twoLetter family: block exponents H = {n..2n}."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2 or self.n % 2:
            raise InputError("twoLetter needs an even parameter >= 2")

    @property
    def alphabet(self):
        return Alphabet(("a", "b"))

    @property
    def h(self):
        return tuple(range(self.n, 2 * self.n + 1))


def c_word(i, n):
    """The block c(i) = a^i b^(3n-i), defined for i in H."""
    params = TwoLetterParams(n)
    if i not in params.h:
        raise InputError(f"c_word index {i} outside H = [{n}, {2 * n}]")
    return Word(params.alphabet, (0,) * i + (1,) * (3 * n - i))


def d_word(i, n):
    """The doubled block d(i) = c(i) c(i)."""
    return c_word(i, n) * 2


def _word_of_seq(sigma, n, block):
    params = TwoLetterParams(n)
    w = Word(params.alphabet, ())
    for i in sigma:
        w = w + block(i, n)
    return w


def morphism_value(kind, i, sigma):
    """theta_i(sigma) = 2|sigma| - #i or eta_i(sigma) = |sigma| + #i.

    These count, per block of sigma, how many copies of c(i) are needed to
    cover it (2 for j != i, 1 for j = i) and how many copies of c(i) fit
    into d(j) (1 for j != i, 2 for j = i).
    """
    seq = tuple(sigma)
    occ = sum(1 for j in seq if j == i)
    if kind == "theta":
        return 2 * len(seq) - occ
    if kind == "eta":
        return len(seq) + occ
    raise InputError(f"unknown morphism {kind!r} (want theta or eta)")


def min_cover_power(sigma, i, n):
    """Least l with c(sigma) a subword of c(i)^l, by brute force."""
    w = _word_of_seq(sigma, n, c_word)
    block = c_word(i, n)
    l = 0
    while not embeds(w, block * l):
        l += 1
    return l


def max_prefix_power(sigma, i, n):
    """Greatest l with c(i)^l a subword of d(sigma), by brute force."""
    w = _word_of_seq(sigma, n, d_word)
    block = c_word(i, n)
    l = 0
    while embeds(block * (l + 1), w):
        l += 1
    return l


def distinguisher_words(x, n, kind):
    """The quotient-separating words w_X (kind "down") and w'_X (kind "up").

    x must be a subset of H of size n/2.  For down, w_X = c(sorted X)
    enters the down-closure of twoLetter(n); for up, w'_X = d(sorted X)
    enters the up-closure.

    Both are built for every even n >= 2, but w'_X separates the
    up-closure quotients only for n >= 4: the separating suffix
    c(i)^(n/2-1) is empty at n = 2, where each w'_X = c(x)^2 is itself a
    word of twoLetter(2), so every w'_X has residual Sigma*.  The lemma's
    count needs eta_j(Y) = n/2 + 1 < n.
    """
    params = TwoLetterParams(n)
    xs = tuple(sorted(set(x)))
    if len(xs) != n // 2 or any(i not in params.h for i in xs):
        raise InputError(f"need a subset of H of size {n // 2}")
    if kind == "down":
        return _word_of_seq(xs, n, c_word)
    if kind == "up":
        return _word_of_seq(xs, n, d_word)
    raise InputError(f"unknown distinguisher kind {kind!r} (want down or up)")
