"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with a different algorithm than
the code under test: set-based automaton simulation instead of bitmask
kernels, Moore refinement instead of Hopcroft, a DP table instead of the
two-pointer subword scan, a frozenset pair search instead of the
bitmask product search, member-by-member cone steps with a dominance
test for every member instead of the moving-members-only step, on
per-id tables from all-pairs subword tests instead of the suffix
recurrence, a scan of every shorter suffix instead of only the
undominated ones, powerset brute force instead of the memoized antichain
recursion, an all-pairs test instead of the one-pass antichain
reduction, Fraction elimination
instead of the fraction-free integer one, a membership run per pair
instead of forward and backward state sets, a forward and a backward
search over the triples instead of one pass over the strongly connected
components, a right-to-left recurrence over one word's suffixes instead
of a product search for the least word missing from its down-closure.
Slow is fine; these only run on small inputs.
"""

import itertools
from fractions import Fraction

from subwordkit import BudgetExceededError, Dfa, VerificationError, Word
from subwordkit.kernels import is_subword


def subword_dp(x, y):
    """Is x a subword (scattered subsequence) of y?  Classic DP table."""
    xs, ys = tuple(x.letters), tuple(y.letters)
    # reach[i] = True if x[:i] embeds into the scanned prefix of y
    reach = [True] + [False] * len(xs)
    for c in ys:
        for i in range(len(xs) - 1, -1, -1):
            if reach[i] and xs[i] == c:
                reach[i + 1] = True
    return reach[len(xs)]


def least_absent_subword(word, k):
    """The length-lex least word over k letters that is not a subword of
    the letter tuple `word`.  short[i] is the length of the shortest word
    missing from word[i:]: 1 when some letter is missing from it, else 1
    plus the least short[j + 1] over the first occurrence j of a letter;
    the least letter that attains it leads the least such word."""
    n = len(word)
    first = [None] * k  # first occurrence of each letter in word[i:]
    nxt = [None] * (n + 1)
    short = [1] * (n + 1)
    for i in range(n, -1, -1):
        if i < n:
            first[word[i]] = i
        nxt[i] = list(first)
        short[i] = min(1 if j is None else 1 + short[j + 1] for j in first)
    out, i = [], 0
    while True:
        x = min(x for x, j in enumerate(nxt[i])
                if (1 if j is None else 1 + short[j + 1]) == short[i])
        out.append(x)
        if nxt[i][x] is None:
            return tuple(out)
        i = nxt[i][x] + 1


def _as_triples(a):
    if isinstance(a, Dfa):
        return set(a.transitions()), {a.initial}, set(a.final), a.n, a.alphabet
    return set(a.transitions), set(a.initial), set(a.final), a.n, a.alphabet


def accepts_naive(a, w):
    """Frozenset-frontier NFA simulation."""
    trans, initial, final, _, _ = _as_triples(a)
    step = {}
    for p, c, q in trans:
        step.setdefault((p, c), set()).add(q)
    cur = frozenset(initial)
    for c in w.letters:
        cur = frozenset(q for p in cur for q in step.get((p, c), ()))
        if not cur:
            return False
    return bool(cur & final)


def product_search_naive(a, b):
    """Length-lex least word of L(a) minus L(b), by breadth-first search
    over pairs of frozensets of states, built letter by letter from the
    triples.  Returns (letters or None, pairs numbered): the start pair
    is number 1, and each new pair whose first set is nonempty takes the
    next number, up to the first pair that a accepts and b rejects."""
    atrans, ainit, afin, _, alphabet = _as_triples(a)
    btrans, binit, bfin, _, _ = _as_triples(b)

    def successors(trans, cur, c):
        return frozenset(q for p, x, q in trans if p in cur and x == c)

    start = (frozenset(ainit), frozenset(binit))
    if not start[0]:
        return None, 1
    if start[0] & afin and not start[1] & bfin:
        return (), 1
    word = {start: ()}
    queue = [start]
    for pair in queue:
        for c in range(alphabet.k):
            nxt = (successors(atrans, pair[0], c), successors(btrans, pair[1], c))
            if nxt[0] and nxt not in word:
                word[nxt] = word[pair] + (c,)
                queue.append(nxt)
                if nxt[0] & afin and not nxt[1] & bfin:
                    return word[nxt], len(word)
    return None, len(word)


def cone_closure_naive(num_suffixes, k, nxt, eps_id, dom_masks, start, budget):
    """kernels.cone_closure with member-by-member steps: each letter ORs
    the target bit of every member of the antichain, then tests every
    member of the result against its dominators.  States are numbered
    breadth-first, letters in index order, and the state that would be
    number budget + 1 raises BudgetExceededError."""
    cols = [[1 << t for t in nxt[a::k]] for a in range(k)]

    def successors(st):
        members = [s for s in range(num_suffixes) if st >> s & 1]
        out = []
        for col in cols:
            mask = 0
            for s in members:
                mask |= col[s]
            out.append(mask & ~sum(1 << t for t in range(num_suffixes)
                                   if mask >> t & 1 and dom_masks[t] & mask))
        return out

    start_mask = sum(1 << s for s in set(start))
    idx = {start_mask: 0}
    states = [start_mask]
    delta = []
    for st in states:
        for t in successors(st):
            if t not in idx:
                if len(states) >= budget:
                    raise BudgetExceededError("closure antichain states", budget)
                idx[t] = len(states)
                states.append(t)
            delta.append(idx[t])
    final = 1 << eps_id
    return len(states), delta, [i for i, st in enumerate(states) if st == final]


def dominators_all_pairs(by_id):
    """dom[i]: bitmask of the suffixes of by_id that embed into by_id[i],
    by_id[i] excluded, by a subword test of every pair."""
    return [sum(1 << j for j, v in enumerate(by_id) if v != s and is_subword(v, s))
            for s in by_id]


def cone_closure_words_naive(k, words, budget, numbering):
    """kernels.cone_closure(k, words, budget) by cone_closure_naive on
    per-id tables: the subword-minimal words by an all-pairs test, their
    distinct suffixes numbered by numbering(count), a permutation of
    range(count) that gives the id of each suffix in the order in which
    the words list them, word by word from the longest, and their
    dominators by `dominators_all_pairs`."""
    ws = set(map(tuple, words))
    if not ws:
        return 1, [-1] * k, []
    gens = [w for w in sorted(ws) if not any(v != w and is_subword(v, w) for v in ws)]
    suffixes = list(dict.fromkeys(w[i:] for w in gens for i in range(len(w) + 1)))
    sid = dict(zip(suffixes, numbering(len(suffixes))))
    by_id = sorted(sid, key=sid.get)
    nxt = [sid[s[1:]] if s and s[0] == a else sid[s] for s in by_id for a in range(k)]
    return cone_closure_naive(len(by_id), k, nxt, sid[()], dominators_all_pairs(by_id),
                              [sid[w] for w in gens], budget)


def dominators_scan(by_id, sid):
    """_kernels_py.dominators, testing every strictly shorter suffix that
    the tail's dominators do not already cover, one bit probe each."""
    order = sorted(range(len(by_id)), key=lambda i: len(by_id[i]))
    dom = [0] * len(by_id)
    for pos, i in enumerate(order):
        s = by_id[i]
        if not s:
            continue
        d = 1 << sid[s[1:]] | dom[sid[s[1:]]]
        for j in order[:pos]:
            v = by_id[j]
            if len(v) == len(s):
                break
            if not d >> j & 1 and is_subword(v, s):
                d |= 1 << j
        dom[i] = d
    return dom


def down_member(a, w):
    """w in the down-closure of L(a): does some superword of w land in L(a)?

    Search over pairs (reachable state set, matched prefix of w); every
    letter read may either extend the match or be skipped.
    """
    trans, initial, final, _, alphabet = _as_triples(a)
    step = {}
    for p, c, q in trans:
        step.setdefault((p, c), set()).add(q)
    ws = tuple(w.letters)
    start = (frozenset(initial), 0)
    seen = {start}
    queue = [start]
    for cur, i in queue:
        if i == len(ws) and cur & final:
            return True
        for c in range(alphabet.k):
            nxt = frozenset(q for p in cur for q in step.get((p, c), ()))
            if not nxt:
                continue
            succs = [(nxt, i)]
            if i < len(ws) and ws[i] == c:
                succs.append((nxt, i + 1))
            for s in succs:
                if s not in seen:
                    seen.add(s)
                    queue.append(s)
    return False


def up_member(a, w):
    """w in the up-closure of L(a): is some subsequence of w in L(a)?

    frontier after the i-th letter = {delta(I, y) : y a subsequence of w[:i]}.
    """
    trans, initial, final, _, _ = _as_triples(a)
    step = {}
    for p, c, q in trans:
        step.setdefault((p, c), set()).add(q)
    frontier = {frozenset(initial)}
    for c in w.letters:
        moved = {frozenset(q for p in cur for q in step.get((p, c), ()))
                 for cur in frontier}
        frontier |= moved
    return any(cur & final for cur in frontier)


def _reach_sets(trans, n):
    """reach[s] = the states reachable from s (s included), per-state DFS."""
    fwd = {}
    for p, _, q in trans:
        fwd.setdefault(p, set()).add(q)
    reach = []
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            for q in fwd.get(stack.pop(), ()):
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        reach.append(seen)
    return reach


def useful_states_naive(a):
    """The states reachable from an initial state and reaching a final
    one, sorted: a forward search from the initial states and a backward
    search from the final states, over the triples."""
    trans, initial, final, _, _ = _as_triples(a)

    def search(start, edges):
        seen = set(start)
        stack = list(start)
        while stack:
            for q in edges.get(stack.pop(), ()):
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        return seen

    fwd, bwd = {}, {}
    for p, _, q in trans:
        fwd.setdefault(p, set()).add(q)
        bwd.setdefault(q, set()).add(p)
    return sorted(search(initial, fwd) & search(final, bwd))


def down_closure_saturation(a):
    """Triples and final states of the down-closure NFA, by saturation.

    Deleting a letter is a silent step along any edge, so s gets (s, x, q)
    for every (p, x, q) with p reachable from s, and s is final when it
    reaches a final state.  Materialises about n²/2 triples on a path.
    """
    trans, _, final, n, _ = _as_triples(a)
    reach = _reach_sets(trans, n)
    triples = {(s, x, q) for p, x, q in trans for s in range(n) if p in reach[s]}
    return frozenset(triples), frozenset(s for s in range(n) if reach[s] & final)


def up_closure_saturation(a):
    """Triples of the up-closure NFA: a self-loop on every letter everywhere."""
    trans, _, _, n, alphabet = _as_triples(a)
    return frozenset(trans | {(q, x, q) for q in range(n) for x in range(alphabet.k)})


def strong_components_naive(a):
    """The strongly connected components as a set of frozensets, by
    mutual reachability."""
    trans, _, _, n, _ = _as_triples(a)
    reach = _reach_sets(trans, n)
    return {frozenset(q for q in reach[s] if s in reach[q]) for s in range(n)}


def minimal_dfa_size(d):
    """Minimal partial-DFA state count for L(d), by Moore refinement.

    Completes with an explicit sink, refines by (finality, successor
    classes) to a fixpoint, then counts classes that are both reachable
    and able to reach a final class.  The empty language takes 1 state.
    """
    n, k = d.n, d.k
    sink = n
    table = [[sink] * k for _ in range(n + 1)]
    for q in range(n):
        for c in range(k):
            t = d.delta(q, c)
            if t is not None:
                table[q][c] = t
    final = set(d.final)
    cls = [1 if q in final else 0 for q in range(n + 1)]
    while True:
        sig = {}
        new = []
        for q in range(n + 1):
            s = (cls[q], tuple(cls[table[q][c]] for c in range(k)))
            if s not in sig:
                sig[s] = len(sig)
            new.append(sig[s])
        if new == cls:
            break
        cls = new
    seen = {d.initial}
    queue = [d.initial]
    for q in queue:
        for c in range(k):
            t = table[q][c]
            if t not in seen:
                seen.add(t)
                queue.append(t)
    reachable = {cls[q] for q in seen}
    adjacency = {}
    for q in range(n + 1):
        adjacency.setdefault(cls[q], set()).update(cls[table[q][c]] for c in range(k))
    live = {cls[q] for q in final}
    changed = True
    while changed:
        changed = False
        for c, targets in adjacency.items():
            if c not in live and targets & live:
                live.add(c)
                changed = True
    count = len(reachable & live)
    return count if count else 1


def all_words(alphabet, maxlen):
    """Every word over alphabet of length <= maxlen, shortlex order."""
    for length in range(maxlen + 1):
        for tup in itertools.product(range(alphabet.k), repeat=length):
            yield Word(alphabet, tup)


def language_upto(a, maxlen):
    """Accepted words of length <= maxlen as a set of letter tuples."""
    return {tuple(w.letters) for w in all_words(_as_triples(a)[4], maxlen)
            if accepts_naive(a, w)}


def count_accepting_runs(a, w):
    """Number of accepting runs of the NFA on w, by explicit path counting."""
    trans, initial, final, n, _ = _as_triples(a)
    step = {}
    for p, c, q in trans:
        step.setdefault((p, c), set()).add(q)
    runs = {q: (1 if q in initial else 0) for q in range(n)}
    for c in w.letters:
        new = {q: 0 for q in range(n)}
        for p, cnt in runs.items():
            if cnt:
                for q in step.get((p, c), ()):
                    new[q] += cnt
        runs = new
    return sum(cnt for q, cnt in runs.items() if q in final)


def antichain_count_naive(n):
    """Antichains of subsets of {1..n} by brute force over the powerset
    of the powerset.  Only feasible for n <= 4."""
    masks = range(1 << n)
    count = 0
    for fam in range(1 << (1 << n)):
        members = [m for m in masks if fam >> m & 1]
        ok = True
        for i, x in enumerate(members):
            for y in members[i + 1:]:
                meet = x & y
                if meet == x or meet == y:
                    ok = False
                    break
            if not ok:
                break
        count += ok
    return count


def minimal_masks_naive(masks):
    """The inclusion-minimal masks, by testing every pair."""
    ms = set(masks)
    return frozenset(m for m in ms if not any(o != m and o & m == o for o in ms))


def verify_fooling_pairwise(a, pairs):
    """bounds.verify_fooling with one membership run per concatenation
    x_i y_j, checked in the same order, to the same errors."""
    def cross(i, j):
        return accepts_naive(a, pairs[i][0] + pairs[j][1])

    for i in range(len(pairs)):
        if not cross(i, i):
            raise VerificationError(f"fooling pair ({i + 1},{i + 1}): x_i y_i is not in the language")
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if cross(i, j) and cross(j, i):
                raise VerificationError(
                    f"fooling pair ({i + 1},{j + 1}): both cross concatenations are in the language")
    return len(pairs)


def fooling_matrix_pairwise(a, pairs):
    """The entries of bounds.fooling_matrix, one membership run each."""
    return tuple(tuple(int(accepts_naive(a, x + y)) for _, y in pairs) for x, _ in pairs)


def rank_fractions(rows):
    """Rank over the rationals by Gaussian elimination on Fractions."""
    rows = [[Fraction(v) for v in row] for row in rows]
    if not rows:
        return 0
    m = len(rows)
    cols = len(rows[0])
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, m) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        for r in range(rank + 1, m):
            f = rows[r][col] * inv
            if f:
                for c in range(col, cols):
                    rows[r][c] -= f * rows[rank][c]
        rank += 1
        if rank == m:
            break
    return rank


def known_rank_matrix(rng, rows, cols, r):
    """Random integer matrix of exact rank r, built as P * D * Q with
    unimodular P and Q (products of elementary row/column additions)."""
    assert r <= min(rows, cols)
    m = [[Fraction(1) if i == j and i < r else Fraction(0)
          for j in range(cols)] for i in range(rows)]
    for _ in range(3 * rows):
        i, j = rng.randrange(rows), rng.randrange(rows)
        if i != j:
            c = rng.randint(-2, 2)
            for t in range(cols):
                m[i][t] += c * m[j][t]
    for _ in range(3 * cols):
        i, j = rng.randrange(cols), rng.randrange(cols)
        if i != j:
            c = rng.randint(-2, 2)
            for t in range(rows):
                m[t][i] += c * m[t][j]
    return [[int(v) for v in row] for row in m]


# Word-shape predicates for the witness families.

def is_u_word(w, k):
    return set(w.letters) == set(range(k))


def is_v_word(w, k):
    seen = list(w.letters)
    return all(c < k for c in seen) and len(seen) == len(set(seen))


def is_uprime_word(w, k):
    return len(w) >= 1 and set(w.letters[1:]) == set(range(k))


def is_e_word(w, k):
    ls = tuple(w.letters)
    return len(ls) == 2 and ls[0] == ls[1] and ls[0] < k


def is_d_word(w, k):
    ls = tuple(w.letters)
    return len(ls) >= 1 and ls[0] < k and ls[0] not in ls[1:]


def is_not_u_word(w, n):
    return set(w.letters) != set(range(n))


def is_heam_word(w, n):
    """a^i b a^(2j) b a^i with i + j + 1 = n (letter 0 = a, 1 = b)."""
    ls = tuple(w.letters)
    if ls.count(1) != 2:
        return False
    first = ls.index(1)
    second = len(ls) - 1 - ls[::-1].index(1)
    i = first
    if ls[second + 1:] != (0,) * i:
        return False
    mid = second - first - 1
    if ls[first + 1:second] != (0,) * mid or mid % 2:
        return False
    return i + mid // 2 + 1 == n


def downset_count(n):
    """Dedekind number via downsets of the n-cube: recurse on a pivot,
    splitting into downsets avoiding its up-set and those containing its
    down-set.  Antichains biject with downsets (maximal elements)."""
    size = 1 << n
    up = []
    down = []
    for e in range(size):
        u = d = 0
        for f in range(size):
            if e & f == e:
                u |= 1 << f
            if e & f == f:
                d |= 1 << f
        up.append(u)
        down.append(d)
    memo = {}

    def rec(avail):
        if avail == 0:
            return 1
        got = memo.get(avail)
        if got is not None:
            return got
        best, x, m = -1, 0, avail
        while m:
            e = (m & -m).bit_length() - 1
            m &= m - 1
            score = bin(avail & (up[e] | down[e])).count("1")
            if score > best:
                best, x = score, e
        memo[avail] = out = rec(avail & ~up[x]) + rec(avail & ~down[x])
        return out

    return rec((1 << size) - 1)
