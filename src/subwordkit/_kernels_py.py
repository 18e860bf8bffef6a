"""The kernels: the hot loops of the package, on flat integer tables, in
pure Python.

Twelve entry points, reached through `subwordkit.kernels`:

- `explore`, the one numbering loop: every construction that numbers
  states (subset construction, both passes of `dfa_minimize`, the cone,
  the interior antichains, the product DFA) hands it a successor function.
  The states reachable from the start are numbered in BFS order, letters
  scanned in index order, and a construction holds at most `budget`
  states: the state that would be number budget + 1 raises
  BudgetExceededError(what, budget) instead;
- `rows`, the powerset primitive: a state set is an int bitmask, and
  every search that needs a subset's successors on all k letters (subset
  construction, the product search of the decisions, `enumerate_upto`,
  the interior antichains) gets them from one walk over its members;
- `step`, `bits`, `maximal`, `minimal_masks` and `minimal_words`:
  `step` moves a set by one letter, for the callers that read one letter
  at a time (membership runs, and the small K automata of the
  interiors); `maximal` shrinks a set of a down-closure NFA to members
  that reach the rest, which have the same language; `minimal_masks`
  keeps the inclusion-minimal sets of a collection, and `minimal_words`
  the subword-minimal words of one;
- `is_subword`, `subset_construction`, `dfa_minimize`, `cone_closure`
  and `antichain_preimage`, whole algorithms over the same tables; a
  cone state, an antichain of pending suffixes, is the int bitmask of
  its suffix ids, and an interior state, an antichain of subsets, is the
  frozenset of their masks.  The cone takes a finite language as words
  and builds its per-id tables once per call (`cone_tables`, with the
  dominators of each suffix by `dominators`); it steps a state by one
  letter from them: the members whose head is the letter move to their
  tails, each tail drops the members it embeds into, and the others stay
  untouched as one mask; the result is the same in any numbering of the
  suffix ids.

`cone_closure`, `subset_construction`, `antichain_preimage` and
`dfa_minimize` also have a compiled form, `_native`, which `kernels`
runs when it loads; the compiled cone builds the same tables in C.
These four are its fallback and the oracles it is tested against.
"""

from __future__ import annotations

from array import array
from functools import partial

from .errors import BudgetExceededError


def explore(start, successors, budget, what, missing=None):
    """Number the states reachable from `start`, in BFS order.

    successors(state) returns the targets of a state, one per letter in
    letter order; a target equal to `missing` is a missing edge.  States
    are hashable.  Returns (states, delta): states[i] is state i, states[0]
    is start, and delta is the flat array('i') of target numbers, state by
    state and letter by letter, -1 for a missing edge.  Raises
    BudgetExceededError(what, budget) when state number budget + 1 would
    appear.
    """
    idx = {missing: -1, start: 0}  # a missing target numbers -1
    states = [start]
    delta = array("i")
    append = delta.append
    for state in states:
        for t in successors(state):
            j = idx.get(t)
            if j is None:
                j = len(states)
                if j >= budget:
                    raise BudgetExceededError(what, budget)
                idx[t] = j
                states.append(t)
            append(j)
    return states, delta


def rows(succ, k, mask):
    """The k successor sets of the state set `mask`, as a list indexed by
    letter: rows(succ, k, mask)[a] == step(succ, k, mask, a).

    succ is the flat table of `step`.  The members of mask are walked
    once; then each letter ORs its column over them, starting from the
    lowest member's entry, so a one-member set's rows are the table's own
    ints rather than copies.
    """
    if not mask:
        return [0] * k
    low = mask & -mask
    first = (low.bit_length() - 1) * k
    mask ^= low
    rest = []
    while mask:
        low = mask & -mask
        rest.append((low.bit_length() - 1) * k)
        mask ^= low
    out = []
    for a in range(k):
        t = succ[first + a]
        for base in rest:
            t |= succ[base + a]
        out.append(t)
    return out


def step(succ, k, mask, a):
    """The a-successors of the state set `mask`.

    succ is a flat n*k table, succ[q*k + a] = bitmask of a-successors of q;
    the result is the OR of succ[q*k + a] over the members q of mask.
    """
    t = 0
    while mask:
        low = mask & -mask
        t |= succ[(low.bit_length() - 1) * k + a]
        mask ^= low
    return t


def bits(mask):
    """The members of the state set `mask`, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_subword(x, y):
    """Scattered-subword test on index sequences: x embeds into y."""
    it = iter(y)
    # `a in it` consumes the iterator up to and including the match, which is
    # exactly the greedy leftmost embedding.
    return all(a in it for a in x)


def maximal(succ, k, mask):
    """A part of `mask` that reaches every member, in a down-closure NFA,
    so it has the language of `mask`.

    succ is the flat table of `step`; a state's reach is its own bit and
    the OR of its k rows.  Keep the lowest member, clear its reach, and
    repeat, once per kept member.  When no state reaches a lower-numbered
    state outside its own strongly connected component (as
    closures._reduced_down_closure numbers them), the lowest member is
    reached by no other one, and what is kept is exactly one member per
    reachability-maximal component.  In any other numbering the result
    is still sound, but may keep members that another kept one reaches.
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= low
        base = (low.bit_length() - 1) * k
        for m in succ[base:base + k]:
            low |= m
        mask &= ~low
    return out


def subset_construction(n, k, succ, init_mask, budget, reduced=False):
    """Powerset construction over bitmask subsets, numbered by `explore`.

    succ is the flat successor table of `step`; init_mask must be nonzero.
    The empty subset is never a state: edges into it are -1.  Returns (delta,
    subsets), subsets[i] the bitmask behind DFA state i.  A subset's k
    targets are its `rows`.  With `reduced`, every target is replaced by
    its `maximal` part on the same table, which has the same language in
    a down-closure NFA (init_mask must be reduced already): fewer members
    mean fewer rows to OR, and there are no more subsets than without it.
    """
    if reduced:
        def successors(s):
            return [maximal(succ, k, m) for m in rows(succ, k, s)]
    else:
        successors = partial(rows, succ, k)

    subsets, delta = explore(init_mask, successors, budget,
                             "determinization subset states", missing=0)
    return delta, subsets


def dfa_minimize(n, k, delta, initial, finals):
    """Canonical minimal partial DFA via Hopcroft refinement.

    delta is flat n*k with -1 for missing edges.  The result is restricted to
    reachable states, quotiented, stripped of the rejecting sink class, and
    renumbered by BFS discovery order from the initial state with symbols
    scanned in index order (so equal languages give byte-equal tables).
    Returns (n2, delta2, finals2); the empty language yields one non-final
    state with no transitions.
    """
    # Restrict to states reachable from the initial one, renumbered.  Both
    # explore calls have a budget no count can reach: they only number.
    order, reached = explore(initial, lambda q: delta[q * k:q * k + k], n,
                             "reachable states", missing=-1)
    m = len(order)
    sink = m
    big = m + 1
    d = [sink if t < 0 else t for t in reached]
    d.extend([sink] * k)
    final_in = set(finals)
    fin = [i for i, q in enumerate(order) if q in final_in]

    # Inverse edges, CSR per (target, symbol).  The completed DFA has exactly
    # big*k edges.
    off = [0] * (big * k + 1)
    for q in range(big):
        for a in range(k):
            off[d[q * k + a] * k + a + 1] += 1
    for i in range(big * k):
        off[i + 1] += off[i]
    rev = [0] * (big * k)
    cur = off[: big * k]
    for q in range(big):
        for a in range(k):
            key = d[q * k + a] * k + a
            rev[cur[key]] = q
            cur[key] += 1

    # Partition structure: elems ordered by block, loc/blk lookups, block
    # slices [first[b], past[b]).
    elems = list(range(big))
    loc = list(range(big))
    blk = [0] * big
    first = [0]
    past = [big]

    def split_block(b, marked):
        # marked is a nonempty proper subset of block b, no duplicates
        f = first[b]
        for q in marked:
            i = loc[q]
            other = elems[f]
            elems[i], elems[f] = other, q
            loc[q], loc[other] = f, i
            f += 1
        nb = len(first)
        first.append(first[b])
        past.append(f)
        first[b] = f
        for i in range(first[nb], f):
            blk[elems[i]] = nb
        return nb

    work = []
    in_work = set()
    if fin:
        # the sink is never final, so this is always a proper split
        nb = split_block(0, fin)
        small = nb if past[nb] - first[nb] <= past[0] - first[0] else 0
        work.append(small)
        in_work.add(small)
    while work:
        b = work.pop()
        in_work.discard(b)
        splitter = elems[first[b] : past[b]]
        for a in range(k):
            marked_by_block = {}
            for t in splitter:
                key = t * k + a
                for i in range(off[key], off[key + 1]):
                    p = rev[i]
                    marked_by_block.setdefault(blk[p], []).append(p)
            for bb, marked in marked_by_block.items():
                if len(marked) == past[bb] - first[bb]:
                    continue
                nb = split_block(bb, marked)
                if bb in in_work:
                    work.append(nb)
                    in_work.add(nb)
                else:
                    small = nb if past[nb] - first[nb] <= past[bb] - first[bb] else bb
                    work.append(small)
                    in_work.add(small)

    bsink = blk[sink]
    binit = blk[0]
    if binit == bsink:
        return 1, [-1] * k, []
    # Renumber the quotient, skipping the sink class.
    def block_row(b):
        base = elems[first[b]] * k
        return [blk[t] for t in d[base:base + k]]

    border, out = explore(binit, block_row, big, "quotient states", missing=bsink)
    final_blocks = {blk[q] for q in fin}
    finals2 = [i for i, b in enumerate(border) if b in final_blocks]
    return len(border), out, finals2


def antichain_preimage(n, k, succ, init_mask, final_mask, ks, budget):
    """The antichain search of interiors.substitution_preimage: the DFA,
    over len(ks) - 1 target letters, of {x | sigma(x) ⊆ L}, where L is
    the language of the NFA (n states, k letters, the flat table `succ`
    of `step`, init_mask and final_mask) and sigma substitutes L(K_j)
    for target letter j and L(K_0) for the empty word.  ks[j] is K_j as
    (states, succ, init_mask, final_mask) over the same k letters.

    A state is an inclusion-minimal antichain of powerset states of the
    NFA, the frozenset of their masks, numbered by `explore`.  It accepts
    when every member meets final_mask, so the empty antichain (no
    constraint on the word read so far) accepts everything, and any
    antichain holding the empty set (a substituted word left no run
    alive) is the rejecting sink {0}.  The per-letter reach sets
    {delta2(S, z) | z ∈ K_j} are computed by exploring the product of the
    powerset automaton with K_j, memoised per (S, j); the powerset side
    steps by `rows`, memoised per S and shared by every j.  Returns
    (count, delta, finals): delta has count * (len(ks) - 1) targets and
    finals lists the accepting states, ascending.
    """
    rows_memo = {}
    reach_memo = {}

    def reach(mask, j):
        """All powerset states delta2(mask, z) with z accepted by K_j."""
        key = (mask, j)
        out = reach_memo.get(key)
        if out is not None:
            return out
        _, ksucc, kinit, kfin = ks[j]
        collected = set()
        if kinit & kfin:
            collected.add(mask)
        seen = {(mask, kinit)}
        stack = [(mask, kinit)]
        while stack:
            am, km = stack.pop()
            arow = None
            for x in range(k):
                km2 = step(ksucc, k, km, x)
                if not km2:
                    continue
                if arow is None:
                    # rows, memoised by mask, are fetched only once K_j
                    # moves: K_j's final state often has no successors
                    # (the down interior's {b, ε}), and walking those
                    # masks anyway made down interiors about 25% slower
                    arow = rows_memo.get(am)
                    if arow is None:
                        arow = rows_memo[am] = rows(succ, k, am)
                pair = (arow[x], km2)
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
                    if km2 & kfin:
                        collected.add(pair[0])
        out = frozenset(collected)
        reach_memo[key] = out
        return out

    letters = range(1, len(ks))

    def successors(state):
        out = []
        for j in letters:
            masks = set()
            for m in state:
                masks |= reach(m, j)
            out.append(minimal_masks(masks))
        return out

    start = minimal_masks(reach(init_mask, 0))
    order, delta = explore(start, successors, budget, "interior antichain states")
    finals = [i for i, st in enumerate(order) if all(m & final_mask for m in st)]
    return len(order), delta, finals


def minimal_masks(masks):
    """The inclusion-minimal members of a collection of state-set masks.

    One pass in order of size keeps a mask unless an already-kept mask
    lies inside it: a mask inside it is no larger, so it came first, and
    if it was dropped, a kept mask inside it lies inside this one too.
    """
    keep = []
    for m in sorted(set(masks), key=int.bit_count):
        if not any(o & m == o for o in keep):
            keep.append(m)
    return frozenset(keep)


CONE_LETTER_ERROR = "cone_closure: a letter outside [0, k)"


def minimal_words(words):
    """The subword-minimal members of a collection of letter tuples, once
    each, in the order of their first occurrence."""
    ws = list(dict.fromkeys(map(tuple, words)))
    return [w for w in ws if not any(v != w and is_subword(v, w) for v in ws)]


def dominators(by_id, sid):
    """dom[i]: bitmask of the ids whose suffix embeds into suffix i's, i
    excluded, for the suffixes by_id, numbered by sid (by_id[sid[s]] is
    s) and closed under taking tails.

    A word embeds into x.s exactly when it embeds into s or is x.u for a
    u that embeds into s, so with Emb(s), the ids that embed into s (s
    among them),

        Emb(x.s) = Emb(s) | {the id of x.u : u in Emb(s)}.

    This takes the suffixes by ascending length, each after its tail.
    The new members are found from their side: a shorter id y.v outside
    Emb(s) joins when y = x and v is in Emb(s), one bit probe each, over
    the shorter ids with head x only.  Walking Emb(s) instead would visit
    every shorter suffix of a long word: on one random 1999-letter word
    over two letters that took 626 ms against 48 ms this way (Python
    3.11, 2 shared vCPUs).
    """
    order = sorted(range(len(by_id)), key=lambda i: len(by_id[i]))
    dom = [0] * len(by_id)
    tail = [0] * len(by_id)
    heads = {}  # letter -> the ids so far whose head it is
    shorter = same = 0  # the ids shorter than s, and those of its length so far
    length = 0
    for i in order:
        s = by_id[i]
        if len(s) > length:
            shorter |= same
            same = 0
            length = len(s)
        same |= 1 << i
        if not s:
            continue
        x = s[0]
        t = tail[i] = sid[s[1:]]
        emb = d = dom[t] | 1 << t
        for v in bits(shorter & ~emb & heads.get(x, 0)):
            if emb >> tail[v] & 1:
                d |= 1 << v
        dom[i] = d
        heads[x] = heads.get(x, 0) | 1 << i
    return dom


def cone_tables(k, words):
    """The tables of the cone step for the nonempty word list `words`, as
    letter tuples over k letters, each letter in [0, k).

    The subword-minimal words are kept, and their distinct suffixes are
    numbered word by word, each word's from the longest.  Returns (heads,
    tails, ups, eps_id, start): heads[a], the mask of the ids whose head
    is letter a; tails[s], the id of s's tail (s itself for the empty
    suffix eps_id, which never moves); ups[s], the mask of the ids that
    s's tail strictly embeds into, s among them (the transpose of the
    `dominators`); start, the ids of the minimal words.
    """
    gens = minimal_words(words)
    sid = {}
    for w in gens:
        for i in range(len(w) + 1):
            sid.setdefault(w[i:], len(sid))
    by_id = list(sid)
    dom = dominators(by_id, sid)
    # embeds_into[t]: the ids that t strictly embeds into, the transpose of
    # dom.  It is read off their binary strings laid end to end, where bit
    # t of the masks is every n-th character: an OR per set bit would cost
    # a wide-int operation per embedded pair, cubic in the length of a
    # long word.
    n = len(by_id)
    rows = "".join(format(d, f"0{n}b") for d in dom)
    embeds_into = [int(rows[n * n - 1 - t::-n], 2) for t in range(n)]
    heads = [0] * k
    tails = list(range(n))
    ups = [0] * n
    for s, i in sid.items():
        if s:
            heads[s[0]] |= 1 << i
            t = tails[i] = sid[s[1:]]
            ups[i] = embeds_into[t]
    return heads, tails, ups, sid[()], [sid[w] for w in gens]


def cone_closure(k, words, budget):
    """Minimal DFA of the upward closure of the finite language `words`,
    a list of letter tuples over k letters.

    ↑L = ↑min(L), so only the subword-minimal words count (`cone_tables`).
    A state is an inclusion-minimal antichain of their pending suffixes,
    a bitmask of suffix ids, numbered by `explore` (ids key distinct
    suffix CONTENT, so distinct states have distinct residuals and the
    construction is already minimal and canonical).  The start is the
    antichain of the minimal words; the one final state, if reachable,
    is the antichain {empty suffix}.  No words give the empty language's
    DFA, one state with no edges.  Returns (count, delta, finals), as
    `dfa_minimize` does; a letter outside [0, k) raises
    ValueError(CONE_LETTER_ERROR).

    A state st steps on letter a with mask operations.  Only the members
    in st & heads[a], the ids whose head is a, move: a moving id s adds
    its tail, target[s], and drops ups[s], the ids that tail strictly
    embeds into, s among them.  The members that stay are not visited.
    This is the all-pairs reduction, because only a stayed member can be
    dominated, and only by a tail: st is an antichain, so no stayed
    member embeds into another; a stayed u that embeds into the tail x
    of a.x would embed into a.x; and a tail y that embeds into a tail x
    gives a.y embedded into a.x, both in st.  The states, their order
    and their number do not depend on how the suffix ids are numbered.
    """
    if k < 0 or not all(0 <= x < k for w in words for x in w):
        raise ValueError(CONE_LETTER_ERROR)
    if not words:
        return 1, array("i", [-1] * k), []
    heads, tails, ups, eps_id, start = cone_tables(k, words)
    target = [1 << t for t in tails]

    def successors(st):
        out = []
        for head in heads:
            moving = st & head
            if not moving:
                out.append(st)
                continue
            moved = drop = 0
            rest = moving
            while rest:
                low = rest & -rest
                s = low.bit_length() - 1
                moved |= target[s]
                drop |= ups[s]
                rest ^= low
            out.append((st | moved) & ~drop)
        return out

    start_mask = 0
    for s in start:
        start_mask |= 1 << s
    states, delta = explore(start_mask, successors, budget, "closure antichain states")
    final = 1 << eps_id
    finals = [i for i, st in enumerate(states) if st == final]
    return len(states), delta, finals
