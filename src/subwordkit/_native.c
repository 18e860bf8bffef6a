/* The compiled kernels of subwordkit._native: the cone closure, subset
 * construction, the antichain search of the interiors and Hopcroft
 * minimisation of _kernels_py, with the same numbering, budget rule and
 * results, and the front end of closures.closure_dfa in front of them
 * (see "front end" below).  The cone takes its finite language as words
 * (one array of letters and their offsets) and builds its own tables,
 * `cone_tables`, before the BFS: the subword-minimal words, their
 * suffixes numbered by (tail id, head letter) in a state_set, and the
 * dominators by the suffix recurrence.
 *
 * A set of ids is a bitset of uint64 words, bit s of word s / 64 for id
 * s.  A cone state, an antichain of suffix ids, has the fixed width
 * ceil(n / 64).  A subset of NFA states, like a row of the NFA's
 * successor table, is a run trimmed of its zero high words: equal sets
 * have equal runs, and a run takes no more room than the Python int it
 * stands for, so a few subsets of a large NFA cost no n-squared table.
 * An interior state, an antichain of subsets, is the ascending run of
 * its members' ids in a second table that numbers the subsets.
 *
 * The three BFS constructions number their states with one loop,
 * `explore`, the twin of _kernels_py.explore: BFS order, letters in index
 * order, one word pool found again through an open-addressing table of
 * state numbers, and the state that would be number budget + 1 returns
 * NATIVE_BUDGET.  Each construction hands it a step that writes a
 * state's k successors into the step's own buffers.  `explore` steps a
 * batch of states, copying their successors out and prefetching their
 * slots, before it numbers any, since numbering may move the pool that
 * the step reads its state from; it numbers them in the same order as
 * one state at a time.  A slot of the table holds a state's number and
 * its 32-bit hash, and the table grows at 3/4 load, so a lookup reads a
 * state's words only when the hashes match: about one cache miss a
 * lookup, which the batch overlaps with the others.
 *
 * Plain C ABI, no Python.h; built and loaded by _native.py.  Every array
 * that an output pointer receives is released with native_free.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { NATIVE_OK = 0, NATIVE_BUDGET = 1, NATIVE_NOMEM = 2, NATIVE_BADINPUT = 3 };

/* what a step writes as the length of a successor with no words of its own */
enum { EDGE_MISSING = -1, EDGE_SELF = -2 };

/* the most states a table numbers: slots hold state number + 1 as int32 */
#define MAX_STATES ((int64_t)INT32_MAX - 1)

/* A slot of the open-addressing table: the number + 1 of the state that
 * lies there, 0 for an empty slot, and the state's 32-bit hash.  The low
 * bits of the hash are the state's home slot (a table has at most 2^32
 * slots, since it numbers fewer than 2^31 states at 3/4 load at most),
 * so the slot alone says where its state goes in a larger table; the
 * whole hash is compared before the state's words are read, so a probe
 * past another state costs the one cache line of the slot.
 *
 * The price is memory: between 4/3 and 8/3 slots a state of 8 B, 10.7 to
 * 21.3 B a state, where bare numbers at 1/2 load took 8 to 16.  The two
 * take the same bytes when the count lies in (2^m, 1.5 * 2^m] for some m,
 * as twoLetter(4)'s 1,325,951 states do, and the slots twice as many, 8
 * to 10.7 B a state more, when it lies in (1.5 * 2^m, 2^(m + 1)]. */
typedef struct {
    int32_t num;
    uint32_t hash;
} slot;

typedef struct {
    int64_t k;          /* letters: targets per state */
    int64_t width;      /* words per state, or 0: runs of any length, by `off` */
    int64_t count;      /* states numbered so far */
    int64_t cap;        /* states that `off` and `delta` have room for */
    int64_t *off;       /* width 0: count + 1 offsets, state j is words[off[j] .. off[j + 1]) */
    uint64_t *words;
    int64_t wcap;       /* words that `words` has room for */
    int32_t *delta;     /* count * k targets */
    slot *slots;        /* linear probing from each state's home slot */
    uint64_t nslots;    /* a power of two; count stays at most 3/4 of it */
} state_set;

/* An empty set of states of `width` words each, or of runs of any length
 * for width 0, with room for `cap` states (a power of two).  The cone's
 * states have a fixed width, which spares it an offset per state: 10 MB
 * on the 1,325,951 states of twoLetter(4). */
static int set_init(state_set *s, int64_t k, int64_t width, int64_t cap)
{
    s->k = k;
    s->width = width;
    s->count = 0;
    s->cap = cap;
    s->wcap = cap * (width ? width : 1);
    s->nslots = 2 * cap;
    s->off = width ? NULL : malloc((s->cap + 1) * sizeof *s->off);
    s->words = malloc(s->wcap * sizeof *s->words);
    s->delta = malloc(s->cap * (k ? k : 1) * sizeof *s->delta);
    s->slots = calloc(s->nslots, sizeof *s->slots);
    if ((!width && !s->off) || !s->words || !s->delta || !s->slots)
        return NATIVE_NOMEM;
    if (!width)
        s->off[0] = 0;
    return NATIVE_OK;
}

static void set_free(state_set *s)
{
    free(s->off);
    free(s->words);
    free(s->delta);
    free(s->slots);
}

/* The words of state j, *len of them. */
static const uint64_t *state(const state_set *s, int64_t j, int64_t *len)
{
    if (s->width) {
        *len = s->width;
        return s->words + j * s->width;
    }
    *len = s->off[j + 1] - s->off[j];
    return s->words + s->off[j];
}

static uint32_t hash_words(const uint64_t *x, int64_t len)
{
    uint64_t h = 0x9e3779b97f4a7c15u;
    for (int64_t i = 0; i < len; i++) {
        h = (h ^ x[i]) * 0xff51afd7ed558ccdu;
        h ^= h >> 32;
    }
    /* the final mix of MurmurHash3: the table reads the low bits of the
     * high half, which the loop alone leaves clustered on some sets (3.2
     * slots read a lookup on the cone of E(12), 2.0 with it).  Matching
     * hashes leave 0.92 states' words read a lookup on the subsets of
     * D(13)'s down-closure, where a table of bare numbers at 1/2 load
     * read 1.53. */
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53u;
    h ^= h >> 33;
    return (uint32_t)(h >> 32);
}

/* The slot that holds x, len words of hash h, or the empty slot where x
 * would go.  Only a slot whose hash matches has its state's words read. */
static uint64_t find(const state_set *s, const uint64_t *x, int64_t len, uint32_t h)
{
    uint64_t mask = s->nslots - 1;
    for (uint64_t i = h & mask;; i = (i + 1) & mask) {
        const slot *e = s->slots + i;
        if (!e->num)
            return i;
        if (e->hash != h)
            continue;
        int64_t jlen;
        const uint64_t *y = state(s, e->num - 1, &jlen);
        if (jlen == len && !memcmp(y, x, len * sizeof *x))
            return i;
    }
}

/* Double the slots and move every slot to the first empty one from its
 * home in the new table, in the order of the old table: its hash gives
 * the home, and states are distinct, so no state's words are read.  The
 * old slots are freed only once every slot has moved, so a grow holds
 * 1.5 times the bytes of the new slots while it runs. */
static int grow_slots(state_set *s)
{
    uint64_t n = s->nslots * 2, mask = n - 1;
    slot *slots = calloc(n, sizeof *slots), *old = s->slots;
    if (!slots)
        return NATIVE_NOMEM;
    for (uint64_t o = 0; o < s->nslots; o++)
        if (old[o].num) {
            uint64_t i = old[o].hash & mask;
            while (slots[i].num)
                i = (i + 1) & mask;
            slots[i] = old[o];
        }
    free(old);
    s->slots = slots;
    s->nslots = n;
    return NATIVE_OK;
}

/* Forget every state of s, keeping its room.  Each state's slot is
 * sought from its home, past every slot, empty or not, up to the one
 * with its number: the order in which grow_slots moved the states, or in
 * which they are emptied, does not matter.  So a table that one long
 * reach grew costs the later short reaches nothing. */
static void set_clear(state_set *s)
{
    uint64_t mask = s->nslots - 1;
    for (int64_t j = 0; j < s->count; j++) {
        int64_t len;
        const uint64_t *x = state(s, j, &len);
        uint64_t i = hash_words(x, len) & mask;
        while (s->slots[i].num != j + 1)
            i = (i + 1) & mask;
        s->slots[i].num = 0;
    }
    s->count = 0;
}

/* Number x, len words of hash h, as state s->count, in slot `at`. */
static int add(state_set *s, const uint64_t *x, int64_t len, uint32_t h, uint64_t at)
{
    if (s->count == s->cap) {
        int64_t cap = s->cap * 2;
        if (!s->width) {
            int64_t *off = realloc(s->off, (cap + 1) * sizeof *off);
            if (!off)
                return NATIVE_NOMEM;
            s->off = off;
        }
        int32_t *delta = realloc(s->delta, cap * (s->k ? s->k : 1) * sizeof *delta);
        if (!delta)
            return NATIVE_NOMEM;
        s->delta = delta;
        s->cap = cap;
    }
    int64_t used = s->width ? s->count * s->width : s->off[s->count];
    if (used + len > s->wcap) {
        int64_t wcap = s->wcap;
        while (used + len > wcap)
            wcap *= 2;
        uint64_t *words = realloc(s->words, wcap * sizeof *words);
        if (!words)
            return NATIVE_NOMEM;
        s->words = words;
        s->wcap = wcap;
    }
    memcpy(s->words + used, x, len * sizeof *x);
    if (!s->width)
        s->off[s->count + 1] = used + len;
    s->slots[at] = (slot){(int32_t)(++s->count), h};
    if ((uint64_t)s->count * 4 > s->nslots * 3)
        return grow_slots(s);
    return NATIVE_OK;
}

/* The number of x, len words of hash h, numbered now if new; -1, with
 * *rc set, when it is new and budget states are numbered already, or on
 * no memory. */
static int64_t number(state_set *s, const uint64_t *x, int64_t len, uint32_t h, int64_t budget,
                      int *rc)
{
    uint64_t at = find(s, x, len, h);
    int64_t t = (int64_t)s->slots[at].num - 1;
    if (t >= 0)
        return t;
    if (s->count >= budget) {
        *rc = NATIVE_BUDGET;
        return -1;
    }
    if ((*rc = add(s, x, len, h, at)) != NATIVE_OK)
        return -1;
    return s->count - 1;
}

/* A construction's step: the s->k successors of state i of s.  Successor
 * a is the run runs[a] of lens[a] words, or has lens[a] EDGE_MISSING (no
 * edge) or EDGE_SELF (state i itself).  The runs lie in the step's own
 * buffers, and stay there until its next call. */
typedef int (*step_fn)(void *ctx, const state_set *s, int64_t i, const uint64_t **runs,
                       int64_t *lens);

/* p, with room for at least `need` items of `size` bytes, *cap of them:
 * p itself or its reallocation; NULL on no memory, p left as it was. */
static void *reserve(void *p, int64_t *cap, int64_t need, size_t size)
{
    if (need <= *cap)
        return p;
    int64_t c = *cap;
    while (c < need)
        c *= 2;
    p = realloc(p, c * size);
    if (p)
        *cap = c;
    return p;
}

/* the states that `explore` steps at a time */
enum { BATCH = 32 };

/* A successor in a batch: the run words[at .. at + len) and its hash, or
 * len EDGE_MISSING or EDGE_SELF. */
typedef struct {
    int64_t at, len;
    uint32_t h;
} batch_item;

typedef struct {
    const uint64_t **runs;  /* what one step writes */
    int64_t *lens;
    batch_item *items;      /* BATCH * k: the successors of the batch's states */
    uint64_t *words;        /* their runs, copied out of the step's buffers */
    int64_t used, cap;      /* words used and room */
} batch;

/* Step state i of s and add its k successors to the batch as items
 * it[0 .. k): copied, hashed, and their home slots prefetched. */
static int batch_step(batch *b, batch_item *it, state_set *s, int64_t i, step_fn step,
                      void *ctx)
{
    int rc = step(ctx, s, i, b->runs, b->lens);
    if (rc != NATIVE_OK)
        return rc;
    int64_t need = b->used;
    for (int64_t a = 0; a < s->k; a++)
        if (b->lens[a] > 0)
            need += b->lens[a];
    uint64_t *words = reserve(b->words, &b->cap, need, sizeof *words);
    if (!words)
        return NATIVE_NOMEM;
    b->words = words;
    for (int64_t a = 0; a < s->k; a++) {
        int64_t len = b->lens[a];
        const uint64_t *run = b->runs[a];
        uint64_t *to = words + b->used;
        it[a].len = len;
        if (len < 0)
            continue;
        for (int64_t x = 0; x < len; x++)  /* runs are short: no call to memcpy */
            to[x] = run[x];
        it[a].at = b->used;
        it[a].h = hash_words(to, len);
        b->used += len;
        __builtin_prefetch(s->slots + (it[a].h & (s->nslots - 1)));
    }
    return NATIVE_OK;
}

/* Number in s the states reachable from `start` (len words), in BFS
 * order, letters in index order, and fill s->delta, -1 for a missing
 * edge; NATIVE_BUDGET when state number budget + 1 would appear.
 *
 * It steps up to BATCH numbered states before it numbers any of their
 * successors, and prefetches the home slot of each successor as it
 * hashes it, so that the cache misses of a batch's lookups overlap
 * instead of coming one after another.  (Prefetching the words of each
 * home slot whose hash matches as well was no faster on twoLetter(4) and
 * slowed the small kernels.)  The successors are then numbered in the
 * order of one state at a time, to the same numbers.  A batch holds no
 * more states than can be stepped before the budget is reached, so a
 * budget stop comes after the same steps as one state at a time.  A step
 * that fails ends the batch at its state: the successors of the states
 * before it are numbered first, so that a budget stop among them comes
 * first, as it would one state at a time. */
static int explore(state_set *s, const uint64_t *start, int64_t len, int64_t budget,
                   step_fn step, void *ctx)
{
    int64_t k = s->k;
    batch b = {malloc((k + 1) * sizeof *b.runs), malloc((k + 1) * sizeof *b.lens),
               malloc((BATCH * k + 1) * sizeof *b.items), malloc(64 * sizeof *b.words), 0, 64};
    int rc = NATIVE_NOMEM;
    if (!b.runs || !b.lens || !b.items || !b.words
        || number(s, start, len, hash_words(start, len), 1, &rc) < 0)
        goto out;
    for (int64_t first = 0, past; first < s->count; first = past) {
        /* each state stepped numbers at most k new ones: no more are
         * stepped than can be before the budget stops the search */
        int64_t most = k ? (budget - s->count) / k : BATCH;
        int step_rc = NATIVE_OK;
        most = most < 1 ? 1 : most > BATCH ? BATCH : most;
        past = first + most < s->count ? first + most : s->count;
        b.used = 0;
        for (int64_t i = first; i < past; i++)
            if ((step_rc = batch_step(&b, b.items + (i - first) * k, s, i, step, ctx))
                != NATIVE_OK) {
                past = i;
                break;
            }
        for (int64_t i = first; i < past; i++)
            for (int64_t a = 0; a < k; a++) {
                const batch_item *it = b.items + (i - first) * k + a;
                int64_t t = it->len == EDGE_SELF ? i : -1;
                if (it->len >= 0
                    && (t = number(s, b.words + it->at, it->len, it->h, budget, &rc)) < 0)
                    goto out;
                s->delta[i * k + a] = (int32_t)t;
            }
        if ((rc = step_rc) != NATIVE_OK)
            goto out;
    }
    rc = NATIVE_OK;
out:
    free(b.runs);
    free(b.lens);
    free(b.items);
    free(b.words);
    return rc;
}

/* The cone step of _kernels_py.cone_closure.  A state steps on letter a
 * as (st | moved) & ~drop over its members in heads[a] only: a moving id
 * s adds its tail, tails[s], and drops into[tails[s]], the ids that tail
 * strictly embeds into (s among them).  A state with no moving member is
 * its own successor. */
typedef struct {
    int64_t k, w;
    const uint64_t *heads;  /* k * w words: the ids whose head is each letter */
    const int32_t *tails;
    const uint64_t *into;   /* n * w words: into[t], the ids t strictly embeds into */
    uint64_t *out;          /* k * w words: the successors */
    uint64_t *drop;         /* w words */
} cone_ctx;

static int cone_step(void *p, const state_set *s, int64_t i, const uint64_t **runs,
                     int64_t *lens)
{
    const cone_ctx *c = p;
    int64_t w = c->w;
    const uint64_t *cur = s->words + i * w;
    for (int64_t a = 0; a < c->k; a++) {
        const uint64_t *head = c->heads + a * w;
        int64_t j;
        for (j = 0; j < w && !(cur[j] & head[j]); j++)
            ;
        if (j == w) {
            lens[a] = EDGE_SELF;
            continue;
        }
        uint64_t *moved = c->out + a * w, *drop = c->drop;
        memset(moved, 0, w * sizeof *moved);
        memset(drop, 0, w * sizeof *drop);
        for (; j < w; j++) {
            for (uint64_t m = cur[j] & head[j]; m; m &= m - 1) {
                int64_t id = j * 64 + __builtin_ctzll(m);
                int32_t t = c->tails[id];
                const uint64_t *up = c->into + (int64_t)t * w;
                moved[t / 64] |= (uint64_t)1 << (t % 64);
                for (int64_t x = 0; x < w; x++)
                    drop[x] |= up[x];
            }
        }
        for (j = 0; j < w; j++)
            moved[j] = (cur[j] | moved[j]) & ~drop[j];
        runs[a] = moved;
        lens[a] = w;
    }
    return NATIVE_OK;
}

/* Whether the word x (xlen letters) embeds into the word y (ylen):
 * the greedy leftmost match. */
static int embeds(const int32_t *x, int64_t xlen, const int32_t *y, int64_t ylen)
{
    int64_t i = 0;
    for (int64_t j = 0; i < xlen && j < ylen; j++)
        if (x[i] == y[j])
            i++;
    return i == xlen;
}

/* a word of the input: its length and its place, for sorting by length */
typedef struct {
    int64_t len, at;
} word_ref;

static int cmp_word(const void *x, const void *y)
{
    const word_ref *a = x, *b = y;
    if (a->len != b->len)
        return (a->len > b->len) - (a->len < b->len);
    return (a->at > b->at) - (a->at < b->at);
}

/* The tables of the cone of the nwords words, word i being letters[off[i]
 * .. off[i + 1]), as _kernels_py.cone_tables builds them: NATIVE_BADINPUT
 * for a letter outside [0, k) or offsets that go back.
 *
 * The subword-minimal words are kept: in order of length, a word is
 * dropped when a kept one embeds into it (a duplicate too).  Their
 * distinct suffixes are numbered in the state_set `sfx` by the key (tail
 * id, head letter), the empty suffix first as id 0, so equal suffixes of
 * different words share an id and every tail has a lower id than its
 * suffix.  Emb(s), the ids that embed into s, s among them, follows
 *
 *     Emb(x.s) = Emb(s) | {the id of x.u : u in Emb(s)},
 *
 * in ascending id order; the new members are found from their side, as
 * the ids v with head x outside Emb(s) whose tail is in it, one bit probe
 * each.  into[t], the ids that t strictly embeds into, is the transpose.
 * On NATIVE_OK, *n_out is the number of ids, w = ceil(n / 64), and the
 * caller releases *tails_out (n ids), *heads_out (k * w words), *into_out
 * (n * w words) and *start_out (w words: the minimal words' ids). */
static int cone_tables(int64_t k, int64_t nwords, const int32_t *letters, const int64_t *off,
                       int64_t *n_out, int32_t **tails_out, uint64_t **heads_out,
                       uint64_t **into_out, uint64_t **start_out)
{
    int rc = NATIVE_BADINPUT;
    if (k < 0 || nwords < 0 || off[0] != 0)
        return rc;
    for (int64_t i = 0; i < nwords; i++)
        if (off[i + 1] < off[i])
            return rc;
    for (int64_t j = 0; j < off[nwords]; j++)
        if (letters[j] < 0 || letters[j] >= k)
            return rc;
    rc = NATIVE_NOMEM;
    state_set sfx;
    int init = set_init(&sfx, 0, 2, 64);
    word_ref *order = malloc((nwords + 1) * sizeof *order);
    int64_t ngens = 0, total = 1;
    int32_t *tails = NULL;
    uint64_t *heads = NULL, *emb = NULL, *into = NULL, *start = NULL;
    if (init != NATIVE_OK || !order)
        goto out;
    for (int64_t i = 0; i < nwords; i++)
        order[i] = (word_ref){off[i + 1] - off[i], i};
    qsort(order, nwords, sizeof *order, cmp_word);
    for (int64_t i = 0; i < nwords; i++) {
        const word_ref *y = order + i;
        int64_t g;
        for (g = 0; g < ngens; g++)
            if (embeds(letters + off[order[g].at], order[g].len, letters + off[y->at], y->len))
                break;
        if (g == ngens) {
            order[ngens++] = *y;
            total += y->len;
        }
    }
    /* number the suffixes: the empty one, then each kept word's from its end */
    uint64_t key[2] = {UINT64_MAX, UINT64_MAX};
    if (number(&sfx, key, 2, hash_words(key, 2), MAX_STATES, &rc) < 0)
        goto out;
    int64_t w = (total + 63) / 64;  /* total bounds the ids: fixed before numbering */
    start = calloc(w, sizeof *start);
    if (!start)
        goto out;
    for (int64_t g = 0; g < ngens; g++) {
        const int32_t *x = letters + off[order[g].at];
        int64_t t = 0;
        for (int64_t j = order[g].len - 1; j >= 0; j--) {
            key[0] = (uint64_t)t;
            key[1] = (uint64_t)x[j];
            if ((t = number(&sfx, key, 2, hash_words(key, 2), MAX_STATES, &rc)) < 0)
                goto out;
        }
        start[t / 64] |= (uint64_t)1 << (t % 64);
    }
    int64_t n = sfx.count;
    w = (n + 63) / 64;
    tails = malloc(n * sizeof *tails);
    heads = calloc(k * w + 1, sizeof *heads);
    emb = calloc(n * w, sizeof *emb);
    into = calloc(n * w, sizeof *into);
    if (!tails || !heads || !emb || !into)
        goto out;
    tails[0] = 0;
    for (int64_t s = 1; s < n; s++) {
        tails[s] = (int32_t)sfx.words[2 * s];
        int64_t x = (int64_t)sfx.words[2 * s + 1];
        heads[x * w + s / 64] |= (uint64_t)1 << (s % 64);
    }
    emb[0] = 1;
    for (int64_t s = 1; s < n; s++) {
        const uint64_t *head = heads + (int64_t)sfx.words[2 * s + 1] * w;
        const uint64_t *e = emb + (int64_t)tails[s] * w;
        uint64_t *d = emb + s * w;
        for (int64_t j = 0; j < w; j++) {
            d[j] = e[j];
            for (uint64_t m = head[j] & ~e[j]; m; m &= m - 1) {
                int64_t v = j * 64 + __builtin_ctzll(m);
                if (e[tails[v] / 64] >> (tails[v] % 64) & 1)
                    d[j] |= m & -m;
            }
        }
    }
    for (int64_t v = 0; v < n; v++)
        for (int64_t j = 0; j < w; j++)
            for (uint64_t m = emb[v * w + j]; m; m &= m - 1) {
                int64_t u = j * 64 + __builtin_ctzll(m);
                if (u != v)
                    into[u * w + v / 64] |= (uint64_t)1 << (v % 64);
            }
    *n_out = n;
    *tails_out = tails;
    *heads_out = heads;
    *into_out = into;
    *start_out = start;
    tails = NULL;
    heads = into = start = NULL;
    rc = NATIVE_OK;
out:
    set_free(&sfx);
    free(order);
    free(tails);
    free(heads);
    free(emb);
    free(into);
    free(start);
    return rc;
}

/* The antichain cone of _kernels_py.cone_closure, on cone_step, for the
 * nwords words of letters and off (see cone_tables): the minimal DFA of
 * their upward closure.  On NATIVE_OK, *delta_out holds *count_out * k
 * targets, and *final_out is the number of the state {eps}, or -1.  No
 * words give one state that is its own successor on every letter. */
int cone_closure(int32_t k, int64_t nwords, const int32_t *letters, const int64_t *off,
                 int64_t budget, int32_t **delta_out, int64_t *count_out, int64_t *final_out)
{
    int64_t n = 0;
    int32_t *tails = NULL;
    uint64_t *heads = NULL, *into = NULL, *start = NULL, *buf = NULL;
    state_set s = {0};
    int rc = cone_tables(k, nwords, letters, off, &n, &tails, &heads, &into, &start);
    if (rc != NATIVE_OK)
        goto out;
    int64_t w = (n + 63) / 64;
    rc = set_init(&s, k, w, 1024);
    buf = calloc((k + 1) * w + 1, sizeof *buf);
    cone_ctx c = {k, w, heads, tails, into, buf, buf + k * w};
    if (rc != NATIVE_OK || !buf) {
        rc = NATIVE_NOMEM;
        goto out;
    }
    if ((rc = explore(&s, start, w, budget, cone_step, &c)) != NATIVE_OK)
        goto out;
    memset(buf, 0, w * sizeof *buf);
    buf[0] = 1;  /* {eps}: the empty suffix is id 0 */
    *final_out = (int64_t)s.slots[find(&s, buf, w, hash_words(buf, w))].num - 1;
    *count_out = s.count;
    *delta_out = s.delta;
    s.delta = NULL;
out:
    free(tails);
    free(heads);
    free(into);
    free(start);
    free(buf);
    set_free(&s);
    return rc;
}

/* The rows of an NFA's successor table, n * k runs: row q * k + a, the
 * a-successors of state q, is words[off[r] .. end[r]).  A table whose
 * runs lie end to end passes its offsets as off and, one further on, as
 * end; the front end's down-closure rows pass one run per component for
 * all its members. */
typedef struct {
    const uint64_t *words;
    const int64_t *off, *end;
} rows_t;

/* Whether each of the `count` runs of `words` (run r from off[r] to
 * end[r]) fits in ceil(n / 64) words and names no id of n or above. */
static int runs_below(const int64_t *off, const int64_t *end, int64_t count,
                      const uint64_t *words, int64_t n)
{
    int64_t w = (n + 63) / 64;
    uint64_t over = n % 64 ? ~(uint64_t)0 << (n % 64) : 0;
    for (int64_t r = 0; r < count; r++) {
        int64_t len = end[r] - off[r];
        if (len < 0 || len > w || (len == w && len && words[end[r] - 1] & over))
            return 0;
    }
    return 1;
}

/* OR into acc + a * w, for each letter a, the rows of the members of the
 * run x (len words), and raise acc_len[a] to the longest row's length.
 * The longest row has a nonzero top word, so each OR is trimmed at
 * acc_len[a]. */
static void or_rows(const uint64_t *x, int64_t len, const rows_t *rows, int64_t k, int64_t w,
                    uint64_t *acc, int64_t *acc_len)
{
    for (int64_t j = 0; j < len; j++) {
        for (uint64_t m = x[j]; m; m &= m - 1) {
            int64_t base = (j * 64 + __builtin_ctzll(m)) * k;
            for (int64_t a = 0; a < k; a++) {
                const uint64_t *row = rows->words + rows->off[base + a];
                int64_t rl = rows->end[base + a] - rows->off[base + a];
                uint64_t *y = acc + a * w;
                for (int64_t i = 0; i < rl; i++)
                    y[i] |= row[i];
                if (rl > acc_len[a])
                    acc_len[a] = rl;
            }
        }
    }
}

/* _kernels_py.maximal of the run x (len words) into out, which must be
 * zero; x is cleared.  Keep the lowest member, clear its reach (its own
 * bit and its k rows), repeat.  Returns the length of the run in out. */
static int64_t maximal(uint64_t *x, int64_t len, const rows_t *rows, int64_t k, uint64_t *out)
{
    int64_t top = 0;
    for (int64_t j = 0; j < len; j++) {
        while (x[j]) {
            uint64_t low = x[j] & -x[j];
            int64_t base = (j * 64 + __builtin_ctzll(low)) * k;
            out[j] |= low;
            top = j + 1;
            x[j] ^= low;
            for (int64_t a = 0; a < k; a++) {
                const uint64_t *row = rows->words + rows->off[base + a];
                int64_t end = rows->end[base + a] - rows->off[base + a];
                if (end > len)
                    end = len;
                for (int64_t y = j; y < end; y++)
                    x[y] &= ~row[y];
            }
        }
    }
    return top;
}

/* The powerset step of _kernels_py.subset_construction: a subset's k
 * targets are the ORs of its members' rows, each replaced by its
 * `maximal` part when `reduced` is set; the empty target is missing. */
typedef struct {
    int64_t k, w;
    rows_t rows;
    int32_t reduced;
    uint64_t *acc;      /* k ORs of w words */
    uint64_t *red;      /* k reduced ones */
    int64_t *acc_len;   /* the words of each OR, kept until the next step clears them */
} subset_ctx;

static int subset_step(void *p, const state_set *s, int64_t i, const uint64_t **runs,
                       int64_t *lens)
{
    subset_ctx *c = p;
    int64_t k = c->k, w = c->w;
    for (int64_t a = 0; a < k; a++) {
        memset(c->acc + a * w, 0, c->acc_len[a] * sizeof *c->acc);
        if (c->reduced)
            memset(c->red + a * w, 0, c->acc_len[a] * sizeof *c->red);
        c->acc_len[a] = 0;
    }
    int64_t len;
    const uint64_t *st = state(s, i, &len);
    or_rows(st, len, &c->rows, k, w, c->acc, c->acc_len);
    for (int64_t a = 0; a < k; a++) {
        uint64_t *x = c->acc + a * w;
        int64_t xl = c->acc_len[a];
        if (c->reduced && xl) {
            xl = maximal(x, xl, &c->rows, k, c->red + a * w);
            x = c->red + a * w;
        }
        runs[a] = x;
        lens[a] = xl ? xl : EDGE_MISSING;
    }
    return NATIVE_OK;
}

/* Whether the runs x (xlen words) and y (ylen words) share a member. */
static int meets(const uint64_t *x, int64_t xlen, const uint64_t *y, int64_t ylen)
{
    for (int64_t i = 0; i < xlen && i < ylen; i++)
        if (x[i] & y[i])
            return 1;
    return 0;
}

/* The powerset construction of _kernels_py.subset_construction, on
 * subset_step, over the n * k rows `words`, row_off and row_end (see
 * rows_t); init is a nonzero run.  On NATIVE_OK, *delta_out holds
 * *count_out * k targets, -1 for the empty subset, and subset j is the
 * run (*words_out)[(*off_out)[j] .. (*off_out)[j + 1]).  When fin, a run
 * of fin_len words, is given, *finals_out lists the *nfinals_out subsets
 * that meet it, ascending; otherwise neither is written. */
int subset_construction(int32_t n, int32_t k, const uint64_t *words, const int64_t *row_off,
                        const int64_t *row_end, const uint64_t *init, int64_t init_len,
                        int32_t reduced, int64_t budget, const uint64_t *fin, int64_t fin_len,
                        int32_t **delta_out, uint64_t **words_out, int64_t **off_out,
                        int64_t *count_out, int32_t **finals_out, int64_t *nfinals_out)
{
    int64_t w = (n + 63) / 64;
    int64_t init_off[2] = {0, init_len}, fin_off[2] = {0, fin_len};
    state_set s;
    int rc = set_init(&s, k, 0, 1024);
    uint64_t *acc = calloc(2 * k * w + 1, sizeof *acc);  /* k ORs and k reduced ones */
    int64_t *acc_len = calloc(k + 1, sizeof *acc_len);
    int32_t *finals = NULL;
    subset_ctx c = {k, w, {words, row_off, row_end}, reduced, acc, acc + k * w, acc_len};
    if (rc != NATIVE_OK || !acc || !acc_len) {
        rc = NATIVE_NOMEM;
        goto out;
    }
    if (!runs_below(row_off, row_end, (int64_t)n * k, words, n)
        || !runs_below(init_off, init_off + 1, 1, init, n) || !init_len || !init[init_len - 1]
        || (fin && !runs_below(fin_off, fin_off + 1, 1, fin, n))) {
        rc = NATIVE_BADINPUT;
        goto out;
    }
    if ((rc = explore(&s, init, init_len, budget, subset_step, &c)) != NATIVE_OK)
        goto out;
    if (fin) {
        int64_t nf = 0;
        if (!(finals = malloc((s.count + 1) * sizeof *finals))) {
            rc = NATIVE_NOMEM;
            goto out;
        }
        for (int64_t j = 0; j < s.count; j++)
            if (meets(s.words + s.off[j], s.off[j + 1] - s.off[j], fin, fin_len))
                finals[nf++] = (int32_t)j;
        *finals_out = finals;
        *nfinals_out = nf;
        finals = NULL;
    }
    *count_out = s.count;
    *delta_out = s.delta;
    *words_out = s.words;
    *off_out = s.off;
    s.delta = NULL;
    s.words = NULL;
    s.off = NULL;
out:
    free(acc);
    free(acc_len);
    free(finals);
    set_free(&s);
    return rc;
}

static int cmp_u64(const void *x, const void *y)
{
    uint64_t a = *(const uint64_t *)x, b = *(const uint64_t *)y;
    return (a > b) - (a < b);
}

static int cmp_i32(const void *x, const void *y)
{
    int32_t a = *(const int32_t *)x, b = *(const int32_t *)y;
    return (a > b) - (a < b);
}

/* The antichain step of _kernels_py.antichain_preimage.  The subsets of
 * the NFA's states (masks, runs of w words) are numbered once, in
 * `masks`, and an antichain state is the ascending run of its members'
 * ids.  Per mask id the step keeps, once computed: its k rows, as ids in
 * masks.delta; reach(id, j), the masks delta2(mask, z) for z accepted
 * by K_j, as a run of ids in `pool`; its size and whether it meets the
 * final states.  K_j has at most 64 states, so a set of them is a word. */
typedef struct {
    int64_t pop;                /* members */
    uint64_t stamp;             /* the last target that listed the mask */
    uint8_t rowed, meets;       /* its rows are in masks.delta; it meets fin */
} mask_info;

typedef struct {
    int64_t k, m, w;            /* the NFA's letters, the target letters, words per mask */
    rows_t rows;
    const uint64_t *fin;
    int64_t fin_len;
    const uint64_t *ksucc;      /* K_j's row q * k + x is ksucc[kbase[j] + q * k + x] */
    const int64_t *kbase;
    const uint64_t *kinit, *kfin;
    state_set masks;            /* masks.delta: each mask's rows, once `rowed` */
    state_set pairs;            /* the (mask id, K_j state set) pairs of one reach */
    int64_t mcap;               /* masks that info and reach_at have room for */
    mask_info *info;
    int64_t *reach_at;          /* (m + 1) per mask: reach(id, j) in pool, or -1 */
    int32_t *pool;              /* each reach: its size, then its ids, ascending */
    int64_t pool_len, pool_cap;
    uint64_t *acc;              /* k ORs of w words, for a mask's rows */
    int64_t *acc_len;
    uint64_t *keys;             /* a target's candidates: size << 32 | id */
    int64_t keys_cap;
    uint64_t *out;              /* the m successors of one antichain state */
    int64_t out_cap;
    uint64_t gen;               /* targets computed so far */
} anti_ctx;

/* The id of the mask x (len words), numbered now if new, with its
 * per-mask entries; -1, with *rc set, on no memory. */
static int64_t mask_id(anti_ctx *c, const uint64_t *x, int64_t len, int *rc)
{
    int64_t before = c->masks.count;
    int64_t id = number(&c->masks, x, len, hash_words(x, len), MAX_STATES, rc);
    if (id < before)
        return id;
    if (c->masks.cap > c->mcap) {
        int64_t cap = c->masks.cap;
        mask_info *info = realloc(c->info, cap * sizeof *info);
        if (info)
            c->info = info;
        int64_t *reach_at = realloc(c->reach_at, cap * (c->m + 1) * sizeof *reach_at);
        if (reach_at)
            c->reach_at = reach_at;
        if (!info || !reach_at) {
            *rc = NATIVE_NOMEM;
            return -1;
        }
        c->mcap = cap;
    }
    mask_info *e = c->info + id;
    e->pop = 0;
    e->stamp = 0;
    e->rowed = e->meets = 0;
    for (int64_t j = 0; j < len; j++) {
        e->pop += __builtin_popcountll(x[j]);
        if (j < c->fin_len && x[j] & c->fin[j])
            e->meets = 1;
    }
    for (int64_t j = 0; j <= c->m; j++)
        c->reach_at[id * (c->m + 1) + j] = -1;
    return id;
}

/* Fill the k rows of mask `id` in masks.delta, unless they are there. */
static int mask_rows(anti_ctx *c, int64_t id)
{
    if (c->info[id].rowed)
        return NATIVE_OK;
    int64_t k = c->k, len;
    const uint64_t *x = state(&c->masks, id, &len);
    or_rows(x, len, &c->rows, k, c->w, c->acc, c->acc_len);
    /* x is not read again: numbering the rows may move the pool */
    int rc = NATIVE_OK;
    for (int64_t a = 0; a < k; a++) {
        uint64_t *y = c->acc + a * c->w;
        int64_t t = mask_id(c, y, c->acc_len[a], &rc);
        memset(y, 0, c->acc_len[a] * sizeof *y);
        c->acc_len[a] = 0;
        if (t < 0)
            return rc;
        c->masks.delta[id * k + a] = (int32_t)t;
    }
    c->info[id].rowed = 1;
    return NATIVE_OK;
}

static int pool_push(anti_ctx *c, int32_t id)
{
    int32_t *pool = reserve(c->pool, &c->pool_cap, c->pool_len + 1, sizeof *pool);
    if (!pool)
        return NATIVE_NOMEM;
    c->pool = pool;
    c->pool[c->pool_len++] = id;
    return NATIVE_OK;
}

/* Set *at to where reach(id, j) lies in the pool, computed now unless it
 * was before: the product of the powerset automaton with K_j, explored
 * from (id, K_j's initial set), collects the mask of each pair whose K_j
 * side meets K_j's final states.  A mask's rows are filled only once K_j
 * moves from it, as in the pure search. */
static int reach(anti_ctx *c, int64_t id, int64_t j, int64_t *at)
{
    int64_t key = id * (c->m + 1) + j;
    if (c->reach_at[key] >= 0) {
        *at = c->reach_at[key];
        return NATIVE_OK;
    }
    int64_t k = c->k, start = c->pool_len;
    const uint64_t *ks = c->ksucc + c->kbase[j];
    uint64_t kfin = c->kfin[j];
    uint64_t pair[2] = {(uint64_t)id, c->kinit[j]};
    int rc = pool_push(c, 0);
    if (rc == NATIVE_OK && pair[1] & kfin)
        rc = pool_push(c, (int32_t)id);
    set_clear(&c->pairs);
    if (rc != NATIVE_OK || number(&c->pairs, pair, 2, hash_words(pair, 2), MAX_STATES, &rc) < 0)
        return rc;
    for (int64_t p = 0; p < c->pairs.count; p++) {
        int64_t am = (int64_t)c->pairs.words[2 * p];
        uint64_t km = c->pairs.words[2 * p + 1];
        int rowed = 0;
        for (int64_t x = 0; x < k; x++) {
            uint64_t km2 = 0;
            for (uint64_t b = km; b; b &= b - 1)
                km2 |= ks[__builtin_ctzll(b) * k + x];
            if (!km2)
                continue;
            if (!rowed && (rc = mask_rows(c, am)) != NATIVE_OK)
                return rc;
            rowed = 1;
            pair[0] = (uint64_t)c->masks.delta[am * k + x];
            pair[1] = km2;
            int64_t before = c->pairs.count;
            if (number(&c->pairs, pair, 2, hash_words(pair, 2), MAX_STATES, &rc) < 0)
                return rc;
            if (c->pairs.count > before && km2 & kfin
                && (rc = pool_push(c, (int32_t)pair[0])) != NATIVE_OK)
                return rc;
        }
    }
    int32_t *ids = c->pool + start + 1;
    int64_t size = c->pool_len - start - 1, kept = 0;
    qsort(ids, size, sizeof *ids, cmp_i32);
    for (int64_t i = 0; i < size; i++)
        if (!kept || ids[i] != ids[kept - 1])
            ids[kept++] = ids[i];
    c->pool[start] = (int32_t)kept;
    c->pool_len = start + 1 + kept;
    c->reach_at[key] = *at = start;
    return NATIVE_OK;
}

/* Whether the run y (ylen words) lies inside the run x (xlen words). */
static int inside(const uint64_t *y, int64_t ylen, const uint64_t *x, int64_t xlen)
{
    if (ylen > xlen)
        return 0;
    for (int64_t i = 0; i < ylen; i++)
        if (y[i] & ~x[i])
            return 0;
    return 1;
}

/* The target of the `len` mask ids `ids` on letter j: the
 * inclusion-minimal masks of the union of their reach(id, j), as
 * ascending ids in keys[0 .. *size).  One pass in order of size keeps a
 * mask unless a kept one lies inside it, as _kernels_py.minimal_masks
 * does; kept masks of its own size are distinct from it, so only the
 * smaller ones are tested. */
static int target(anti_ctx *c, const uint64_t *ids, int64_t len, int64_t j, int64_t *size)
{
    uint64_t gen = ++c->gen;
    int64_t n = 0;
    for (int64_t i = 0; i < len; i++) {
        int64_t at = 0;
        int rc = reach(c, (int64_t)ids[i], j, &at);
        if (rc != NATIVE_OK)
            return rc;
        int64_t cnt = c->pool[at];
        uint64_t *keys = reserve(c->keys, &c->keys_cap, n + cnt, sizeof *keys);
        if (!keys)
            return NATIVE_NOMEM;
        c->keys = keys;
        for (int64_t e = 0; e < cnt; e++) {
            int32_t t = c->pool[at + 1 + e];
            if (c->info[t].stamp != gen) {
                c->info[t].stamp = gen;
                keys[n++] = (uint64_t)c->info[t].pop << 32 | (uint64_t)t;
            }
        }
    }
    uint64_t *keys = c->keys;
    qsort(keys, n, sizeof *keys, cmp_u64);
    int64_t kept = 0;
    for (int64_t e = 0; e < n; e++) {
        int64_t xlen;
        const uint64_t *x = state(&c->masks, (int64_t)(keys[e] & 0xffffffffu), &xlen);
        int64_t f;
        for (f = 0; f < kept && keys[f] >> 32 < keys[e] >> 32; f++) {
            int64_t ylen;
            const uint64_t *y = state(&c->masks, (int64_t)(keys[f] & 0xffffffffu), &ylen);
            if (inside(y, ylen, x, xlen))
                break;
        }
        if (f == kept || keys[f] >> 32 == keys[e] >> 32)
            keys[kept++] = keys[e];
    }
    for (int64_t e = 0; e < kept; e++)
        keys[e] &= 0xffffffffu;
    qsort(keys, kept, sizeof *keys, cmp_u64);
    *size = kept;
    return NATIVE_OK;
}

static int antichain_step(void *p, const state_set *s, int64_t i, const uint64_t **runs,
                          int64_t *lens)
{
    anti_ctx *c = p;
    int64_t len, used = 0;
    /* the members are read from s's pool, which nothing moves until the
     * step returns; reach numbers masks in c->masks only */
    const uint64_t *st = state(s, i, &len);
    for (int64_t j = 1; j <= c->m; j++) {
        int64_t size;
        int rc = target(c, st, len, j, &size);
        if (rc != NATIVE_OK)
            return rc;
        uint64_t *out = reserve(c->out, &c->out_cap, used + size, sizeof *out);
        if (!out)
            return NATIVE_NOMEM;
        c->out = out;
        memcpy(out + used, c->keys, size * sizeof *out);
        lens[j - 1] = size;
        used += size;
    }
    used = 0;
    for (int64_t a = 0; a < c->m; a++) {
        runs[a] = c->out + used;
        used += lens[a];
    }
    return NATIVE_OK;
}

/* The antichain search of _kernels_py.antichain_preimage, on
 * antichain_step: the preimage DFA over m target letters of the NFA
 * (n states, k letters, row r being rows[row_off[r] .. row_off[r + 1]),
 * the runs init and fin) under the substitution of K_j for target letter j,
 * K_0 for the empty word.  K_j has kn[j] <= 64 states, its rows in
 * ksucc from kbase[j] = k * (kn[0] + ... + kn[j - 1]) on, the masks
 * kinit[j] and kfin[j].  On NATIVE_OK, *delta_out holds *count_out * m
 * targets and *finals_out the *nfinals_out states, ascending, whose
 * every member meets fin. */
int antichain_preimage(int32_t n, int32_t k, const uint64_t *rows, const int64_t *row_off,
                       const uint64_t *init, int64_t init_len, const uint64_t *fin,
                       int64_t fin_len, int32_t m, const int32_t *kn, const uint64_t *ksucc,
                       const uint64_t *kinit, const uint64_t *kfin, int64_t budget,
                       int32_t **delta_out, int32_t **finals_out, int64_t *count_out,
                       int64_t *nfinals_out)
{
    int64_t w = (n + 63) / 64;
    int64_t init_off[2] = {0, init_len}, fin_off[2] = {0, fin_len};
    state_set s;
    anti_ctx c = {.k = k, .m = m, .w = w, .rows = {rows, row_off, row_off + 1}, .fin = fin,
                  .fin_len = fin_len, .ksucc = ksucc, .kinit = kinit, .kfin = kfin};
    int32_t *finals = NULL;
    int rc = set_init(&s, m, 0, 1024);
    int ok = set_init(&c.masks, k, 0, 1024) == NATIVE_OK
        && set_init(&c.pairs, 0, 2, 16) == NATIVE_OK;
    c.pool_cap = c.keys_cap = c.out_cap = 64;
    int64_t *kbase = malloc((m + 1) * sizeof *kbase);
    c.kbase = kbase;
    c.pool = malloc(c.pool_cap * sizeof *c.pool);
    c.keys = malloc(c.keys_cap * sizeof *c.keys);
    c.out = malloc(c.out_cap * sizeof *c.out);
    c.acc = calloc(k * w + 1, sizeof *c.acc);
    c.acc_len = calloc(k + 1, sizeof *c.acc_len);
    if (rc != NATIVE_OK || !ok || !kbase || !c.pool || !c.keys || !c.out || !c.acc
        || !c.acc_len) {
        rc = NATIVE_NOMEM;
        goto out;
    }
    rc = NATIVE_BADINPUT;
    if (!runs_below(row_off, row_off + 1, (int64_t)n * k, rows, n)
        || !runs_below(init_off, init_off + 1, 1, init, n)
        || !runs_below(fin_off, fin_off + 1, 1, fin, n))
        goto out;
    int64_t base = 0;
    for (int64_t j = 0; j <= m; j++) {
        if (kn[j] < 0 || kn[j] > 64)
            goto out;
        uint64_t over = kn[j] < 64 ? ~(uint64_t)0 << kn[j] : 0;
        if ((kinit[j] | kfin[j]) & over)
            goto out;
        for (int64_t q = 0; q < (int64_t)kn[j] * k; q++)
            if (ksucc[base + q] & over)
                goto out;
        kbase[j] = base;
        base += (int64_t)kn[j] * k;
    }
    rc = NATIVE_OK;
    uint64_t start_id;
    int64_t size;
    int64_t t = mask_id(&c, init, init_len, &rc);
    if (t < 0)
        goto out;
    start_id = (uint64_t)t;
    if ((rc = target(&c, &start_id, 1, 0, &size)) != NATIVE_OK)
        goto out;
    /* explore copies the start into s before the first step reuses keys */
    if ((rc = explore(&s, c.keys, size, budget, antichain_step, &c)) != NATIVE_OK)
        goto out;
    finals = malloc((s.count + 1) * sizeof *finals);
    if (!finals) {
        rc = NATIVE_NOMEM;
        goto out;
    }
    int64_t nf = 0;
    for (int64_t i = 0; i < s.count; i++) {
        int64_t len;
        const uint64_t *st = state(&s, i, &len);
        int64_t x;
        for (x = 0; x < len && c.info[st[x]].meets; x++)
            ;
        if (x == len)
            finals[nf++] = (int32_t)i;
    }
    *count_out = s.count;
    *nfinals_out = nf;
    *delta_out = s.delta;
    *finals_out = finals;
    s.delta = NULL;
    finals = NULL;
out:
    free(finals);
    set_free(&s);
    set_free(&c.masks);
    set_free(&c.pairs);
    free(kbase);
    free(c.info);
    free(c.reach_at);
    free(c.pool);
    free(c.acc);
    free(c.acc_len);
    free(c.keys);
    free(c.out);
    return rc;
}

/* The Hopcroft minimisation of _kernels_py.dfa_minimize: the DFA (n
 * states, k letters, delta with -1 for a missing edge) restricted to the
 * states the initial one reaches, completed by a sink, quotiented, and
 * renumbered from the initial class in BFS order without the sink's
 * class.  The quotient is the language's minimal DFA, so any refinement
 * order gives the same result.  On NATIVE_OK, *count_out is 0 for the
 * empty language; otherwise *delta_out holds *count_out * k targets and
 * *finals_out the *nfinals_out final states, ascending. */
int dfa_minimize(int32_t n, int32_t k, const int32_t *delta, int32_t initial,
                 const int32_t *finals, int64_t nfinals, int32_t **delta_out,
                 int32_t **finals_out, int64_t *count_out, int64_t *nfinals_out)
{
    int rc = NATIVE_NOMEM;
    int64_t kk = k ? k : 1;
    int32_t *num = malloc((int64_t)n * sizeof *num);        /* input state -> reached number */
    int32_t *order = malloc(((int64_t)n + 1) * sizeof *order);
    int32_t *d = NULL, *rev = NULL, *elems = NULL, *loc = NULL, *blk = NULL;
    int32_t *first = NULL, *past = NULL, *cnt = NULL, *touched = NULL, *work = NULL;
    int32_t *splitter = NULL, *renum = NULL, *out = NULL, *fout = NULL;
    int64_t *off = NULL;
    char *fin = NULL, *in_work = NULL;
    if (!num || !order)
        goto out;
    rc = NATIVE_BADINPUT;
    if (initial < 0 || initial >= n)
        goto out;
    for (int64_t i = 0; i < (int64_t)n * k; i++)
        if (delta[i] < -1 || delta[i] >= n)
            goto out;
    for (int64_t i = 0; i < nfinals; i++)
        if (finals[i] < 0 || finals[i] >= n)
            goto out;
    rc = NATIVE_NOMEM;

    /* the states the initial one reaches, in BFS order */
    for (int64_t q = 0; q < n; q++)
        num[q] = -1;
    int64_t m = 1;
    num[initial] = 0;
    order[0] = initial;
    for (int64_t i = 0; i < m; i++)
        for (int64_t a = 0; a < k; a++) {
            int32_t t = delta[(int64_t)order[i] * k + a];
            if (t >= 0 && num[t] < 0) {
                num[t] = (int32_t)m;
                order[m++] = t;
            }
        }
    int64_t big = m + 1, sink = m;
    d = malloc(big * kk * sizeof *d);
    fin = calloc(big, 1);
    off = calloc(big * k + 1, sizeof *off);
    rev = malloc(big * kk * sizeof *rev);
    elems = malloc(big * sizeof *elems);
    loc = malloc(big * sizeof *loc);
    blk = calloc(big, sizeof *blk);
    first = malloc(big * sizeof *first);
    past = malloc(big * sizeof *past);
    cnt = calloc(big, sizeof *cnt);
    touched = malloc(big * sizeof *touched);
    work = malloc(big * sizeof *work);
    in_work = calloc(big, 1);
    splitter = malloc(big * sizeof *splitter);
    if (!d || !fin || !off || !rev || !elems || !loc || !blk || !first || !past || !cnt
        || !touched || !work || !in_work || !splitter)
        goto out;
    for (int64_t i = 0; i < m; i++)
        for (int64_t a = 0; a < k; a++) {
            int32_t t = delta[(int64_t)order[i] * k + a];
            d[i * k + a] = t < 0 ? (int32_t)sink : num[t];
        }
    for (int64_t a = 0; a < k; a++)
        d[sink * k + a] = (int32_t)sink;
    for (int64_t i = 0; i < nfinals; i++)
        if (num[finals[i]] >= 0)
            fin[num[finals[i]]] = 1;

    /* inverse edges: the sources of the edges into (target, letter) key
     * are rev[off[key] .. off[key + 1]) */
    for (int64_t i = 0; i < big * k; i++)
        off[(int64_t)d[i] * k + i % k + 1]++;
    for (int64_t i = 0; i < big * k; i++)
        off[i + 1] += off[i];
    for (int64_t i = 0; i < big * k; i++)
        rev[off[(int64_t)d[i] * k + i % k]++] = (int32_t)(i / k);
    for (int64_t i = big * k; i > 0; i--)
        off[i] = off[i - 1];
    off[0] = 0;

    /* the partition: elems grouped by block, block b at [first[b], past[b]) */
    for (int64_t q = 0; q < big; q++)
        elems[q] = loc[q] = (int32_t)q;
    int64_t blocks = 1, nwork = 0;
    first[0] = 0;
    past[0] = (int32_t)big;
    int64_t nfin = 0;
    for (int64_t q = 0; q < m; q++)
        if (fin[q]) {
            int32_t other = elems[nfin];
            elems[loc[q]] = other;
            loc[other] = loc[q];
            elems[nfin] = (int32_t)q;
            loc[q] = (int32_t)nfin;
            nfin++;
        }
    if (nfin) {
        /* the sink is never final, so this is a proper split */
        first[1] = 0;
        past[1] = (int32_t)nfin;
        first[0] = (int32_t)nfin;
        for (int64_t i = 0; i < nfin; i++)
            blk[elems[i]] = 1;
        blocks = 2;
        int32_t small = nfin <= big - nfin ? 1 : 0;
        work[nwork++] = small;
        in_work[small] = 1;
    }
    while (nwork) {
        int32_t b = work[--nwork];
        in_work[b] = 0;
        int64_t size = past[b] - first[b];
        memcpy(splitter, elems + first[b], size * sizeof *splitter);
        for (int64_t a = 0; a < k; a++) {
            int64_t ntouched = 0;
            for (int64_t i = 0; i < size; i++) {
                int64_t key = (int64_t)splitter[i] * k + a;
                for (int64_t e = off[key]; e < off[key + 1]; e++) {
                    /* each state has one a-edge, so it is marked once: move
                     * it to the marked front of its block */
                    int32_t p = rev[e], bb = blk[p];
                    if (!cnt[bb])
                        touched[ntouched++] = bb;
                    int32_t at = first[bb] + cnt[bb]++, other = elems[at];
                    elems[loc[p]] = other;
                    loc[other] = loc[p];
                    elems[at] = p;
                    loc[p] = at;
                }
            }
            for (int64_t i = 0; i < ntouched; i++) {
                int32_t bb = touched[i], c = cnt[bb];
                cnt[bb] = 0;
                if (c == past[bb] - first[bb])
                    continue;
                int32_t nb = (int32_t)blocks++;
                first[nb] = first[bb];
                past[nb] = first[bb] + c;
                first[bb] += c;
                for (int32_t e = first[nb]; e < past[nb]; e++)
                    blk[elems[e]] = nb;
                int32_t push = nb;
                if (!in_work[bb] && past[nb] - first[nb] > past[bb] - first[bb])
                    push = bb;
                work[nwork++] = push;
                in_work[push] = 1;
            }
        }
    }

    int32_t bsink = blk[sink], binit = blk[0];
    if (binit == bsink) {
        *count_out = 0;
        rc = NATIVE_OK;
        goto out;
    }
    /* the quotient from the initial class, BFS, the sink's class left out */
    renum = malloc(blocks * sizeof *renum);
    out = malloc(blocks * kk * sizeof *out);
    fout = malloc(blocks * sizeof *fout);
    if (!renum || !out || !fout)
        goto out;
    for (int64_t b = 0; b < blocks; b++)
        renum[b] = -1;
    int64_t count = 1, nf = 0;
    renum[binit] = 0;
    splitter[0] = binit;  /* splitter now lists the classes in their new order */
    for (int64_t i = 0; i < count; i++) {
        int64_t rep = elems[first[splitter[i]]];
        if (fin[rep])
            fout[nf++] = (int32_t)i;
        for (int64_t a = 0; a < k; a++) {
            int32_t tb = blk[d[rep * k + a]];
            if (tb == bsink) {
                out[i * k + a] = -1;
                continue;
            }
            if (renum[tb] < 0) {
                renum[tb] = (int32_t)count;
                splitter[count++] = tb;
            }
            out[i * k + a] = renum[tb];
        }
    }
    *count_out = count;
    *nfinals_out = nf;
    *delta_out = out;
    *finals_out = fout;
    out = fout = NULL;
    rc = NATIVE_OK;
out:
    free(num);
    free(order);
    free(d);
    free(fin);
    free(off);
    free(rev);
    free(elems);
    free(loc);
    free(blk);
    free(first);
    free(past);
    free(cnt);
    free(touched);
    free(work);
    free(in_work);
    free(splitter);
    free(renum);
    free(out);
    free(fout);
    return rc;
}

/* ------------------------------------------------------------ front end
 *
 * What closures.closure_dfa does before the closure kernels, in one
 * call: `closure_front` reads an automaton's successor table, finds its
 * strongly connected components as core.strong_components does, and
 * prepares one closure from them: for an up-closure of a finite language
 * the words of the language, which the cone takes, and otherwise the up-
 * or down-closure NFA's rows, its initial and final sets, which the
 * subset construction takes.  `strong_components` finds the same
 * components for a caller that reads them in Python. */

/* An automaton's successor table: n states, k letters, and either a DFA's
 * n * k targets, -1 for none, or an NFA's n * k rows: row r, the
 * successors of state r / k on letter r % k, is the run words[off[r] ..
 * end[r]), or the one word words[r] when off is NULL (n <= 64). */
typedef struct {
    int64_t n, k;
    const int32_t *dfa;
    const uint64_t *words;
    const int64_t *off, *end;
} table;

/* Whether every target of t is a state of t. */
static int table_ok(const table *t)
{
    int64_t cells = t->n * t->k;
    if (t->dfa) {
        for (int64_t i = 0; i < cells; i++)
            if (t->dfa[i] < -1 || t->dfa[i] >= t->n)
                return 0;
        return 1;
    }
    if (t->off)
        return runs_below(t->off, t->end, cells, t->words, t->n);
    if (t->n > 64)
        return 0;
    uint64_t over = t->n % 64 ? ~(uint64_t)0 << (t->n % 64) : 0;
    for (int64_t i = 0; i < cells; i++)
        if (t->words[i] & over)
            return 0;
    return 1;
}

/* Row r of an NFA table: its words, *len of them. */
static const uint64_t *table_row(const table *t, int64_t r, int64_t *len)
{
    if (!t->off) {
        *len = 1;
        return t->words + r;
    }
    *len = t->end[r] - t->off[r];
    return t->words + t->off[r];
}

/* OR into acc the targets of row r of t, target q as bit pos[q] (bit q
 * when pos is NULL), and raise *acc_len to the words in use. */
static void or_targets(const table *t, int64_t r, const int32_t *pos, uint64_t *acc,
                       int64_t *acc_len)
{
    if (t->dfa) {
        int64_t q = t->dfa[r];
        if (q < 0)
            return;
        q = pos ? pos[q] : q;
        acc[q / 64] |= (uint64_t)1 << (q % 64);
        if (q / 64 + 1 > *acc_len)
            *acc_len = q / 64 + 1;
        return;
    }
    int64_t len;
    const uint64_t *run = table_row(t, r, &len);
    for (int64_t j = 0; j < len; j++) {
        if (!run[j])
            continue;
        if (!pos) {
            acc[j] |= run[j];
            if (j + 1 > *acc_len)
                *acc_len = j + 1;
            continue;
        }
        for (uint64_t m = run[j]; m; m &= m - 1) {
            int64_t q = pos[j * 64 + __builtin_ctzll(m)];
            acc[q / 64] |= (uint64_t)1 << (q % 64);
            if (q / 64 + 1 > *acc_len)
                *acc_len = q / 64 + 1;
        }
    }
}

/* Append the members of acc (*acc_len words) to *out (at *used, room for
 * *cap), ascending, and clear acc. */
static int drain_bits(uint64_t *acc, int64_t *acc_len, int32_t **out, int64_t *used,
                      int64_t *cap)
{
    int64_t count = 0;
    for (int64_t j = 0; j < *acc_len; j++)
        count += __builtin_popcountll(acc[j]);
    int32_t *o = reserve(*out, cap, *used + count, sizeof *o);
    if (!o)
        return NATIVE_NOMEM;
    *out = o;
    for (int64_t j = 0; j < *acc_len; j++) {
        for (uint64_t m = acc[j]; m; m &= m - 1)
            o[(*used)++] = (int32_t)(j * 64 + __builtin_ctzll(m));
        acc[j] = 0;
    }
    *acc_len = 0;
    return NATIVE_OK;
}

/* Sort the n ids of x ascending: by insertion when there are few. */
static void sort_ids(int32_t *x, int64_t n)
{
    if (n > 16) {
        qsort(x, n, sizeof *x, cmp_i32);
        return;
    }
    for (int64_t i = 1; i < n; i++) {
        int32_t v = x[i];
        int64_t j = i;
        for (; j > 0 && x[j - 1] > v; j--)
            x[j] = x[j - 1];
        x[j] = v;
    }
}

/* The components of core.strong_components, and the table they were
 * found in.  Component c lists members[comp_off[c] .. comp_off[c + 1]),
 * in the order Tarjan's stack gives them up, and enters the components
 * below[below_off[c] .. below_off[c + 1]), ascending; components come in
 * reverse topological order.  adj[adj_off[q] .. adj_off[q + 1]) are the
 * distinct successors of state q on any letter, ascending. */
typedef struct {
    table t;
    int64_t ncomps, nbelow;
    int32_t *comp_of, *members, *below, *adj;
    int64_t *comp_off, *below_off, *adj_off;
} components;

static void components_free(components *c)
{
    if (!c)
        return;
    free(c->comp_of);
    free(c->members);
    free(c->below);
    free(c->adj);
    free(c->comp_off);
    free(c->below_off);
    free(c->adj_off);
    free(c);
}

/* Fill c->adj and c->adj_off from c->t. */
static int adjacency(components *c)
{
    const table *t = &c->t;
    int64_t n = t->n, k = t->k, used = 0, cap = n + 16;
    int rc = NATIVE_NOMEM;
    int32_t *seen = NULL;
    uint64_t *acc = NULL;
    c->adj_off = malloc((n + 1) * sizeof *c->adj_off);
    c->adj = malloc(cap * sizeof *c->adj);
    if (!c->adj_off || !c->adj)
        return rc;
    c->adj_off[0] = 0;
    if (t->dfa) {
        /* at most k targets a state: marked once each by `seen` */
        if (!(seen = malloc((n + 1) * sizeof *seen)))
            goto out;
        for (int64_t q = 0; q < n; q++)
            seen[q] = -1;
        for (int64_t q = 0; q < n; q++) {
            int32_t *adj = reserve(c->adj, &cap, used + k, sizeof *adj);
            if (!adj)
                goto out;
            c->adj = adj;
            int64_t first = used;
            for (int64_t a = 0; a < k; a++) {
                int32_t r = t->dfa[q * k + a];
                if (r >= 0 && seen[r] != q) {
                    seen[r] = (int32_t)q;
                    adj[used++] = r;
                }
            }
            sort_ids(adj + first, used - first);
            c->adj_off[q + 1] = used;
        }
    } else {
        int64_t acc_len = 0;
        if (!(acc = calloc((n + 63) / 64 + 1, sizeof *acc)))
            goto out;
        for (int64_t q = 0; q < n; q++) {
            for (int64_t a = 0; a < k; a++)
                or_targets(t, q * k + a, NULL, acc, &acc_len);
            if (drain_bits(acc, &acc_len, &c->adj, &used, &cap) != NATIVE_OK)
                goto out;
            c->adj_off[q + 1] = used;
        }
    }
    rc = NATIVE_OK;
out:
    free(seen);
    free(acc);
    return rc;
}

/* A state that Tarjan's search will return to: the edge of it to take
 * next, and its low link. */
typedef struct {
    int64_t v, e, low;
} frame;

/* The strongly connected components of the table t, letters ignored,
 * exactly as core.strong_components finds them: roots in ascending order,
 * each state's edges lowest target first.  On NATIVE_OK, *out holds them,
 * to be released with components_free; NATIVE_BADINPUT for a target out
 * of range. */
static int find_components(const table *t, components **out)
{
    components *c = calloc(1, sizeof *c);
    int32_t *index = NULL, *stack = NULL, *stamp = NULL;
    frame *path = NULL;
    int64_t n = t->n;
    int rc = NATIVE_NOMEM;
    if (!c)
        return rc;
    c->t = *t;
    if (n < 0 || t->k < 0 || !table_ok(t)) {
        rc = NATIVE_BADINPUT;
        goto out;
    }
    int64_t bcap = n + 16, nb = 0, nm = 0, nc = 0, sp = 0, counter = 0;
    c->comp_of = malloc((n + 1) * sizeof *c->comp_of);
    c->members = malloc((n + 1) * sizeof *c->members);
    c->comp_off = malloc((n + 1) * sizeof *c->comp_off);
    c->below_off = malloc((n + 1) * sizeof *c->below_off);
    c->below = malloc(bcap * sizeof *c->below);
    index = malloc((n + 1) * sizeof *index);
    stack = malloc((n + 1) * sizeof *stack);
    stamp = malloc((n + 1) * sizeof *stamp);
    path = malloc((n + 1) * sizeof *path);
    if (!c->comp_of || !c->members || !c->comp_off || !c->below_off || !c->below || !index
        || !stack || !stamp || !path || adjacency(c) != NATIVE_OK)
        goto out;
    for (int64_t q = 0; q < n; q++)
        index[q] = c->comp_of[q] = stamp[q] = -1;
    c->comp_off[0] = c->below_off[0] = 0;
    for (int64_t root = 0; root < n; root++) {
        if (index[root] >= 0)
            continue;
        int64_t v = root, e = c->adj_off[v], low = counter, depth = 0;
        index[v] = (int32_t)counter++;
        stack[sp++] = (int32_t)v;
        for (;;) {
            while (e < c->adj_off[v + 1]) {
                int32_t w = c->adj[e++];
                if (index[w] < 0) {
                    path[depth++] = (frame){v, e, low};
                    v = w;
                    e = c->adj_off[v];
                    index[v] = (int32_t)(low = counter++);
                    stack[sp++] = w;
                } else if (index[w] < low && c->comp_of[w] < 0) {
                    low = index[w];
                }
            }
            if (low == index[v]) {
                int64_t first = nm, w;
                do {
                    w = stack[--sp];
                    c->comp_of[w] = (int32_t)nc;
                    c->members[nm++] = (int32_t)w;
                } while (w != v);
                int64_t from = nb;
                for (int64_t i = first; i < nm; i++) {
                    int64_t q = c->members[i];
                    for (int64_t j = c->adj_off[q]; j < c->adj_off[q + 1]; j++) {
                        int32_t d = c->comp_of[c->adj[j]];
                        if (d == nc || stamp[d] == nc)
                            continue;
                        stamp[d] = (int32_t)nc;
                        int32_t *below = reserve(c->below, &bcap, nb + 1, sizeof *below);
                        if (!below)
                            goto out;
                        c->below = below;
                        below[nb++] = d;
                    }
                }
                sort_ids(c->below + from, nb - from);
                nc++;
                c->comp_off[nc] = nm;
                c->below_off[nc] = nb;
            }
            if (!depth)
                break;
            frame f = path[--depth];
            v = f.v;
            e = f.e;
            if (f.low < low)
                low = f.low;
        }
    }
    c->ncomps = nc;
    c->nbelow = nb;
    *out = c;
    c = NULL;
    rc = NATIVE_OK;
out:
    components_free(c);
    free(index);
    free(stack);
    free(stamp);
    free(path);
    return rc;
}

/* The strong components of the table (n, k, dfa or words, off and end:
 * see `table`) as Python reads them: on NATIVE_OK, *out holds *len items,
 * ncomps, nbelow, then comp_of, members, comp_off, below_off and below,
 * one after the other.  NATIVE_BADINPUT for a target out of range. */
int strong_components(int32_t n, int32_t k, const int32_t *dfa, const uint64_t *words,
                      const int64_t *off, const int64_t *end, int64_t **out, int64_t *len)
{
    table t = {n, k, dfa, words, off, end};
    components *c = NULL;
    int rc = find_components(&t, &c);
    if (rc != NATIVE_OK)
        return rc;
    int64_t m = c->ncomps, *x = malloc((2 + 2 * (int64_t)n + 2 * (m + 1) + c->nbelow) * sizeof *x);
    if (!x) {
        components_free(c);
        return NATIVE_NOMEM;
    }
    *out = x;
    *len = 2 + 2 * (int64_t)n + 2 * (m + 1) + c->nbelow;
    *x++ = m;
    *x++ = c->nbelow;
    for (int64_t q = 0; q < n; q++) {
        x[q] = c->comp_of[q];
        x[n + q] = c->members[q];
    }
    x += 2 * (int64_t)n;
    for (int64_t i = 0; i <= m; i++) {
        x[i] = c->comp_off[i];
        x[m + 1 + i] = c->below_off[i];
    }
    x += 2 * (m + 1);
    for (int64_t i = 0; i < c->nbelow; i++)
        x[i] = c->below[i];
    components_free(c);
    return NATIVE_OK;
}

/* What closure_front prepares.  For the cone, nwords >= 0 words, in the
 * order of Python's tuples, word i being letters[word_off[i] ..
 * word_off[i + 1]).  For the subset construction, nwords is -1 and the
 * closure NFA is n states: its rows (see rows_t; rows of one component
 * may share a run), its initial set, reduced already when `reduced` is
 * set, and its final set, as runs. */
typedef struct {
    int64_t nwords;
    int32_t *letters;
    int64_t *word_off;
    int64_t reduced;
    uint64_t *words;
    int64_t *row_off, *row_end;
    uint64_t *init, *fin;
    int64_t init_len, fin_len;
} front;

void front_free(front *f)
{
    if (!f)
        return;
    free(f->letters);
    free(f->word_off);
    free(f->words);
    free(f->row_off);
    free(f->row_end);
    free(f->init);
    free(f->fin);
    free(f);
}

/* The members of the `count` states `ids`, state q as bit pos[q] (q when
 * pos is NULL), as a run of n-state sets: written to *run, its length to
 * *len. */
static int run_of(const int32_t *ids, int64_t count, const int32_t *pos, int64_t n,
                  uint64_t **run, int64_t *len)
{
    uint64_t *x = calloc((n + 63) / 64 + 1, sizeof *x);
    if (!x)
        return NATIVE_NOMEM;
    int64_t top = 0;
    for (int64_t i = 0; i < count; i++) {
        int64_t q = pos ? pos[ids[i]] : ids[i];
        x[q / 64] |= (uint64_t)1 << (q % 64);
        if (q / 64 + 1 > top)
            top = q / 64 + 1;
    }
    *run = x;
    *len = top;
    return NATIVE_OK;
}

/* A growing pool of runs. */
typedef struct {
    uint64_t *words;
    int64_t used, cap;
} pool;

/* Append the run acc (len words, trimmed of zero high words) to p, clear
 * acc, and give its place as [*off, *end). */
static int pool_add(pool *p, uint64_t *acc, int64_t len, int64_t *off, int64_t *end)
{
    while (len && !acc[len - 1])
        len--;
    uint64_t *words = reserve(p->words, &p->cap, p->used + len, sizeof *words);
    if (!words)
        return NATIVE_NOMEM;
    p->words = words;
    memcpy(words + p->used, acc, len * sizeof *acc);
    memset(acc, 0, len * sizeof *acc);
    *off = p->used;
    *end = p->used += len;
    return NATIVE_OK;
}

/* The words of the finite language of the table, given its useful
 * states (reachable and co-reachable, each a component of its own with
 * no self-loop, so that they form a DAG) and the final ones: into f, in
 * the order of Python's sorted tuples, as closures._finite_language
 * lists them.  The search runs from each useful initial state along the
 * useful states only; *found is 0 when it takes more than step_cap steps
 * (a step per path), finds more than word_cap distinct words, or their
 * suffixes (a word's length + 1) total more than suffix_cap. */
typedef struct {
    int64_t q, e;
} dfs_frame;

static int finite_words(const table *t, const char *useful, const char *final,
                        const int32_t *initial, int64_t ninitial, int64_t word_cap,
                        int64_t suffix_cap, int64_t step_cap, front *f, int *found)
{
    int64_t n = t->n, k = t->k, used = 0, cap = 64, acc_len = 0;
    int rc = NATIVE_NOMEM;
    int64_t *eoff = malloc((n + 1) * sizeof *eoff), *order = NULL;
    int32_t *edges = malloc(cap * sizeof *edges);  /* (letter, target) pairs */
    uint64_t *acc = calloc((n + 63) / 64 + 1, sizeof *acc), *path = NULL;
    int32_t *targets = NULL;
    int64_t tused = 0, tcap = 64;
    dfs_frame *stack = malloc((n + 1) * sizeof *stack);
    state_set set;
    int set_rc = set_init(&set, 0, 0, 64);
    *found = 0;
    path = malloc((n + 1) * sizeof *path);
    targets = malloc(tcap * sizeof *targets);
    if (!eoff || !edges || !acc || !stack || !path || !targets || set_rc != NATIVE_OK)
        goto out;
    /* each useful state's (letter, useful target) edges, in letter order */
    eoff[0] = 0;
    for (int64_t q = 0; q < n; q++) {
        if (useful[q]) {
            for (int64_t a = 0; a < k; a++) {
                tused = 0;
                or_targets(t, q * k + a, NULL, acc, &acc_len);
                if (drain_bits(acc, &acc_len, &targets, &tused, &tcap) != NATIVE_OK)
                    goto out;
                for (int64_t i = 0; i < tused; i++) {
                    if (!useful[targets[i]])
                        continue;
                    int32_t *e = reserve(edges, &cap, used + 2, sizeof *e);
                    if (!e)
                        goto out;
                    edges = e;
                    edges[used++] = (int32_t)a;
                    edges[used++] = targets[i];
                }
            }
        }
        eoff[q + 1] = used;
    }
    int64_t steps = 0;
    for (int64_t i = 0; i < ninitial; i++) {
        int64_t q = initial[i], depth = 0;
        if (!useful[q])
            continue;
        stack[0] = (dfs_frame){q, eoff[q]};
        for (;;) {
            if (++steps > step_cap) {
                rc = NATIVE_OK;
                goto out;
            }
            if (final[stack[depth].q]) {
                int r = NATIVE_OK;
                if (number(&set, path, depth, hash_words(path, depth), word_cap, &r) < 0) {
                    if (r != NATIVE_BUDGET)
                        goto out;
                    rc = NATIVE_OK;
                    goto out;
                }
            }
            /* the next edge to take, backing up past exhausted states */
            while (depth >= 0 && stack[depth].e == eoff[stack[depth].q + 1])
                depth--;
            if (depth < 0)
                break;
            int64_t e = stack[depth].e;
            stack[depth].e += 2;
            path[depth] = (uint64_t)edges[e];
            depth++;
            stack[depth] = (dfs_frame){edges[e + 1], eoff[edges[e + 1]]};
        }
    }
    int64_t total = 0;
    for (int64_t w = 0; w < set.count; w++)
        total += set.off[w + 1] - set.off[w] + 1;
    if (total > suffix_cap) {
        rc = NATIVE_OK;
        goto out;
    }
    /* sort the words as tuples: by their letters, a prefix first */
    if (!(order = malloc((set.count + 1) * sizeof *order)))
        goto out;
    for (int64_t w = 0; w < set.count; w++) {
        int64_t j = w;
        for (; j > 0; j--) {
            int64_t xl, yl;
            const uint64_t *x = state(&set, order[j - 1], &xl), *y = state(&set, w, &yl);
            int64_t m = 0;
            while (m < xl && m < yl && x[m] == y[m])
                m++;
            /* words are distinct: x ends first only as a proper prefix */
            if (m == xl || (m < yl && x[m] < y[m]))
                break;
            order[j] = order[j - 1];
        }
        order[j] = w;
    }
    f->letters = malloc((total - set.count + 1) * sizeof *f->letters);
    f->word_off = malloc((set.count + 1) * sizeof *f->word_off);
    if (!f->letters || !f->word_off)
        goto out;
    f->word_off[0] = 0;
    for (int64_t i = 0; i < set.count; i++) {
        int64_t len, at = f->word_off[i];
        const uint64_t *x = state(&set, order[i], &len);
        for (int64_t j = 0; j < len; j++)
            f->letters[at + j] = (int32_t)x[j];
        f->word_off[i + 1] = at + len;
    }
    f->nwords = set.count;
    *found = 1;
    rc = NATIVE_OK;
out:
    free(eoff);
    free(order);
    free(edges);
    free(acc);
    free(path);
    free(targets);
    free(stack);
    set_free(&set);
    return rc;
}

/* The rows of the up-closure NFA of the table (closures.up_closure): each
 * state's own rows, and a self-loop on every letter. */
static int up_rows(const table *t, front *f)
{
    int64_t n = t->n, k = t->k, acc_len = 0;
    pool p = {NULL, 0, n * k + 16};
    uint64_t *acc = calloc((n + 63) / 64 + 1, sizeof *acc);
    p.words = malloc(p.cap * sizeof *p.words);
    if (!acc || !p.words) {
        free(acc);
        free(p.words);
        return NATIVE_NOMEM;
    }
    int rc = NATIVE_OK;
    for (int64_t r = 0; r < n * k && rc == NATIVE_OK; r++) {
        int64_t q = r / k;
        or_targets(t, r, NULL, acc, &acc_len);
        acc[q / 64] |= (uint64_t)1 << (q % 64);
        if (q / 64 + 1 > acc_len)
            acc_len = q / 64 + 1;
        rc = pool_add(&p, acc, acc_len, f->row_off + r, f->row_end + r);
        acc_len = 0;
    }
    free(acc);
    f->words = p.words;
    return rc;
}

/* The rows of the down-closure NFA of the table (closures._down_closure),
 * state q renumbered pos[q] (q when pos is NULL): the rows of a component
 * are the OR of its members' rows and of the rows of the components it
 * enters, built once, below first, and shared by its members. */
static int down_rows(const components *c, const int32_t *pos, front *f)
{
    const table *t = &c->t;
    int64_t n = t->n, k = t->k, acc_len = 0;
    pool p = {NULL, 0, n * k + 16};
    int64_t *coff = malloc((c->ncomps * k + 1) * sizeof *coff);
    int64_t *cend = malloc((c->ncomps * k + 1) * sizeof *cend);
    uint64_t *acc = calloc((n + 63) / 64 + 1, sizeof *acc);
    int rc = NATIVE_NOMEM;
    p.words = malloc(p.cap * sizeof *p.words);
    if (!coff || !cend || !acc || !p.words)
        goto out;
    for (int64_t comp = 0; comp < c->ncomps; comp++) {
        for (int64_t a = 0; a < k; a++) {
            for (int64_t i = c->comp_off[comp]; i < c->comp_off[comp + 1]; i++)
                or_targets(t, c->members[i] * k + a, pos, acc, &acc_len);
            for (int64_t i = c->below_off[comp]; i < c->below_off[comp + 1]; i++) {
                int64_t r = c->below[i] * k + a;
                const uint64_t *run = p.words + coff[r];
                int64_t len = cend[r] - coff[r];
                for (int64_t j = 0; j < len; j++)
                    acc[j] |= run[j];
                if (len > acc_len)
                    acc_len = len;
            }
            if ((rc = pool_add(&p, acc, acc_len, coff + comp * k + a, cend + comp * k + a))
                != NATIVE_OK)
                goto out;
            acc_len = 0;
        }
    }
    for (int64_t q = 0; q < n; q++) {
        int64_t to = (pos ? pos[q] : q) * k, from = c->comp_of[q] * k;
        for (int64_t a = 0; a < k; a++) {
            f->row_off[to + a] = coff[from + a];
            f->row_end[to + a] = cend[from + a];
        }
    }
    rc = NATIVE_OK;
out:
    f->words = p.words;
    free(coff);
    free(cend);
    free(acc);
    return rc;
}

/* Prepare closure_dfa's closure of the automaton whose components c are
 * (see find_components), with the `ninitial` initial states `initial`
 * and the `nfinal` final states `final`, as closures.closure_dfa's pure
 * composition does.
 *
 * Up: when every useful component is one state without a self-loop, the
 * language is finite, and its words go to the cone unless the caps stop
 * their search (see finite_words); otherwise the up-closure NFA's rows.
 * Down: the down-closure NFA, on inputs of more than reduce_min states
 * renumbered, when an edge enters a lower state, so that components come
 * in topological order, each one's members contiguous (the order of
 * closures._reduced_down_closure), and its initial set reduced to its
 * `maximal` part.  Its final states are those whose component reaches a
 * final state.  On NATIVE_OK, *out is to be released with front_free. */
static int front_of(const components *c, const int32_t *initial, int64_t ninitial,
                    const int32_t *final, int64_t nfinal, int32_t up, int64_t reduce_min,
                    int64_t word_cap, int64_t suffix_cap, int64_t step_cap, front **out)
{
    const table *t = &c->t;
    int64_t n = t->n, k = t->k, nc = c->ncomps;
    front *f = calloc(1, sizeof *f);
    char *co = calloc(nc + 1, 1), *fwd = calloc(nc + 1, 1);
    char *useful = calloc(n + 1, 1), *is_final = calloc(n + 1, 1);
    int32_t *pos = NULL, *keep = NULL;
    uint64_t *red = NULL;
    int rc = NATIVE_NOMEM;
    if (!f || !co || !fwd || !useful || !is_final)
        goto out;
    rc = NATIVE_BADINPUT;
    for (int64_t i = 0; i < ninitial; i++)
        if (initial[i] < 0 || initial[i] >= n)
            goto out;
    for (int64_t i = 0; i < nfinal; i++) {
        if (final[i] < 0 || final[i] >= n)
            goto out;
        is_final[final[i]] = 1;
        co[c->comp_of[final[i]]] = 1;
    }
    rc = NATIVE_NOMEM;
    /* usefulness, as core._usefulness: `below` comes first */
    for (int64_t i = 0; i < nc; i++)
        for (int64_t j = c->below_off[i]; j < c->below_off[i + 1] && !co[i]; j++)
            co[i] = co[c->below[j]];
    for (int64_t i = 0; i < ninitial; i++)
        fwd[c->comp_of[initial[i]]] = 1;
    for (int64_t i = nc - 1; i >= 0; i--)
        if (fwd[i])
            for (int64_t j = c->below_off[i]; j < c->below_off[i + 1]; j++)
                fwd[c->below[j]] = 1;
    f->nwords = -1;
    if (up) {
        int finite = 1;
        for (int64_t i = 0; i < nc && finite; i++) {
            if (!fwd[i] || !co[i])
                continue;
            int64_t q = c->members[c->comp_off[i]];
            finite = c->comp_off[i + 1] - c->comp_off[i] == 1;
            for (int64_t j = c->adj_off[q]; j < c->adj_off[q + 1] && finite; j++)
                finite = c->adj[j] != q;
            useful[q] = 1;
        }
        if (finite) {
            int found;
            if ((rc = finite_words(t, useful, is_final, initial, ninitial, word_cap, suffix_cap,
                                   step_cap, f, &found)) != NATIVE_OK)
                goto out;
            if (found)
                goto done;
        }
    }
    rc = NATIVE_NOMEM;
    f->row_off = malloc((n * k + 1) * sizeof *f->row_off);
    f->row_end = malloc((n * k + 1) * sizeof *f->row_end);
    if (!f->row_off || !f->row_end)
        goto out;
    if (up) {
        if ((rc = up_rows(t, f)) != NATIVE_OK
            || (rc = run_of(initial, ninitial, NULL, n, &f->init, &f->init_len)) != NATIVE_OK
            || (rc = run_of(final, nfinal, NULL, n, &f->fin, &f->fin_len)) != NATIVE_OK)
            goto out;
        goto done;
    }
    f->reduced = n > reduce_min;
    for (int64_t q = 0; q < n && f->reduced && !pos; q++)
        if (c->adj_off[q] < c->adj_off[q + 1] && c->adj[c->adj_off[q]] < q) {
            /* an edge into a lower state: number the components sinks
             * last, as reversed(comps) lists them */
            if (!(pos = malloc((n + 1) * sizeof *pos)))
                goto out;
            for (int64_t i = nc - 1, j = 0; i >= 0; i--)
                for (int64_t m = c->comp_off[i]; m < c->comp_off[i + 1]; m++)
                    pos[c->members[m]] = (int32_t)j++;
        }
    if (!(keep = malloc((n + 1) * sizeof *keep)))
        goto out;
    int64_t nkeep = 0;
    for (int64_t q = 0; q < n; q++)
        if (co[c->comp_of[q]])
            keep[nkeep++] = (int32_t)q;
    if ((rc = down_rows(c, pos, f)) != NATIVE_OK
        || (rc = run_of(initial, ninitial, pos, n, &f->init, &f->init_len)) != NATIVE_OK
        || (rc = run_of(keep, nkeep, pos, n, &f->fin, &f->fin_len)) != NATIVE_OK)
        goto out;
    if (f->reduced && f->init_len) {
        rows_t rows = {f->words, f->row_off, f->row_end};
        if (!(red = calloc(f->init_len + 1, sizeof *red))) {
            rc = NATIVE_NOMEM;
            goto out;
        }
        f->init_len = maximal(f->init, f->init_len, &rows, k, red);
        free(f->init);
        f->init = red;
        red = NULL;
    }
done:
    *out = f;
    f = NULL;
    rc = NATIVE_OK;
out:
    front_free(f);
    free(co);
    free(fwd);
    free(useful);
    free(is_final);
    free(pos);
    free(keep);
    free(red);
    return rc;
}

/* The components of the table (n, k, dfa or words, off and end: see
 * `table`), as strong_components finds them, and then front_of them: one
 * call from Python for closure_dfa's whole front end. */
int closure_front(int32_t n, int32_t k, const int32_t *dfa, const uint64_t *words,
                  const int64_t *off, const int64_t *end, const int32_t *initial,
                  int64_t ninitial, const int32_t *final, int64_t nfinal, int32_t up,
                  int64_t reduce_min, int64_t word_cap, int64_t suffix_cap, int64_t step_cap,
                  front **out)
{
    table t = {n, k, dfa, words, off, end};
    components *c = NULL;
    int rc = find_components(&t, &c);
    if (rc == NATIVE_OK)
        rc = front_of(c, initial, ninitial, final, nfinal, up, reduce_min, word_cap, suffix_cap,
                      step_cap, out);
    components_free(c);
    return rc;
}

void native_free(void *p)
{
    free(p);
}
