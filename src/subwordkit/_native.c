/* The compiled kernels of subwordkit._native: the cone BFS, subset
 * construction and Hopcroft minimisation of _kernels_py, with the same
 * numbering, budget rule and results.
 *
 * A set of ids is a bitset of uint64 words, bit s of word s / 64 for id
 * s.  A cone state, an antichain of suffix ids, has the fixed width
 * ceil(n / 64).  A subset of NFA states, like a row of the NFA's
 * successor table, is a run trimmed of its zero high words: equal sets
 * have equal runs, and a run takes no more room than the Python int it
 * stands for, so a few subsets of a large NFA cost no n-squared table.
 * The BFS constructions number their states in BFS order, letters in
 * index order, and keep them in one word pool, found again through an
 * open-addressing table of state numbers; the state that would be number
 * budget + 1 returns NATIVE_BUDGET.
 *
 * Plain C ABI, no Python.h; built and loaded by _native.py.  Every array
 * that an output pointer receives is released with native_free.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { NATIVE_OK = 0, NATIVE_BUDGET = 1, NATIVE_NOMEM = 2, NATIVE_BADINPUT = 3 };

typedef struct {
    int64_t k;          /* letters: targets per state */
    int64_t width;      /* words per state, or 0: runs of any length, by `off` */
    int64_t count;      /* states numbered so far */
    int64_t cap;        /* states that `off` and `delta` have room for */
    int64_t *off;       /* width 0: count + 1 offsets, state j is words[off[j] .. off[j + 1]) */
    uint64_t *words;
    int64_t wcap;       /* words that `words` has room for */
    int32_t *delta;     /* count * k targets */
    int32_t *slots;     /* state number + 1, or 0 for an empty slot */
    uint64_t nslots;    /* a power of two, at least twice count */
} state_set;

/* An empty set of states of `width` words each, or of runs of any length
 * for width 0.  The cone's states have a fixed width, which spares it an
 * offset per state: 10 MB on the 1,325,951 states of twoLetter(4). */
static int set_init(state_set *s, int64_t k, int64_t width)
{
    s->k = k;
    s->width = width;
    s->count = 0;
    s->cap = 1024;
    s->wcap = 1024 * (width ? width : 1);
    s->nslots = 2048;
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

static uint64_t hash_words(const uint64_t *x, int64_t len)
{
    uint64_t h = 0x9e3779b97f4a7c15u;
    for (int64_t i = 0; i < len; i++) {
        h = (h ^ x[i]) * 0xff51afd7ed558ccdu;
        h ^= h >> 32;
    }
    /* the final mix of MurmurHash3: the table reads the low bits, which
     * the loop alone leaves clustered on small sets (3.4 probes a lookup
     * on the subsets of D(13), 1.7 with it) */
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53u;
    h ^= h >> 33;
    return h;
}

/* The slot that holds x, len words, or the empty slot where x would go. */
static uint64_t find(const state_set *s, const uint64_t *x, int64_t len)
{
    uint64_t i = hash_words(x, len) & (s->nslots - 1);
    for (;;) {
        int32_t j = s->slots[i];
        if (!j)
            return i;
        int64_t jlen;
        const uint64_t *y = state(s, j - 1, &jlen);
        if (jlen == len && !memcmp(y, x, len * sizeof *x))
            return i;
        i = (i + 1) & (s->nslots - 1);
    }
}

static int grow_slots(state_set *s)
{
    uint64_t n = s->nslots * 2;
    int32_t *slots = calloc(n, sizeof *slots);
    if (!slots)
        return NATIVE_NOMEM;
    free(s->slots);
    s->slots = slots;
    s->nslots = n;
    for (int64_t j = 0; j < s->count; j++) {
        int64_t len;
        const uint64_t *x = state(s, j, &len);
        s->slots[find(s, x, len)] = (int32_t)(j + 1);
    }
    return NATIVE_OK;
}

/* Number x, len words, as state s->count, in slot `at`. */
static int add(state_set *s, const uint64_t *x, int64_t len, uint64_t at)
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
    s->slots[at] = (int32_t)(++s->count);
    if ((uint64_t)s->count * 2 > s->nslots)
        return grow_slots(s);
    return NATIVE_OK;
}

/* The number of x, len words, numbered now if new; -1, with *rc set, when
 * it is new and budget states are numbered already, or on no memory. */
static int64_t number(state_set *s, const uint64_t *x, int64_t len, int64_t budget, int *rc)
{
    uint64_t at = find(s, x, len);
    int64_t t = (int64_t)s->slots[at] - 1;
    if (t >= 0)
        return t;
    if (s->count >= budget) {
        *rc = NATIVE_BUDGET;
        return -1;
    }
    if ((*rc = add(s, x, len, at)) != NATIVE_OK)
        return -1;
    return s->count - 1;
}

/* The antichain cone of _kernels_py.cone_closure.  heads: k * w words,
 * the ids whose head is each letter; tails: n ids; ups: n * w words;
 * start: w words, w = ceil(n / 64).  A state steps on letter a as
 * (st | moved) & ~drop over its members in heads[a] only: a moving id s
 * adds its tail, tails[s], and drops ups[s], the ids that tail strictly
 * embeds into.  A state with no moving member is its own successor.  On
 * NATIVE_OK, *delta_out holds *count_out * k targets, and *final_out is
 * the number of the state {eps}, or -1. */
int cone_closure(int32_t n, int32_t k, const uint64_t *heads, const int32_t *tails,
                 const uint64_t *ups, const uint64_t *start, int32_t eps, int64_t budget,
                 int32_t **delta_out, int64_t *count_out, int64_t *final_out)
{
    int64_t w = (n + 63) / 64;
    state_set s;
    int rc = set_init(&s, k, w);
    uint64_t *buf = calloc(3 * w, sizeof *buf);
    uint64_t *cur = buf, *moved = buf + w, *drop = buf + 2 * w;
    if (rc != NATIVE_OK || !buf) {
        rc = NATIVE_NOMEM;
        goto out;
    }
    if (number(&s, start, w, 1, &rc) < 0)
        goto out;
    for (int64_t i = 0; i < s.count; i++) {
        memcpy(cur, s.words + i * w, w * sizeof *cur);
        for (int32_t a = 0; a < k; a++) {
            const uint64_t *head = heads + (int64_t)a * w;
            int64_t j;
            for (j = 0; j < w && !(cur[j] & head[j]); j++)
                ;
            if (j == w) {
                s.delta[i * k + a] = (int32_t)i;
                continue;
            }
            memset(moved, 0, 2 * w * sizeof *moved);
            for (; j < w; j++) {
                for (uint64_t m = cur[j] & head[j]; m; m &= m - 1) {
                    int64_t id = j * 64 + __builtin_ctzll(m);
                    int32_t t = tails[id];
                    const uint64_t *up = ups + id * w;
                    moved[t / 64] |= (uint64_t)1 << (t % 64);
                    for (int64_t x = 0; x < w; x++)
                        drop[x] |= up[x];
                }
            }
            for (j = 0; j < w; j++)
                moved[j] = (cur[j] | moved[j]) & ~drop[j];
            int64_t t = number(&s, moved, w, budget, &rc);
            if (t < 0)
                goto out;
            s.delta[i * k + a] = (int32_t)t;
        }
    }
    memset(cur, 0, w * sizeof *cur);
    cur[eps / 64] = (uint64_t)1 << (eps % 64);
    *final_out = (int64_t)s.slots[find(&s, cur, w)] - 1;
    *count_out = s.count;
    *delta_out = s.delta;
    s.delta = NULL;
    rc = NATIVE_OK;
out:
    free(buf);
    set_free(&s);
    return rc;
}

/* Whether each of the `count` runs of `words` (offsets off[0..count])
 * fits in ceil(n / 64) words and names no id of n or above. */
static int runs_below(const int64_t *off, int64_t count, const uint64_t *words, int32_t n)
{
    int64_t w = (n + 63) / 64;
    uint64_t over = n % 64 ? ~(uint64_t)0 << (n % 64) : 0;
    for (int64_t r = 0; r < count; r++) {
        int64_t len = off[r + 1] - off[r];
        if (len > w || (len == w && len && words[off[r + 1] - 1] & over))
            return 0;
    }
    return 1;
}

/* _kernels_py.maximal of the run x (len words) into out, which must be
 * zero; x is cleared.  Keep the lowest member, clear its reach (its own
 * bit and its k rows), repeat.  Returns the length of the run in out. */
static int64_t maximal(uint64_t *x, int64_t len, const uint64_t *rows, const int64_t *row_off,
                       int64_t k, uint64_t *out)
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
                const uint64_t *row = rows + row_off[base + a];
                int64_t end = row_off[base + a + 1] - row_off[base + a];
                if (end > len)
                    end = len;
                for (int64_t y = j; y < end; y++)
                    x[y] &= ~row[y];
            }
        }
    }
    return top;
}

/* The powerset construction of _kernels_py.subset_construction.  Row
 * q * k + a, the a-successors of NFA state q, is the run
 * rows[row_off[r] .. row_off[r + 1]); init is a nonzero run.  A subset's
 * k targets are the ORs of its members' rows, each replaced by its
 * `maximal` part when `reduced` is set; the empty target is -1.  On
 * NATIVE_OK, *delta_out holds *count_out * k targets, and subset j is the
 * run (*words_out)[(*off_out)[j] .. (*off_out)[j + 1]). */
int subset_construction(int32_t n, int32_t k, const uint64_t *rows, const int64_t *row_off,
                        const uint64_t *init, int64_t init_len, int32_t reduced, int64_t budget,
                        int32_t **delta_out, uint64_t **words_out, int64_t **off_out,
                        int64_t *count_out)
{
    int64_t w = (n + 63) / 64;
    int64_t init_off[2] = {0, init_len};
    state_set s;
    int rc = set_init(&s, k, 0);
    uint64_t *acc = calloc((k + 1) * w + 1, sizeof *acc);  /* k ORs and a reduced one */
    int64_t *acc_len = calloc(k, sizeof *acc_len);
    if (rc != NATIVE_OK || !acc || !acc_len) {
        rc = NATIVE_NOMEM;
        goto out;
    }
    if (!runs_below(row_off, (int64_t)n * k, rows, n) || !runs_below(init_off, 1, init, n)
        || !init_len || !init[init_len - 1]) {
        rc = NATIVE_BADINPUT;
        goto out;
    }
    uint64_t *red = acc + k * w;
    if (number(&s, init, init_len, 1, &rc) < 0)
        goto out;
    for (int64_t i = 0; i < s.count; i++) {
        /* nothing is numbered while the members are walked, so the pool
         * stays where it is */
        const uint64_t *st = s.words + s.off[i];
        int64_t len = s.off[i + 1] - s.off[i];
        for (int64_t j = 0; j < len; j++) {
            for (uint64_t m = st[j]; m; m &= m - 1) {
                int64_t base = (j * 64 + __builtin_ctzll(m)) * k;
                for (int64_t a = 0; a < k; a++) {
                    const uint64_t *row = rows + row_off[base + a];
                    int64_t rl = row_off[base + a + 1] - row_off[base + a];
                    uint64_t *x = acc + a * w;
                    for (int64_t y = 0; y < rl; y++)
                        x[y] |= row[y];
                    if (rl > acc_len[a])
                        acc_len[a] = rl;
                }
            }
        }
        for (int64_t a = 0; a < k; a++) {
            /* the longest row has a nonzero top word, so the OR is trimmed */
            uint64_t *x = acc + a * w;
            int64_t xl = acc_len[a];
            acc_len[a] = 0;
            if (reduced && xl) {
                xl = maximal(x, xl, rows, row_off, k, red);
                x = red;
            }
            int64_t t = -1;
            if (xl && (t = number(&s, x, xl, budget, &rc)) < 0)
                goto out;
            memset(x, 0, xl * sizeof *x);
            s.delta[i * k + a] = (int32_t)t;
        }
    }
    *count_out = s.count;
    *delta_out = s.delta;
    *words_out = s.words;
    *off_out = s.off;
    s.delta = NULL;
    s.words = NULL;
    s.off = NULL;
    rc = NATIVE_OK;
out:
    free(acc);
    free(acc_len);
    set_free(&s);
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

void native_free(void *p)
{
    free(p);
}
