/* The antichain cone BFS of subwordkit._cone_c: the step and numbering
 * of _kernels_py.cone_closure over fixed-width bitsets.
 *
 * A state is the set of its pending suffix ids, w = ceil(n / 64) uint64
 * words, bit s of word s / 64 for id s.  States are numbered in BFS order,
 * letters in index order, and kept in one array, found again through an
 * open-addressing table of state numbers.  A state steps on letter a as
 * (st | moved) & ~drop over its members in heads[a] only: a moving id s
 * adds its tail, tails[s], and drops ups[s], the ids that tail strictly
 * embeds into.  A state with no moving member is its own successor.
 *
 * Plain C ABI, no Python.h; built and loaded by _cone_c.py.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { CONE_OK = 0, CONE_BUDGET = 1, CONE_NOMEM = 2 };

typedef struct {
    int64_t w;          /* words per state */
    int64_t k;          /* letters */
    int64_t count;      /* states numbered so far */
    int64_t cap;        /* states that `states` and `delta` have room for */
    uint64_t *states;   /* count * w words */
    int32_t *delta;     /* count * k targets */
    int32_t *slots;     /* state number + 1, or 0 for an empty slot */
    uint64_t nslots;    /* a power of two, at least twice count */
} cone_set;

static uint64_t hash_words(const uint64_t *x, int64_t w)
{
    uint64_t h = 0x9e3779b97f4a7c15u;
    for (int64_t i = 0; i < w; i++) {
        h = (h ^ x[i]) * 0xff51afd7ed558ccdu;
        h ^= h >> 32;
    }
    return h;
}

/* The slot that holds x, or the empty slot where x would go. */
static uint64_t find(const cone_set *s, const uint64_t *x)
{
    uint64_t i = hash_words(x, s->w) & (s->nslots - 1);
    for (;;) {
        int32_t j = s->slots[i];
        if (!j || !memcmp(s->states + (j - 1) * s->w, x, s->w * sizeof *x))
            return i;
        i = (i + 1) & (s->nslots - 1);
    }
}

static int grow_slots(cone_set *s)
{
    uint64_t n = s->nslots * 2;
    int32_t *slots = calloc(n, sizeof *slots);
    if (!slots)
        return CONE_NOMEM;
    free(s->slots);
    s->slots = slots;
    s->nslots = n;
    for (int64_t j = 0; j < s->count; j++)
        s->slots[find(s, s->states + j * s->w)] = (int32_t)(j + 1);
    return CONE_OK;
}

/* Number x as state s->count, in slot `at`. */
static int add(cone_set *s, const uint64_t *x, uint64_t at)
{
    if (s->count == s->cap) {
        int64_t cap = s->cap * 2;
        uint64_t *states = realloc(s->states, cap * s->w * sizeof *states);
        if (!states)
            return CONE_NOMEM;
        s->states = states;
        int32_t *delta = realloc(s->delta, cap * s->k * sizeof *delta);
        if (!delta)
            return CONE_NOMEM;
        s->delta = delta;
        s->cap = cap;
    }
    memcpy(s->states + s->count * s->w, x, s->w * sizeof *x);
    s->slots[at] = (int32_t)(++s->count);
    if ((uint64_t)s->count * 2 > s->nslots)
        return grow_slots(s);
    return CONE_OK;
}

/* heads: k * w words, the ids whose head is each letter; tails: n ids;
 * ups: n * w words; start: w words.  On CONE_OK, *delta_out holds
 * *count_out * k targets, to be released with cone_free, and *final_out
 * is the number of the state {eps}, or -1.  The state that would be
 * number budget + 1 returns CONE_BUDGET. */
int cone_closure(int32_t n, int32_t k, const uint64_t *heads, const int32_t *tails,
                 const uint64_t *ups, const uint64_t *start, int32_t eps, int64_t budget,
                 int32_t **delta_out, int64_t *count_out, int64_t *final_out)
{
    cone_set s = {(n + 63) / 64, k, 0, 1024, NULL, NULL, NULL, 2048};
    int64_t w = s.w;
    int rc = CONE_NOMEM;
    uint64_t *buf = calloc(3 * w, sizeof *buf);
    uint64_t *cur = buf, *moved = buf + w, *drop = buf + 2 * w;
    s.states = malloc(s.cap * w * sizeof *s.states);
    s.delta = malloc(s.cap * (k ? k : 1) * sizeof *s.delta);
    s.slots = calloc(s.nslots, sizeof *s.slots);
    if (!buf || !s.states || !s.delta || !s.slots)
        goto out;
    if ((rc = add(&s, start, find(&s, start))) != CONE_OK)
        goto out;
    for (int64_t i = 0; i < s.count; i++) {
        memcpy(cur, s.states + i * w, w * sizeof *cur);
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
            uint64_t at = find(&s, moved);
            int64_t t = (int64_t)s.slots[at] - 1;
            if (t < 0) {
                if (s.count >= budget) {
                    rc = CONE_BUDGET;
                    goto out;
                }
                t = s.count;
                if ((rc = add(&s, moved, at)) != CONE_OK)
                    goto out;
            }
            s.delta[i * k + a] = (int32_t)t;
        }
    }
    memset(cur, 0, w * sizeof *cur);
    cur[eps / 64] = (uint64_t)1 << (eps % 64);
    *final_out = (int64_t)s.slots[find(&s, cur)] - 1;
    *count_out = s.count;
    *delta_out = s.delta;
    s.delta = NULL;
    rc = CONE_OK;
out:
    free(buf);
    free(s.states);
    free(s.delta);
    free(s.slots);
    return rc;
}

void cone_free(int32_t *delta)
{
    free(delta);
}
