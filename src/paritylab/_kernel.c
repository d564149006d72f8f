/* The hot spots of solver.py, compiled: the plain step of the recursion
 * (``_left_mask`` and ``_right_mask``), the SCC layer's first component
 * (``_first_scc_py`` with its ``_scc_masks`` fallback), the dominion
 * layer's bounded search (``_search_py``) with its scan and replay loop
 * (``_find_dominion_mask_py``), and the whole recursion with its seen
 * table, memo and dominion record, every layer's step included.
 *
 * ``left(arena, alive, lo)`` returns ``(p, i, holders, a)``: the level
 * index i of the highest alive priority, found from the cursor lo by
 * core's ``_max_priority_mask``, its parity p, its alive holders, and
 * their attractor a for p.  ``right(arena, alive, holders, w_opp, p)``
 * returns the opponent's attractor of w_opp, whose first layer grows only
 * from the positions of w_opp that holders move into, as ``_right_mask``
 * asks of core's ``_attractor_mask``.  Both return the seed object itself
 * when nothing joins it.  ``first_scc(arena, alive)`` returns the first
 * component ``_scc_masks`` emits, as ``_first_scc_py`` finds it: F, the
 * forward closure of the lowest alive position r, when every position of
 * F reaches r inside F (the two sweeps of core's ``_closure``), and
 * otherwise the first component of a depth-first search of F alone that
 * stops there.  ``search(arena, alive, seed, p, budget)`` returns the same
 * ``(result, touched, probes)`` as ``_search_py``: the closure found (or
 * None), the touched mask and the number of probes.  ``record()`` makes
 * an empty dominion record, a capsule that frees its table when its
 * caller drops it, and ``scan(arena, record, alive, budget, players)`` runs
 * ``_find_dominion_mask_py``'s loop on it: seeds ascending, players in
 * the order given, each (seed, p, budget) replayed from the record when
 * alive still agrees with its last search on that search's touched mask
 * and searched again otherwise, its entry overwritten.  It returns
 * ``(result, p, probes, replays)``, with result and p None when no
 * dominion is found.  It reads alive and builds both opponent masks once
 * per call, and all its searches share one block.  ``solve(arena, alive,
 * memo, scc, dom, limit)`` runs the recursion of solver.solve, with the
 * memo, the SCC and the dominion layer each on when its flag is true,
 * stopped once more than limit calls are entered (None: never), and
 * returns ``(w0, total_calls, distinct, memo_hits, max_depth, probes,
 * replays, stopped)``, w0 None when stopped.  Masks are W-word bitsets with
 * W = ceil(n / 64).  The arena is the bytes object
 * ``solver._pack`` builds once per game, native int32s:
 *
 *     n, m, off[n + 1], tgt[m], rank[n], par[n], own[n], poff[n + 1], ptgt[m],
 *     L, loff[L + 1], lpos[n]
 *
 * the successor lists in game order (CSR), each position's index in
 * ``priority_levels`` (a lower rank is a higher priority), the parity of
 * its priority, its owner, the predecessor lists (CSR, in no particular
 * order), and the L levels' positions (CSR, ascending in each level).
 * No per-position mask is packed.
 *
 * A plain step reads no more of the arena than the Python step reads of
 * the game, so on a chain a call costs the same at any depth beyond its
 * W-word masks, and no pass over W words is made per attractor layer.
 * ``left`` and ``right`` and each call of ``solve`` run the same two
 * halves, left_half and right_half, with the same attractor.
 * ``left`` scans the levels from lo as ``_max_priority_mask`` does, at
 * most as many levels as alive has positions, and here also at most that
 * many positions in all, then takes the least rank over alive; it reads
 * the holders off their level or off alive, whichever is shorter.  Both
 * attractors run a worklist over the predecessor lists that takes each
 * joining position once, with a count per opponent position of its alive
 * successors not yet taken, set the first time the worklist meets it.
 *
 * The probes on the current path of a search sit on an explicit stack,
 * one frame each, so the depth of a search is bounded by its budget, not
 * by the C stack.  The stack never holds more than
 * min(max(budget, 1), n) + 1 frames.  Frame i >= 1 is set up only below
 * a branch of frame i - 1, and that frame's processed positions and its
 * branch position, at least i of them, are all members of its probe.
 * Members lie in the committed set, and the ``over`` prune holds
 * committed to the budget at every branch but one: frame 0 with a seed
 * the search does not force, whose probe has one member.  So each call
 * makes one allocation, sized for that many frames, and one free; a
 * frame's pages are written only when the search reaches it.  A budget
 * of n or more is cut to n, as the stack bound already does.
 *
 * An edge of the chosen-move graph is one int per position: every alive
 * successor (a forced opponent position) or the one successor chosen at
 * a branch.  The table follows the rule of solver.py's bounded-search
 * comment block: valid only on the frame's processed positions, so going
 * back up undoes nothing.
 *
 * Masks cross the Python boundary as little-endian byte arrays read and
 * written in place; on a big-endian host the build fails, and the solver
 * runs its Python code instead.  A mask below 0 or at least 2**(64 W)
 * raises OverflowError, and one that is not an int TypeError.  The bits
 * of a mask at or above n are cleared as it is read, so no position past
 * the arena is ever looked up: to every entry such bits are not there.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if !PY_LITTLE_ENDIAN
#error "the word buffers are read and written as little-endian bytes"
#endif

typedef uint64_t word;

#define EDGE_ALL (-1)
#define HAS(m, v) ((m)[(v) >> 6] >> ((v) & 63) & 1)
#define ADD(m, v) ((m)[(v) >> 6] |= (word)1 << ((v) & 63))
#define DEL(m, v) ((m)[(v) >> 6] &= ~((word)1 << ((v) & 63)))

typedef struct {
    int32_t n, nl;
    const int32_t *off, *tgt, *rank, *par, *own, *poff, *ptgt, *loff, *lpos;
} Arena;

/* one probe on the stack: its members, processed and committed masks,
 * 3 W words of the call's block right after the previous frame's, and
 * its branch position and the next successor of it to try */
typedef struct {
    word *mem, *proc, *com;
    int32_t u, next;
} Frame;

/* the state of the searches of one call: the arena, the budget, and the
 * call's one block, which ``prepare`` lays out and ``start`` reuses for
 * every search from (seed, p) */
typedef struct {
    Arena a;
    Py_ssize_t W;
    int p;
    int32_t seed;
    long long budget;
    word *alive, *opps, *opp, *touched, *seen, *masks;
    int32_t *edge, *queue;
    Frame *frames;
    Py_ssize_t nframes;
    long long probes;
} Search;

static int
any_below(const word *m, int32_t v)
{
    /* whether m has a bit below v */
    Py_ssize_t i;
    for (i = 0; i < (v >> 6); i++)
        if (m[i])
            return 1;
    return (m[v >> 6] & (((word)1 << (v & 63)) - 1)) != 0;
}

static long long
count(const word *m, Py_ssize_t W)
{
    long long c = 0;
    Py_ssize_t i;
    for (i = 0; i < W; i++)
        c += __builtin_popcountll(m[i]);
    return c;
}

static int32_t
lowest(const word *a, const word *not_b, const word *c, Py_ssize_t W)
{
    /* the lowest bit of a & ~not_b & c (c may be NULL), or -1 */
    Py_ssize_t i;
    for (i = 0; i < W; i++) {
        word x = a[i] & ~not_b[i];
        if (c)
            x &= c[i];
        if (x)
            return (int32_t)(i * 64 + __builtin_ctzll(x));
    }
    return -1;
}

static int
over(const Search *S, const word *com)
{
    /* the prune on committed: a forbidden position, or over budget */
    return any_below(com, S->seed) || count(com, S->W) > S->budget;
}

static void
pull(Search *S, int32_t s, word *com)
{
    /* an opponent position joins: read its successors */
    const Arena *a = &S->a;
    int32_t k;
    for (k = a->off[s]; k < a->off[s + 1]; k++) {
        int32_t x = a->tgt[k];
        ADD(S->touched, x);
        if (HAS(S->alive, x))
            ADD(com, x);
    }
}

static int
has_edge(const Search *S, const word *proc, int32_t s, int32_t u)
{
    /* whether the chosen-move graph of the probe that processed proc has
     * the edge s -> u */
    const Arena *a = &S->a;
    int32_t e, k;
    if (!HAS(proc, s))
        return 0;
    e = S->edge[s];
    if (e != EDGE_ALL)
        return e == u;
    if (!HAS(S->alive, u))
        return 0;
    for (k = a->off[s]; k < a->off[s + 1]; k++)
        if (a->tgt[k] == u)
            return 1;
    return 0;
}

static int
bad_target(const Search *S, const word *proc, int32_t u, int32_t s)
{
    /* _bad_targets for one target s of u: the edge u -> s closes a
     * self-loop or a 2-cycle whose maximum has the opponent's parity */
    const Arena *a = &S->a;
    if (s == u)
        return a->par[u] != S->p;
    if (!has_edge(S, proc, s, u))
        return 0;
    return (a->rank[u] <= a->rank[s] ? a->par[u] : a->par[s]) != S->p;
}

static int
reaches_self(Search *S, const word *mem, int32_t x)
{
    /* whether x reaches itself along the chosen moves through members
     * of priority at most x's; every member is processed */
    const Arena *a = &S->a;
    int32_t r = a->rank[x], head = 0, tail = 0;
    memset(S->seen, 0, S->W * sizeof(word));
    S->queue[tail++] = x;
    while (head < tail) {
        int32_t v = S->queue[head++], e = S->edge[v], k, lo, hi;
        if (e == EDGE_ALL) {
            lo = a->off[v];
            hi = a->off[v + 1];
        }
        else {
            lo = 0;
            hi = 1;
        }
        for (k = lo; k < hi; k++) {
            int32_t t = e == EDGE_ALL ? a->tgt[k] : e;
            if (!HAS(mem, t) || a->rank[t] < r || (e == EDGE_ALL && !HAS(S->alive, t)))
                continue;
            if (t == x)
                return 1;
            if (!HAS(S->seen, t)) {
                ADD(S->seen, t);
                S->queue[tail++] = t;
            }
        }
    }
    return 0;
}

static int
certified(Search *S, const word *mem)
{
    /* no cycle of the chosen-move graph on mem has a maximum of the
     * opponent's parity (core._cycle_heads finds no head) */
    Py_ssize_t i;
    for (i = 0; i < S->W; i++) {
        word m = mem[i];
        while (m) {
            int32_t x = (int32_t)(i * 64 + __builtin_ctzll(m));
            m &= m - 1;
            if (S->a.par[x] != S->p && reaches_self(S, mem, x))
                return 0;
        }
    }
    return 1;
}

static int
enter(Search *S, Frame *f)
{
    /* one probe: force every opponent member, lowest bit first, then set
     * up the branch on the lowest unprocessed member.  Returns 1 when f's
     * members are a certified closure, 0 when a branch is set up
     * (f->u >= 0) or the probe is dead (f->u < 0) */
    const Arena *a = &S->a;
    int32_t u, k;
    S->probes++;
    f->u = -1;
    while ((u = lowest(f->mem, f->proc, S->opp, S->W)) >= 0) {
        for (k = a->off[u]; k < a->off[u + 1]; k++)
            if (HAS(S->alive, a->tgt[k]) && bad_target(S, f->proc, u, a->tgt[k]))
                return 0;
        for (k = a->off[u]; k < a->off[u + 1]; k++) {
            int32_t s = a->tgt[k];
            if (HAS(S->alive, s) && !HAS(f->mem, s)) {
                ADD(f->mem, s);
                if (HAS(S->opp, s))
                    pull(S, s, f->com);
            }
        }
        ADD(f->proc, u);
        S->edge[u] = EDGE_ALL;
        if (over(S, f->com))
            return 0;
    }
    u = lowest(f->mem, f->proc, NULL, S->W);
    if (u < 0)
        return certified(S, f->mem);
    for (k = a->off[u]; k < a->off[u + 1]; k++)
        ADD(S->touched, a->tgt[k]);
    f->u = u;
    f->next = a->off[u];
    return 0;
}

static int
next_child(Search *S, Py_ssize_t d)
{
    /* set up frame d + 1 for the next viable successor of frame d's
     * branch position, in successor-list order.  Returns 1 when set up,
     * 0 when none is left */
    const Arena *a = &S->a;
    Frame *f = &S->frames[d], *c = f + 1;
    int32_t u = f->u;
    Py_ssize_t W = S->W;
    c->mem = f->com + W;
    c->proc = c->mem + W;
    c->com = c->proc + W;
    while (f->next < a->off[u + 1]) {
        int32_t s = a->tgt[f->next++];
        if (!HAS(S->alive, s) || s < S->seed || bad_target(S, f->proc, u, s))
            continue;
        memcpy(c->com, f->com, W * sizeof(word));
        ADD(c->com, s);
        if (!HAS(f->mem, s) && HAS(S->opp, s))
            pull(S, s, c->com);
        if (over(S, c->com))
            continue;
        memcpy(c->mem, f->mem, 2 * W * sizeof(word));
        ADD(c->mem, s);
        ADD(c->proc, u);
        S->edge[u] = s;
        S->nframes = d + 2;
        return 1;
    }
    return 0;
}

static int
run(Search *S)
{
    /* the search from frame 0; returns 1 when found (the result is the
     * top frame's members), 0 when not */
    for (;;) {
        Frame *f = &S->frames[S->nframes - 1];
        if (enter(S, f))
            return 1;
        if (f->u >= 0 && next_child(S, S->nframes - 1))
            continue;
        /* leave the top frame and resume the deepest ancestor with a child left */
        do {
            if (--S->nframes == 0)
                return 0;
        } while (!next_child(S, S->nframes - 1));
    }
}

static int
read_mask(PyObject *obj, word *m, int32_t n)
{
    /* m's W words from obj, a non-negative int below 2**(64 W), with the
     * bits at or above n cleared; -1 with OverflowError for any other int
     * or TypeError for a non-int */
    Py_ssize_t W = (n + 63) / 64;
    int bad;
    if (!PyLong_Check(obj)) {
        PyErr_SetString(PyExc_TypeError, "a mask must be an int");
        return -1;
    }
#if PY_VERSION_HEX >= 0x030D0000
    bad = _PyLong_AsByteArray((PyLongObject *)obj, (unsigned char *)m, W * 8, 1, 0, 1);
#else
    bad = _PyLong_AsByteArray((PyLongObject *)obj, (unsigned char *)m, W * 8, 1, 0);
#endif
    if (bad < 0)
        return -1;
    if (n & 63)
        m[W - 1] &= ((word)1 << (n & 63)) - 1;
    return 0;
}

static word *
load(PyObject *alive, int32_t n, size_t extra)
{
    /* a call's one block: the W words of alive as read_mask reads them,
     * then extra bytes; NULL with read_mask's errors or MemoryError */
    word *block = malloc((n + 63) / 64 * sizeof(word) + extra);
    if (!block)
        return (word *)PyErr_NoMemory();
    if (read_mask(alive, block, n) < 0) {
        free(block);
        return NULL;
    }
    return block;
}

static PyObject *
from_words(const word *m, Py_ssize_t W)
{
    return _PyLong_FromByteArray((const unsigned char *)m, W * 8, 1, 0);
}

static int
unpack(PyObject *packed, Arena *a)
{
    char *data;
    Py_ssize_t len, n, m, moves, nl;
    const int32_t *w;
    if (PyBytes_AsStringAndSize(packed, &data, &len) < 0)
        return -1;
    w = (const int32_t *)data;
    /* the header, both move lists, then L and the levels */
    if (len < 8 || (n = w[0]) < 1 || (m = w[1]) < 0
        || len < (Py_ssize_t)sizeof(int32_t) * ((moves = 2 + 2 * (n + 1) + 2 * m + 3 * n) + 1)
        || (nl = w[moves]) < 1 || nl > n
        || len != (Py_ssize_t)sizeof(int32_t) * (moves + 1 + (nl + 1) + n)) {
        PyErr_SetString(PyExc_ValueError, "malformed packed arena");
        return -1;
    }
    a->n = (int32_t)n;
    a->off = w + 2;
    a->tgt = a->off + n + 1;
    a->rank = a->tgt + m;
    a->par = a->rank + n;
    a->own = a->par + n;
    a->poff = a->own + n;
    a->ptgt = a->poff + n + 1;
    a->nl = (int32_t)nl;
    a->loff = a->ptgt + m + 1;
    a->lpos = a->loff + nl + 1;
    return 0;
}

static void
opponents(Search *S)
{
    /* both players' opponent masks of S's alive: player p's at opps + p W */
    Py_ssize_t W = S->W, i;
    memset(S->opps, 0, 2 * W * sizeof(word));
    for (i = 0; i < W; i++) {
        word m = S->alive[i];
        while (m) {
            int32_t v = (int32_t)(i * 64 + __builtin_ctzll(m));
            m &= m - 1;
            if (S->a.own[v] != 0)
                ADD(S->opps, v);
            if (S->a.own[v] != 1)
                ADD(S->opps + W, v);
        }
    }
}

static int
prepare(Search *S, PyObject *packed, PyObject *alive, long long budget, size_t extra)
{
    /* the set-up search, scan and solve share: the arena, the budget cut
     * to n (no probe commits more than n positions, so a budget of n or
     * more never prunes and searches cannot tell such budgets apart), and
     * one block: alive, both players' opponent masks, touched and seen,
     * the frames' masks, the frames, then edge and queue, and extra bytes
     * after queue's n ints for the caller.  Returns -1 with an exception
     * set */
    Py_ssize_t W, nf;
    int32_t n;
    memset(S, 0, sizeof *S);
    if (unpack(packed, &S->a) < 0)
        return -1;
    n = S->a.n;
    S->budget = budget < n ? budget : n;
    S->W = W = (n + 63) / 64;
    nf = (S->budget < 1 ? 1 : S->budget) + 1; /* the frame bound above */
    if ((size_t)nf > PY_SSIZE_T_MAX / 2 / (3 * W * sizeof(word) + sizeof(Frame)))
        return PyErr_NoMemory(), -1; /* a block too big to size, on a 32-bit host */
    S->alive = load(alive, n, (3 * nf + 4) * W * sizeof(word) + nf * sizeof(Frame) + 2 * (size_t)n * sizeof(int32_t) + extra);
    if (!S->alive)
        return -1;
    S->opps = S->alive + W;
    S->touched = S->opps + 2 * W;
    S->seen = S->touched + W;
    S->masks = S->seen + W;
    S->frames = (Frame *)(S->masks + 3 * nf * W);
    S->edge = (int32_t *)(S->frames + nf);
    S->queue = S->edge + n;
    opponents(S);
    return 0;
}

static int
start(Search *S, int32_t seed, int p)
{
    /* one search from (seed, p) in the prepared block: touched and frame
     * 0 start from the seed.  Returns whether a closure was found (the
     * top frame's members), with the search's probes in S->probes.  The
     * chosen-move table needs no reset: a search reads only entries it
     * wrote */
    Frame *f = S->frames;
    Py_ssize_t W = S->W;
    S->seed = seed;
    S->p = p;
    S->opp = S->opps + p * W;
    S->probes = 0;
    memset(S->touched, 0, W * sizeof(word));
    ADD(S->touched, seed);
    f->mem = S->masks;
    f->proc = f->mem + W;
    f->com = f->proc + W;
    memset(f->mem, 0, 3 * W * sizeof(word));
    ADD(f->mem, seed);
    ADD(f->com, seed);
    S->nframes = 1;
    if (!HAS(S->opp, seed))
        return run(S);
    pull(S, seed, f->com);
    return !over(S, f->com) && run(S);
}

static PyObject *
search(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *packed, *alive, *budget, *res, *touched, *out = NULL;
    Search S;
    long long b;
    int32_t seed;
    int p, overflow, found;
    if (!PyArg_ParseTuple(args, "SOiiO", &packed, &alive, &seed, &p, &budget))
        return NULL;
    b = PyLong_AsLongLongAndOverflow(budget, &overflow);
    if (b == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)
        b = overflow > 0 ? LLONG_MAX : -1;
    if (prepare(&S, packed, alive, b, 0) < 0)
        return NULL;
    if (seed < 0 || seed >= S.a.n || (p != 0 && p != 1)) {
        PyErr_SetString(PyExc_ValueError, "seed or player out of range");
        goto finish;
    }
    found = start(&S, seed, p);
    res = found ? from_words(S.frames[S.nframes - 1].mem, S.W) : Py_NewRef(Py_None);
    touched = res ? from_words(S.touched, S.W) : NULL;
    if (touched)
        out = Py_BuildValue("(OOL)", res, touched, S.probes);
    Py_XDECREF(res);
    Py_XDECREF(touched);
finish:
    free(S.alive);
    return out;
}

/* ------------------------------------------------------------------------
 * the one hash table, which the dominion record and ``solve`` share
 *
 * An entry's key and value are masks kept over a span of words: span
 * words from word lo of a W-word mask, outside which the mask is zero.
 * Both are stored over their span only, in chunks of CHUNK_WORDS words
 * (or one chunk of its own, for a wider mask) that never move, so no
 * entry is copied and no chunk is freed before the table; keys are
 * hashed word by word, with their lo (int hashing takes x mod 2**61 - 1,
 * under which a chain's prefixes collide).  Entries sit in an array that
 * doubles, and the open-addressed slots, probed linearly and doubled when
 * three quarters full, hold entry indices, so an entry's index stays
 * valid when the slots move.  A value is one or more masks over the same
 * span, one after the other; a value stored again reuses the entry's
 * words unless it needs more.  The record keys an entry on the two words
 * (seed << 1 | p, budget); ``solve`` keys it on an entered alive set. */

typedef struct Chunk {
    struct Chunk *next;
    Py_ssize_t used, size;
    word words[];
} Chunk;

typedef struct {
    uint64_t hash;
    word *key, *val;
    int32_t klo, kspan, vlo, vspan, vcap; /* vspan < 0: no value yet; vcap: the words val holds */
    int8_t found;                         /* the record's: whether its search found a closure */
    long long probes;                     /* the record's: that search's probes */
} Entry;

typedef struct {
    Entry *entries;
    Py_ssize_t n, cap, nslots, *slots;
    Chunk *chunks; /* the newest first */
} Table;

#define FIRST_SLOTS 64
#define CHUNK_WORDS 4096

static void *
grown(void *buf, Py_ssize_t *cap, Py_ssize_t need, size_t size)
{
    /* buf, an array of *cap items of size bytes, with room for need > 0:
     * at least doubled when it grows; NULL with MemoryError */
    Py_ssize_t c = *cap;
    if (need <= c)
        return buf;
    while (c < need)
        c = c ? 2 * c : 16;
    buf = (size_t)c <= PY_SSIZE_T_MAX / size ? realloc(buf, c * size) : NULL;
    if (!buf)
        return PyErr_NoMemory();
    *cap = c;
    return buf;
}

static word *
take(Table *t, Py_ssize_t k)
{
    /* k words from the newest chunk, or from a new one; NULL with
     * MemoryError */
    Chunk *c = t->chunks;
    if (!c || c->used + k > c->size) {
        Py_ssize_t size = k > CHUNK_WORDS ? k : CHUNK_WORDS;
        c = (size_t)size <= (PY_SSIZE_T_MAX - sizeof(Chunk)) / sizeof(word) ? malloc(sizeof(Chunk) + size * sizeof(word)) : NULL;
        if (!c)
            return (word *)PyErr_NoMemory();
        c->next = t->chunks;
        c->used = 0;
        c->size = size;
        t->chunks = c;
    }
    c->used += k;
    return c->words + c->used - k;
}

static void
drop_table(Table *t)
{
    Chunk *c = t->chunks;
    while (c) {
        Chunk *next = c->next;
        free(c);
        c = next;
    }
    free(t->entries);
    free(t->slots);
}

static int32_t
span_of(const word *m, Py_ssize_t W, int32_t *lo)
{
    /* how many words of m run from its first non-zero one, *lo, to its
     * last; 0, with *lo 0, when m is empty */
    Py_ssize_t l = 0, h = W;
    while (l < W && !m[l])
        l++;
    if (l == W)
        return *lo = 0;
    while (!m[h - 1])
        h--;
    *lo = (int32_t)l;
    return (int32_t)(h - l);
}

static void
unspan(word *m, Py_ssize_t W, const word *from, int32_t lo, int32_t span)
{
    /* m's W words: the span of words from, at lo */
    memset(m, 0, W * sizeof(word));
    if (span)
        memcpy(m + lo, from, span * sizeof(word));
}

static uint64_t
hash_span(const word *m, int32_t lo, int32_t span)
{
    uint64_t h = (uint64_t)lo * 0x9E3779B97F4A7C15ull;
    int32_t i;
    for (i = 0; i < span; i++) {
        h = (h ^ m[i]) * 0xBF58476D1CE4E5B9ull;
        h ^= h >> 31;
    }
    h = (h ^ h >> 33) * 0xFF51AFD7ED558CCDull;
    return h ^ h >> 33;
}

static int
double_slots(Table *t)
{
    /* twice the slots, FIRST_SLOTS at first, each entry put back by its
     * hash; -1 with MemoryError */
    Py_ssize_t size = t->nslots ? 2 * t->nslots : FIRST_SLOTS, i, k;
    Py_ssize_t *slots = (size_t)size <= PY_SSIZE_T_MAX / sizeof *slots ? malloc(size * sizeof *slots) : NULL;
    if (!slots)
        return PyErr_NoMemory(), -1;
    for (i = 0; i < size; i++)
        slots[i] = -1;
    for (k = 0; k < t->n; k++) {
        for (i = (Py_ssize_t)(t->entries[k].hash & (uint64_t)(size - 1)); slots[i] >= 0; i = (i + 1) & (size - 1))
            ;
        slots[i] = k;
    }
    free(t->slots);
    t->slots = slots;
    t->nslots = size;
    return 0;
}

static Py_ssize_t
lookup(Table *t, const word *key, int32_t lo, int32_t span)
{
    /* the index of the entry whose key is the span words at key, word lo
     * on of their mask, made with no value when new; -1 with MemoryError */
    uint64_t h = hash_span(key, lo, span);
    Py_ssize_t i;
    Entry *e;
    if (4 * (t->n + 1) > 3 * t->nslots && double_slots(t) < 0)
        return -1;
    for (i = (Py_ssize_t)(h & (uint64_t)(t->nslots - 1)); t->slots[i] >= 0; i = (i + 1) & (t->nslots - 1)) {
        e = &t->entries[t->slots[i]];
        if (e->hash == h && e->klo == lo && e->kspan == span && (!span || !memcmp(e->key, key, span * sizeof(word))))
            return t->slots[i];
    }
    if (!(e = grown(t->entries, &t->cap, t->n + 1, sizeof(Entry))))
        return -1;
    t->entries = e;
    e += t->n;
    memset(e, 0, sizeof *e);
    if (span && !(e->key = take(t, span)))
        return -1;
    if (span)
        memcpy(e->key, key, span * sizeof(word));
    e->hash = h;
    e->klo = lo;
    e->kspan = span;
    e->vspan = -1;
    return t->slots[i] = t->n++;
}

static int
set_span(Table *t, Entry *e, int32_t lo, int32_t span, int32_t masks)
{
    /* make e's value that many masks of span words each, from word lo,
     * for the caller to write, in the words e's value holds unless they
     * are too few; -1 with MemoryError, e unchanged */
    if (masks * span > e->vcap) {
        word *val = take(t, masks * (Py_ssize_t)span);
        if (!val)
            return -1;
        e->val = val;
        e->vcap = masks * span;
    }
    e->vlo = lo;
    e->vspan = span;
    return 0;
}

/* ------------------------------------------------------------------------
 * the dominion record: one table of the kind above, living for one
 * ``find_dominion`` call or, inside ``solve``, for one solve
 *
 * It keeps, per (seed, p, budget), the last search scan ran for it, as
 * _find_dominion_mask_py's dict does: its probes, whether it found a
 * closure, and as its value three masks, touched, alive & touched and
 * the closure.  All three lie in touched (the seed and the successors
 * the search read), so each is stored over touched's span: on a chain an
 * entry is a word or two, not n bits.  The record binds itself to the n
 * of the first arena a scan hands it, so a span never reaches past an
 * alive mask's W words; ``solve`` keeps its record for one arena. */

typedef struct {
    Table t;
    int32_t n;
} Record;

#define RECORD_NAME "paritylab._kernel.record"

static void
drop_record(PyObject *capsule)
{
    Record *R = PyCapsule_GetPointer(capsule, RECORD_NAME);
    drop_table(&R->t);
    free(R);
}

static PyObject *
record(PyObject *Py_UNUSED(module), PyObject *Py_UNUSED(args))
{
    PyObject *capsule;
    Record *R = calloc(1, sizeof *R);
    if (!R)
        return PyErr_NoMemory();
    capsule = PyCapsule_New(R, RECORD_NAME, drop_record);
    if (!capsule)
        free(R);
    return capsule;
}

static int
replays(const Entry *e, const word *alive)
{
    /* whether alive still agrees with e's search on e's touched mask */
    const word *touched = e->val, *at = touched + e->vspan;
    int32_t i;
    for (i = 0; i < e->vspan; i++)
        if ((alive[e->vlo + i] & touched[i]) != at[i])
            return 0;
    return 1;
}

static int
keep(Table *t, Entry *e, const Search *S, int found)
{
    /* store the search S just ran as e's value, in place of what e held;
     * -1 with MemoryError */
    const word *res = found ? S->frames[S->nframes - 1].mem : NULL;
    int32_t lo, span = span_of(S->touched, S->W, &lo), i; /* touched holds the seed */
    word *v;
    if (set_span(t, e, lo, span, 3) < 0)
        return -1;
    v = e->val;
    for (i = 0; i < span; i++) {
        v[i] = S->touched[lo + i];
        v[span + i] = S->alive[lo + i] & S->touched[lo + i];
        v[2 * span + i] = res ? res[lo + i] : 0;
    }
    e->probes = S->probes;
    e->found = (int8_t)found;
    return 0;
}

static Py_ssize_t
scan_seeds(Search *S, Table *t, const int32_t *players, Py_ssize_t np, int *p, long long *probes, long long *replayed)
{
    /* _find_dominion_mask_py's loop over S's alive, opponent masks and
     * budget, on the record t: seeds ascending, players in the order
     * given, each (seed, p, budget) replayed from t when alive still
     * agrees with its last search on that search's touched mask and
     * searched again otherwise, its entry overwritten.  The probes and
     * replays are added to *probes and *replayed.  Returns the index of
     * the entry whose closure was found, with its player in p, -1 when no
     * dominion is found, -2 with MemoryError */
    Py_ssize_t i, k;
    for (i = 0; i < S->W; i++) {
        word m = S->alive[i];
        while (m) {
            int32_t seed = (int32_t)(i * 64 + __builtin_ctzll(m));
            m &= m - 1;
            for (k = 0; k < np; k++) {
                word key[2] = {(word)seed << 1 | (word)players[k], (word)S->budget};
                Py_ssize_t at = lookup(t, key, 0, 2);
                Entry *e;
                if (at < 0)
                    return -2;
                e = &t->entries[at];
                if (e->vspan >= 0 && replays(e, S->alive))
                    ++*replayed;
                else if (keep(t, e, S, start(S, seed, players[k])) < 0)
                    return -2;
                *probes += e->probes;
                if (e->found) {
                    *p = players[k];
                    return at;
                }
            }
        }
    }
    return -1;
}

static PyObject *
scan(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *packed, *capsule, *alive, *budget, *players, *seq, **items, *res, *out = NULL;
    Record *R;
    Search S;
    Py_ssize_t np, k, at;
    long long b, probes = 0, replayed = 0;
    int32_t *ps;
    int overflow, p;
    if (!PyArg_ParseTuple(args, "SO!OOO", &packed, &PyCapsule_Type, &capsule, &alive, &budget, &players))
        return NULL;
    R = PyCapsule_GetPointer(capsule, RECORD_NAME);
    if (!R)
        return NULL;
    b = PyLong_AsLongLongAndOverflow(budget, &overflow);
    if (b == -1 && PyErr_Occurred())
        return NULL;
    if (overflow < 0) {
        PyErr_SetString(PyExc_OverflowError, "a budget below -2**63 has no key in the record");
        return NULL;
    }
    if (overflow)
        b = LLONG_MAX;
    seq = PySequence_Fast(players, "players must be a sequence");
    if (!seq)
        return NULL;
    np = PySequence_Fast_GET_SIZE(seq);
    items = PySequence_Fast_ITEMS(seq);
    for (k = 0; k < np; k++) {
        long q = PyLong_Check(items[k]) ? PyLong_AsLong(items[k]) : -1;
        if (q != 0 && q != 1) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "player out of range");
            Py_DECREF(seq);
            return NULL;
        }
    }
    /* the players go in the block, after queue */
    if (prepare(&S, packed, alive, b, np * sizeof(int32_t)) < 0) {
        Py_DECREF(seq);
        return NULL;
    }
    ps = S.queue + S.a.n;
    for (k = 0; k < np; k++)
        ps[k] = (int32_t)PyLong_AsLong(items[k]);
    if (R->n && R->n != S.a.n) {
        PyErr_SetString(PyExc_ValueError, "the record belongs to an arena of another size");
        goto finish;
    }
    R->n = S.a.n;
    at = scan_seeds(&S, &R->t, ps, np, &p, &probes, &replayed);
    if (at == -1)
        out = Py_BuildValue("(OOLL)", Py_None, Py_None, probes, replayed);
    else if (at >= 0) {
        /* the closure back to W words, in seen */
        const Entry *e = &R->t.entries[at];
        unspan(S.seen, S.W, e->val + 2 * e->vspan, e->vlo, e->vspan);
        res = from_words(S.seen, S.W);
        if (res) {
            out = Py_BuildValue("(OiLL)", res, p, probes, replayed);
            Py_DECREF(res);
        }
    }
finish:
    Py_DECREF(seq);
    free(S.alive);
    return out;
}

static Py_ssize_t
sweep(const int32_t *off, const int32_t *tgt, const word *within, int32_t r, word *reach, int32_t *queue)
{
    /* core._closure from r over one CSR: adds to reach, which holds no
     * position yet, the positions r reaches inside within, r included,
     * and returns how many */
    Py_ssize_t head = 0, tail = 1;
    queue[0] = r;
    ADD(reach, r);
    while (head < tail) {
        int32_t v = queue[head++], k;
        for (k = off[v]; k < off[v + 1]; k++) {
            int32_t t = tgt[k];
            if (HAS(within, t) && !HAS(reach, t)) {
                ADD(reach, t);
                queue[tail++] = t;
            }
        }
    }
    return tail;
}

/* the first component's scratch: F and the backward closure (W words
 * each), then, over F's positions, a depth-first path, the sweeps' queue
 * (later the discovery order) and discovery indices (n of each), and the
 * path's sorted successors (m ints).  ``first_scc`` makes one per call,
 * ``solve`` one per solve */
typedef struct {
    int32_t v, next, end, low; /* a path position, its successors next..end in buf, the least index they reach */
} Visit;

typedef struct {
    word *fwd, *back;
    Visit *path;
    int32_t *queue, *idx, *buf;
} Comp;

static size_t
comp_bytes(const Arena *a)
{
    return 2 * (size_t)((a->n + 63) / 64) * sizeof(word) + a->n * (sizeof(Visit) + 2 * sizeof(int32_t))
        + a->off[a->n] * sizeof(int32_t);
}

static void
comp_layout(Comp *c, const Arena *a, word *at)
{
    Py_ssize_t W = (a->n + 63) / 64;
    c->fwd = at;
    c->back = at + W;
    c->path = (Visit *)(c->back + W);
    c->queue = (int32_t *)(c->path + a->n);
    c->idx = c->queue + a->n;
    c->buf = c->idx + a->n;
}

static int
ascending(const void *x, const void *y)
{
    int32_t u = *(const int32_t *)x, v = *(const int32_t *)y;
    return (u > v) - (u < v);
}

static int32_t
visit(const Arena *a, Comp *c, int32_t d, int32_t top, int32_t v, int32_t found)
{
    /* v, the found-th position discovered, enters the path at depth d
     * with its successors in F, ascending, from buf[top]; returns where
     * they end */
    Visit *f = &c->path[d];
    int32_t k;
    ADD(c->back, v);
    c->idx[v] = found;
    c->queue[found] = v;
    f->v = v;
    f->next = top;
    f->low = found;
    for (k = a->off[v]; k < a->off[v + 1]; k++)
        if (HAS(c->fwd, a->tgt[k]))
            c->buf[top++] = a->tgt[k];
    qsort(c->buf + f->next, top - f->next, sizeof(int32_t), ascending);
    return f->end = top;
}

static void
decompose(const Arena *a, Comp *c, Py_ssize_t W, int32_t r)
{
    /* _scc_masks on F, from r, up to the first component it emits, which
     * it leaves in fwd.  Nothing is emitted before that one, so what the
     * search has found since entering v is every position discovered
     * from v on, a suffix of the discovery order, and a move leaves it
     * exactly when it reaches a position discovered before v.  So each
     * path position keeps the least discovery index its subtree's moves
     * reach, low, and v closes the component when low is v's own index */
    int32_t d = 0, found = 1, i;
    memset(c->back, 0, W * sizeof(word)); /* the positions discovered */
    visit(a, c, 0, 0, r, 0);
    for (;;) {
        Visit *f = &c->path[d];
        if (f->next < f->end) {
            int32_t t = c->buf[f->next++];
            if (!HAS(c->back, t)) {
                visit(a, c, d + 1, f->end, t, found++);
                d++;
            }
            else if (c->idx[t] < f->low)
                f->low = c->idx[t];
            continue;
        }
        if (f->low == c->idx[f->v])
            break;
        d--; /* the root's low is its own index, so d stays >= 0 */
        if (f->low < c->path[d].low)
            c->path[d].low = f->low;
    }
    memset(c->fwd, 0, W * sizeof(word));
    for (i = c->idx[c->path[d].v]; i < found; i++)
        ADD(c->fwd, c->queue[i]);
}

static void
first_component(const Arena *a, Comp *c, const word *alive, Py_ssize_t W)
{
    /* _first_scc_py: leaves in fwd the first component of alive that
     * _scc_masks emits, F itself when every position of F reaches r
     * inside F, else what decompose finds; nothing when alive is empty */
    int32_t r;
    Py_ssize_t nf;
    memset(c->fwd, 0, 2 * W * sizeof(word));
    r = lowest(alive, c->fwd, NULL, W); /* fwd is still empty */
    if (r < 0)
        return;
    nf = sweep(a->off, a->tgt, alive, r, c->fwd, c->queue);
    if (sweep(a->poff, a->ptgt, c->fwd, r, c->back, c->queue) != nf)
        decompose(a, c, W, r);
}

static PyObject *
first_scc(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *packed, *alive, *out;
    Arena a;
    Comp c;
    Py_ssize_t W;
    word *buf;
    if (!PyArg_ParseTuple(args, "SO", &packed, &alive) || unpack(packed, &a) < 0)
        return NULL;
    /* alive, then the scratch */
    buf = load(alive, a.n, comp_bytes(&a));
    if (!buf)
        return NULL;
    W = (a.n + 63) / 64;
    comp_layout(&c, &a, buf + W);
    first_component(&a, &c, buf, W);
    out = from_words(c.fwd, W);
    free(buf);
    return out;
}

/* a plain step's scratch: alive, the holders, the attractor, the
 * worklist's done and counted marks (W words each), then its pending
 * counts and queue (n ints each).  ``left`` and ``right`` make one per
 * call, ``solve`` one per solve */
typedef struct {
    word *alive, *hold, *att, *done, *counted;
    int32_t *pending, *queue;
} Step;

static int
step_block(Step *s, PyObject *alive, int32_t n, int extra, size_t bytes)
{
    /* allocate s's block, with extra W-word masks after counted and bytes
     * more after queue, read alive into it and clear the other masks */
    Py_ssize_t W = (n + 63) / 64;
    s->alive = load(alive, n, (4 + extra) * W * sizeof(word) + 2 * (size_t)n * sizeof(int32_t) + bytes);
    if (!s->alive)
        return -1;
    s->hold = s->alive + W;
    s->att = s->hold + W;
    s->done = s->att + W;
    s->counted = s->done + W;
    s->pending = (int32_t *)(s->counted + (1 + extra) * W);
    s->queue = s->pending + n;
    memset(s->hold, 0, (4 + extra) * W * sizeof(word));
    return 0;
}

static int
attract(const Arena *a, Step *s, Py_ssize_t tail, int p)
{
    /* core._attractor_mask for p as a worklist.  s->att holds the seed
     * and queue[0, tail) its front; done holds the seed minus the front,
     * and counted nothing.  A position is done once the worklist has
     * taken it out.  A free alive position joins att when it is met as a
     * predecessor of a done one and either p owns it or it has no alive
     * successor left that is not done: pending[u] says how many, from the
     * first time u is met.  Returns whether any position joined */
    Py_ssize_t head = 0, front = tail;
    while (head < tail) {
        int32_t v = s->queue[head++], k, j;
        int live = HAS(s->alive, v) != 0;
        ADD(s->done, v);
        for (k = a->poff[v]; k < a->poff[v + 1]; k++) {
            int32_t u = a->ptgt[k];
            if (!HAS(s->alive, u) || HAS(s->att, u))
                continue;
            if (a->own[u] != p) {
                if (!HAS(s->counted, u)) {
                    ADD(s->counted, u);
                    s->pending[u] = 0;
                    for (j = a->off[u]; j < a->off[u + 1]; j++)
                        s->pending[u] += HAS(s->alive, a->tgt[j]) && !HAS(s->done, a->tgt[j]);
                }
                else
                    s->pending[u] -= live; /* v was not done when u was counted */
                if (s->pending[u])
                    continue;
            }
            ADD(s->att, u);
            s->queue[tail++] = u;
        }
    }
    return tail > front;
}

static void
attract_seed(const Arena *a, Step *s, Py_ssize_t W, int p)
{
    /* core._attractor_mask for p of the seed in att within alive, its
     * first layer grown from the whole seed; done and counted are
     * cleared first */
    Py_ssize_t tail = 0, i;
    memset(s->done, 0, 2 * W * sizeof(word));
    for (i = 0; i < W; i++) {
        word m = s->att[i];
        while (m) {
            s->queue[tail++] = (int32_t)(i * 64 + __builtin_ctzll(m));
            m &= m - 1;
        }
    }
    attract(a, s, tail, p);
}

static int32_t
top_level(const Arena *a, const word *alive, Py_ssize_t W, Py_ssize_t lo, long long size)
{
    /* core._max_priority_mask's level index for a cursor lo that no level
     * before it meets alive, which holds size positions: the first level
     * from lo that meets alive, looked for in at most size levels and at
     * most size positions, else the least rank over alive; -1 when alive
     * is empty */
    long long budget = size;
    int32_t best = -1;
    Py_ssize_t i, k;
    for (i = lo; i < a->nl; i++)
        for (k = a->loff[i]; k < a->loff[i + 1]; k++) {
            if (budget-- == 0)
                goto scan;
            if (HAS(alive, a->lpos[k]))
                return (int32_t)i;
        }
scan:
    for (i = 0; i < W; i++) {
        word m = alive[i];
        while (m) {
            int32_t v = (int32_t)(i * 64 + __builtin_ctzll(m));
            m &= m - 1;
            if (best < 0 || a->rank[v] < best)
                best = a->rank[v];
        }
    }
    return best;
}

static int32_t
left_half(const Arena *a, Step *s, Py_ssize_t W, Py_ssize_t lo, int *p, int *grew)
{
    /* _left_mask on s's alive, with its other masks clear: returns the
     * level index i of the highest alive priority, -1 when alive is
     * empty, and leaves its parity in p, its alive holders in hold, their
     * attractor for p in att, and in grew whether any position joined */
    Py_ssize_t tail = 0, k;
    long long size = count(s->alive, W);
    int32_t i = top_level(a, s->alive, W, lo, size);
    if (i < 0)
        return -1;
    /* the holders, off the level or off alive, whichever is shorter */
    if (a->loff[i + 1] - a->loff[i] <= size) {
        for (k = a->loff[i]; k < a->loff[i + 1]; k++)
            if (HAS(s->alive, a->lpos[k]))
                s->queue[tail++] = a->lpos[k];
    }
    else
        for (k = 0; k < W; k++) {
            word m = s->alive[k];
            while (m) {
                int32_t v = (int32_t)(k * 64 + __builtin_ctzll(m));
                m &= m - 1;
                if (a->rank[v] == i)
                    s->queue[tail++] = v;
            }
        }
    for (k = 0; k < tail; k++)
        ADD(s->hold, s->queue[k]);
    memcpy(s->att, s->hold, W * sizeof(word));
    *p = a->par[s->queue[0]];
    *grew = attract(a, s, tail, *p);
    return i;
}

static int
right_half(const Arena *a, Step *s, Py_ssize_t W, int p)
{
    /* _right_mask on s, with the holders in hold, w_opp in att and done
     * and counted clear: leaves the attractor of w_opp for 1 - p in att
     * and returns whether any position joined */
    Py_ssize_t tail = 0, i;
    int32_t k;
    memcpy(s->done, s->att, W * sizeof(word));
    /* the front: the seed positions the holders move into, each once */
    for (i = 0; i < W; i++) {
        word m = s->hold[i];
        while (m) {
            int32_t h = (int32_t)(i * 64 + __builtin_ctzll(m));
            m &= m - 1;
            for (k = a->off[h]; k < a->off[h + 1]; k++)
                if (HAS(s->done, a->tgt[k])) {
                    DEL(s->done, a->tgt[k]);
                    s->queue[tail++] = a->tgt[k];
                }
        }
    }
    return attract(a, s, tail, 1 - p);
}

static PyObject *
left(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *packed, *alive, *holders = NULL, *att = NULL, *out = NULL;
    Arena a;
    Step s;
    Py_ssize_t W, lo;
    int32_t i;
    int p, grew;
    if (!PyArg_ParseTuple(args, "SOn", &packed, &alive, &lo) || unpack(packed, &a) < 0)
        return NULL;
    if (lo < 0) {
        PyErr_SetString(PyExc_ValueError, "the level cursor must not be negative");
        return NULL;
    }
    if (step_block(&s, alive, a.n, 0, 0) < 0)
        return NULL;
    W = (a.n + 63) / 64;
    i = left_half(&a, &s, W, lo, &p, &grew);
    if (i < 0) {
        PyErr_SetString(PyExc_ValueError, "alive holds no position of the arena");
        goto finish;
    }
    holders = from_words(s.hold, W);
    if (!holders)
        goto finish;
    att = grew ? from_words(s.att, W) : Py_NewRef(holders);
    if (att)
        out = Py_BuildValue("(inOO)", p, (Py_ssize_t)i, holders, att);
finish:
    Py_XDECREF(holders);
    Py_XDECREF(att);
    free(s.alive);
    return out;
}

static PyObject *
right(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *packed, *alive, *holders, *w_opp, *out = NULL;
    Arena a;
    Step s;
    Py_ssize_t W;
    int p;
    if (!PyArg_ParseTuple(args, "SOOOi", &packed, &alive, &holders, &w_opp, &p) || unpack(packed, &a) < 0)
        return NULL;
    if (p != 0 && p != 1) {
        PyErr_SetString(PyExc_ValueError, "player out of range");
        return NULL;
    }
    if (step_block(&s, alive, a.n, 0, 0) < 0)
        return NULL;
    W = (a.n + 63) / 64;
    if (read_mask(holders, s.hold, a.n) < 0 || read_mask(w_opp, s.att, a.n) < 0)
        goto finish;
    out = right_half(&a, &s, W, p) ? from_words(s.att, W) : Py_NewRef(w_opp);
finish:
    free(s.alive);
    return out;
}

/* ------------------------------------------------------------------------
 * the whole recursion of solver.solve
 *
 * ``solve`` runs the loop of solver.solve on an explicit stack of calls,
 * each call as its ``call`` runs it and counted as that loop counts:
 * first, with the dominion layer, the scan over a record that lives for
 * the solve, and when it finds a dominion, its attractor and one child;
 * then, with the SCC layer, unless the call is a component and so
 * strong, the component loop: the first component of what is left,
 * solved as a strong child, then the attractors of both of its regions
 * inside what is left taken out of it; last, the plain step by left_half
 * and right_half.  All attractors run on the solve's one Step.  The table
 * of entered alive sets is exact: the shared table above, keyed on each
 * alive set over its span, and with the memo keeping a finished call's w0
 * as the value, over w0's span.  A call names its alive set by its
 * entry's index.  A running call keeps its masks on a LIFO stack of
 * words: a plain step's attractor and holders, then the opponent's
 * attractor, over that attractor's span; a dominion's attractor over its
 * span; a component loop's rest, w0 and component over its alive set's
 * span.  The table, the record, the calls and the word stack grow with
 * what they hold; the Step, the searches' block and the first
 * component's scratch are sized by n.  Python's signal handlers run every
 * 4096 calls, so a long solve stays interruptible: when one raises,
 * everything is freed and the exception surfaces. */

enum { LEFT, RIGHT, DOMINION, SPLIT }; /* a call's running child */

typedef struct {
    Py_ssize_t entry, at; /* its alive set's entry; where its masks start on the word stack */
    int32_t i, mlo, mspan; /* the level its left step removed, or a split's cursor; its masks' span */
    int8_t p, kind;
} Call;

typedef struct {
    Arena a;
    Py_ssize_t W;
    Step s;
    Search S; /* the dominion layer's searches */
    Comp c;   /* the SCC layer's first component */
    word *child, *res; /* the alive set being entered; the w0 just found */
    int32_t lo;        /* the child's level cursor */
    int scc, dom, strong; /* the layers; whether the child is a component */
    Table t, rec;         /* the entered alive sets; the dominion record */
    Call *calls;
    Py_ssize_t ncalls, calls_cap;
    word *words;
    Py_ssize_t top, words_cap;
    long long probes, replays;
} Solve;

#define CHECK_SIGNALS 4095 /* calls & CHECK_SIGNALS == 0: run the signal handlers */

static const int32_t both_players[2] = {0, 1};

static long long
ceil_sqrt(long long c)
{
    /* default_dominion_bound: the least b >= 1 with b * b >= c */
    long long b = 1;
    while (b * b < c)
        b++;
    return b;
}

static int
store(Solve *T, Py_ssize_t entry)
{
    /* keep res as the entry's w0; -1 with MemoryError */
    Entry *e = &T->t.entries[entry];
    int32_t lo, span = span_of(T->res, T->W, &lo);
    if (set_span(&T->t, e, lo, span, 1) < 0)
        return -1;
    if (span)
        memcpy(e->val, T->res + lo, span * sizeof(word));
    return 0;
}

static word *
push_words(Solve *T, Py_ssize_t k)
{
    /* k > 0 words on top of the word stack; NULL with MemoryError */
    word *w = grown(T->words, &T->words_cap, T->top + k, sizeof(word));
    if (!w)
        return NULL;
    T->words = w;
    T->top += k;
    return w + T->top - k;
}

static Call *
push_call(Solve *T, Py_ssize_t entry, int kind, int32_t lo, int32_t span, int32_t masks, word **saved)
{
    /* a call on the entry's alive set, with room for that many masks over
     * span words from word lo on the word stack; NULL with MemoryError */
    Call *c = grown(T->calls, &T->calls_cap, T->ncalls + 1, sizeof(Call));
    if (!c)
        return NULL;
    T->calls = c;
    c += T->ncalls;
    c->at = T->top;
    if (!(*saved = push_words(T, masks * (Py_ssize_t)span)))
        return NULL;
    c->entry = entry;
    c->kind = (int8_t)kind;
    c->mlo = lo;
    c->mspan = span;
    T->ncalls++;
    return c;
}

static void
enter_rest(Solve *T, const word *alive, const word *taken, int32_t lo)
{
    /* the next child: alive & ~taken, at cursor lo, not known strong */
    Py_ssize_t j;
    for (j = 0; j < T->W; j++)
        T->child[j] = alive[j] & ~taken[j];
    T->lo = lo;
    T->strong = 0;
}

static int
dominion_step(Solve *T, Py_ssize_t entry)
{
    /* the dominion step of a call on alive, in the Step: 1 when the scan
     * finds a dominion, whose attractor goes on the word stack and whose
     * rest is the next child, 0 when it finds none, -1 with MemoryError */
    Step *s = &T->s;
    Search *S = &T->S;
    Py_ssize_t W = T->W, k;
    const Entry *e;
    Call *c;
    word *saved;
    int32_t lo, span;
    int p;
    memcpy(S->alive, s->alive, W * sizeof(word));
    opponents(S);
    S->budget = ceil_sqrt(count(s->alive, W));
    k = scan_seeds(S, &T->rec, both_players, 2, &p, &T->probes, &T->replays);
    if (k < 0)
        return k == -1 ? 0 : -1;
    e = &T->rec.entries[k];
    unspan(s->att, W, e->val + 2 * e->vspan, e->vlo, e->vspan);
    attract_seed(&T->a, s, W, p);
    span = span_of(s->att, W, &lo);
    if (!(c = push_call(T, entry, DOMINION, lo, span, 1, &saved)))
        return -1;
    memcpy(saved, s->att + lo, span * sizeof(word));
    c->p = (int8_t)p;
    enter_rest(T, s->alive, s->att, T->lo);
    return 1;
}

static int
split_step(Solve *T, Py_ssize_t entry)
{
    /* the SCC step of a call on alive, in the Step: 1 when alive is not
     * one component, and then the component loop's rest (alive), w0
     * (nothing) and first component go on the word stack and that
     * component is the next child, strong, at the call's cursor; 0 when
     * alive is one component, -1 with MemoryError */
    Step *s = &T->s;
    Py_ssize_t W = T->W;
    const Entry *e = &T->t.entries[entry];
    Call *c;
    word *saved;
    first_component(&T->a, &T->c, s->alive, W);
    if (!memcmp(T->c.fwd, s->alive, W * sizeof(word)))
        return 0;
    if (!(c = push_call(T, entry, SPLIT, e->klo, e->kspan, 3, &saved)))
        return -1;
    memcpy(saved, s->alive + e->klo, e->kspan * sizeof(word));
    memset(saved + e->kspan, 0, e->kspan * sizeof(word));
    memcpy(saved + 2 * e->kspan, T->c.fwd + e->klo, e->kspan * sizeof(word));
    c->i = T->lo;
    memcpy(T->child, T->c.fwd, W * sizeof(word));
    T->strong = 1;
    return 1;
}

static int
open_call(Solve *T, Py_ssize_t entry)
{
    /* push a call on child, the entry's non-empty alive set, and run it
     * up to its first child, which it leaves in child with its cursor
     * and strength: the dominion step, the SCC step, and when neither
     * gives a child, the left step, whose attractor and holders go on the
     * word stack over the attractor's span and whose rest is the child,
     * from the level below the one removed.  -1 with MemoryError */
    Step *s = &T->s;
    Py_ssize_t W = T->W;
    Call *c;
    word *saved;
    int32_t i, lo, span;
    int p, grew, r;
    memcpy(s->alive, T->child, W * sizeof(word));
    memset(s->hold, 0, 4 * W * sizeof(word));
    if (T->dom && (r = dominion_step(T, entry)))
        return r < 0 ? -1 : 0;
    if (T->scc && !T->strong && (r = split_step(T, entry)))
        return r < 0 ? -1 : 0;
    i = left_half(&T->a, s, W, T->lo, &p, &grew);
    span = span_of(s->att, W, &lo);
    if (!(c = push_call(T, entry, LEFT, lo, span, 2, &saved)))
        return -1;
    memcpy(saved, s->att + lo, span * sizeof(word));
    memcpy(saved + span, s->hold + lo, span * sizeof(word));
    c->i = i;
    c->p = (int8_t)p;
    enter_rest(T, s->alive, s->att, i + 1);
    return 0;
}

static int
split_next(Solve *T, Call *c)
{
    /* hand res, the w0 of the component loop's running component, to the
     * loop: the attractor of the component's player-0 region, then of
     * its player-1 region, inside the rest, each taken out of the rest,
     * the first one added to w0.  Returns 1 with the next component set
     * up in child, 0 when nothing is left, with the loop's w0 in res */
    Step *s = &T->s;
    Py_ssize_t W = T->W, span = c->mspan, j;
    int32_t lo = c->mlo;
    word *rem = T->words + c->at, *w0 = rem + span, *comp = w0 + span, c0 = 0, c1 = 0, left = 0;
    for (j = 0; j < span; j++) {
        c0 |= T->res[lo + j];
        comp[j] &= ~T->res[lo + j]; /* the component's player-1 region */
        c1 |= comp[j];
    }
    if (c0) {
        unspan(s->alive, W, rem, lo, (int32_t)span);
        memcpy(s->att, T->res, W * sizeof(word));
        attract_seed(&T->a, s, W, 0);
        for (j = 0; j < span; j++) {
            w0[j] |= s->att[lo + j];
            rem[j] &= ~s->att[lo + j];
        }
    }
    if (c1) {
        unspan(s->alive, W, rem, lo, (int32_t)span);
        unspan(s->att, W, comp, lo, (int32_t)span);
        attract_seed(&T->a, s, W, 1);
        for (j = 0; j < span; j++)
            rem[j] &= ~s->att[lo + j];
    }
    for (j = 0; j < span; j++)
        left |= rem[j];
    if (!left) {
        unspan(T->res, W, w0, lo, (int32_t)span);
        T->top = c->at;
        return 0;
    }
    unspan(T->child, W, rem, lo, (int32_t)span);
    first_component(&T->a, &T->c, T->child, W);
    memcpy(comp, T->c.fwd + lo, span * sizeof(word));
    memcpy(T->child, T->c.fwd, W * sizeof(word));
    T->lo = c->i;
    T->strong = 1;
    return 1;
}

static int
resume(Solve *T)
{
    /* hand res, the w0 of the top call's running child, to that call.
     * Returns 1 when the call has set up its next child in child, 0 when
     * it has finished with its own w0 in res and its words popped, -1
     * with MemoryError */
    Step *s = &T->s;
    Call *c = &T->calls[T->ncalls - 1];
    const Entry *e = &T->t.entries[c->entry];
    const word *a = T->words + c->at, *hold = a + c->mspan;
    word *res = T->res, *w_opp = s->att, *saved, any = 0;
    Py_ssize_t W = T->W, j;
    if (c->kind == SPLIT)
        return split_next(T, c);
    T->top = c->at;
    if (c->kind != LEFT) {
        /* r0 | a for a dominion of player 0, r0 | b after a right step of
         * player 1, else r0 */
        if (c->kind == DOMINION ? !c->p : c->p)
            for (j = 0; j < c->mspan; j++)
                res[c->mlo + j] |= a[j];
        return 0;
    }
    unspan(s->alive, W, e->key, e->klo, e->kspan);
    memset(s->hold, 0, 4 * W * sizeof(word));
    /* w_opp: rest & ~l0 for player 0, with rest = alive & ~a, or l0 */
    for (j = 0; j < W; j++)
        w_opp[j] = c->p ? res[j] : s->alive[j] & ~res[j];
    for (j = 0; j < c->mspan; j++) {
        if (!c->p)
            w_opp[c->mlo + j] &= ~a[j];
        s->hold[c->mlo + j] = hold[j];
    }
    for (j = 0; j < W; j++)
        any |= w_opp[j];
    if (!any || !right_half(&T->a, s, W, c->p)) {
        /* b is w_opp: the call's w0 is alive & ~w_opp, or w_opp */
        for (j = 0; j < W; j++)
            res[j] = c->p ? w_opp[j] : s->alive[j] & ~w_opp[j];
        return 0;
    }
    /* b in place of a and the holders; the right child is alive & ~b,
     * from the level removed */
    c->mspan = span_of(s->att, W, &c->mlo);
    if (!(saved = push_words(T, c->mspan)))
        return -1;
    memcpy(saved, s->att + c->mlo, c->mspan * sizeof(word));
    enter_rest(T, s->alive, s->att, c->i);
    c->kind = RIGHT;
    return 1;
}

static PyObject *
solve(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *packed, *alive, *cap, *w0, *out = NULL;
    Solve T;
    Py_ssize_t W, k;
    long long limit = LLONG_MAX, calls = 0, hits = 0, depth = 0;
    int memo, scc, dom, overflow, r;
    if (!PyArg_ParseTuple(args, "SOpppO", &packed, &alive, &memo, &scc, &dom, &cap))
        return NULL;
    if (cap != Py_None) {
        limit = PyLong_AsLongLongAndOverflow(cap, &overflow);
        if (limit == -1 && PyErr_Occurred())
            return NULL;
        if (overflow > 0)
            limit = LLONG_MAX; /* 2**63 calls or more: never reached */
        else if (overflow < 0 || limit < 0) {
            PyErr_SetString(PyExc_ValueError, "the call limit must not be negative");
            return NULL;
        }
    }
    memset(&T, 0, sizeof T);
    if (unpack(packed, &T.a) < 0 || step_block(&T.s, alive, T.a.n, 2, scc ? comp_bytes(&T.a) : 0) < 0)
        return NULL;
    T.W = W = (T.a.n + 63) / 64;
    T.child = T.s.counted + W;
    T.res = T.child + W;
    T.scc = scc;
    T.dom = dom;
    if (scc)
        comp_layout(&T.c, &T.a, (word *)(T.s.queue + T.a.n));
    /* every call's dominion bound is at most the whole arena's */
    if (dom && prepare(&T.S, packed, alive, ceil_sqrt(T.a.n), 0) < 0)
        goto finish;
    memcpy(T.child, T.s.alive, W * sizeof(word));
    for (;;) {
        /* enter a call on child, one level below the top call */
        int32_t lo, span;
        Entry *e;
        calls++;
        if (T.ncalls >= depth)
            depth = T.ncalls + 1;
        if (calls > limit)
            break;
        if (!(calls & CHECK_SIGNALS) && PyErr_CheckSignals() < 0)
            goto finish;
        span = span_of(T.child, W, &lo);
        if ((k = lookup(&T.t, T.child + lo, lo, span)) < 0)
            goto finish;
        e = &T.t.entries[k];
        if (e->vspan >= 0) {
            hits++;
            unspan(T.res, W, e->val, e->vlo, e->vspan);
        }
        else if (e->kspan) {
            if (open_call(&T, k) < 0)
                goto finish;
            continue;
        }
        else {
            memset(T.res, 0, W * sizeof(word));
            if (memo)
                e->vspan = 0;
        }
        /* hand res down the calls, each finished one's w0 to the one below */
        for (r = 0; T.ncalls && !(r = resume(&T)); T.ncalls--)
            if (memo && store(&T, T.calls[T.ncalls - 1].entry) < 0)
                goto finish;
        if (r < 0)
            goto finish;
        if (!r)
            break;
    }
    w0 = calls > limit ? Py_NewRef(Py_None) : from_words(T.res, W);
    if (w0) {
        out = Py_BuildValue("(OLnLLLLO)", w0, calls, T.t.n, hits, depth, T.probes, T.replays,
                            calls > limit ? Py_True : Py_False);
        Py_DECREF(w0);
    }
finish:
    free(T.s.alive);
    free(T.S.alive);
    drop_table(&T.t);
    drop_table(&T.rec);
    free(T.calls);
    free(T.words);
    return out;
}

static PyMethodDef methods[] = {
    {"left", left, METH_VARARGS,
     "left(arena, alive, lo) -> (p, i, holders, a), as solver._left_mask"},
    {"right", right, METH_VARARGS,
     "right(arena, alive, holders, w_opp, p) -> b, as solver._right_mask"},
    {"first_scc", first_scc, METH_VARARGS,
     "first_scc(arena, alive) -> the first component of alive, as solver._first_scc_py"},
    {"search", search, METH_VARARGS,
     "search(arena, alive, seed, p, budget) -> (result, touched, probes), as solver._search_py"},
    {"record", record, METH_NOARGS,
     "record() -> a dominion record, the kernel's twin of solver._find_dominion_mask_py's dict"},
    {"scan", scan, METH_VARARGS,
     "scan(arena, record, alive, budget, players) -> (result, p, probes, replays), "
     "as solver._find_dominion_mask_py"},
    {"solve", solve, METH_VARARGS,
     "solve(arena, alive, memo, scc, dom, limit) -> "
     "(w0, total_calls, distinct, memo_hits, max_depth, probes, replays, stopped), the recursion of solver.solve"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "The solver's plain step, the SCC layer's first component, the dominion layer's bounded search with "
    "its scan and replay loop, and the whole recursion with every layer, compiled.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
