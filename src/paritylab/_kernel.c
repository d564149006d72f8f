/* Two hot spots of solver.py, compiled: the SCC layer's closure check
 * (``_first_scc_py``) and the bounded dominion search (``_search_py``).
 *
 * ``first_scc(arena, alive)`` returns ``(f, strong)``: f is the forward
 * closure of the lowest alive position r inside alive, and strong says
 * whether every position of f reaches r inside f, the two sweeps of
 * core's ``_closure`` that ``_first_scc_py`` makes.  ``search(arena,
 * alive, seed, p, budget)`` returns the same ``(result, touched,
 * probes)`` as ``_search_py``: the closure found (or None), the touched
 * mask and the number of probes.  Masks are W-word bitsets with
 * W = ceil(n / 64).  The arena is the bytes object ``solver._pack``
 * builds once per game, native int32s:
 *
 *     n, m, off[n + 1], tgt[m], rank[n], par[n], own[n], poff[n + 1], ptgt[m]
 *
 * the successor lists in game order (CSR), each position's index in
 * ``priority_levels`` (a lower rank is a higher priority), the parity of
 * its priority, its owner, and the predecessor lists (CSR, in no
 * particular order).  No per-position mask is packed.
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
 * frame's pages are written only when the search reaches it.
 *
 * An edge of the chosen-move graph is one int per position: every alive
 * successor (a forced opponent position) or the one successor chosen at
 * a branch.  It is valid only on the frame's processed positions, the
 * keys of ``_search_py``'s chosen-move dict: a probe writes edges only
 * of positions its frame has not processed, so going back up undoes
 * nothing.
 *
 * Masks cross the Python boundary as little-endian byte arrays read and
 * written in place; on a big-endian host the build fails, and the solver
 * runs its Python code instead.  An alive mask below 0 or at least
 * 2**(64 W) raises OverflowError, and one that is not an int TypeError.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
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

typedef struct {
    int32_t n;
    const int32_t *off, *tgt, *rank, *par, *own, *poff, *ptgt;
} Arena;

/* one probe on the stack: its members, processed and committed masks,
 * 3 W words of the call's block right after the previous frame's, and
 * its branch position and the next successor of it to try */
typedef struct {
    word *mem, *proc, *com;
    int32_t u, next;
} Frame;

typedef struct {
    Arena a;
    Py_ssize_t W;
    int p;
    int32_t seed;
    long long budget;
    word *alive, *opp, *touched, *seen;
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

static word *
load(PyObject *alive, Py_ssize_t W, size_t extra)
{
    /* a call's one block: the W words of alive, a non-negative int below
     * 2**(64 W), then extra bytes; NULL with OverflowError for any other
     * int, TypeError for a non-int, or MemoryError */
    word *block;
    int bad;
    if (!PyLong_Check(alive)) {
        PyErr_SetString(PyExc_TypeError, "alive must be an int");
        return NULL;
    }
    block = malloc(W * sizeof(word) + extra);
    if (!block)
        return (word *)PyErr_NoMemory();
#if PY_VERSION_HEX >= 0x030D0000
    bad = _PyLong_AsByteArray((PyLongObject *)alive, (unsigned char *)block, W * 8, 1, 0, 1);
#else
    bad = _PyLong_AsByteArray((PyLongObject *)alive, (unsigned char *)block, W * 8, 1, 0);
#endif
    if (bad < 0) {
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
    Py_ssize_t len, n, m;
    const int32_t *w;
    if (PyBytes_AsStringAndSize(packed, &data, &len) < 0)
        return -1;
    w = (const int32_t *)data;
    if (len < 8 || (n = w[0]) < 1 || (m = w[1]) < 0
        || len != (Py_ssize_t)sizeof(int32_t) * (2 + 2 * (n + 1) + 2 * m + 3 * n)) {
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
    return 0;
}

static PyObject *
search(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *packed, *alive, *budget, *res, *touched, *out = NULL;
    Search S;
    Frame *f;
    Py_ssize_t W, nf;
    int32_t v, seed, n;
    int p, overflow, found;
    if (!PyArg_ParseTuple(args, "SOiiO", &packed, &alive, &seed, &p, &budget))
        return NULL;
    memset(&S, 0, sizeof S);
    if (unpack(packed, &S.a) < 0)
        return NULL;
    n = S.a.n;
    if (seed < 0 || seed >= n || (p != 0 && p != 1)) {
        PyErr_SetString(PyExc_ValueError, "seed or player out of range");
        return NULL;
    }
    S.budget = PyLong_AsLongLongAndOverflow(budget, &overflow);
    if (S.budget == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)
        S.budget = overflow > 0 ? n : -1;
    S.W = W = (n + 63) / 64;
    S.p = p;
    S.seed = seed;
    nf = (S.budget < 1 ? 1 : S.budget < n ? S.budget : n) + 1; /* the frame bound above */
    if ((size_t)nf > PY_SSIZE_T_MAX / 2 / (3 * W * sizeof(word) + sizeof(Frame)))
        return PyErr_NoMemory(); /* a block too big to size, on a 32-bit host */
    /* alive, opp, touched and seen, the frames' masks, the frames, then
     * edge and queue */
    S.alive = load(alive, W, 3 * (nf + 1) * W * sizeof(word) + nf * sizeof(Frame) + 2 * (size_t)n * sizeof(int32_t));
    if (!S.alive)
        return NULL;
    S.opp = S.alive + W;
    S.touched = S.opp + W;
    S.seen = S.touched + W;
    f = S.frames = (Frame *)(S.seen + W + 3 * nf * W);
    S.edge = (int32_t *)(S.frames + nf);
    S.queue = S.edge + n;
    memset(S.opp, 0, 2 * W * sizeof(word)); /* opp and touched */
    for (v = 0; v < n; v++)
        if (S.a.own[v] != p && HAS(S.alive, v))
            ADD(S.opp, v);
    ADD(S.touched, seed);
    f->mem = S.seen + W;
    f->proc = f->mem + W;
    f->com = f->proc + W;
    memset(f->mem, 0, 3 * W * sizeof(word));
    ADD(f->mem, seed);
    ADD(f->com, seed);
    S.nframes = 1;
    if (HAS(S.opp, seed))
        pull(&S, seed, f->com);
    found = !(HAS(S.opp, seed) && over(&S, f->com)) && run(&S);
    res = found ? from_words(S.frames[S.nframes - 1].mem, W) : Py_NewRef(Py_None);
    touched = res ? from_words(S.touched, W) : NULL;
    if (touched)
        out = Py_BuildValue("(OOL)", res, touched, S.probes);
    Py_XDECREF(res);
    Py_XDECREF(touched);
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

static PyObject *
first_scc(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *packed, *alive, *f, *out = NULL;
    Arena a;
    Py_ssize_t W;
    word *buf, *fwd, *back;
    int32_t r, *queue;
    int strong = 1;
    if (!PyArg_ParseTuple(args, "SO", &packed, &alive) || unpack(packed, &a) < 0)
        return NULL;
    W = (a.n + 63) / 64;
    /* alive, the forward and the backward closure, then the queue */
    buf = load(alive, W, 2 * W * sizeof(word) + (size_t)a.n * sizeof(int32_t));
    if (!buf)
        return NULL;
    fwd = buf + W;
    back = fwd + W;
    queue = (int32_t *)(back + W);
    memset(fwd, 0, 2 * W * sizeof(word));
    r = lowest(buf, fwd, NULL, W); /* fwd is still empty */
    if (r >= 0) {
        Py_ssize_t nf = sweep(a.off, a.tgt, buf, r, fwd, queue);
        strong = sweep(a.poff, a.ptgt, fwd, r, back, queue) == nf;
    }
    f = from_words(fwd, W);
    if (f) {
        out = PyTuple_Pack(2, f, strong ? Py_True : Py_False);
        Py_DECREF(f);
    }
    free(buf);
    return out;
}

static PyMethodDef methods[] = {
    {"first_scc", first_scc, METH_VARARGS,
     "first_scc(arena, alive) -> (f, strong), the two closures of solver._first_scc_py"},
    {"search", search, METH_VARARGS,
     "search(arena, alive, seed, p, budget) -> (result, touched, probes), as solver._search_py"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "The SCC layer's closure check and the bounded dominion search, compiled.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
