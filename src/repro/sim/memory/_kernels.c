/* The demand and prefetch kernels of MemorySystem, compiled.
 *
 * MemorySystem.demand_line, demand_lines and prefetch_lines
 * (hierarchy.py) are each one call into this module. Both demand entries
 * run one per-line body, demand_one: demand_lines over a request vector,
 * demand_line for one line (the runs whose prefetcher snoops every
 * demand line). The kernels work on the same int64 buffers the Python
 * methods do, with the same steps in the same order as the Python
 * references (demand_access and prefetch_line):
 *
 *   - a cache level is Cache.hot_state(): flat tag and value buffers in
 *     which set s holds its fill[s] resident lines from way s * assoc
 *     on, least recently used first, each value a ready cycle (~ready
 *     while an untouched prefetch fill);
 *   - the L2 MSHR is MSHRFile.hot_state(): a ring of (line, ready) slots
 *     in allocation order, which is completion order, with its head slot
 *     and count;
 *   - the DRAM bus is DRAM.hot_state(): the one-slot cycle at which the
 *     bus is next free;
 *   - the prefetched-but-not-demanded lines are MemorySystem._pf_pending,
 *     a Python set.
 *
 * check_context() builds one Context per MemorySystem. It exports every
 * buffer once and holds the exports (an array refuses to resize while
 * exported), unpacks the constants, and carries the counter block. So
 * LRU order, MSHR contents and the bus stay exact, and Python code (CPU
 * traffic, bulk DMA, the references) can interleave with the kernels
 * freely: both sides read and write the same memory.
 *
 * The counters are not shared: every call adds to the Context's block of
 * C integers, and the MSHR file's peak occupancy is kept there as a
 * maximum. fold_counters() adds the block into the stats records, the
 * caches, the MSHR file and the DRAM once per run (MemorySystem.finalize);
 * until then those Python counters hold only the work of the Python
 * references and of the CPU traffic and bulk DMA paths.
 *
 * Cycles, tags and line addresses are held as 64-bit ints; a value
 * outside that range raises OverflowError instead of wrapping.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Interned attribute names of the counters fold_counters() adds to. */
static PyObject *s_busy_cycles, *s_transfers, *s_bytes_transferred,
    *s_peak_occupancy, *s_coalesced, *s_structural_stalls, *s_evictions,
    *s_prefetch_evicted_unused, *s_demand_accesses, *s_demand_hits,
    *s_demand_inflight_hits, *s_demand_misses, *s_useful, *s_late,
    *s_issued, *s_issued_lines_off_chip, *s_nsb_to_npu_bytes,
    *s_l2_to_npu_bytes, *s_off_chip_demand_bytes, *s_off_chip_prefetch_bytes;

/* One MemorySystem's kernel counters (see fold_counters for where each
 * one lands). The byte and DRAM counters follow from these. */
typedef struct {
    long long nsb_acc, nsb_hit, nsb_infl, nsb_miss, nsb_evt, nsb_pfevt;
    long long l2_acc, l2_hit, l2_infl, l2_miss, l2_evt, l2_pfevt;
    long long coalesced, stalls, peak;
    long long pf_useful, pf_late, pf_issued, pf_off_chip;
} Counters;

/* One cache level's Cache.hot_state(). */
typedef struct {
    long long *tags, *vals, *fill;
    long long shift, mask, tshift, assoc;
} Level;

/* Buffers exported per context: three per cache level, three for the
 * MSHR ring, one for the bus. */
#define MAX_VIEWS 10

/* The context of one MemorySystem. The item pointers are borrowed from
 * `parts`, the tuple it was built from, which it keeps alive. */
typedef struct {
    PyObject_HEAD
    Level l2, nsb;
    int has_nsb;
    long long *mshr_lines, *mshr_readys, *ring, mshr_cap, *bus;
    long long line_bytes, l2_lat, nsb_lat, service, fill_lat, pf_penalty;
    PyObject *parts, *pending, *l2_cache, *nsb_cache, *mshr, *dram;
    PyObject *nsb_stats, *l2_stats, *pf_stats, *traffic;
    Counters cnt;
    Py_buffer views[MAX_VIEWS];
    int n_views;
} Ctx;

static PyTypeObject CtxType;

enum {
    CTX_L2_HOT, CTX_NSB_HOT, CTX_MSHR_HOT, CTX_BUS, CTX_PENDING, CTX_TIMING,
    CTX_L2, CTX_NSB, CTX_MSHR, CTX_DRAM, CTX_NSB_STATS, CTX_L2_STATS,
    CTX_PF_STATS, CTX_TRAFFIC, CTX_SIZE
};

static int
as_ll(PyObject *obj, long long *out)
{
    long long v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static Ctx *
as_ctx(PyObject *obj)
{
    if (!Py_IS_TYPE(obj, &CtxType)) {
        PyErr_SetString(PyExc_TypeError,
                        "not a hierarchy kernel context (see check_context)");
        return NULL;
    }
    return (Ctx *)obj;
}

/* -- cache ways ---------------------------------------------------------- */

/* Where a line sits in its cache set: the set, its first way and fill
 * count, the line's tag, and the way holding it (-1 when absent). */
typedef struct {
    long long set, base, n, tag, way;
} Where;

static int
locate(const Level *lv, long long line, Where *w)
{
    long long i;
    w->set = (line >> lv->shift) & lv->mask;
    w->base = w->set * lv->assoc;
    w->n = lv->fill[w->set];
    w->tag = line >> lv->tshift;
    w->way = -1;
    if (w->n < 0 || w->n > lv->assoc) {
        PyErr_SetString(PyExc_SystemError, "a cache set's fill count is out of range");
        return -1;
    }
    for (i = w->base; i < w->base + w->n; i++) {
        if (lv->tags[i] == w->tag) {
            w->way = i;
            break;
        }
    }
    return 0;
}

/* Move way w->way to the last (most recent) way of its set, storing
 * `value` there; the ways after it shift down by one. */
static void
to_mru(const Level *lv, const Where *w, long long value)
{
    long long last = w->base + w->n - 1;
    size_t bytes = (size_t)(last - w->way) * sizeof(long long);
    memmove(lv->tags + w->way, lv->tags + w->way + 1, bytes);
    memmove(lv->vals + w->way, lv->vals + w->way + 1, bytes);
    lv->tags[last] = w->tag;
    lv->vals[last] = value;
}

/* Fill a line locate() found absent. A full set first evicts its first
 * way (the LRU line; an untouched prefetch fill when its value is < 0). */
static void
fill(const Level *lv, Where *w, long long value, long long *evt, long long *pfevt)
{
    if (w->n == lv->assoc) {
        *evt += 1;
        *pfevt += lv->vals[w->base] < 0;
        w->way = w->base;
        to_mru(lv, w, value);
        return;
    }
    lv->tags[w->base + w->n] = w->tag;
    lv->vals[w->base + w->n] = value;
    lv->fill[w->set] = ++w->n;
}

/* -- the MSHR ring ------------------------------------------------------- */

/* Retire the completed fills, oldest first (the MSHR is a FIFO). */
static int
retire(const Ctx *c, long long now)
{
    long long head = c->ring[0], count = c->ring[1];
    if (head < 0 || head >= c->mshr_cap || count < 0 || count > c->mshr_cap) {
        PyErr_SetString(PyExc_SystemError, "the MSHR ring's head or count is out of range");
        return -1;
    }
    while (count > 0 && c->mshr_readys[head] <= now) {
        if (++head == c->mshr_cap)
            head = 0;
        count--;
    }
    c->ring[0] = head;
    c->ring[1] = count;
    return 0;
}

/* 1 and the fill's ready cycle in *ready when `line` is in flight. */
static int
inflight(const Ctx *c, long long line, long long *ready)
{
    long long i, slot = c->ring[0];
    for (i = 0; i < c->ring[1]; i++) {
        if (c->mshr_lines[slot] == line) {
            *ready = c->mshr_readys[slot];
            return 1;
        }
        if (++slot == c->mshr_cap)
            slot = 0;
    }
    return 0;
}

/* An off-chip line fill requested at cycle `issue`, after retire(): an
 * MSHR slot (a full file waits for, and retires, its oldest fill, then
 * `penalty` more cycles), a slot on the serialising bus (constant line
 * service), and the new outstanding fill in the slot after the newest.
 * Returns the fill's ready cycle. */
static long long
fetch_line(Ctx *c, long long line, long long issue, long long penalty)
{
    long long *ring = c->ring, start = issue, slot, ready;
    if (ring[1] == c->mshr_cap) {
        c->cnt.stalls++;
        start = c->mshr_readys[ring[0]] + penalty;
        if (++ring[0] == c->mshr_cap)
            ring[0] = 0;
        ring[1]--;
    }
    if (start < *c->bus)
        start = *c->bus;
    *c->bus = start + c->service;
    ready = start + c->fill_lat;
    slot = ring[0] + ring[1];
    if (slot >= c->mshr_cap)
        slot -= c->mshr_cap;
    c->mshr_lines[slot] = line;
    c->mshr_readys[slot] = ready;
    if (++ring[1] > c->cnt.peak)
        c->cnt.peak = ring[1];
    return ready;
}

/* -- the pending-prefetch set -------------------------------------------- */

/* pending.discard(line): 1 when the line was pending. `line_o` may be
 * NULL, in which case the line is boxed only when the set is not empty. */
static int
discard_pending(const Ctx *c, PyObject *line_o, long long line)
{
    int found;
    if (PySet_GET_SIZE(c->pending) == 0)
        return 0;
    if (line_o != NULL)
        return PySet_Discard(c->pending, line_o);
    line_o = PyLong_FromLongLong(line);
    if (line_o == NULL)
        return -1;
    found = PySet_Discard(c->pending, line_o);
    Py_DECREF(line_o);
    return found;
}

/* -- the demand body ----------------------------------------------------- */

/* One demand line at cycle `at`: the body both demand entries run.
 * Raises *done to the line's completion cycle. Returns 1 when the line
 * went off-chip, 0 when it was served on chip, -1 on error. */
static int
demand_one(Ctx *c, PyObject *line_o, long long line, long long at, int use_nsb,
           long long *done)
{
    Counters *n = &c->cnt;
    Where nw, lw;
    long long ready, complete;
    int found, on_chip, off_chip = 0;

    if (use_nsb) {
        n->nsb_acc++;
        if (locate(&c->nsb, line, &nw) < 0)
            return -1;
        if (nw.way >= 0) {
            ready = c->nsb.vals[nw.way];
            if (ready < 0)
                ready = ~ready;
            to_mru(&c->nsb, &nw, ready);
            found = discard_pending(c, line_o, line);
            if (found < 0)
                return -1;
            complete = at + c->nsb_lat;
            if (ready <= at) {
                n->nsb_hit++;
                n->pf_useful += found;
            }
            else {
                n->nsb_infl++;
                n->pf_late += found;
                if (ready > complete)
                    complete = ready;
            }
            goto done;
        }
        n->nsb_miss++;
    }
    n->l2_acc++;
    if (locate(&c->l2, line, &lw) < 0)
        return -1;
    on_chip = lw.way >= 0;
    if (on_chip) {
        ready = c->l2.vals[lw.way];
        if (ready < 0)
            ready = ~ready;
        to_mru(&c->l2, &lw, ready);
    }
    else {
        /* Absent from the L2: retire the completed fills; a line still in
         * flight was evicted before its fill landed and coalesces onto it,
         * re-inserted with the fill's ready cycle (so it may evict). */
        if (retire(c, at) < 0)
            return -1;
        on_chip = inflight(c, line, &ready);
        if (on_chip) {
            n->coalesced++;
            fill(&c->l2, &lw, ready, &n->l2_evt, &n->l2_pfevt);
        }
    }
    if (on_chip) {
        found = discard_pending(c, line_o, line);
        if (found < 0)
            return -1;
        complete = at + c->l2_lat;
        if (ready <= at) {
            n->l2_hit++;
            n->pf_useful += found;
        }
        else {
            n->l2_infl++;
            n->pf_late += found;
            if (ready > complete)
                complete = ready;
        }
    }
    else {
        /* True L2 miss: fetch from DRAM, fill into the L2. */
        n->l2_miss++;
        off_chip = 1;
        if (discard_pending(c, line_o, line) < 0)
            return -1;
        complete = fetch_line(c, line, at, 0);
        fill(&c->l2, &lw, complete, &n->l2_evt, &n->l2_pfevt);
    }
    if (use_nsb) /* Promote into the NSB (it missed there). */
        fill(&c->nsb, &nw, complete, &n->nsb_evt, &n->nsb_pfevt);
done:
    if (complete > *done)
        *done = complete;
    return off_chip;
}

/* CPU traffic (MemorySystem._inject_cpu_traffic) runs before a line at
 * its issue cycle, on the same buffers. */
static int
inject_cpu(PyObject *inject, long long at)
{
    PyObject *at_o = PyLong_FromLongLong(at), *r;
    if (at_o == NULL)
        return -1;
    r = PyObject_CallOneArg(inject, at_o);
    Py_DECREF(at_o);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* -- demand_line --------------------------------------------------------- */

PyDoc_STRVAR(demand_line_doc,
"demand_line(ctx, now, line, irregular, inject)\n\n"
"The body of MemorySystem.demand_line: one line at cycle ``now``.\n"
"Calls ``inject`` with ``now`` first when it is not None, then walks\n"
"the line (through the NSB when ``irregular``). Returns the line's\n"
"completion cycle, as ~cycle when the line went off-chip.");

static PyObject *
demand_line(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx *c;
    long long now, line, done;
    int irregular, off_chip;

    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "demand_line takes 5 arguments");
        return NULL;
    }
    if ((c = as_ctx(args[0])) == NULL || as_ll(args[1], &now) < 0
        || as_ll(args[2], &line) < 0)
        return NULL;
    irregular = PyObject_IsTrue(args[3]);
    if (irregular < 0 || (args[4] != Py_None && inject_cpu(args[4], now) < 0))
        return NULL;
    done = now;
    off_chip = demand_one(c, args[2], line, now, irregular && c->has_nsb, &done);
    if (off_chip < 0)
        return NULL;
    return PyLong_FromLongLong(off_chip ? ~done : done);
}

/* -- demand_lines -------------------------------------------------------- */

/* counts[e] as a line count (a non-negative int). */
static int
span_count(PyObject *counts, Py_ssize_t e, long long *count)
{
    PyObject *v = PySequence_GetItem(counts, e);
    int rc;
    if (v == NULL)
        return -1;
    rc = as_ll(v, count);
    Py_DECREF(v);
    if (rc == 0 && *count < 0) {
        PyErr_SetString(PyExc_ValueError, "a span's line count is negative");
        return -1;
    }
    return rc;
}

PyDoc_STRVAR(demand_lines_doc,
"demand_lines(ctx, now, issue_width, lines, irregular, inject, counts)\n\n"
"The body of MemorySystem.demand_lines. With ``counts`` None each item\n"
"of ``lines`` is one line; otherwise element e covers ``counts[e]``\n"
"consecutive lines from ``lines[e]``. The k-th line of the flattened\n"
"order issues at cycle now + k // issue_width. ``inject`` is\n"
"MemorySystem._inject_cpu_traffic when CPU traffic is configured\n"
"(called with each line's issue cycle before the line), else None.\n"
"Returns (last_complete_cycle, flags): flags[e] is 1 when any line of\n"
"element e went off-chip.");

static PyObject *
demand_lines(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx *c;
    long long now, issue_width, at, done, slot = 0;
    PyObject *lines, *inject, *counts, *flags_obj, *line_o = NULL;
    char *flags;
    int irregular, use_nsb;
    Py_ssize_t n, e;

    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "demand_lines takes 7 arguments");
        return NULL;
    }
    if ((c = as_ctx(args[0])) == NULL || as_ll(args[1], &now) < 0
        || as_ll(args[2], &issue_width) < 0)
        return NULL;
    lines = args[3];
    irregular = PyObject_IsTrue(args[4]);
    if (irregular < 0)
        return NULL;
    inject = args[5] == Py_None ? NULL : args[5];
    counts = args[6] == Py_None ? NULL : args[6];
    n = PySequence_Size(lines);
    if (n < 0)
        return NULL;
    if (counts != NULL && PySequence_Size(counts) != n) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError,
                            "demand_lines: lines and counts differ in length");
        return NULL;
    }
    flags_obj = PyByteArray_FromStringAndSize(NULL, n);
    if (flags_obj == NULL)
        return NULL;
    flags = PyByteArray_AS_STRING(flags_obj);
    memset(flags, 0, (size_t)n);
    use_nsb = irregular && c->has_nsb;
    done = at = now;

    for (e = 0; e < n; e++) {
        long long line, count = 1, k;
        line_o = PySequence_GetItem(lines, e);
        if (line_o == NULL || as_ll(line_o, &line) < 0
            || (counts != NULL && span_count(counts, e, &count) < 0))
            goto error;
        for (k = 0; k < count; k++) {
            int off_chip;
            if (k > 0) {
                /* The span's next line, boxed only if the pending set
                 * needs it (discard_pending). */
                if (line > LLONG_MAX - c->line_bytes) {
                    PyErr_SetString(PyExc_OverflowError,
                                    "a span runs past the 64-bit line range");
                    goto error;
                }
                line += c->line_bytes;
                Py_CLEAR(line_o);
            }
            if (inject != NULL && inject_cpu(inject, at) < 0)
                goto error;
            off_chip = demand_one(c, line_o, line, at, use_nsb, &done);
            if (off_chip < 0)
                goto error;
            flags[e] |= (char)off_chip;
            if (++slot == issue_width) {
                slot = 0;
                at++;
            }
        }
        Py_CLEAR(line_o);
    }
    return Py_BuildValue("(LN)", done, flags_obj);

error:
    Py_XDECREF(line_o);
    Py_DECREF(flags_obj);
    return NULL;
}

/* -- prefetch_lines ------------------------------------------------------ */

PyDoc_STRVAR(prefetch_lines_doc,
"prefetch_lines(ctx, now, lines, irregular, max_issue)\n\n"
"The body of MemorySystem.prefetch_lines: one burst of the prefetch\n"
"port. Returns (ready cycles of the issued lines, lines processed).");

static PyObject *
prefetch_lines(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx *c;
    Counters *n;
    long long now, max_issue, issue, issued = 0;
    PyObject *lines, *readys, *line_o = NULL, *ready_o = NULL;
    int irregular, target_nsb;
    Py_ssize_t n_lines, k, consumed;

    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "prefetch_lines takes 5 arguments");
        return NULL;
    }
    if ((c = as_ctx(args[0])) == NULL || as_ll(args[1], &now) < 0)
        return NULL;
    n = &c->cnt;
    lines = args[2];
    irregular = PyObject_IsTrue(args[3]);
    if (irregular < 0 || as_ll(args[4], &max_issue) < 0)
        return NULL;
    n_lines = PySequence_Size(lines);
    if (n_lines < 0)
        return NULL;
    readys = PyList_New(0);
    if (readys == NULL)
        return NULL;
    target_nsb = irregular && c->has_nsb;
    issue = now + c->pf_penalty;
    consumed = n_lines;

    for (k = 0; k < n_lines; k++) {
        Where nw, lw;
        long long line, ready;
        int resident;

        if (issued >= max_issue) {
            consumed = k;
            break;
        }
        line_o = PySequence_GetItem(lines, k);
        if (line_o == NULL || as_ll(line_o, &line) < 0)
            goto error;
        if (target_nsb) {
            if (locate(&c->nsb, line, &nw) < 0)
                goto error;
            if (nw.way >= 0) {
                Py_CLEAR(line_o);
                continue;
            }
        }
        if (locate(&c->l2, line, &lw) < 0)
            goto error;
        resident = lw.way >= 0;
        if (resident) {
            ready = c->l2.vals[lw.way];
            if (ready < 0)
                ready = ~ready;
        }
        else {
            /* Absent from the L2: retire the completed fills; a line
             * still in flight was evicted before its fill landed and
             * counts as resident. */
            if (retire(c, now) < 0)
                goto error;
            resident = inflight(c, line, &ready);
            n->coalesced += resident;
        }
        if (resident) {
            if (!target_nsb) {
                Py_CLEAR(line_o);
                continue;
            }
            /* Pull from L2 into the NSB: on-chip transfer, no DRAM. */
            if (now + c->l2_lat > ready)
                ready = now + c->l2_lat;
        }
        else {
            /* Off-chip fill (prefetches issue after the arbitration
             * penalty), landing in the L2. */
            ready = fetch_line(c, line, issue, c->pf_penalty);
            fill(&c->l2, &lw, ~ready, &n->l2_evt, &n->l2_pfevt);
            n->pf_off_chip++;
        }
        if (target_nsb) /* The NSB probe above proved the line absent. */
            fill(&c->nsb, &nw, ~ready, &n->nsb_evt, &n->nsb_pfevt);
        issued++;
        n->pf_issued++;
        ready_o = PyLong_FromLongLong(ready);
        if (ready_o == NULL || PySet_Add(c->pending, line_o) < 0
            || PyList_Append(readys, ready_o) < 0)
            goto error;
        Py_CLEAR(ready_o);
        Py_CLEAR(line_o);
    }
    return Py_BuildValue("(Nn)", readys, consumed);

error:
    Py_XDECREF(ready_o);
    Py_XDECREF(line_o);
    Py_DECREF(readys);
    return NULL;
}

/* -- fold_counters ------------------------------------------------------- */

static int
get_attr_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    int rc;
    if (v == NULL)
        return -1;
    rc = as_ll(v, out);
    Py_DECREF(v);
    return rc;
}

/* obj.name += delta, in Python ints (a counter may exceed 64 bits). */
static int
add_attr(PyObject *obj, PyObject *name, long long delta)
{
    PyObject *cur, *d, *sum;
    int rc;
    if (delta == 0)
        return 0;
    cur = PyObject_GetAttr(obj, name);
    if (cur == NULL)
        return -1;
    d = PyLong_FromLongLong(delta);
    if (d == NULL) {
        Py_DECREF(cur);
        return -1;
    }
    sum = PyNumber_Add(cur, d);
    Py_DECREF(cur);
    Py_DECREF(d);
    if (sum == NULL)
        return -1;
    rc = PyObject_SetAttr(obj, name, sum);
    Py_DECREF(sum);
    return rc;
}

PyDoc_STRVAR(fold_counters_doc,
"fold_counters(ctx)\n\n"
"Add the context's counter block into the NSB, L2 and prefetch stats,\n"
"the traffic record, both caches, the L2 MSHR file (its peak occupancy\n"
"as a maximum) and the DRAM, then zero the block.");

static PyObject *
fold_counters(PyObject *module, PyObject *ctx)
{
    Ctx *c = as_ctx(ctx);
    Counters n;
    long long lb, transfers, peak;
    PyObject *v;
    int rc;

    if (c == NULL)
        return NULL;
    n = c->cnt;
    memset(&c->cnt, 0, sizeof n);
    lb = c->line_bytes;
    transfers = n.l2_miss + n.pf_off_chip;
    /* Without an NSB its counters are zero, and add_attr skips zeros. */
    if (add_attr(c->nsb_stats, s_demand_accesses, n.nsb_acc) < 0
        || add_attr(c->nsb_stats, s_demand_hits, n.nsb_hit) < 0
        || add_attr(c->nsb_stats, s_demand_inflight_hits, n.nsb_infl) < 0
        || add_attr(c->nsb_stats, s_demand_misses, n.nsb_miss) < 0
        || add_attr(c->nsb_cache, s_evictions, n.nsb_evt) < 0
        || add_attr(c->nsb_cache, s_prefetch_evicted_unused, n.nsb_pfevt) < 0
        || add_attr(c->l2_stats, s_demand_accesses, n.l2_acc) < 0
        || add_attr(c->l2_stats, s_demand_hits, n.l2_hit) < 0
        || add_attr(c->l2_stats, s_demand_inflight_hits, n.l2_infl) < 0
        || add_attr(c->l2_stats, s_demand_misses, n.l2_miss) < 0
        || add_attr(c->l2_cache, s_evictions, n.l2_evt) < 0
        || add_attr(c->l2_cache, s_prefetch_evicted_unused, n.l2_pfevt) < 0
        || add_attr(c->mshr, s_coalesced, n.coalesced) < 0
        || add_attr(c->mshr, s_structural_stalls, n.stalls) < 0
        || add_attr(c->pf_stats, s_useful, n.pf_useful) < 0
        || add_attr(c->pf_stats, s_late, n.pf_late) < 0
        || add_attr(c->pf_stats, s_issued, n.pf_issued) < 0
        || add_attr(c->pf_stats, s_issued_lines_off_chip, n.pf_off_chip) < 0
        || add_attr(c->traffic, s_nsb_to_npu_bytes, n.nsb_hit * lb) < 0
        || add_attr(c->traffic, s_l2_to_npu_bytes, n.l2_acc * lb) < 0
        || add_attr(c->traffic, s_off_chip_demand_bytes, n.l2_miss * lb) < 0
        || add_attr(c->traffic, s_off_chip_prefetch_bytes, n.pf_off_chip * lb) < 0
        || add_attr(c->dram, s_busy_cycles, transfers * c->service) < 0
        || add_attr(c->dram, s_transfers, transfers) < 0
        || add_attr(c->dram, s_bytes_transferred, transfers * lb) < 0
        || get_attr_ll(c->mshr, s_peak_occupancy, &peak) < 0)
        return NULL;
    if (n.peak > peak) {
        v = PyLong_FromLongLong(n.peak);
        if (v == NULL)
            return NULL;
        rc = PyObject_SetAttr(c->mshr, s_peak_occupancy, v);
        Py_DECREF(v);
        if (rc < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

/* -- check_context ------------------------------------------------------- */

static int
bad_context(const char *what)
{
    PyErr_Format(PyExc_TypeError, "hierarchy kernel context: %s", what);
    return -1;
}

/* Export `obj` as `len` writable int64s, held until the context dies. */
static long long *
export(Ctx *c, PyObject *obj, Py_ssize_t len)
{
    Py_buffer *view = &c->views[c->n_views];
    if (PyObject_GetBuffer(obj, view, PyBUF_WRITABLE | PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        return NULL;
    c->n_views++;
    if (view->ndim != 1 || view->itemsize != sizeof(long long)
        || strcmp(view->format, "q") != 0 || view->len != len * view->itemsize) {
        bad_context("a buffer is not an array('q') of the expected length");
        return NULL;
    }
    return view->buf;
}

static int
unpack_level(Ctx *c, PyObject *hot, Level *lv)
{
    Py_ssize_t n_sets;
    if (!PyTuple_CheckExact(hot) || PyTuple_GET_SIZE(hot) != 7)
        return bad_context("a cache hot state is not a 7-tuple");
    if (as_ll(PyTuple_GET_ITEM(hot, 3), &lv->shift) < 0
        || as_ll(PyTuple_GET_ITEM(hot, 4), &lv->mask) < 0
        || as_ll(PyTuple_GET_ITEM(hot, 5), &lv->tshift) < 0
        || as_ll(PyTuple_GET_ITEM(hot, 6), &lv->assoc) < 0)
        return -1;
    if (lv->shift < 0 || lv->shift > 62 || lv->tshift < 0 || lv->tshift > 62
        || lv->mask < 0 || lv->assoc < 1
        || lv->mask >= PY_SSIZE_T_MAX / 8 / lv->assoc)
        return bad_context("cache address math out of range");
    n_sets = (Py_ssize_t)lv->mask + 1;
    lv->tags = export(c, PyTuple_GET_ITEM(hot, 0), n_sets * lv->assoc);
    if (lv->tags == NULL)
        return -1;
    lv->vals = export(c, PyTuple_GET_ITEM(hot, 1), n_sets * lv->assoc);
    if (lv->vals == NULL)
        return -1;
    lv->fill = export(c, PyTuple_GET_ITEM(hot, 2), n_sets);
    return lv->fill == NULL ? -1 : 0;
}

static int
unpack_context(Ctx *c, PyObject *parts)
{
    PyObject *mshr_hot, *timing, *nsb_hot;
    Py_ssize_t cap;

    if (!PyTuple_CheckExact(parts) || PyTuple_GET_SIZE(parts) != CTX_SIZE)
        return bad_context("not a tuple of the kernel context's size");
    Py_INCREF(parts);
    c->parts = parts;
    if (unpack_level(c, PyTuple_GET_ITEM(parts, CTX_L2_HOT), &c->l2) < 0)
        return -1;
    nsb_hot = PyTuple_GET_ITEM(parts, CTX_NSB_HOT);
    c->has_nsb = nsb_hot != Py_None;
    if (c->has_nsb && unpack_level(c, nsb_hot, &c->nsb) < 0)
        return -1;
    mshr_hot = PyTuple_GET_ITEM(parts, CTX_MSHR_HOT);
    if (!PyTuple_CheckExact(mshr_hot) || PyTuple_GET_SIZE(mshr_hot) != 4)
        return bad_context("the MSHR hot state is not a 4-tuple");
    if (as_ll(PyTuple_GET_ITEM(mshr_hot, 3), &c->mshr_cap) < 0)
        return -1;
    if (c->mshr_cap < 1 || c->mshr_cap > PY_SSIZE_T_MAX / 8)
        return bad_context("MSHR capacity out of range");
    cap = (Py_ssize_t)c->mshr_cap;
    if ((c->mshr_lines = export(c, PyTuple_GET_ITEM(mshr_hot, 0), cap)) == NULL
        || (c->mshr_readys = export(c, PyTuple_GET_ITEM(mshr_hot, 1), cap)) == NULL
        || (c->ring = export(c, PyTuple_GET_ITEM(mshr_hot, 2), 2)) == NULL
        || (c->bus = export(c, PyTuple_GET_ITEM(parts, CTX_BUS), 1)) == NULL)
        return -1;
    c->pending = PyTuple_GET_ITEM(parts, CTX_PENDING);
    if (!PySet_CheckExact(c->pending))
        return bad_context("pending prefetches are not a set");
    timing = PyTuple_GET_ITEM(parts, CTX_TIMING);
    if (!PyTuple_CheckExact(timing) || PyTuple_GET_SIZE(timing) != 6)
        return bad_context("timing is not a 6-tuple");
    if (as_ll(PyTuple_GET_ITEM(timing, 0), &c->line_bytes) < 0
        || as_ll(PyTuple_GET_ITEM(timing, 1), &c->l2_lat) < 0
        || as_ll(PyTuple_GET_ITEM(timing, 2), &c->nsb_lat) < 0
        || as_ll(PyTuple_GET_ITEM(timing, 3), &c->service) < 0
        || as_ll(PyTuple_GET_ITEM(timing, 4), &c->fill_lat) < 0
        || as_ll(PyTuple_GET_ITEM(timing, 5), &c->pf_penalty) < 0)
        return -1;
    if (c->line_bytes < 1 || c->service < 1)
        return bad_context("non-positive geometry");
    c->l2_cache = PyTuple_GET_ITEM(parts, CTX_L2);
    c->nsb_cache = PyTuple_GET_ITEM(parts, CTX_NSB);
    c->mshr = PyTuple_GET_ITEM(parts, CTX_MSHR);
    c->dram = PyTuple_GET_ITEM(parts, CTX_DRAM);
    c->nsb_stats = PyTuple_GET_ITEM(parts, CTX_NSB_STATS);
    c->l2_stats = PyTuple_GET_ITEM(parts, CTX_L2_STATS);
    c->pf_stats = PyTuple_GET_ITEM(parts, CTX_PF_STATS);
    c->traffic = PyTuple_GET_ITEM(parts, CTX_TRAFFIC);
    if (c->has_nsb != (c->nsb_cache != Py_None))
        return bad_context("NSB hot state and NSB cache disagree");
    return 0;
}

PyDoc_STRVAR(check_context_doc,
"check_context(parts)\n\n"
"Build the kernel context of one MemorySystem from the tuple its\n"
"_kernel_state() returns: export every buffer (held until the context\n"
"is freed), unpack the constants and start a zeroed counter block.\n"
"Raises TypeError naming the first mismatch.");

static PyObject *
check_context(PyObject *module, PyObject *parts)
{
    Ctx *c = (Ctx *)CtxType.tp_alloc(&CtxType, 0);
    if (c == NULL)
        return NULL;
    if (unpack_context(c, parts) < 0) {
        Py_DECREF(c);
        return NULL;
    }
    return (PyObject *)c;
}

static void
ctx_dealloc(PyObject *self)
{
    Ctx *c = (Ctx *)self;
    int i;
    for (i = 0; i < c->n_views; i++)
        PyBuffer_Release(&c->views[i]);
    Py_XDECREF(c->parts);
    Py_TYPE(self)->tp_free(self);
}

static PyTypeObject CtxType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.memory._kernels.Context",
    .tp_doc = "One MemorySystem's kernel context (made by check_context).",
    .tp_basicsize = sizeof(Ctx),
    .tp_dealloc = ctx_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
};

static PyMethodDef kernel_methods[] = {
    {"demand_line", (PyCFunction)(void (*)(void))demand_line, METH_FASTCALL,
     demand_line_doc},
    {"demand_lines", (PyCFunction)(void (*)(void))demand_lines, METH_FASTCALL,
     demand_lines_doc},
    {"prefetch_lines", (PyCFunction)(void (*)(void))prefetch_lines, METH_FASTCALL,
     prefetch_lines_doc},
    {"fold_counters", fold_counters, METH_O, fold_counters_doc},
    {"check_context", check_context, METH_O, check_context_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "_kernels",
    "Compiled demand and prefetch kernels of repro.sim.memory.hierarchy.",
    -1,
    kernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

static int
intern(PyObject **slot, const char *name)
{
    *slot = PyUnicode_InternFromString(name);
    return *slot == NULL ? -1 : 0;
}

PyMODINIT_FUNC
PyInit__kernels(void)
{
    if (intern(&s_busy_cycles, "busy_cycles") < 0
        || intern(&s_transfers, "transfers") < 0
        || intern(&s_bytes_transferred, "bytes_transferred") < 0
        || intern(&s_peak_occupancy, "peak_occupancy") < 0
        || intern(&s_coalesced, "coalesced") < 0
        || intern(&s_structural_stalls, "structural_stalls") < 0
        || intern(&s_evictions, "evictions") < 0
        || intern(&s_prefetch_evicted_unused, "prefetch_evicted_unused") < 0
        || intern(&s_demand_accesses, "demand_accesses") < 0
        || intern(&s_demand_hits, "demand_hits") < 0
        || intern(&s_demand_inflight_hits, "demand_inflight_hits") < 0
        || intern(&s_demand_misses, "demand_misses") < 0
        || intern(&s_useful, "useful") < 0 || intern(&s_late, "late") < 0
        || intern(&s_issued, "issued") < 0
        || intern(&s_issued_lines_off_chip, "issued_lines_off_chip") < 0
        || intern(&s_nsb_to_npu_bytes, "nsb_to_npu_bytes") < 0
        || intern(&s_l2_to_npu_bytes, "l2_to_npu_bytes") < 0
        || intern(&s_off_chip_demand_bytes, "off_chip_demand_bytes") < 0
        || intern(&s_off_chip_prefetch_bytes, "off_chip_prefetch_bytes") < 0
        || PyType_Ready(&CtxType) < 0)
        return NULL;
    return PyModule_Create(&kernel_module);
}
