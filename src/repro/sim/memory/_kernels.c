/* The demand and prefetch kernels of MemorySystem, compiled.
 *
 * MemorySystem.demand_line, demand_lines and prefetch_lines
 * (hierarchy.py) are each one call into this module. Both demand entries
 * run one per-line body, demand_one: demand_lines over a request vector,
 * demand_line for one line (the runs whose prefetcher snoops every
 * demand line). The kernels walk the same Python containers the rest of
 * the hierarchy uses, with the same dict, deque and set operations in
 * the same order as the Python references (demand_access and
 * prefetch_line):
 *
 *   - a cache level is Cache.hot_state(): a list of per-set dicts from
 *     tag to ready cycle (~ready while an untouched prefetch fill), whose
 *     insertion order is the LRU order;
 *   - the L2 MSHR is MSHRFile.hot_state(): the fills deque (allocation
 *     order, which is completion order) and the inflight dict;
 *   - the prefetched-but-not-demanded lines are MemorySystem._pf_pending.
 *
 * So LRU order and MSHR contents stay exact, and Python code can
 * interleave with the kernels freely. The DRAM bus (DRAM._bus_free_at)
 * is shared with Python's DRAM.access (CPU traffic, bulk DMA), so a
 * call reads it before its first off-chip line and writes it back
 * before it returns or calls into Python.
 *
 * The counters are not shared: every call adds to one block of C
 * integers per MemorySystem (the context's last item, made by
 * counters()), and the MSHR file's peak occupancy is kept there as a
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

/* Interned attribute names, collections.deque and its two methods. */
static PyObject *s_bus_free_at, *s_busy_cycles, *s_transfers,
    *s_bytes_transferred, *s_peak_occupancy, *s_coalesced,
    *s_structural_stalls, *s_evictions, *s_prefetch_evicted_unused,
    *s_demand_accesses, *s_demand_hits, *s_demand_inflight_hits,
    *s_demand_misses, *s_useful, *s_late, *s_issued,
    *s_issued_lines_off_chip, *s_nsb_to_npu_bytes, *s_l2_to_npu_bytes,
    *s_off_chip_demand_bytes, *s_off_chip_prefetch_bytes;
static PyObject *deque_type, *deque_popleft, *deque_append;

/* One MemorySystem's kernel counters (see fold_counters for where each
 * one lands). The byte and DRAM counters follow from these. */
typedef struct {
    long long nsb_acc, nsb_hit, nsb_infl, nsb_miss, nsb_evt, nsb_pfevt;
    long long l2_acc, l2_hit, l2_infl, l2_miss, l2_evt, l2_pfevt;
    long long coalesced, stalls, peak;
    long long pf_useful, pf_late, pf_issued, pf_off_chip;
} Counters;

#define COUNTERS_NAME "repro.sim.memory._kernels.counters"

/* One cache level's Cache.hot_state(). */
typedef struct {
    PyObject *sets; /* list of dicts (borrowed) */
    long long shift, mask, tshift, assoc;
} Level;

/* The context tuple MemorySystem.__init__ builds (borrowed references:
 * the caller's argument keeps the tuple alive for the call). */
typedef struct {
    Level l2, nsb;
    int has_nsb;
    PyObject *fills, *inflight, *pending;
    long long mshr_cap, line_bytes, l2_lat, nsb_lat, service, fill_lat,
        pf_penalty;
    PyObject *l2_cache, *nsb_cache, *mshr, *dram;
    PyObject *nsb_stats, *l2_stats, *pf_stats, *traffic;
    Counters *cnt;
} Ctx;

enum {
    CTX_L2_HOT, CTX_NSB_HOT, CTX_MSHR_HOT, CTX_PENDING, CTX_TIMING, CTX_L2,
    CTX_NSB, CTX_MSHR, CTX_DRAM, CTX_NSB_STATS, CTX_L2_STATS, CTX_PF_STATS,
    CTX_TRAFFIC, CTX_COUNTERS, CTX_SIZE
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

static int
bad_context(const char *what)
{
    PyErr_Format(PyExc_TypeError, "hierarchy kernel context: %s", what);
    return -1;
}

static int
unpack_level(PyObject *hot, Level *lv)
{
    if (!PyTuple_CheckExact(hot) || PyTuple_GET_SIZE(hot) != 5)
        return bad_context("a cache hot state is not a 5-tuple");
    lv->sets = PyTuple_GET_ITEM(hot, 0);
    if (!PyList_CheckExact(lv->sets))
        return bad_context("cache sets are not a list");
    if (as_ll(PyTuple_GET_ITEM(hot, 1), &lv->shift) < 0
        || as_ll(PyTuple_GET_ITEM(hot, 2), &lv->mask) < 0
        || as_ll(PyTuple_GET_ITEM(hot, 3), &lv->tshift) < 0
        || as_ll(PyTuple_GET_ITEM(hot, 4), &lv->assoc) < 0)
        return -1;
    if (lv->shift < 0 || lv->shift > 62 || lv->tshift < 0 || lv->tshift > 62
        || lv->mask < 0 || lv->mask >= PyList_GET_SIZE(lv->sets)
        || lv->assoc < 1)
        return bad_context("cache address math out of range");
    return 0;
}

/* Reads the context tuple. Cheap enough to run per call: type-pointer
 * compares and int conversions. Every container below is then reached
 * only through type-checking C-API calls. */
static int
unpack_context(PyObject *ctx, Ctx *c)
{
    PyObject *mshr_hot, *timing, *nsb_hot, *block;

    if (!PyTuple_CheckExact(ctx) || PyTuple_GET_SIZE(ctx) != CTX_SIZE)
        return bad_context("not a tuple of the kernel context's size");
    if (unpack_level(PyTuple_GET_ITEM(ctx, CTX_L2_HOT), &c->l2) < 0)
        return -1;
    nsb_hot = PyTuple_GET_ITEM(ctx, CTX_NSB_HOT);
    c->has_nsb = nsb_hot != Py_None;
    if (c->has_nsb && unpack_level(nsb_hot, &c->nsb) < 0)
        return -1;
    mshr_hot = PyTuple_GET_ITEM(ctx, CTX_MSHR_HOT);
    if (!PyTuple_CheckExact(mshr_hot) || PyTuple_GET_SIZE(mshr_hot) != 3)
        return bad_context("the MSHR hot state is not a 3-tuple");
    c->fills = PyTuple_GET_ITEM(mshr_hot, 0);
    c->inflight = PyTuple_GET_ITEM(mshr_hot, 1);
    if (!Py_IS_TYPE(c->fills, (PyTypeObject *)deque_type)
        || !PyDict_CheckExact(c->inflight))
        return bad_context("MSHR fills/inflight are not a deque and a dict");
    if (as_ll(PyTuple_GET_ITEM(mshr_hot, 2), &c->mshr_cap) < 0)
        return -1;
    c->pending = PyTuple_GET_ITEM(ctx, CTX_PENDING);
    if (!PySet_CheckExact(c->pending))
        return bad_context("pending prefetches are not a set");
    timing = PyTuple_GET_ITEM(ctx, CTX_TIMING);
    if (!PyTuple_CheckExact(timing) || PyTuple_GET_SIZE(timing) != 6)
        return bad_context("timing is not a 6-tuple");
    if (as_ll(PyTuple_GET_ITEM(timing, 0), &c->line_bytes) < 0
        || as_ll(PyTuple_GET_ITEM(timing, 1), &c->l2_lat) < 0
        || as_ll(PyTuple_GET_ITEM(timing, 2), &c->nsb_lat) < 0
        || as_ll(PyTuple_GET_ITEM(timing, 3), &c->service) < 0
        || as_ll(PyTuple_GET_ITEM(timing, 4), &c->fill_lat) < 0
        || as_ll(PyTuple_GET_ITEM(timing, 5), &c->pf_penalty) < 0)
        return -1;
    c->l2_cache = PyTuple_GET_ITEM(ctx, CTX_L2);
    c->nsb_cache = PyTuple_GET_ITEM(ctx, CTX_NSB);
    c->mshr = PyTuple_GET_ITEM(ctx, CTX_MSHR);
    c->dram = PyTuple_GET_ITEM(ctx, CTX_DRAM);
    c->nsb_stats = PyTuple_GET_ITEM(ctx, CTX_NSB_STATS);
    c->l2_stats = PyTuple_GET_ITEM(ctx, CTX_L2_STATS);
    c->pf_stats = PyTuple_GET_ITEM(ctx, CTX_PF_STATS);
    c->traffic = PyTuple_GET_ITEM(ctx, CTX_TRAFFIC);
    if (c->has_nsb != (c->nsb_cache != Py_None))
        return bad_context("NSB hot state and NSB cache disagree");
    block = PyTuple_GET_ITEM(ctx, CTX_COUNTERS);
    if (!PyCapsule_IsValid(block, COUNTERS_NAME))
        return bad_context("the last item is not a counters() block");
    c->cnt = PyCapsule_GetPointer(block, COUNTERS_NAME);
    return 0;
}

/* -- attribute access ---------------------------------------------------- */

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

static int
set_attr_ll(PyObject *obj, PyObject *name, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    int rc;
    if (v == NULL)
        return -1;
    rc = PyObject_SetAttr(obj, name, v);
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

/* -- the DRAM bus -------------------------------------------------------- */

/* DRAM._bus_free_at as one call holds it. */
typedef struct {
    long long free_at;
    int loaded, dirty;
} Bus;

static int
bus_load(const Ctx *c, Bus *bus)
{
    if (bus->loaded)
        return 0;
    if (get_attr_ll(c->dram, s_bus_free_at, &bus->free_at) < 0)
        return -1;
    bus->loaded = 1;
    return 0;
}

/* Write the bus back; Python may move it before the next bus_load. */
static int
bus_release(const Ctx *c, Bus *bus)
{
    if (bus->dirty && set_attr_ll(c->dram, s_bus_free_at, bus->free_at) < 0)
        return -1;
    bus->dirty = bus->loaded = 0;
    return 0;
}

/* -- container steps ----------------------------------------------------- */

/* d.pop(key, None): a new reference, or NULL (check PyErr_Occurred). */
static PyObject *
dict_pop(PyObject *d, PyObject *key)
{
    PyObject *v = PyDict_GetItemWithError(d, key);
    if (v == NULL)
        return NULL;
    Py_INCREF(v);
    if (PyDict_DelItem(d, key) < 0) {
        Py_DECREF(v);
        return NULL;
    }
    return v;
}

/* A fill into a full set first evicts the dict's front entry (the LRU
 * line): d.pop(next(iter(d))), an untouched prefetch fill when < 0. */
static int
evict_if_full(PyObject *d, long long assoc, long long *evt, long long *pfevt)
{
    Py_ssize_t pos = 0, size = PyDict_Size(d);
    PyObject *key, *value;
    long long v;
    int rc;
    if (size < 0)
        return -1;
    if (size < assoc)
        return 0;
    if (!PyDict_Next(d, &pos, &key, &value)) {
        PyErr_SetString(PyExc_SystemError, "evicting from an empty cache set");
        return -1;
    }
    if (as_ll(value, &v) < 0)
        return -1;
    Py_INCREF(key);
    rc = PyDict_DelItem(d, key);
    Py_DECREF(key);
    if (rc < 0)
        return -1;
    *evt += 1;
    *pfevt += v < 0;
    return 0;
}

/* Fill into a set after a probe proved the tag absent. */
static int
fill_set(PyObject *set, PyObject *tag, PyObject *value, long long assoc,
         long long *evt, long long *pfevt)
{
    if (evict_if_full(set, assoc, evt, pfevt) < 0)
        return -1;
    return PyDict_SetItem(set, tag, value);
}

/* The set a line maps to (borrowed) and its tag (new reference). */
static PyObject *
locate(const Level *lv, long long line, PyObject **tag)
{
    Py_ssize_t index = (Py_ssize_t)((line >> lv->shift) & lv->mask);
    PyObject *set = PyList_GetItem(lv->sets, index);
    if (set == NULL)
        return NULL;
    *tag = PyLong_FromLongLong(line >> lv->tshift);
    return *tag == NULL ? NULL : set;
}

/* Retire the completed fills, oldest first (the MSHR is a FIFO):
 * while fills and inflight[fills[0]] <= now: del inflight[fills.popleft()]. */
static int
retire(const Ctx *c, long long now)
{
    for (;;) {
        PyObject *head, *v;
        long long ready;
        Py_ssize_t n = PySequence_Size(c->fills);
        if (n < 0)
            return -1;
        if (n == 0)
            return 0;
        head = PySequence_GetItem(c->fills, 0);
        if (head == NULL)
            return -1;
        v = PyDict_GetItemWithError(c->inflight, head);
        if (v == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, head);
            Py_DECREF(head);
            return -1;
        }
        if (as_ll(v, &ready) < 0) {
            Py_DECREF(head);
            return -1;
        }
        Py_DECREF(head);
        if (ready > now)
            return 0;
        head = PyObject_CallOneArg(deque_popleft, c->fills);
        if (head == NULL)
            return -1;
        if (PyDict_DelItem(c->inflight, head) < 0) {
            Py_DECREF(head);
            return -1;
        }
        Py_DECREF(head);
    }
}

/* A full MSHR file waits for its oldest fill: inflight.pop(fills.popleft()).
 * Stores that fill's ready cycle in *start. */
static int
wait_oldest(const Ctx *c, long long *start)
{
    PyObject *head = PyObject_CallOneArg(deque_popleft, c->fills);
    PyObject *v;
    int rc;
    if (head == NULL)
        return -1;
    v = dict_pop(c->inflight, head);
    if (v == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, head);
        Py_DECREF(head);
        return -1;
    }
    Py_DECREF(head);
    rc = as_ll(v, start);
    Py_DECREF(v);
    return rc;
}

/* An off-chip line fill requested at cycle `issue`: an MSHR slot (a full
 * file waits for its oldest fill, then `penalty` more cycles), a slot on
 * the serialising bus (constant line service), and the new outstanding
 * fill: inflight[line] = ready; fills.append(line). Returns the ready
 * cycle as a new reference, and its value in *ready. */
static PyObject *
fetch_line(const Ctx *c, Bus *bus, PyObject *line_o, long long issue,
           long long penalty, long long *ready)
{
    PyObject *ready_o, *args[2], *r;
    long long start, st;
    Py_ssize_t occupancy = PyDict_Size(c->inflight);
    if (occupancy < 0)
        return NULL;
    if (occupancy < c->mshr_cap)
        start = issue;
    else {
        c->cnt->stalls++;
        if (wait_oldest(c, &start) < 0)
            return NULL;
        start += penalty;
        occupancy--;
    }
    if (bus_load(c, bus) < 0)
        return NULL;
    st = start > bus->free_at ? start : bus->free_at;
    bus->free_at = st + c->service;
    bus->dirty = 1;
    *ready = st + c->fill_lat;
    ready_o = PyLong_FromLongLong(*ready);
    if (ready_o == NULL)
        return NULL;
    if (PyDict_SetItem(c->inflight, line_o, ready_o) < 0) {
        Py_DECREF(ready_o);
        return NULL;
    }
    args[0] = c->fills;
    args[1] = line_o;
    r = PyObject_Vectorcall(deque_append, args, 2, NULL);
    if (r == NULL) {
        Py_DECREF(ready_o);
        return NULL;
    }
    Py_DECREF(r);
    if (occupancy >= c->cnt->peak)
        c->cnt->peak = occupancy + 1;
    return ready_o;
}

/* Demand touch of a popped cache entry: re-insert it at the back of the
 * LRU order with its prefetch mark cleared (~ready decoded). Steals
 * `entry`; stores the ready cycle in *ready. */
static int
retouch(PyObject *set, PyObject *tag, PyObject *entry, long long *ready)
{
    int rc;
    if (as_ll(entry, ready) < 0) {
        Py_DECREF(entry);
        return -1;
    }
    if (*ready < 0) {
        *ready = ~*ready;
        Py_DECREF(entry);
        entry = PyLong_FromLongLong(*ready);
        if (entry == NULL)
            return -1;
    }
    rc = PyDict_SetItem(set, tag, entry);
    Py_DECREF(entry);
    return rc;
}

/* -- the demand body ----------------------------------------------------- */

/* One demand line at cycle `at`: the body both demand entries run.
 * Raises *done to the line's completion cycle. Returns 1 when the line
 * went off-chip, 0 when it was served on chip, -1 on error. */
static int
demand_one(const Ctx *c, Bus *bus, PyObject *line_o, long long line,
           long long at, int use_nsb, long long *done)
{
    Counters *n = c->cnt;
    PyObject *nset = NULL, *lset, *ntag = NULL, *ltag = NULL, *entry,
             *complete_o = NULL;
    long long ready, complete;
    int found, off_chip = 0;

    if (use_nsb) {
        n->nsb_acc++;
        nset = locate(&c->nsb, line, &ntag);
        if (nset == NULL)
            goto error;
        entry = dict_pop(nset, ntag);
        if (entry == NULL && PyErr_Occurred())
            goto error;
        if (entry != NULL) {
            if (retouch(nset, ntag, entry, &ready) < 0)
                goto error;
            found = PySet_Discard(c->pending, line_o);
            if (found < 0)
                goto error;
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
    lset = locate(&c->l2, line, &ltag);
    if (lset == NULL)
        goto error;
    entry = dict_pop(lset, ltag);
    if (entry == NULL) {
        if (PyErr_Occurred())
            goto error;
        /* Absent from the L2: retire the completed fills; a line still in
         * flight was evicted before its fill landed and coalesces onto it
         * (re-inserted below, so it may evict). */
        if (retire(c, at) < 0)
            goto error;
        entry = PyDict_GetItemWithError(c->inflight, line_o);
        if (entry == NULL && PyErr_Occurred())
            goto error;
        if (entry != NULL) {
            Py_INCREF(entry);
            n->coalesced++;
            if (evict_if_full(lset, c->l2.assoc, &n->l2_evt, &n->l2_pfevt) < 0) {
                Py_DECREF(entry);
                goto error;
            }
        }
    }
    if (entry != NULL) {
        if (retouch(lset, ltag, entry, &ready) < 0)
            goto error;
        found = PySet_Discard(c->pending, line_o);
        if (found < 0)
            goto error;
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
        /* True L2 miss: fetch from DRAM, fill into L2 (the probe above
         * proved the line absent). */
        n->l2_miss++;
        off_chip = 1;
        if (PySet_Discard(c->pending, line_o) < 0)
            goto error;
        complete_o = fetch_line(c, bus, line_o, at, 0, &complete);
        if (complete_o == NULL
            || fill_set(lset, ltag, complete_o, c->l2.assoc, &n->l2_evt,
                        &n->l2_pfevt) < 0)
            goto error;
    }
    if (use_nsb) {
        /* Promote into the NSB (it missed there, so a plain fill). */
        if (complete_o == NULL) {
            complete_o = PyLong_FromLongLong(complete);
            if (complete_o == NULL)
                goto error;
        }
        if (fill_set(nset, ntag, complete_o, c->nsb.assoc, &n->nsb_evt,
                     &n->nsb_pfevt) < 0)
            goto error;
    }
done:
    if (complete > *done)
        *done = complete;
    Py_XDECREF(complete_o);
    Py_XDECREF(ltag);
    Py_XDECREF(ntag);
    return off_chip;

error:
    Py_XDECREF(complete_o);
    Py_XDECREF(ltag);
    Py_XDECREF(ntag);
    return -1;
}

/* CPU traffic (MemorySystem._inject_cpu_traffic) runs before a line at
 * its issue cycle and moves the DRAM bus itself. */
static int
inject_cpu(const Ctx *c, Bus *bus, PyObject *inject, long long at)
{
    PyObject *at_o, *r;
    if (bus_release(c, bus) < 0)
        return -1;
    at_o = PyLong_FromLongLong(at);
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
    Ctx c;
    Bus bus = {0, 0, 0};
    long long now, line, done;
    int irregular, off_chip;

    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "demand_line takes 5 arguments");
        return NULL;
    }
    if (unpack_context(args[0], &c) < 0 || as_ll(args[1], &now) < 0
        || as_ll(args[2], &line) < 0)
        return NULL;
    irregular = PyObject_IsTrue(args[3]);
    if (irregular < 0
        || (args[4] != Py_None && inject_cpu(&c, &bus, args[4], now) < 0))
        return NULL;
    done = now;
    off_chip = demand_one(&c, &bus, args[2], line, now, irregular && c.has_nsb,
                          &done);
    if (off_chip < 0 || bus_release(&c, &bus) < 0)
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
    Ctx c;
    Bus bus = {0, 0, 0};
    long long now, issue_width, at, done, slot = 0;
    PyObject *lines, *inject, *counts, *flags_obj, *line_o = NULL;
    char *flags;
    int irregular, use_nsb;
    Py_ssize_t n, e;

    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "demand_lines takes 7 arguments");
        return NULL;
    }
    if (unpack_context(args[0], &c) < 0 || as_ll(args[1], &now) < 0
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
    use_nsb = irregular && c.has_nsb;
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
                /* The span's next line. */
                if (line > LLONG_MAX - c.line_bytes) {
                    PyErr_SetString(PyExc_OverflowError,
                                    "a span runs past the 64-bit line range");
                    goto error;
                }
                line += c.line_bytes;
                Py_DECREF(line_o);
                line_o = PyLong_FromLongLong(line);
                if (line_o == NULL)
                    goto error;
            }
            if (inject != NULL && inject_cpu(&c, &bus, inject, at) < 0)
                goto error;
            off_chip = demand_one(&c, &bus, line_o, line, at, use_nsb, &done);
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
    if (bus_release(&c, &bus) < 0)
        goto error;
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
    Ctx c;
    Counters *n;
    Bus bus = {0, 0, 0};
    long long now, max_issue, issue, issued = 0;
    PyObject *lines, *readys;
    PyObject *line_o = NULL, *ntag = NULL, *ltag = NULL, *ready_o = NULL,
             *entry = NULL;
    int irregular, target_nsb;
    Py_ssize_t n_lines, k, consumed;

    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "prefetch_lines takes 5 arguments");
        return NULL;
    }
    if (unpack_context(args[0], &c) < 0 || as_ll(args[1], &now) < 0)
        return NULL;
    n = c.cnt;
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
    target_nsb = irregular && c.has_nsb;
    issue = now + c.pf_penalty;
    consumed = n_lines;

    for (k = 0; k < n_lines; k++) {
        PyObject *nset = NULL, *lset, *v;
        long long line, ready;

        if (issued >= max_issue) {
            consumed = k;
            break;
        }
        line_o = PySequence_GetItem(lines, k);
        if (line_o == NULL || as_ll(line_o, &line) < 0)
            goto error;
        if (target_nsb) {
            int present;
            nset = locate(&c.nsb, line, &ntag);
            if (nset == NULL)
                goto error;
            present = PyDict_Contains(nset, ntag);
            if (present < 0)
                goto error;
            if (present) {
                Py_CLEAR(ntag);
                Py_CLEAR(line_o);
                continue;
            }
        }
        lset = locate(&c.l2, line, &ltag);
        if (lset == NULL)
            goto error;
        v = PyDict_GetItemWithError(lset, ltag);
        if (v == NULL) {
            if (PyErr_Occurred())
                goto error;
            /* Absent from the L2: retire the completed fills; a line
             * still in flight was evicted before its fill landed and
             * counts as resident. */
            if (retire(&c, now) < 0)
                goto error;
            v = PyDict_GetItemWithError(c.inflight, line_o);
            if (v == NULL && PyErr_Occurred())
                goto error;
            if (v != NULL)
                n->coalesced++;
        }
        if (v != NULL) {
            if (!target_nsb) {
                Py_CLEAR(ltag);
                Py_CLEAR(line_o);
                continue;
            }
            /* Pull from L2 into the NSB: on-chip transfer, no DRAM. */
            if (as_ll(v, &ready) < 0)
                goto error;
            if (ready < 0)
                ready = ~ready;
            if (now + c.l2_lat > ready)
                ready = now + c.l2_lat;
            ready_o = PyLong_FromLongLong(ready);
            if (ready_o == NULL)
                goto error;
        }
        else {
            /* Off-chip fill (prefetches issue after the arbitration
             * penalty), landing in the L2. */
            ready_o = fetch_line(&c, &bus, line_o, issue, c.pf_penalty, &ready);
            if (ready_o == NULL)
                goto error;
            entry = PyLong_FromLongLong(~ready);
            if (entry == NULL
                || fill_set(lset, ltag, entry, c.l2.assoc, &n->l2_evt,
                            &n->l2_pfevt) < 0)
                goto error;
            n->pf_off_chip++;
        }
        if (target_nsb) {
            /* The NSB probe above proved the line absent: plain fill. */
            if (entry == NULL) {
                entry = PyLong_FromLongLong(~ready);
                if (entry == NULL)
                    goto error;
            }
            if (fill_set(nset, ntag, entry, c.nsb.assoc, &n->nsb_evt,
                         &n->nsb_pfevt) < 0)
                goto error;
        }
        issued++;
        n->pf_issued++;
        if (PySet_Add(c.pending, line_o) < 0 || PyList_Append(readys, ready_o) < 0)
            goto error;
        Py_CLEAR(entry);
        Py_CLEAR(ready_o);
        Py_CLEAR(ltag);
        Py_CLEAR(ntag);
        Py_CLEAR(line_o);
    }

    if (bus_release(&c, &bus) < 0)
        goto error;
    return Py_BuildValue("(Nn)", readys, consumed);

error:
    Py_XDECREF(entry);
    Py_XDECREF(ready_o);
    Py_XDECREF(ltag);
    Py_XDECREF(ntag);
    Py_XDECREF(line_o);
    Py_DECREF(readys);
    return NULL;
}

/* -- the counter block --------------------------------------------------- */

PyDoc_STRVAR(counters_doc,
"counters()\n\n"
"A zeroed counter block: the last item of a new kernel context.");

static void
free_counters(PyObject *block)
{
    PyMem_Free(PyCapsule_GetPointer(block, COUNTERS_NAME));
}

static PyObject *
counters(PyObject *module, PyObject *unused)
{
    Counters *cnt = PyMem_Calloc(1, sizeof *cnt);
    PyObject *block;
    if (cnt == NULL)
        return PyErr_NoMemory();
    block = PyCapsule_New(cnt, COUNTERS_NAME, free_counters);
    if (block == NULL)
        PyMem_Free(cnt);
    return block;
}

PyDoc_STRVAR(fold_counters_doc,
"fold_counters(ctx)\n\n"
"Add the context's counter block into the NSB, L2 and prefetch stats,\n"
"the traffic record, both caches, the L2 MSHR file (its peak occupancy\n"
"as a maximum) and the DRAM, then zero the block.");

static PyObject *
fold_counters(PyObject *module, PyObject *ctx)
{
    Ctx c;
    Counters n;
    long long lb, transfers, peak;

    if (unpack_context(ctx, &c) < 0)
        return NULL;
    n = *c.cnt;
    memset(c.cnt, 0, sizeof n);
    lb = c.line_bytes;
    transfers = n.l2_miss + n.pf_off_chip;
    /* Without an NSB its counters are zero, and add_attr skips zeros. */
    if (add_attr(c.nsb_stats, s_demand_accesses, n.nsb_acc) < 0
        || add_attr(c.nsb_stats, s_demand_hits, n.nsb_hit) < 0
        || add_attr(c.nsb_stats, s_demand_inflight_hits, n.nsb_infl) < 0
        || add_attr(c.nsb_stats, s_demand_misses, n.nsb_miss) < 0
        || add_attr(c.nsb_cache, s_evictions, n.nsb_evt) < 0
        || add_attr(c.nsb_cache, s_prefetch_evicted_unused, n.nsb_pfevt) < 0
        || add_attr(c.l2_stats, s_demand_accesses, n.l2_acc) < 0
        || add_attr(c.l2_stats, s_demand_hits, n.l2_hit) < 0
        || add_attr(c.l2_stats, s_demand_inflight_hits, n.l2_infl) < 0
        || add_attr(c.l2_stats, s_demand_misses, n.l2_miss) < 0
        || add_attr(c.l2_cache, s_evictions, n.l2_evt) < 0
        || add_attr(c.l2_cache, s_prefetch_evicted_unused, n.l2_pfevt) < 0
        || add_attr(c.mshr, s_coalesced, n.coalesced) < 0
        || add_attr(c.mshr, s_structural_stalls, n.stalls) < 0
        || add_attr(c.pf_stats, s_useful, n.pf_useful) < 0
        || add_attr(c.pf_stats, s_late, n.pf_late) < 0
        || add_attr(c.pf_stats, s_issued, n.pf_issued) < 0
        || add_attr(c.pf_stats, s_issued_lines_off_chip, n.pf_off_chip) < 0
        || add_attr(c.traffic, s_nsb_to_npu_bytes, n.nsb_hit * lb) < 0
        || add_attr(c.traffic, s_l2_to_npu_bytes, n.l2_acc * lb) < 0
        || add_attr(c.traffic, s_off_chip_demand_bytes, n.l2_miss * lb) < 0
        || add_attr(c.traffic, s_off_chip_prefetch_bytes, n.pf_off_chip * lb) < 0
        || add_attr(c.dram, s_busy_cycles, transfers * c.service) < 0
        || add_attr(c.dram, s_transfers, transfers) < 0
        || add_attr(c.dram, s_bytes_transferred, transfers * lb) < 0
        || get_attr_ll(c.mshr, s_peak_occupancy, &peak) < 0)
        return NULL;
    if (n.peak > peak && set_attr_ll(c.mshr, s_peak_occupancy, n.peak) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* -- check_context ------------------------------------------------------- */

PyDoc_STRVAR(check_context_doc,
"check_context(ctx)\n\n"
"Validate a kernel context once, when its MemorySystem is built, and\n"
"return it. Beyond what every kernel call checks, every cache set must\n"
"be a dict. Raises TypeError naming the first mismatch.");

static int
check_sets(const Level *lv)
{
    Py_ssize_t i, n = PyList_GET_SIZE(lv->sets);
    for (i = 0; i < n; i++) {
        if (!PyDict_CheckExact(PyList_GET_ITEM(lv->sets, i)))
            return bad_context("a cache set is not a dict");
    }
    return 0;
}

static PyObject *
check_context(PyObject *module, PyObject *ctx)
{
    Ctx c;
    if (unpack_context(ctx, &c) < 0 || check_sets(&c.l2) < 0
        || (c.has_nsb && check_sets(&c.nsb) < 0))
        return NULL;
    if (c.mshr_cap < 1 || c.line_bytes < 1 || c.service < 1)
        return PyErr_Format(PyExc_TypeError,
                            "hierarchy kernel context: non-positive geometry");
    Py_INCREF(ctx);
    return ctx;
}

static PyMethodDef kernel_methods[] = {
    {"demand_line", (PyCFunction)(void (*)(void))demand_line, METH_FASTCALL,
     demand_line_doc},
    {"demand_lines", (PyCFunction)(void (*)(void))demand_lines, METH_FASTCALL,
     demand_lines_doc},
    {"prefetch_lines", (PyCFunction)(void (*)(void))prefetch_lines, METH_FASTCALL,
     prefetch_lines_doc},
    {"counters", counters, METH_NOARGS, counters_doc},
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
    PyObject *collections;
    if (intern(&s_bus_free_at, "_bus_free_at") < 0
        || intern(&s_busy_cycles, "busy_cycles") < 0
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
        || intern(&s_off_chip_prefetch_bytes, "off_chip_prefetch_bytes") < 0)
        return NULL;
    collections = PyImport_ImportModule("collections");
    if (collections == NULL)
        return NULL;
    deque_type = PyObject_GetAttrString(collections, "deque");
    Py_DECREF(collections);
    if (deque_type == NULL)
        return NULL;
    deque_popleft = PyObject_GetAttrString(deque_type, "popleft");
    if (deque_popleft == NULL)
        return NULL;
    deque_append = PyObject_GetAttrString(deque_type, "append");
    if (deque_append == NULL)
        return NULL;
    return PyModule_Create(&kernel_module);
}
