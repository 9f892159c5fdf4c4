/* The request-vector kernels of MemorySystem, compiled.
 *
 * MemorySystem.demand_lines and MemorySystem.prefetch_lines
 * (hierarchy.py) are each one call into this module. The kernels walk
 * the same Python containers the rest of the hierarchy uses, with the
 * same dict, deque and set operations in the same order as the Python
 * references (demand_access / demand_line and prefetch_line):
 *
 *   - a cache level is Cache.hot_state(): a list of per-set dicts from
 *     tag to ready cycle (~ready while an untouched prefetch fill), whose
 *     insertion order is the LRU order;
 *   - the L2 MSHR is MSHRFile.hot_state(): the fills deque (allocation
 *     order, which is completion order) and the inflight dict;
 *   - the prefetched-but-not-demanded lines are MemorySystem._pf_pending.
 *
 * So LRU order, MSHR contents and every counter stay exact, and Python
 * code can interleave with the kernels freely. Counters are kept in C
 * locals and folded into the stats records (plain Python attributes)
 * once per call, as the Python kernels did.
 *
 * Cycles, tags and line addresses are held as 64-bit ints; a value
 * outside that range raises OverflowError instead of wrapping.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Interned attribute names, and collections.deque. */
static PyObject *s_popleft, *s_append, *s_bus_free_at, *s_busy_cycles,
    *s_transfers, *s_bytes_transferred, *s_peak_occupancy, *s_coalesced,
    *s_structural_stalls, *s_evictions, *s_prefetch_evicted_unused,
    *s_demand_accesses, *s_demand_hits, *s_demand_inflight_hits,
    *s_demand_misses, *s_useful, *s_late, *s_issued,
    *s_issued_lines_off_chip, *s_nsb_to_npu_bytes, *s_l2_to_npu_bytes,
    *s_off_chip_demand_bytes, *s_off_chip_prefetch_bytes;
static PyObject *deque_type;

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
} Ctx;

enum {
    CTX_L2_HOT, CTX_NSB_HOT, CTX_MSHR_HOT, CTX_PENDING, CTX_TIMING, CTX_L2,
    CTX_NSB, CTX_MSHR, CTX_DRAM, CTX_NSB_STATS, CTX_L2_STATS, CTX_PF_STATS,
    CTX_TRAFFIC, CTX_SIZE
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
    PyObject *mshr_hot, *timing, *nsb_hot;

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
    return 0;
}

/* -- attribute folding --------------------------------------------------- */

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

/* A fill into a full set evicts the dict's front entry (the LRU line):
 * d.pop(next(iter(d))) < 0. Returns 1 for an untouched prefetch fill, 0
 * otherwise, -1 on error. */
static int
evict_front(PyObject *d)
{
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    long long v;
    int rc;
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
    return v < 0;
}

/* Fill into a set after a probe proved the tag absent. */
static int
fill_set(PyObject *set, PyObject *tag, PyObject *value, long long assoc,
         long long *evt, long long *pfevt)
{
    Py_ssize_t size = PyDict_Size(set);
    if (size < 0)
        return -1;
    if (size >= assoc) {
        int untouched = evict_front(set);
        if (untouched < 0)
            return -1;
        *evt += 1;
        *pfevt += untouched;
    }
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
        head = PyObject_CallMethodNoArgs(c->fills, s_popleft);
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
    PyObject *head = PyObject_CallMethodNoArgs(c->fills, s_popleft);
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

/* Record a new outstanding fill: inflight[line] = ready; fills.append(line). */
static int
allocate_fill(const Ctx *c, PyObject *line, PyObject *ready)
{
    PyObject *r;
    if (PyDict_SetItem(c->inflight, line, ready) < 0)
        return -1;
    r = PyObject_CallMethodOneArg(c->fills, s_append, line);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* The ready cycle of a cache entry, decoded from ~ready, as a new
 * reference (the entry itself when it is already non-negative). */
static PyObject *
decode_ready(PyObject *entry, long long *ready)
{
    if (as_ll(entry, ready) < 0)
        return NULL;
    if (*ready >= 0) {
        Py_INCREF(entry);
        return entry;
    }
    *ready = ~*ready;
    return PyLong_FromLongLong(*ready);
}

/* -- demand_lines -------------------------------------------------------- */

PyDoc_STRVAR(demand_lines_doc,
"demand_lines(ctx, now, issue_width, lines, irregular, inject)\n\n"
"The body of MemorySystem.demand_lines: line k issues at cycle\n"
"now + k // issue_width. ``inject`` is MemorySystem._inject_cpu_traffic\n"
"when CPU traffic is configured (called with each line's issue cycle\n"
"before the line), else None. Returns (last_complete_cycle, dram_flags).");

static PyObject *
demand_lines(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    long long now, issue_width, at, done, slot = 0, bus = 0, peak, cur_peak;
    long long nsb_acc = 0, nsb_hit = 0, nsb_infl = 0, nsb_miss = 0;
    long long l2_acc = 0, l2_hit = 0, l2_infl = 0, l2_miss = 0;
    long long coalesced = 0, stalls = 0, pf_useful = 0, pf_late = 0;
    long long nsb_npu_bytes = 0, l2_npu_bytes = 0;
    long long l2_evt = 0, l2_pfevt = 0, nsb_evt = 0, nsb_pfevt = 0;
    PyObject *lines, *inject, *flags_obj;
    PyObject *line_o = NULL, *ntag = NULL, *ltag = NULL, *ready_o = NULL,
             *complete_o = NULL;
    char *flags;
    int irregular, use_nsb, bus_dirty = 0;
    Py_ssize_t n, k;

    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError, "demand_lines takes 6 arguments");
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
    n = PySequence_Size(lines);
    if (n < 0)
        return NULL;
    flags_obj = PyByteArray_FromStringAndSize(NULL, n);
    if (flags_obj == NULL)
        return NULL;
    flags = PyByteArray_AS_STRING(flags_obj);
    memset(flags, 0, (size_t)n);
    if (n == 0)
        return Py_BuildValue("(LN)", now, flags_obj);
    use_nsb = irregular && c.has_nsb;
    /* CPU traffic (inject) allocates through the MSHR's methods too, so
     * the local peak is folded back as a maximum. */
    if (get_attr_ll(c.mshr, s_peak_occupancy, &peak) < 0
        || get_attr_ll(c.dram, s_bus_free_at, &bus) < 0)
        goto error;
    done = at = now;

    for (k = 0; k < n; k++) {
        PyObject *nset = NULL, *lset;
        long long line, ready, complete;

        line_o = PySequence_GetItem(lines, k);
        if (line_o == NULL || as_ll(line_o, &line) < 0)
            goto error;
        if (inject != NULL) {
            /* CPU traffic uses the DRAM bus: hand it the bus and re-read
             * it afterwards. */
            PyObject *at_o, *r;
            if (bus_dirty) {
                if (set_attr_ll(c.dram, s_bus_free_at, bus) < 0)
                    goto error;
                bus_dirty = 0;
            }
            at_o = PyLong_FromLongLong(at);
            if (at_o == NULL)
                goto error;
            r = PyObject_CallOneArg(inject, at_o);
            Py_DECREF(at_o);
            if (r == NULL)
                goto error;
            Py_DECREF(r);
            if (get_attr_ll(c.dram, s_bus_free_at, &bus) < 0)
                goto error;
        }
        if (use_nsb) {
            nsb_acc++;
            nset = locate(&c.nsb, line, &ntag);
            if (nset == NULL)
                goto error;
            ready_o = dict_pop(nset, ntag);
            if (ready_o == NULL && PyErr_Occurred())
                goto error;
            if (ready_o != NULL) {
                /* Demand touch: back of the LRU order, mark cleared. */
                PyObject *entry = ready_o;
                ready_o = decode_ready(entry, &ready);
                Py_DECREF(entry);
                if (ready_o == NULL || PyDict_SetItem(nset, ntag, ready_o) < 0)
                    goto error;
                if (ready <= at) {
                    int found;
                    nsb_hit++;
                    nsb_npu_bytes += c.line_bytes;
                    found = PySet_Discard(c.pending, line_o);
                    if (found < 0)
                        goto error;
                    pf_useful += found;
                    complete = at + c.nsb_lat;
                }
                else {
                    int found;
                    nsb_infl++;
                    found = PySet_Discard(c.pending, line_o);
                    if (found < 0)
                        goto error;
                    pf_late += found;
                    complete = ready;
                    if (at + c.nsb_lat > complete)
                        complete = at + c.nsb_lat;
                }
                if (complete > done)
                    done = complete;
                Py_CLEAR(ready_o);
                Py_CLEAR(ntag);
                Py_CLEAR(line_o);
                if (++slot == issue_width) {
                    slot = 0;
                    at++;
                }
                continue;
            }
            nsb_miss++;
        }
        l2_acc++;
        lset = locate(&c.l2, line, &ltag);
        if (lset == NULL)
            goto error;
        ready_o = dict_pop(lset, ltag);
        if (ready_o == NULL) {
            PyObject *v;
            if (PyErr_Occurred())
                goto error;
            /* Absent from the L2: retire the completed fills; a line
             * still in flight was evicted before its fill landed and
             * coalesces onto it. */
            if (retire(&c, at) < 0)
                goto error;
            v = PyDict_GetItemWithError(c.inflight, line_o);
            if (v == NULL && PyErr_Occurred())
                goto error;
            if (v != NULL) {
                Py_ssize_t size = PyDict_Size(lset);
                if (size < 0)
                    goto error;
                Py_INCREF(v);
                ready_o = v;
                coalesced++;
                if (size >= c.l2.assoc) {
                    int untouched = evict_front(lset);
                    if (untouched < 0)
                        goto error;
                    l2_evt++;
                    l2_pfevt += untouched;
                }
            }
        }
        if (ready_o != NULL) {
            PyObject *entry = ready_o;
            int found;
            ready_o = decode_ready(entry, &ready);
            Py_DECREF(entry);
            if (ready_o == NULL || PyDict_SetItem(lset, ltag, ready_o) < 0)
                goto error;
            l2_npu_bytes += c.line_bytes;
            found = PySet_Discard(c.pending, line_o);
            if (found < 0)
                goto error;
            if (ready <= at) {
                l2_hit++;
                pf_useful += found;
                complete = at + c.l2_lat;
            }
            else {
                l2_infl++;
                pf_late += found;
                complete = ready;
                if (at + c.l2_lat > complete)
                    complete = at + c.l2_lat;
            }
            Py_CLEAR(ready_o);
        }
        else {
            /* True L2 miss: fetch from DRAM through an MSHR slot (retired
             * at the probe time above; a full file waits for its oldest
             * fill) over the serialising bus (constant line service). */
            long long start, st;
            Py_ssize_t occupancy;
            l2_miss++;
            flags[k] = 1;
            if (PySet_Discard(c.pending, line_o) < 0)
                goto error;
            occupancy = PyDict_Size(c.inflight);
            if (occupancy < 0)
                goto error;
            if (occupancy < c.mshr_cap)
                start = at;
            else {
                stalls++;
                if (wait_oldest(&c, &start) < 0)
                    goto error;
                occupancy--;
            }
            st = start > bus ? start : bus;
            bus = st + c.service;
            bus_dirty = 1;
            complete = st + c.fill_lat;
            complete_o = PyLong_FromLongLong(complete);
            if (complete_o == NULL || allocate_fill(&c, line_o, complete_o) < 0)
                goto error;
            if (occupancy >= peak)
                peak = occupancy + 1;
            /* Fill into L2 (the probe above proved the line absent). */
            if (fill_set(lset, ltag, complete_o, c.l2.assoc, &l2_evt, &l2_pfevt) < 0)
                goto error;
            l2_npu_bytes += c.line_bytes;
        }
        if (use_nsb) {
            /* Promote into the NSB (it missed there, so a plain fill). */
            if (complete_o == NULL) {
                complete_o = PyLong_FromLongLong(complete);
                if (complete_o == NULL)
                    goto error;
            }
            if (fill_set(nset, ntag, complete_o, c.nsb.assoc, &nsb_evt, &nsb_pfevt) < 0)
                goto error;
        }
        if (complete > done)
            done = complete;
        Py_CLEAR(complete_o);
        Py_CLEAR(ltag);
        Py_CLEAR(ntag);
        Py_CLEAR(line_o);
        if (++slot == issue_width) {
            slot = 0;
            at++;
        }
    }

    if (bus_dirty && set_attr_ll(c.dram, s_bus_free_at, bus) < 0)
        goto error;
    if (use_nsb) {
        if (add_attr(c.nsb_stats, s_demand_accesses, nsb_acc) < 0
            || add_attr(c.nsb_stats, s_demand_hits, nsb_hit) < 0
            || add_attr(c.nsb_stats, s_demand_inflight_hits, nsb_infl) < 0
            || add_attr(c.nsb_stats, s_demand_misses, nsb_miss) < 0
            || add_attr(c.nsb_cache, s_evictions, nsb_evt) < 0
            || add_attr(c.nsb_cache, s_prefetch_evicted_unused, nsb_pfevt) < 0)
            goto error;
    }
    if (add_attr(c.l2_stats, s_demand_accesses, l2_acc) < 0
        || add_attr(c.l2_stats, s_demand_hits, l2_hit) < 0
        || add_attr(c.l2_stats, s_demand_inflight_hits, l2_infl) < 0
        || add_attr(c.l2_stats, s_demand_misses, l2_miss) < 0
        || add_attr(c.mshr, s_coalesced, coalesced) < 0
        || add_attr(c.pf_stats, s_useful, pf_useful) < 0
        || add_attr(c.pf_stats, s_late, pf_late) < 0)
        goto error;
    if (l2_miss) {
        if (add_attr(c.dram, s_busy_cycles, l2_miss * c.service) < 0
            || add_attr(c.dram, s_transfers, l2_miss) < 0
            || add_attr(c.dram, s_bytes_transferred, l2_miss * c.line_bytes) < 0
            || add_attr(c.mshr, s_structural_stalls, stalls) < 0
            || get_attr_ll(c.mshr, s_peak_occupancy, &cur_peak) < 0)
            goto error;
        if (peak > cur_peak && set_attr_ll(c.mshr, s_peak_occupancy, peak) < 0)
            goto error;
    }
    if (add_attr(c.l2_cache, s_evictions, l2_evt) < 0
        || add_attr(c.l2_cache, s_prefetch_evicted_unused, l2_pfevt) < 0
        || add_attr(c.traffic, s_nsb_to_npu_bytes, nsb_npu_bytes) < 0
        || add_attr(c.traffic, s_l2_to_npu_bytes, l2_npu_bytes) < 0
        || add_attr(c.traffic, s_off_chip_demand_bytes, l2_miss * c.line_bytes) < 0)
        goto error;
    return Py_BuildValue("(LN)", done, flags_obj);

error:
    Py_XDECREF(complete_o);
    Py_XDECREF(ready_o);
    Py_XDECREF(ltag);
    Py_XDECREF(ntag);
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
    long long now, max_issue, bus, peak, issue;
    long long issued = 0, off_chip = 0, stalls = 0, coalesced = 0;
    long long l2_evt = 0, l2_pfevt = 0, nsb_evt = 0, nsb_pfevt = 0;
    PyObject *lines, *readys;
    PyObject *line_o = NULL, *ntag = NULL, *ltag = NULL, *ready_o = NULL,
             *entry = NULL;
    int irregular, target_nsb;
    Py_ssize_t n, k, consumed;

    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "prefetch_lines takes 5 arguments");
        return NULL;
    }
    if (unpack_context(args[0], &c) < 0 || as_ll(args[1], &now) < 0)
        return NULL;
    lines = args[2];
    irregular = PyObject_IsTrue(args[3]);
    if (irregular < 0 || as_ll(args[4], &max_issue) < 0)
        return NULL;
    n = PySequence_Size(lines);
    if (n < 0)
        return NULL;
    readys = PyList_New(0);
    if (readys == NULL)
        return NULL;
    if (n == 0)
        return Py_BuildValue("(Ni)", readys, 0);
    target_nsb = irregular && c.has_nsb;
    /* Nothing else touches the DRAM bus during a burst: keep it local. */
    if (get_attr_ll(c.mshr, s_peak_occupancy, &peak) < 0
        || get_attr_ll(c.dram, s_bus_free_at, &bus) < 0)
        goto error;
    issue = now + c.pf_penalty;
    consumed = n;

    for (k = 0; k < n; k++) {
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
                coalesced++;
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
            /* Off-chip fill: MSHR slot, DRAM bus (prefetches issue after
             * the arbitration penalty) and L2 fill. */
            long long start, st;
            Py_ssize_t occupancy = PyDict_Size(c.inflight);
            if (occupancy < 0)
                goto error;
            if (occupancy < c.mshr_cap)
                start = issue;
            else {
                stalls++;
                if (wait_oldest(&c, &start) < 0)
                    goto error;
                start += c.pf_penalty;
                occupancy--;
            }
            st = start > bus ? start : bus;
            bus = st + c.service;
            ready = st + c.fill_lat;
            ready_o = PyLong_FromLongLong(ready);
            if (ready_o == NULL || allocate_fill(&c, line_o, ready_o) < 0)
                goto error;
            if (occupancy >= peak)
                peak = occupancy + 1;
            entry = PyLong_FromLongLong(~ready);
            if (entry == NULL
                || fill_set(lset, ltag, entry, c.l2.assoc, &l2_evt, &l2_pfevt) < 0)
                goto error;
            off_chip++;
        }
        if (target_nsb) {
            /* The NSB probe above proved the line absent: plain fill. */
            if (entry == NULL) {
                entry = PyLong_FromLongLong(~ready);
                if (entry == NULL)
                    goto error;
            }
            if (fill_set(nset, ntag, entry, c.nsb.assoc, &nsb_evt, &nsb_pfevt) < 0)
                goto error;
        }
        issued++;
        if (PySet_Add(c.pending, line_o) < 0 || PyList_Append(readys, ready_o) < 0)
            goto error;
        Py_CLEAR(entry);
        Py_CLEAR(ready_o);
        Py_CLEAR(ltag);
        Py_CLEAR(ntag);
        Py_CLEAR(line_o);
    }

    if (add_attr(c.mshr, s_coalesced, coalesced) < 0)
        goto error;
    if (issued) {
        if (add_attr(c.pf_stats, s_issued, issued) < 0
            || add_attr(c.pf_stats, s_issued_lines_off_chip, off_chip) < 0
            || add_attr(c.traffic, s_off_chip_prefetch_bytes,
                        off_chip * c.line_bytes) < 0)
            goto error;
        if (off_chip
            && (set_attr_ll(c.dram, s_bus_free_at, bus) < 0
                || add_attr(c.dram, s_busy_cycles, off_chip * c.service) < 0
                || add_attr(c.dram, s_transfers, off_chip) < 0
                || add_attr(c.dram, s_bytes_transferred, off_chip * c.line_bytes) < 0
                || add_attr(c.mshr, s_structural_stalls, stalls) < 0
                || set_attr_ll(c.mshr, s_peak_occupancy, peak) < 0))
            goto error;
        if (add_attr(c.l2_cache, s_evictions, l2_evt) < 0
            || add_attr(c.l2_cache, s_prefetch_evicted_unused, l2_pfevt) < 0
            || add_attr(c.nsb_cache, s_evictions, nsb_evt) < 0
            || add_attr(c.nsb_cache, s_prefetch_evicted_unused, nsb_pfevt) < 0)
            goto error;
    }
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
    {"demand_lines", (PyCFunction)(void (*)(void))demand_lines, METH_FASTCALL,
     demand_lines_doc},
    {"prefetch_lines", (PyCFunction)(void (*)(void))prefetch_lines, METH_FASTCALL,
     prefetch_lines_doc},
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
    if (intern(&s_popleft, "popleft") < 0 || intern(&s_append, "append") < 0
        || intern(&s_bus_free_at, "_bus_free_at") < 0
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
    return PyModule_Create(&kernel_module);
}
