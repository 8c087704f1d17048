/* list_adapters.c: translate_block_addrs, accumulate, drain_scalar and
 * place_greedy, the list-in/list-out adapters.
 *
 * The replay translation and the cycles fold on their own, and the
 * working set's drain and placement cores (tree.c) behind Python-list
 * arguments.  Nothing under src/ calls them: their callers are
 * perf/layers.py::NativeProxy, the perf harness's proxy of this module,
 * and their tests.  No other unit calls into this one; the module adds
 * list_adapter_methods at init.
 */

#include "_replay_core.h"

static PyObject *
translate_block_addrs(PyObject *self, PyObject *args)
{
    PyObject *line_addrs;
    long long lpb;
    if (!PyArg_ParseTuple(args, "OL:translate_block_addrs", &line_addrs,
                          &lpb))
        return NULL;
    if (lpb < 1) {
        PyErr_Format(PyExc_ValueError,
                     "lines_per_block must be >= 1, got %lld", lpb);
        return NULL;
    }

    Col col;
    if (col_acquire(line_addrs, &col, "line_addrs", &COL_I64, 0) < 0)
        return NULL;
    const long long *lines = col.data;
    PyObject *out = PyList_New(col.len);
    if (out == NULL) {
        col_release(&col);
        return NULL;
    }
    int pow2 = (lpb & (lpb - 1)) == 0;
    int shift = bit_length64(lpb) - 1;
    for (Py_ssize_t i = 0; i < col.len; i++) {
        long long v = lines[i];
        if (lpb != 1)
            /* Arithmetic shift == floor division for a power-of-two
             * divisor; general case uses Python floor semantics. */
            v = pow2 ? (v >> shift) : floordiv64(v, lpb);
        PyObject *boxed = PyLong_FromLongLong(v);
        if (boxed == NULL) {
            Py_DECREF(out);
            col_release(&col);
            return NULL;
        }
        PyList_SET_ITEM(out, i, boxed);
    }
    col_release(&col);
    return out;
}

/* ------------------------------------------------------------------ */
/* accumulate                                                          */
/* ------------------------------------------------------------------ */

static PyObject *
accumulate(PyObject *self, PyObject *args)
{
    PyObject *start, *latencies;
    if (!PyArg_ParseTuple(args, "OO:accumulate", &start, &latencies))
        return NULL;
    PyObject *seq =
        PySequence_Fast(latencies, "latencies must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    PyObject **items = PySequence_Fast_ITEMS(seq);

    if (PyFloat_CheckExact(start)) {
        double total = PyFloat_AS_DOUBLE(start);
        Py_ssize_t i = 0;
        for (; i < n; i++) {
            PyObject *item = items[i];
            if (!PyFloat_CheckExact(item))
                break;
            /* One IEEE-754 double addition per event, in event order —
             * exactly CPython's float.__add__ fold. */
            total += PyFloat_AS_DOUBLE(item);
        }
        if (i == n) {
            Py_DECREF(seq);
            return PyFloat_FromDouble(total);
        }
        /* Mixed operand types (the dict-fallback latency path): finish
         * with the generic protocol so operand *types* match the
         * interpreted kernel, not just their values. */
        PyObject *acc = PyFloat_FromDouble(total);
        if (acc == NULL) {
            Py_DECREF(seq);
            return NULL;
        }
        for (; i < n; i++) {
            PyObject *next = PyNumber_Add(acc, items[i]);
            Py_DECREF(acc);
            if (next == NULL) {
                Py_DECREF(seq);
                return NULL;
            }
            acc = next;
        }
        Py_DECREF(seq);
        return acc;
    }

    PyObject *acc = start;
    Py_INCREF(acc);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *next = PyNumber_Add(acc, items[i]);
        Py_DECREF(acc);
        if (next == NULL) {
            Py_DECREF(seq);
            return NULL;
        }
        acc = next;
    }
    Py_DECREF(seq);
    return acc;
}

/* Unbox a slot id read out of a Python container and bounds-check it
 * against the arena (both columns: `arena_len` is the shorter one). */
static int
as_slot(PyObject *obj, Py_ssize_t arena_len, const char *where, int32_t *out)
{
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s slot ids must be ints, not %.100s",
                     where, Py_TYPE(obj)->tp_name);
        return -1;
    }
    int overflow;
    long long s = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow || s < 0 || s >= arena_len || s > INT32_MAX) {
        PyErr_Format(PyExc_IndexError, "%s slot %S outside the arena", where,
                     obj);
        return -1;
    }
    *out = (int32_t)s;
    return 0;
}

/* list.append(slot) */
static int
append_slot(PyObject *list, long slot)
{
    PyObject *boxed = PyLong_FromLong(slot);
    if (boxed == NULL)
        return -1;
    int rc = PyList_Append(list, boxed);
    Py_DECREF(boxed);
    return rc;
}

/* drain_scalar(path, addr_col, leaf_col, stash_slots, slot, addr, leaf,
 *              levels, by_depth, drained_flat, resident) -> slot | None
 *
 * A list-in/list-out adapter over drain_core: the stash dict's slots
 * and the path's bucket lists are unboxed into one scratch column (the
 * stash, then the path's flat run root->leaf), drained
 * by the same integer loop the handles run, and the result is unpacked
 * into Python scratch lists — residents and drained slots appended to
 * by_depth[depth] in merge order, residents also to `resident`, every
 * non-empty path bucket snapshotted into `drained_flat`.  Returns the
 * slot holding the block of interest, or None when it is absent.  On an
 * error nothing is appended.
 */
static PyObject *
drain_scalar(PyObject *self, PyObject *args)
{
    PyObject *path, *addr_obj, *leaf_obj, *stash, *slot_in;
    long long addr, leaf;
    int levels;
    PyObject *by_depth, *drained_flat, *resident;
    if (!PyArg_ParseTuple(args, "OOOOOLLiOOO:drain_scalar", &path,
                          &addr_obj, &leaf_obj, &stash, &slot_in, &addr,
                          &leaf, &levels, &by_depth, &drained_flat,
                          &resident))
        return NULL;
    if (!PyList_Check(path) || !PyDict_Check(stash) ||
        !PyList_Check(by_depth) || !PyList_Check(drained_flat) ||
        !PyList_Check(resident)) {
        PyErr_SetString(PyExc_TypeError,
                        "drain_scalar expects list/dict containers");
        return NULL;
    }
    if (levels > 60 || PyList_GET_SIZE(path) > 61) {
        PyErr_SetString(PyExc_ValueError,
                        "drain_scalar supports at most 60 levels");
        return NULL;
    }

    Col addr_col = {0}, leaf_col = {0};
    WorkSet ws = {0};
    int32_t *ids = NULL;
    PyObject *result = NULL;
    long long found = -1;
    if (col_acquire(addr_obj, &addr_col, "addr_col", &COL_I64, 0) < 0)
        return NULL;
    if (col_acquire(leaf_obj, &leaf_col, "leaf_col", &COL_I64, 0) < 0)
        goto done;
    const Py_ssize_t arena_len =
        addr_col.len < leaf_col.len ? addr_col.len : leaf_col.len;
    const Py_ssize_t path_len = PyList_GET_SIZE(path);
    const Py_ssize_t n_stash = PyDict_GET_SIZE(stash);

    /* Unbox: the stash's slots in dict order, then the path's. */
    Py_ssize_t total = n_stash;
    for (Py_ssize_t li = 0; li < path_len; li++) {
        if (!PyList_Check(PyList_GET_ITEM(path, li))) {
            PyErr_SetString(PyExc_TypeError,
                            "path buckets must be slot lists");
            goto done;
        }
        total += PyList_GET_SIZE(PyList_GET_ITEM(path, li));
    }
    ids = PyMem_Malloc((size_t)(total ? total : 1) * sizeof(int32_t));
    if (ids == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int32_t ignored;
    if (slot_in != Py_None && as_slot(slot_in, arena_len, "stash", &ignored) < 0)
        goto done;
    PyObject *key, *value;
    Py_ssize_t pos = 0, filled = 0;
    while (PyDict_Next(stash, &pos, &key, &value)) {
        if (!PyLong_Check(key)) {
            PyErr_Format(PyExc_TypeError,
                         "stash addresses must be ints, not %.100s",
                         Py_TYPE(key)->tp_name);
            goto done;
        }
        if (as_slot(value, arena_len, "stash", &ids[filled++]) < 0)
            goto done;
    }
    for (Py_ssize_t li = 0; li < path_len; li++) {
        PyObject *lst = PyList_GET_ITEM(path, li);
        for (Py_ssize_t bi = 0; bi < PyList_GET_SIZE(lst); bi++) {
            if (as_slot(PyList_GET_ITEM(lst, bi), arena_len, "bucket",
                        &ids[filled++]) < 0)
                goto done;
        }
    }

    if (ws_begin(&ws, arena_len) < 0 ||
        drain_core(&ws, addr_col.data, leaf_col.data, arena_len, ids, n_stash,
                   ids + n_stash, total - n_stash, &found, addr, leaf,
                   levels) < 0)
        goto done;

    Py_ssize_t nlevels = PyList_GET_SIZE(by_depth);
    for (Py_ssize_t i = 0; i < ws.n; i++) {
        int depth = ws.merged[i].depth;
        if (depth >= nlevels) {
            PyErr_Format(PyExc_IndexError,
                         "eviction depth %d outside by_depth", depth);
            goto done;
        }
        if (!PyList_Check(PyList_GET_ITEM(by_depth, depth))) {
            PyErr_SetString(PyExc_TypeError,
                            "by_depth entries must be lists");
            goto done;
        }
    }
    for (Py_ssize_t i = 0; i < ws.n; i++) {
        Entry *e = &ws.merged[i];
        if (append_slot(PyList_GET_ITEM(by_depth, e->depth), e->slot) < 0)
            goto done;
        if (i < ws.n_resident && append_slot(resident, e->slot) < 0)
            goto done;
    }
    for (Py_ssize_t li = 0; li < path_len; li++) {
        Py_ssize_t end = PyList_GET_SIZE(drained_flat);
        if (PyList_SetSlice(drained_flat, end, end,
                            PyList_GET_ITEM(path, li)) < 0)
            goto done;
    }
    result = found >= 0 ? PyLong_FromLongLong(found) : Py_NewRef(Py_None);

done:
    ws_free(&ws);
    PyMem_Free(ids);
    col_release(&addr_col);
    col_release(&leaf_col);
    return result;
}

/* place_greedy(path, by_depth, levels, cap) -> pool (list)
 *
 * A list-in/list-out adapter over place_core: the by_depth candidates
 * are unboxed into a working set (depth-major, list order — the only
 * order placement depends on), placed into scratch buckets by the same
 * integer loop the handles run, the bucket lists are rewritten from
 * those, the by_depth scratch lists are left empty and the leftover
 * pool is returned as a list in the object backend's order.
 */
static PyObject *
place_greedy(PyObject *self, PyObject *args)
{
    PyObject *path, *by_depth;
    int levels, cap;
    if (!PyArg_ParseTuple(args, "OOii:place_greedy", &path, &by_depth,
                          &levels, &cap))
        return NULL;
    if (levels < 0 || !PyList_Check(path) || !PyList_Check(by_depth) ||
        PyList_GET_SIZE(path) < (Py_ssize_t)levels + 1 ||
        PyList_GET_SIZE(by_depth) < (Py_ssize_t)levels + 1) {
        PyErr_SetString(PyExc_TypeError,
                        "place_greedy expects path/by_depth lists of "
                        "levels + 1 buckets");
        return NULL;
    }
    if (levels > 60) {
        PyErr_SetString(PyExc_ValueError,
                        "place_greedy supports at most 60 levels");
        return NULL;
    }
    if (cap > 255) {
        PyErr_SetString(PyExc_ValueError,
                        "place_greedy supports at most 255 blocks a bucket");
        return NULL;
    }
    Py_ssize_t total = 0;
    for (int d = 0; d <= levels; d++) {
        if (!PyList_Check(PyList_GET_ITEM(by_depth, d)) ||
            !PyList_Check(PyList_GET_ITEM(path, d))) {
            PyErr_SetString(PyExc_TypeError,
                            "path/by_depth entries must be lists");
            return NULL;
        }
        total += PyList_GET_SIZE(PyList_GET_ITEM(by_depth, d));
    }
    if (cap < 0)
        cap = 0;

    WorkSet ws = {0};
    PyObject *pool = NULL;
    int32_t *ids = PyMem_Malloc(((size_t)levels + 1) * (size_t)(cap ? cap : 1) *
                                sizeof(int32_t));
    uint8_t fill[61] = {0};
    long long index[61];
    if (ids == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (ws_reserve(&ws, total) < 0)
        goto done;
    for (int d = 0; d <= levels; d++) {
        PyObject *candidates = PyList_GET_ITEM(by_depth, d);
        index[d] = d;
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(candidates); i++) {
            int32_t slot;
            if (as_slot(PyList_GET_ITEM(candidates, i), INT32_MAX, "by_depth",
                        &slot) < 0)
                goto done;
            ws_push(&ws, slot, d);
        }
    }
    place_core(&ws, ids, fill, index, cap);
    for (int d = 0; d <= levels; d++) {
        PyObject *lst = PyList_GET_ITEM(path, d);
        PyObject *candidates = PyList_GET_ITEM(by_depth, d);
        if (PyList_SetSlice(lst, 0, PyList_GET_SIZE(lst), NULL) < 0 ||
            PyList_SetSlice(candidates, 0, PyList_GET_SIZE(candidates),
                            NULL) < 0)
            goto done;
        for (int k = 0; k < fill[d]; k++) {
            if (append_slot(lst, ids[(Py_ssize_t)d * cap + k]) < 0)
                goto done;
        }
    }
    pool = PyList_New(0);
    for (Py_ssize_t k = 0; pool != NULL && k < ws.n_left; k++) {
        if (append_slot(pool, ws.merged[ws_leftovers(&ws)[k]].slot) < 0)
            Py_CLEAR(pool);
    }

done:
    ws_free(&ws);
    PyMem_Free(ids);
    return pool;
}

PyMethodDef list_adapter_methods[] = {
    {"translate_block_addrs", translate_block_addrs, METH_VARARGS,
     "Line-address column -> plain-int block addresses (zero-copy over "
     "an int64 buffer; sequence fallback matches the Python kernel)."},
    {"accumulate", accumulate, METH_VARARGS,
     "Event-ordered left-fold of per-event latencies onto a running "
     "cycle count (bit-identical to Python float accumulation)."},
    {"drain_scalar", drain_scalar, METH_VARARGS,
     "Columnar Path ORAM path drain + stash merge + depth grouping over "
     "the arena columns; returns the slot of the block of interest."},
    {"place_greedy", place_greedy, METH_VARARGS,
     "Greedy deepest-first eviction with LIFO candidate/pool placement; "
     "returns the leftover pool."},
    {NULL, NULL, 0, NULL},
};
