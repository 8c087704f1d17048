/* _replay_core: the compiled replay inner loop (REPRO_REPLAY=compiled).
 *
 * A hand-written CPython extension fusing the hot per-access work of the
 * replay pipeline over the columnar data the Python layers already keep
 * unboxed:
 *
 * - translate_block_addrs: line->block translation straight off the
 *   int64 buffer of a numpy trace column (zero-copy via PEP 3118);
 * - run_access_loop: the per-event driver loop (operand selection,
 *   frontend.access call, tree-access-count collection) without
 *   interpreter dispatch between events;
 * - accumulate: the event-ordered left-fold of per-event latencies onto
 *   the running cycle count, in C doubles (bit-identical to CPython
 *   float += which performs the same IEEE-754 additions);
 * - AccessKernel: a per-backend handle whose access() is one whole
 *   ColumnarPathOramBackend.access — all four ops, counters, path read,
 *   drain, stash merge, update hand-off, greedy eviction, stash
 *   reconcile, write-back accounting, occupancy fold, rollback — over
 *   the storage's live columns, bucket lists and byte arena;
 * - drain_scalar / place_greedy: the kernel's drain and placement
 *   routines on their own, over Python scratch lists (the primitives
 *   the tests pin against the interpreted loops).
 *
 * Bit-identity contract: every routine is a transcription of the Python
 * spelling it replaces — same traversal order, same side effects in the
 * same order, same duplicate/out-of-range validation with
 * byte-identical error messages, same LIFO candidate/pool placement,
 * same float operand order. The lockstep differential harnesses
 * (tests/test_replay_differential.py, tests/test_columnar_differential.py,
 * tests/test_native_replay.py) and the golden digests enforce this.
 *
 * Buffer discipline: a column export lives only inside one stretch of C
 * code.  It is released before every call back into Python (the update
 * and observer callbacks, the rollback) and before the arena grows —
 * array('q').extend — because CPython refuses to resize an array with
 * exported buffers; the handle binds the column objects, never pointers.
 * Nothing read out of a Python container is trusted: slot ids are
 * type- and bounds-checked against both columns before they index
 * either (tests/test_native_boundary.py, and the CI sanitizer lane).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* ------------------------------------------------------------------ */
/* small helpers                                                       */
/* ------------------------------------------------------------------ */

static PyObject *str_tree_accesses; /* interned "tree_accesses" */

/* bit_length() of a non-negative int64, matching Python's int.bit_length. */
static inline int
bit_length64(long long x)
{
    if (x == 0)
        return 0;
#if defined(__GNUC__) || defined(__clang__)
    return 64 - __builtin_clzll((unsigned long long)x);
#else
    int n = 0;
    unsigned long long u = (unsigned long long)x;
    while (u) {
        u >>= 1;
        n++;
    }
    return n;
#endif
}

/* An acquired int64 column: raw pointer + element count. */
typedef struct {
    Py_buffer view;
    long long *data;
    Py_ssize_t len;
    int acquired;
} I64Col;

/* Acquire a 1-D contiguous signed 64-bit buffer (array('q') / numpy
 * int64), writable on request.  Returns 0 on success, -1 with an
 * exception set otherwise. */
static int
i64col_acquire(PyObject *obj, I64Col *col, const char *what, int writable)
{
    col->acquired = 0;
    if (PyObject_GetBuffer(obj, &col->view,
                           PyBUF_FORMAT | PyBUF_ND |
                               (writable ? PyBUF_WRITABLE : 0)) < 0)
        return -1;
    col->acquired = 1;
    if (col->view.ndim != 1 || col->view.itemsize != 8 ||
        (col->view.format != NULL && col->view.format[0] != 'q' &&
         col->view.format[0] != 'l' && col->view.format[0] != 'n')) {
        PyBuffer_Release(&col->view);
        col->acquired = 0;
        PyErr_Format(PyExc_TypeError,
                     "%s must be a 1-D int64 column (array('q') or numpy "
                     "int64)", what);
        return -1;
    }
    col->data = (long long *)col->view.buf;
    col->len = col->view.shape ? col->view.shape[0]
                               : col->view.len / col->view.itemsize;
    return 0;
}

static void
i64col_release(I64Col *col)
{
    if (col->acquired) {
        PyBuffer_Release(&col->view);
        col->acquired = 0;
    }
}

/* ------------------------------------------------------------------ */
/* translate_block_addrs                                               */
/* ------------------------------------------------------------------ */

/* Floor division for int64 with a positive divisor (Python // semantics:
 * rounds toward negative infinity, unlike C's truncation). */
static inline long long
floordiv64(long long a, long long b)
{
    long long q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q -= 1;
    return q;
}

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

    I64Col col;
    if (i64col_acquire(line_addrs, &col, "line_addrs", 0) == 0) {
        PyObject *out = PyList_New(col.len);
        if (out == NULL) {
            i64col_release(&col);
            return NULL;
        }
        int pow2 = (lpb & (lpb - 1)) == 0;
        int shift = bit_length64(lpb) - 1;
        for (Py_ssize_t i = 0; i < col.len; i++) {
            long long v = col.data[i];
            if (lpb != 1)
                /* Arithmetic shift == floor division for a power-of-two
                 * divisor; general case uses Python floor semantics. */
                v = pow2 ? (v >> shift) : floordiv64(v, lpb);
            PyObject *boxed = PyLong_FromLongLong(v);
            if (boxed == NULL) {
                Py_DECREF(out);
                i64col_release(&col);
                return NULL;
            }
            PyList_SET_ITEM(out, i, boxed);
        }
        i64col_release(&col);
        return out;
    }

    /* Not a buffer exporter (plain list/tuple fallback): same results as
     * the pure-Python kernel via the generic protocol. */
    PyErr_Clear();
    if (lpb == 1)
        return PySequence_List(line_addrs);
    PyObject *seq =
        PySequence_Fast(line_addrs, "line_addrs must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    PyObject **items = PySequence_Fast_ITEMS(seq);
    PyObject *divisor = PyLong_FromLongLong(lpb);
    if (divisor == NULL) {
        Py_DECREF(seq);
        return NULL;
    }
    PyObject *out = PyList_New(n);
    if (out == NULL) {
        Py_DECREF(divisor);
        Py_DECREF(seq);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *q = PyNumber_FloorDivide(items[i], divisor);
        if (q == NULL) {
            Py_DECREF(out);
            Py_DECREF(divisor);
            Py_DECREF(seq);
            return NULL;
        }
        PyList_SET_ITEM(out, i, q);
    }
    Py_DECREF(divisor);
    Py_DECREF(seq);
    return out;
}

/* ------------------------------------------------------------------ */
/* run_access_loop                                                     */
/* ------------------------------------------------------------------ */

static PyObject *
run_access_loop(PyObject *self, PyObject *args)
{
    PyObject *access, *addrs, *writes, *read_op, *write_op, *payload;
    if (!PyArg_ParseTuple(args, "OOOOOO:run_access_loop", &access, &addrs,
                          &writes, &read_op, &write_op, &payload))
        return NULL;

    PyObject *addr_seq = PySequence_Fast(addrs, "addrs must be a sequence");
    if (addr_seq == NULL)
        return NULL;
    PyObject *write_seq =
        PySequence_Fast(writes, "writes must be a sequence");
    if (write_seq == NULL) {
        Py_DECREF(addr_seq);
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(addr_seq);
    Py_ssize_t nw = PySequence_Fast_GET_SIZE(write_seq);
    if (nw < n)
        n = nw; /* zip() semantics: stop at the shorter column */

    PyObject *out = PyList_New(n);
    if (out == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *addr = PySequence_Fast_GET_ITEM(addr_seq, i);
        int w = PyObject_IsTrue(PySequence_Fast_GET_ITEM(write_seq, i));
        if (w < 0)
            goto fail;
        PyObject *result;
        if (w)
            result = PyObject_CallFunctionObjArgs(access, addr, write_op,
                                                  payload, NULL);
        else
            result = PyObject_CallFunctionObjArgs(access, addr, read_op,
                                                  NULL);
        if (result == NULL)
            goto fail;
        PyObject *ta = PyObject_GetAttr(result, str_tree_accesses);
        Py_DECREF(result);
        if (ta == NULL)
            goto fail;
        PyList_SET_ITEM(out, i, ta);
    }
    Py_DECREF(addr_seq);
    Py_DECREF(write_seq);
    return out;

fail:
    /* A partially filled PyList_New(n) list holds NULL slots; fill them
     * before the container is released. */
    if (out != NULL) {
        for (Py_ssize_t i = 0; i < n; i++) {
            if (PyList_GET_ITEM(out, i) == NULL) {
                Py_INCREF(Py_None);
                PyList_SET_ITEM(out, i, Py_None);
            }
        }
        Py_DECREF(out);
    }
    Py_DECREF(addr_seq);
    Py_DECREF(write_seq);
    return NULL;
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

/* ------------------------------------------------------------------ */
/* Path ORAM working set (shared by every drain/placement entry point) */
/* ------------------------------------------------------------------ */

/* Format an address the way f"{a:#x}" does — "0x" + lowercase hex,
 * "0x0" for zero, sign before the prefix — spelled out via snprintf
 * because PyErr_Format has no 64-bit hex conversion. */
static void
format_hex(long long addr, char buf[32])
{
    if (addr < 0)
        snprintf(buf, 32, "-0x%llx",
                 (unsigned long long)(-(unsigned long long)addr));
    else
        snprintf(buf, 32, "0x%llx", (unsigned long long)addr);
}

static void
raise_duplicate(long long addr)
{
    char buf[32];
    format_hex(addr, buf);
    PyErr_Format(PyExc_ValueError, "duplicate block %s in stash", buf);
}

static void
raise_leaf_range(long long leaf_label, int levels)
{
    PyErr_Format(PyExc_ValueError,
                 "leaf label %lld out of range for %d-level tree",
                 leaf_label, levels);
}

/* One block of the merged working set: its boxed slot id (an owned
 * reference, so refilling a bucket list never re-boxes) and the deepest
 * level of the accessed path it may legally be evicted to. */
typedef struct {
    PyObject *obj;
    long long slot;
    int depth;
} Entry;

/* The working set of one tree access in merge order — stash residents
 * in dict order, drained blocks root->leaf, the block of interest last —
 * plus the placement scratch.  Python's by_depth lists, drained snapshot
 * and resident list are all views of this one sequence: by_depth[d] is
 * the entries of depth d in merge order, and the leftover stash rebuild
 * walks it front to back. */
typedef struct {
    Entry *merged;
    Py_ssize_t n, cap;
    Py_ssize_t n_resident; /* merged[0..n_resident) came from the stash */
    long long *keys;       /* the stash dict's keys, for the duplicate probe */
    Py_ssize_t n_keys, cap_keys;
    Py_ssize_t *index;     /* placement scratch: order | picks | pool */
    Py_ssize_t cap_index;
    Py_ssize_t *bounds;    /* per-depth stack bounds: base | top */
    Py_ssize_t cap_bounds;
    Py_ssize_t *pool;      /* into index: the leftovers, a LIFO stack */
    Py_ssize_t n_pool;
} WorkSet;

static void
ws_clear(WorkSet *ws)
{
    for (Py_ssize_t i = 0; i < ws->n; i++)
        Py_DECREF(ws->merged[i].obj);
    ws->n = ws->n_resident = ws->n_keys = ws->n_pool = 0;
}

static void
ws_free(WorkSet *ws)
{
    ws_clear(ws);
    PyMem_Free(ws->merged);
    PyMem_Free(ws->keys);
    PyMem_Free(ws->index);
    PyMem_Free(ws->bounds);
    memset(ws, 0, sizeof(*ws));
}

/* Grow *buf (elements of `size` bytes) to hold at least `need`. */
static int
grow_buffer(void **buf, Py_ssize_t *cap, Py_ssize_t need, size_t size)
{
    if (need <= *cap)
        return 0;
    Py_ssize_t target = *cap ? *cap * 2 : 64;
    if (target < need)
        target = need;
    if ((size_t)target > PY_SSIZE_T_MAX / size) {
        PyErr_NoMemory();
        return -1;
    }
    void *grown = PyMem_Realloc(*buf, (size_t)target * size);
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *buf = grown;
    *cap = target;
    return 0;
}

/* Append one block to the merge order; takes its own reference. */
static int
ws_push(WorkSet *ws, PyObject *obj, long long slot, int depth)
{
    if (grow_buffer((void **)&ws->merged, &ws->cap, ws->n + 1,
                    sizeof(Entry)) < 0)
        return -1;
    Py_INCREF(obj);
    ws->merged[ws->n].obj = obj;
    ws->merged[ws->n].slot = slot;
    ws->merged[ws->n].depth = depth;
    ws->n++;
    return 0;
}

/* Unbox a slot id read out of a Python container and bounds-check it
 * against the arena (both columns: `arena_len` is the shorter one). */
static int
as_slot(PyObject *obj, Py_ssize_t arena_len, const char *where,
        long long *out)
{
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s slot ids must be ints, not %.100s",
                     where, Py_TYPE(obj)->tp_name);
        return -1;
    }
    int overflow;
    long long s = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow || s < 0 || s >= arena_len) {
        PyErr_Format(PyExc_IndexError, "%s slot %S outside the arena", where,
                     obj);
        return -1;
    }
    *out = s;
    return 0;
}

/* The block of interest: NULL obj while absent, else an owned reference. */
typedef struct {
    PyObject *obj;
    long long slot;
} Found;

/* The fused drain: group the stash residents (dict order), then every
 * path bucket root->leaf, by legal eviction depth, with the scalar
 * kernel's duplicate-block and leaf-range validation in the scalar
 * kernel's order (byte-identical messages).  `found` enters holding the
 * stash's copy of the block of interest, if any, and leaves holding
 * wherever it was located; it is never merged here (the caller groups it
 * last, after the update callback).  Nothing is mutated: buckets are
 * only cleared at placement time. */
static int
drain_core(WorkSet *ws, PyObject *const *path, Py_ssize_t path_len,
           const I64Col *addr_col, const I64Col *leaf_col, PyObject *stash,
           Found *found, long long addr, long long leaf, int levels)
{
    const Py_ssize_t arena_len =
        addr_col->len < leaf_col->len ? addr_col->len : leaf_col->len;
    PyObject *key, *value;
    Py_ssize_t pos = 0;
    long long s;

    while (PyDict_Next(stash, &pos, &key, &value)) {
        if (!PyLong_Check(key)) {
            PyErr_Format(PyExc_TypeError,
                         "stash addresses must be ints, not %.100s",
                         Py_TYPE(key)->tp_name);
            return -1;
        }
        long long k = PyLong_AsLongLong(key);
        if (k == -1 && PyErr_Occurred())
            return -1;
        if (grow_buffer((void **)&ws->keys, &ws->cap_keys, ws->n_keys + 1,
                        sizeof(long long)) < 0)
            return -1;
        ws->keys[ws->n_keys++] = k;
        if (as_slot(value, arena_len, "stash", &s) < 0)
            return -1;
        if (found->obj != NULL && s == found->slot)
            continue; /* the block of interest is grouped last */
        int depth = levels - bit_length64(leaf_col->data[s] ^ leaf);
        if (depth < 0) {
            raise_leaf_range(leaf_col->data[s], levels);
            return -1;
        }
        if (ws_push(ws, value, s, depth) < 0)
            return -1;
    }
    ws->n_resident = ws->n;

    for (Py_ssize_t li = 0; li < path_len; li++) {
        PyObject *lst = path[li];
        if (!PyList_Check(lst)) {
            PyErr_SetString(PyExc_TypeError,
                            "path buckets must be slot lists");
            return -1;
        }
        for (Py_ssize_t bi = 0; bi < PyList_GET_SIZE(lst); bi++) {
            PyObject *item = PyList_GET_ITEM(lst, bi);
            if (as_slot(item, arena_len, "bucket", &s) < 0)
                return -1;
            long long a = addr_col->data[s];
            if (a == addr) {
                if (found->obj != NULL) {
                    raise_duplicate(a);
                    return -1;
                }
                Py_INCREF(item);
                found->obj = item;
                found->slot = s;
                continue;
            }
            /* Stash-vs-path duplicate guard: `a in stash_slots`. */
            for (Py_ssize_t k = 0; k < ws->n_keys; k++) {
                if (ws->keys[k] == a) {
                    raise_duplicate(a);
                    return -1;
                }
            }
            int depth = levels - bit_length64(leaf_col->data[s] ^ leaf);
            if (depth < 0) {
                raise_leaf_range(leaf_col->data[s], levels);
                return -1;
            }
            if (ws_push(ws, item, s, depth) < 0)
                return -1;
        }
    }
    return 0;
}

/* Overwrite bucket list `lst` with the first `count` picks (indices into
 * ws->merged), in place: list identity is part of the storage's
 * path-cache contract, and reusing the list's own item array keeps the
 * steady state allocation-free. */
static int
refill_bucket(WorkSet *ws, PyObject *lst, const Py_ssize_t *picks,
              Py_ssize_t count)
{
    for (Py_ssize_t k = 0; k < count; k++) {
        PyObject *obj = ws->merged[picks[k]].obj;
        if (k < PyList_GET_SIZE(lst)) {
            Py_INCREF(obj);
            if (PyList_SetItem(lst, k, obj) < 0)
                return -1;
        }
        else if (PyList_Append(lst, obj) < 0)
            return -1;
    }
    if (PyList_GET_SIZE(lst) > count)
        return PyList_SetSlice(lst, count, PyList_GET_SIZE(lst), NULL);
    return 0;
}

/* Greedy placement, deepest level first; candidates LIFO, then the pool
 * of deeper leftovers LIFO — the scalar kernel's loop over the merged
 * working set.  Every path bucket is rewritten (the deferred drain
 * clear); on return ws->pool[0..n_pool) holds the unplaced entries in
 * exactly the order the interpreted kernel's pool list would. */
static int
place_core(WorkSet *ws, PyObject *const *path, int levels, int cap)
{
    if (cap < 0)
        cap = 0;
    if (grow_buffer((void **)&ws->index, &ws->cap_index, 2 * ws->n + cap,
                    sizeof(Py_ssize_t)) < 0 ||
        grow_buffer((void **)&ws->bounds, &ws->cap_bounds,
                    2 * ((Py_ssize_t)levels + 1), sizeof(Py_ssize_t)) < 0)
        return -1;
    /* order: entry indices grouped by depth; picks: one bucket's refill
     * (at most cap); pool: leftovers of deeper levels, a LIFO stack. */
    Py_ssize_t *order = ws->index, *picks = order + ws->n;
    Py_ssize_t *pool = ws->pool = picks + cap;
    Py_ssize_t *base = ws->bounds, *top = base + levels + 1;

    /* Stable counting sort by depth: order[base[d]..top[d]) is by_depth[d]. */
    for (int d = 0; d <= levels; d++)
        top[d] = 0;
    for (Py_ssize_t i = 0; i < ws->n; i++)
        top[ws->merged[i].depth]++;
    Py_ssize_t offset = 0;
    for (int d = 0; d <= levels; d++) {
        base[d] = offset;
        offset += top[d];
        top[d] = base[d];
    }
    for (Py_ssize_t i = 0; i < ws->n; i++)
        order[top[ws->merged[i].depth]++] = i;

    Py_ssize_t n_pool = 0;
    for (int level = levels; level >= 0; level--) {
        Py_ssize_t count = 0;
        while (count < cap && top[level] > base[level])
            picks[count++] = order[--top[level]];
        for (Py_ssize_t j = base[level]; j < top[level]; j++)
            pool[n_pool++] = order[j];
        while (count < cap && n_pool > 0)
            picks[count++] = pool[--n_pool];
        if (refill_bucket(ws, path[level], picks, count) < 0)
            return -1;
    }
    ws->n_pool = n_pool;
    return 0;
}

/* ------------------------------------------------------------------ */
/* drain_scalar / place_greedy: the two primitives over Python lists   */
/* ------------------------------------------------------------------ */

/* drain_scalar(path, addr_col, leaf_col, stash_slots, slot, addr, leaf,
 *              levels, by_depth, drained_flat, resident) -> slot | None
 *
 * drain_core with its result unpacked into the scalar kernel's Python
 * scratch lists: residents and drained slots appended to by_depth[depth]
 * in merge order, residents also to `resident`, every non-empty path
 * bucket snapshotted into `drained_flat`.  Returns the slot holding the
 * block of interest, or None when it is absent.  On an error nothing is
 * appended.
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

    I64Col addr_col = {0}, leaf_col = {0};
    WorkSet ws = {0};
    Found found = {NULL, 0};
    PyObject *result = NULL;
    if (i64col_acquire(addr_obj, &addr_col, "addr_col", 0) < 0)
        return NULL;
    if (i64col_acquire(leaf_obj, &leaf_col, "leaf_col", 0) < 0)
        goto done;
    if (slot_in != Py_None) {
        Py_ssize_t arena_len =
            addr_col.len < leaf_col.len ? addr_col.len : leaf_col.len;
        if (as_slot(slot_in, arena_len, "stash", &found.slot) < 0)
            goto done;
        Py_INCREF(slot_in);
        found.obj = slot_in;
    }
    if (drain_core(&ws, PySequence_Fast_ITEMS(path), PyList_GET_SIZE(path),
                   &addr_col, &leaf_col, stash, &found, addr, leaf,
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
        if (PyList_Append(PyList_GET_ITEM(by_depth, e->depth), e->obj) < 0)
            goto done;
        if (i < ws.n_resident && PyList_Append(resident, e->obj) < 0)
            goto done;
    }
    for (Py_ssize_t li = 0; li < PyList_GET_SIZE(path); li++) {
        Py_ssize_t end = PyList_GET_SIZE(drained_flat);
        if (PyList_SetSlice(drained_flat, end, end,
                            PyList_GET_ITEM(path, li)) < 0)
            goto done;
    }
    result = found.obj != NULL ? found.obj : Py_None;
    Py_INCREF(result);

done:
    Py_XDECREF(found.obj);
    ws_free(&ws);
    i64col_release(&addr_col);
    i64col_release(&leaf_col);
    return result;
}

/* place_greedy(path, by_depth, levels, cap) -> pool (list)
 *
 * place_core over Python by_depth lists: the candidates are loaded into
 * a working set (depth-major, list order — the only order placement
 * depends on), placed into the live bucket lists, the by_depth scratch
 * lists are left empty and the leftover pool is returned as a list in
 * the interpreted kernel's order.
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
    for (int d = 0; d <= levels; d++) {
        if (!PyList_Check(PyList_GET_ITEM(by_depth, d)) ||
            !PyList_Check(PyList_GET_ITEM(path, d))) {
            PyErr_SetString(PyExc_TypeError,
                            "path/by_depth entries must be lists");
            return NULL;
        }
    }

    WorkSet ws = {0};
    PyObject *pool = NULL;
    for (int d = 0; d <= levels; d++) {
        PyObject *candidates = PyList_GET_ITEM(by_depth, d);
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(candidates); i++) {
            if (ws_push(&ws, PyList_GET_ITEM(candidates, i), 0, d) < 0)
                goto done;
        }
    }
    if (place_core(&ws, PySequence_Fast_ITEMS(path), levels, cap) < 0)
        goto done;
    for (int d = 0; d <= levels; d++) {
        PyObject *candidates = PyList_GET_ITEM(by_depth, d);
        if (PyList_SetSlice(candidates, 0, PyList_GET_SIZE(candidates),
                            NULL) < 0)
            goto done;
    }
    pool = PyList_New(ws.n_pool);
    if (pool == NULL)
        goto done;
    for (Py_ssize_t k = 0; k < ws.n_pool; k++) {
        PyObject *obj = ws.merged[ws.pool[k]].obj;
        Py_INCREF(obj);
        PyList_SET_ITEM(pool, k, obj);
    }

done:
    ws_free(&ws);
    return pool;
}

/* ------------------------------------------------------------------ */
/* AccessKernel: one Path ORAM tree access per call                    */
/* ------------------------------------------------------------------ */

static PyObject *str_access_count, *str_tree_access_count, *str_append_count,
    *str_buckets_read, *str_buckets_written, *str_observer,
    *str_on_path_read, *str_on_path_write, *str_grow, *str_abort_access,
    *str_addr, *str_leaf, *str_data, *str_mac;

/* The per-backend handle created by ColumnarPathOramBackend
 * .enable_native_kernel.  It binds the storage's live containers (the
 * objects, never raw pointers: the columns grow in place) and owns the
 * working-set scratch and the stash-occupancy fold.  The backend itself
 * is held weakly — it owns this handle, and a strong reference would
 * park every discarded tree on the cyclic collector. */
typedef struct {
    PyObject_HEAD
    union {
        struct {
            PyObject *backend_ref; /* weakref to the owning backend */
            PyObject *storage;
            PyObject *addr_col, *leaf_col, *mac_col, *chunks, *free_list,
                *buckets;
            PyObject *stash;
            PyObject *block_type, *op_append, *op_readrmv;
            PyObject *not_found_error, *overflow_error;
            PyObject *path_len_obj; /* levels + 1: the bandwidth step */
            PyObject *one;
        };
        PyObject *refs[16]; /* the same references, for the collector */
    };
    PyObject **path; /* levels + 1 bucket lists, owned during a call */
    int levels, cap, chunk_shift, allow_missing, busy;
    Py_ssize_t block_bytes;
    long long chunk_mask, num_leaves, stash_limit;
    /* RunningStats over post-eviction stash occupancy (see occupancy()). */
    long long occ_count, occ_max, occ_min;
    double occ_mean, occ_m2;
    WorkSet ws;
} AccessKernel;

#define KERNEL_REFS (sizeof(((AccessKernel *)0)->refs) / sizeof(PyObject *))

static int
kernel_traverse(AccessKernel *self, visitproc visit, void *arg)
{
    for (size_t i = 0; i < KERNEL_REFS; i++)
        Py_VISIT(self->refs[i]);
    return 0;
}

static int
kernel_clear(AccessKernel *self)
{
    for (size_t i = 0; i < KERNEL_REFS; i++)
        Py_CLEAR(self->refs[i]);
    return 0;
}

static void
kernel_dealloc(AccessKernel *self)
{
    PyObject_GC_UnTrack(self);
    kernel_clear(self);
    ws_free(&self->ws);
    PyMem_Free(self->path);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    PyObject *backend, *storage, *addr_col, *leaf_col, *mac_col, *chunks,
        *free_list, *buckets, *stash, *block_type, *op_append, *op_readrmv,
        *not_found_error, *overflow_error, *occ_max, *occ_min;
    int levels, cap, allow_missing;
    Py_ssize_t block_bytes;
    long long chunk_slots, stash_limit, occ_count;
    double occ_mean, occ_m2;
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "AccessKernel takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(
            args, "OOOOO!O!O!O!O!iinLLp(LddOO)OOOOO:AccessKernel", &backend,
            &storage, &addr_col, &leaf_col, &PyList_Type, &mac_col,
            &PyList_Type, &chunks, &PyList_Type, &free_list, &PyList_Type,
            &buckets, &PyDict_Type, &stash, &levels, &cap, &block_bytes,
            &chunk_slots, &stash_limit, &allow_missing, &occ_count,
            &occ_mean, &occ_m2, &occ_max, &occ_min, &block_type, &op_append,
            &op_readrmv, &not_found_error, &overflow_error))
        return NULL;
    if (levels < 0 || levels > 60 || cap < 1 || block_bytes < 1 ||
        chunk_slots < 1 || (chunk_slots & (chunk_slots - 1)) != 0 ||
        occ_count < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "AccessKernel: geometry out of range");
        return NULL;
    }
    if (!PyExceptionClass_Check(not_found_error) ||
        !PyExceptionClass_Check(overflow_error) ||
        !PyCallable_Check(block_type)) {
        PyErr_SetString(PyExc_TypeError,
                        "AccessKernel: expected the Block class and two "
                        "exception classes");
        return NULL;
    }
    /* Fail at set-up, not mid-access, when the storage cannot hand out
     * writable int64 columns (the zero-copy contract). */
    I64Col probe = {0};
    if (i64col_acquire(addr_col, &probe, "addr_col", 1) < 0)
        return NULL;
    i64col_release(&probe);
    if (i64col_acquire(leaf_col, &probe, "leaf_col", 1) < 0)
        return NULL;
    i64col_release(&probe);

    AccessKernel *self = (AccessKernel *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->levels = levels;
    self->cap = cap;
    self->block_bytes = block_bytes;
    self->chunk_shift = bit_length64(chunk_slots) - 1;
    self->chunk_mask = chunk_slots - 1;
    self->num_leaves = 1LL << levels;
    self->stash_limit = stash_limit;
    self->allow_missing = allow_missing;
    self->occ_count = occ_count;
    self->occ_mean = occ_mean;
    self->occ_m2 = occ_m2;
    if (occ_count > 0) {
        self->occ_max = PyLong_AsLongLong(occ_max);
        self->occ_min = PyLong_AsLongLong(occ_min);
        if (PyErr_Occurred())
            goto fail;
    }
    self->backend_ref = PyWeakref_NewRef(backend, NULL);
    self->path_len_obj = PyLong_FromLong(levels + 1);
    self->one = PyLong_FromLong(1);
    self->path = PyMem_Calloc((size_t)levels + 1, sizeof(PyObject *));
    if (self->backend_ref == NULL || self->path_len_obj == NULL ||
        self->one == NULL || self->path == NULL) {
        if (self->path == NULL && !PyErr_Occurred())
            PyErr_NoMemory();
        goto fail;
    }
#define BIND(field) (Py_INCREF(field), self->field = field)
    BIND(storage);
    BIND(addr_col);
    BIND(leaf_col);
    BIND(mac_col);
    BIND(chunks);
    BIND(free_list);
    BIND(buckets);
    BIND(stash);
    BIND(block_type);
    BIND(op_append);
    BIND(op_readrmv);
    BIND(not_found_error);
    BIND(overflow_error);
#undef BIND
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

/* -- small steps ---------------------------------------------------- */

/* obj.name += step, through the attribute protocol so every other reader
 * and writer of the counter (properties, reset_counters) sees one value. */
static int
bump_attr(PyObject *obj, PyObject *name, PyObject *step)
{
    PyObject *current = PyObject_GetAttr(obj, name);
    if (current == NULL)
        return -1;
    PyObject *next = PyNumber_Add(current, step);
    Py_DECREF(current);
    if (next == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, next);
    Py_DECREF(next);
    return rc;
}

/* Acquire both arena columns writable.  Exports are never held across a
 * call back into Python or an arena growth. */
static int
kernel_acquire(AccessKernel *self, I64Col *addr_col, I64Col *leaf_col)
{
    if (i64col_acquire(self->addr_col, addr_col, "addr_col", 1) < 0)
        return -1;
    if (i64col_acquire(self->leaf_col, leaf_col, "leaf_col", 1) < 0) {
        i64col_release(addr_col);
        return -1;
    }
    if (addr_col->len != leaf_col->len) {
        i64col_release(addr_col);
        i64col_release(leaf_col);
        PyErr_SetString(PyExc_ValueError,
                        "addr_col and leaf_col differ in length");
        return -1;
    }
    return 0;
}

static void
kernel_release(I64Col *addr_col, I64Col *leaf_col)
{
    i64col_release(addr_col);
    i64col_release(leaf_col);
}

static void
kernel_drop_path(AccessKernel *self)
{
    for (int d = 0; d <= self->levels; d++)
        Py_CLEAR(self->path[d]);
}

/* Bind the live bucket lists on the path to `leaf`, root->leaf, creating
 * the lazily materialised ones.  Heap indices are arithmetic. */
static int
kernel_bind_path(AccessKernel *self, long long leaf)
{
    const int levels = self->levels;
    for (int d = 0; d <= levels; d++) {
        long long index = ((1LL << d) - 1) + (leaf >> (levels - d));
        if (index >= PyList_GET_SIZE(self->buckets)) {
            PyErr_Format(PyExc_IndexError,
                         "bucket %lld outside the tree", index);
            goto fail;
        }
        PyObject *lst = PyList_GET_ITEM(self->buckets, (Py_ssize_t)index);
        if (lst == Py_None) {
            lst = PyList_New(0);
            if (lst == NULL)
                goto fail;
            Py_INCREF(lst);
            if (PyList_SetItem(self->buckets, (Py_ssize_t)index, lst) < 0) {
                Py_DECREF(lst);
                goto fail;
            }
        }
        else if (PyList_Check(lst))
            Py_INCREF(lst);
        else {
            PyErr_SetString(PyExc_TypeError,
                            "path buckets must be slot lists");
            goto fail;
        }
        self->path[d] = lst;
    }
    return 0;

fail:
    kernel_drop_path(self);
    return -1;
}

/* storage.observer.<method>(leaf, indices), when an observer is set.
 * *indices caches the heap-index tuple across the read and write calls. */
static int
kernel_notify(AccessKernel *self, PyObject *method, PyObject *leaf_obj,
              long long leaf, PyObject **indices)
{
    PyObject *observer = PyObject_GetAttr(self->storage, str_observer);
    if (observer == NULL)
        return -1;
    if (observer == Py_None) {
        Py_DECREF(observer);
        return 0;
    }
    if (*indices == NULL) {
        const int levels = self->levels;
        PyObject *tuple = PyTuple_New((Py_ssize_t)levels + 1);
        for (int d = 0; tuple != NULL && d <= levels; d++) {
            PyObject *index = PyLong_FromLongLong(
                ((1LL << d) - 1) + (leaf >> (levels - d)));
            if (index == NULL)
                Py_CLEAR(tuple);
            else
                PyTuple_SET_ITEM(tuple, d, index);
        }
        if (tuple == NULL) {
            Py_DECREF(observer);
            return -1;
        }
        *indices = tuple;
    }
    PyObject *done = PyObject_CallMethodObjArgs(observer, method, leaf_obj,
                                                *indices, NULL);
    Py_DECREF(observer);
    if (done == NULL)
        return -1;
    Py_DECREF(done);
    return 0;
}

/* Writable view of one slot's payload bytes inside its arena chunk. */
static int
kernel_payload(AccessKernel *self, long long slot, Py_buffer *view,
               char **bytes)
{
    Py_ssize_t chunk = (Py_ssize_t)(slot >> self->chunk_shift);
    if (chunk >= PyList_GET_SIZE(self->chunks)) {
        PyErr_Format(PyExc_IndexError, "slot %lld outside the byte arena",
                     slot);
        return -1;
    }
    if (PyObject_GetBuffer(PyList_GET_ITEM(self->chunks, chunk), view,
                           PyBUF_WRITABLE) < 0)
        return -1;
    Py_ssize_t offset = (Py_ssize_t)(slot & self->chunk_mask) *
                        self->block_bytes;
    if (view->len < offset + self->block_bytes) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_IndexError, "slot %lld outside the byte arena",
                     slot);
        return -1;
    }
    *bytes = (char *)view->buf + offset;
    return 0;
}

/* store.set_payload(slot, data): exactly one block, same message. */
static int
kernel_set_payload(AccessKernel *self, long long slot, PyObject *data)
{
    Py_buffer src, dst;
    char *bytes;
    if (PyObject_GetBuffer(data, &src, PyBUF_SIMPLE) < 0)
        return -1;
    if (src.len != self->block_bytes) {
        PyErr_Format(PyExc_ValueError, "payload must be %zd bytes, got %zd",
                     self->block_bytes, src.len);
        PyBuffer_Release(&src);
        return -1;
    }
    if (kernel_payload(self, slot, &dst, &bytes) < 0) {
        PyBuffer_Release(&src);
        return -1;
    }
    memcpy(bytes, src.buf, (size_t)self->block_bytes);
    PyBuffer_Release(&dst);
    PyBuffer_Release(&src);
    return 0;
}

/* mac_col[slot] = mac */
static int
kernel_set_mac(AccessKernel *self, long long slot, PyObject *mac)
{
    if (slot >= PyList_GET_SIZE(self->mac_col)) {
        PyErr_Format(PyExc_IndexError, "slot %lld outside mac_col", slot);
        return -1;
    }
    Py_INCREF(mac);
    return PyList_SetItem(self->mac_col, (Py_ssize_t)slot, mac);
}

/* store.alloc's slot claim: pop the free list, growing the arena first
 * when it is empty.  The columns must not be exported here (the growth
 * resizes them).  Returns a new reference to the boxed slot id. */
static PyObject *
kernel_claim_slot(AccessKernel *self)
{
    if (PyList_GET_SIZE(self->free_list) == 0) {
        PyObject *grown = PyObject_CallMethodNoArgs(self->storage, str_grow);
        if (grown == NULL)
            return NULL;
        Py_DECREF(grown);
        if (PyList_GET_SIZE(self->free_list) == 0) {
            PyErr_SetString(PyExc_IndexError,
                            "arena growth left the free list empty");
            return NULL;
        }
    }
    Py_ssize_t last = PyList_GET_SIZE(self->free_list) - 1;
    PyObject *slot = PyList_GET_ITEM(self->free_list, last);
    Py_INCREF(slot);
    if (PyList_SetSlice(self->free_list, last, last + 1, NULL) < 0) {
        Py_DECREF(slot);
        return NULL;
    }
    return slot;
}

/* stash.check_limit(): fold the occupancy into the running statistics
 * with RunningStats.add's operand order, then enforce the limit. */
static void
occupancy_fold(AccessKernel *self, long long n)
{
    double x = (double)n;
    self->occ_count += 1;
    double delta = x - self->occ_mean;
    self->occ_mean += delta / (double)self->occ_count;
    /* volatile: the product must round on its own, as CPython's does —
     * a fused multiply-add here would change the last bit of m2. */
    volatile double product = delta * (x - self->occ_mean);
    self->occ_m2 += product;
    if (self->occ_count == 1 || n > self->occ_max)
        self->occ_max = n;
    if (self->occ_count == 1 || n < self->occ_min)
        self->occ_min = n;
}

static int
kernel_check_limit(AccessKernel *self)
{
    long long n = (long long)PyDict_GET_SIZE(self->stash);
    occupancy_fold(self, n);
    if (n > self->stash_limit) {
        PyErr_Format(self->overflow_error,
                     "stash occupancy %lld exceeds limit %lld", n,
                     self->stash_limit);
        return -1;
    }
    return 0;
}

/* A pending exception parked as "the exception being handled", the state
 * the interpreter is in inside an except or finally block: anything
 * raised while it is parked gets it as __context__, exactly as there. */
typedef struct {
    PyObject *type, *value, *tb;
    PyObject *outer_type, *outer_value, *outer_tb;
} Handling;

static void
handling_begin(Handling *h)
{
    PyErr_Fetch(&h->type, &h->value, &h->tb);
    PyErr_NormalizeException(&h->type, &h->value, &h->tb);
    if (h->tb != NULL)
        PyException_SetTraceback(h->value, h->tb);
    PyErr_GetExcInfo(&h->outer_type, &h->outer_value, &h->outer_tb);
    Py_XINCREF(h->type);
    Py_XINCREF(h->value);
    Py_XINCREF(h->tb);
    PyErr_SetExcInfo(h->type, h->value, h->tb);
}

/* Leave the block: re-raise the parked exception unless a newer one
 * escaped (which then propagates in its place). */
static void
handling_end(Handling *h)
{
    PyErr_SetExcInfo(h->outer_type, h->outer_value, h->outer_tb);
    if (PyErr_Occurred()) {
        Py_XDECREF(h->type);
        Py_XDECREF(h->value);
        Py_XDECREF(h->tb);
    }
    else
        PyErr_Restore(h->type, h->value, h->tb);
}

/* The except-BaseException arm of the interpreted access: hand the
 * pending exception to backend._abort_access — which releases a fresh
 * slot, restores the block of interest from the snapshot and chains
 * restore failures as notes — then re-raise it. */
static void
kernel_abort(PyObject *backend, int created_fresh, PyObject *slot,
             long long saved_leaf, PyObject *saved_payload,
             PyObject *saved_mac)
{
    Handling handling;
    handling_begin(&handling);
    PyObject *saved = (created_fresh || saved_payload == NULL)
                          ? Py_NewRef(Py_None)
                          : Py_BuildValue("(LOO)", saved_leaf, saved_payload,
                                          saved_mac);
    if (saved != NULL) {
        PyObject *done = PyObject_CallMethodObjArgs(
            backend, str_abort_access, handling.value,
            created_fresh ? Py_True : Py_False,
            slot != NULL ? slot : Py_None, saved, NULL);
        Py_XDECREF(done);
        Py_DECREF(saved);
    }
    handling_end(&handling);
}

/* int(obj) as int64 for a column store; the array's own OverflowError
 * and TypeError otherwise. */
static int
as_int64(PyObject *obj, long long *out)
{
    *out = PyLong_AsLongLong(obj);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* leaf_col[slot], payload and mac_col[slot] from the (updated) Block;
 * re-acquires the columns, which stay exported on success. */
static int
kernel_write_back(AccessKernel *self, PyObject *block, long long slot,
                  I64Col *addr_col, I64Col *leaf_col)
{
    long long leaf;
    PyObject *field = PyObject_GetAttr(block, str_leaf);
    if (field == NULL)
        return -1;
    int rc = as_int64(field, &leaf);
    Py_DECREF(field);
    if (rc < 0 || kernel_acquire(self, addr_col, leaf_col) < 0)
        return -1;
    if (slot >= leaf_col->len) {
        PyErr_Format(PyExc_IndexError, "slot %lld outside the arena", slot);
        return -1;
    }
    leaf_col->data[slot] = leaf;
    field = PyObject_GetAttr(block, str_data);
    if (field == NULL)
        return -1;
    rc = kernel_set_payload(self, slot, field);
    Py_DECREF(field);
    if (rc < 0)
        return -1;
    field = PyObject_GetAttr(block, str_mac);
    if (field == NULL)
        return -1;
    rc = kernel_set_mac(self, slot, field);
    Py_DECREF(field);
    return rc;
}

/* -- APPEND --------------------------------------------------------- */

static PyObject *
kernel_append(AccessKernel *self, PyObject *backend, PyObject *block)
{
    if (block == Py_None) {
        PyErr_SetString(PyExc_ValueError, "APPEND requires append_block");
        return NULL;
    }
    if (bump_attr(backend, str_append_count, self->one) < 0)
        return NULL;

    PyObject *addr_obj = PyObject_GetAttr(block, str_addr);
    PyObject *leaf_obj = PyObject_GetAttr(block, str_leaf);
    PyObject *data = PyObject_GetAttr(block, str_data);
    PyObject *mac = PyObject_GetAttr(block, str_mac);
    PyObject *slot_obj = NULL, *result = NULL;
    I64Col addr_col = {0}, leaf_col = {0};
    long long addr, leaf, slot;
    if (addr_obj == NULL || leaf_obj == NULL || data == NULL || mac == NULL)
        goto done;

    int present = PyDict_Contains(self->stash, addr_obj);
    if (present < 0)
        goto done;
    if (as_int64(addr_obj, &addr) < 0 || as_int64(leaf_obj, &leaf) < 0)
        goto done;
    if (present) {
        raise_duplicate(addr);
        goto done;
    }
    /* Validate the payload before claiming the slot, so a wrong-sized
     * block leaves the free list alone. */
    Py_ssize_t data_len = PyObject_Length(data);
    if (data_len < 0)
        goto done;
    if (data_len != self->block_bytes) {
        PyErr_SetString(PyExc_ValueError,
                        "memoryview assignment: lvalue and rvalue have "
                        "different structures");
        goto done;
    }
    slot_obj = kernel_claim_slot(self);
    if (slot_obj == NULL)
        goto done;
    if (kernel_acquire(self, &addr_col, &leaf_col) < 0)
        goto done;
    if (as_slot(slot_obj, addr_col.len, "free", &slot) < 0)
        goto done;
    addr_col.data[slot] = addr;
    leaf_col.data[slot] = leaf;
    kernel_release(&addr_col, &leaf_col);
    if (kernel_set_mac(self, slot, mac) < 0 ||
        kernel_set_payload(self, slot, data) < 0 ||
        PyDict_SetItem(self->stash, addr_obj, slot_obj) < 0)
        goto done;
    if (kernel_check_limit(self) < 0)
        goto done;
    result = Py_None;
    Py_INCREF(result);

done:
    kernel_release(&addr_col, &leaf_col);
    Py_XDECREF(slot_obj);
    Py_XDECREF(addr_obj);
    Py_XDECREF(leaf_obj);
    Py_XDECREF(data);
    Py_XDECREF(mac);
    return result;
}

/* -- READ / WRITE / READRMV ----------------------------------------- */

static PyObject *
kernel_tree_access(AccessKernel *self, PyObject *backend, PyObject *op,
                   PyObject *addr_obj, PyObject *leaf_obj,
                   PyObject *new_leaf_obj, PyObject *update)
{
    const int levels = self->levels;
    WorkSet *ws = &self->ws;
    I64Col addr_col = {0}, leaf_col = {0};
    Found found = {NULL, 0};
    PyObject *payload = NULL, *saved_mac = NULL, *block = NULL;
    PyObject *indices = NULL, *result = NULL;
    long long addr, leaf, new_leaf, saved_leaf = 0;
    Py_ssize_t interest = -1; /* the block of interest's merge index */
    int created_fresh = 0;

    if (bump_attr(backend, str_tree_access_count, self->one) < 0)
        return NULL;

    /* storage.read_path_slots: range check, bucket lists, accounting,
     * observer.  Nothing here needs rolling back. */
    int overflow = 0;
    if (!PyLong_Check(leaf_obj)) {
        PyErr_Format(PyExc_TypeError, "leaf must be an int, not %.100s",
                     Py_TYPE(leaf_obj)->tp_name);
        return NULL;
    }
    leaf = PyLong_AsLongLongAndOverflow(leaf_obj, &overflow);
    if (overflow || leaf < 0 || leaf >= self->num_leaves) {
        PyErr_Format(PyExc_ValueError, "leaf %S out of range", leaf_obj);
        return NULL;
    }
    if (kernel_bind_path(self, leaf) < 0)
        return NULL;
    if (bump_attr(self->storage, str_buckets_read, self->path_len_obj) < 0 ||
        kernel_notify(self, str_on_path_read, leaf_obj, leaf, &indices) < 0)
        goto done;

    /* ---- the transactional region: any failure rolls back --------- */
    if (as_int64(addr_obj, &addr) < 0 || as_int64(new_leaf_obj, &new_leaf) < 0)
        goto abort;
    PyObject *resident = PyDict_GetItemWithError(self->stash, addr_obj);
    if (resident == NULL && PyErr_Occurred())
        goto abort;
    if (kernel_acquire(self, &addr_col, &leaf_col) < 0)
        goto abort;
    if (resident != NULL) {
        /* Looked up but not removed: every success path reconciles the
         * dict wholesale after placement. */
        if (as_slot(resident, addr_col.len, "stash", &found.slot) < 0)
            goto abort;
        found.obj = Py_NewRef(resident);
    }
    if (drain_core(ws, self->path, (Py_ssize_t)levels + 1, &addr_col,
                   &leaf_col, self->stash, &found, addr, leaf, levels) < 0)
        goto abort;

    if (found.obj == NULL) {
        if (!self->allow_missing) {
            char hex[32];
            format_hex(addr, hex);
            PyErr_Format(self->not_found_error,
                         "block %s absent from path %lld and stash", hex,
                         leaf);
            goto abort;
        }
        /* store.alloc(addr, new_leaf): zero payload, no MAC. */
        kernel_release(&addr_col, &leaf_col);
        PyObject *claimed = kernel_claim_slot(self);
        if (claimed == NULL)
            goto abort;
        if (kernel_acquire(self, &addr_col, &leaf_col) < 0 ||
            as_slot(claimed, addr_col.len, "free", &found.slot) < 0) {
            Py_DECREF(claimed);
            goto abort;
        }
        found.obj = claimed;
        created_fresh = 1;
        addr_col.data[found.slot] = addr;
        leaf_col.data[found.slot] = new_leaf;
        Py_buffer view;
        char *bytes;
        if (kernel_set_mac(self, found.slot, Py_None) < 0 ||
            kernel_payload(self, found.slot, &view, &bytes) < 0)
            goto abort;
        memset(bytes, 0, (size_t)self->block_bytes);
        PyBuffer_Release(&view);
    }

    /* Materialise the block of interest and snapshot it for rollback. */
    {
        Py_buffer view;
        char *bytes;
        if (found.slot >= PyList_GET_SIZE(self->mac_col)) {
            PyErr_Format(PyExc_IndexError, "slot %lld outside mac_col",
                         found.slot);
            goto abort;
        }
        if (kernel_payload(self, found.slot, &view, &bytes) < 0)
            goto abort;
        payload = PyBytes_FromStringAndSize(bytes, self->block_bytes);
        PyBuffer_Release(&view);
        if (payload == NULL)
            goto abort;
        saved_mac = PyList_GET_ITEM(self->mac_col, (Py_ssize_t)found.slot);
        Py_INCREF(saved_mac);
        saved_leaf = leaf_col.data[found.slot];
        leaf_col.data[found.slot] = new_leaf;
        block = PyObject_CallFunctionObjArgs(self->block_type, addr_obj,
                                             new_leaf_obj, payload,
                                             saved_mac, NULL);
        if (block == NULL)
            goto abort;
    }

    if (update != Py_None) {
        /* The callback is arbitrary frontend code: no export is live
         * while it runs.  Its mutations are written into the columns
         * even when it raises (the interpreted kernel's finally), so
         * the rollback below always starts from the same state. */
        kernel_release(&addr_col, &leaf_col);
        Handling handling;
        PyObject *updated = PyObject_CallOneArg(update, block);
        if (updated == NULL)
            handling_begin(&handling);
        int written = kernel_write_back(self, block, found.slot, &addr_col,
                                        &leaf_col);
        if (updated == NULL) {
            handling_end(&handling);
            goto abort;
        }
        Py_DECREF(updated);
        if (written < 0)
            goto abort;
    }

    if (op != self->op_readrmv) {
        /* Grouped last, like a re-insert, at the depth its (possibly
         * updated) leaf allows. */
        long long block_leaf;
        PyObject *field = PyObject_GetAttr(block, str_leaf);
        if (field == NULL)
            goto abort;
        int rc = as_int64(field, &block_leaf);
        Py_DECREF(field);
        if (rc < 0)
            goto abort;
        int depth = levels - bit_length64(block_leaf ^ leaf);
        if (depth < 0) {
            raise_leaf_range(block_leaf, levels);
            goto abort;
        }
        if (ws_push(ws, found.obj, found.slot, depth) < 0)
            goto abort;
        interest = ws->n - 1;
    }

    /* ---- commit: placement, stash reconcile, write-back ----------- */
    if (place_core(ws, self->path, levels, self->cap) < 0)
        goto done;
    if (ws->n_pool > 0) {
        /* Leftovers: rebuild the stash dict in merge order — resident
         * survivors, drained survivors, the block of interest last. */
        for (Py_ssize_t k = 0; k < ws->n_pool; k++)
            ws->merged[ws->pool[k]].depth = -1;
        PyDict_Clear(self->stash);
        for (Py_ssize_t i = 0; i < ws->n; i++) {
            Entry *e = &ws->merged[i];
            if (e->depth != -1)
                continue;
            int rc;
            if (i == interest)
                rc = PyDict_SetItem(self->stash, addr_obj, e->obj);
            else {
                PyObject *key = PyLong_FromLongLong(addr_col.data[e->slot]);
                if (key == NULL)
                    goto done;
                rc = PyDict_SetItem(self->stash, key, e->obj);
                Py_DECREF(key);
            }
            if (rc < 0)
                goto done;
        }
    }
    else if (PyDict_GET_SIZE(self->stash) > 0)
        PyDict_Clear(self->stash);
    kernel_release(&addr_col, &leaf_col);
    ws_clear(ws);
    if (op == self->op_readrmv &&
        PyList_Append(self->free_list, found.obj) < 0)
        goto done;

    if (bump_attr(self->storage, str_buckets_written, self->path_len_obj) < 0 ||
        kernel_notify(self, str_on_path_write, leaf_obj, leaf, &indices) < 0 ||
        kernel_check_limit(self) < 0)
        goto done;
    result = block;
    Py_INCREF(result);
    goto done;

abort:
    kernel_release(&addr_col, &leaf_col);
    ws_clear(ws);
    kernel_abort(backend, created_fresh, found.obj, saved_leaf, payload,
                 saved_mac);

done:
    kernel_release(&addr_col, &leaf_col);
    ws_clear(ws);
    kernel_drop_path(self);
    Py_XDECREF(found.obj);
    Py_XDECREF(payload);
    Py_XDECREF(saved_mac);
    Py_XDECREF(block);
    Py_XDECREF(indices);
    return result;
}

/* access(op, addr, leaf, new_leaf, update, append_block)
 *
 * ColumnarPathOramBackend.access, whole: counters, path read, drain,
 * update hand-off, placement, stash reconcile, write-back accounting,
 * occupancy fold — with the interpreted kernel's exact order of side
 * effects, so a failure at any point leaves what it would have left. */
static PyObject *
kernel_access(AccessKernel *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError,
                     "access expects 6 positional arguments, got %zd",
                     nargs);
        return NULL;
    }
    PyObject *backend = PyWeakref_GetObject(self->backend_ref);
    if (backend == NULL)
        return NULL;
    if (backend == Py_None) {
        PyErr_SetString(PyExc_ReferenceError,
                        "the backend of this access kernel is gone");
        return NULL;
    }
    if (self->busy) {
        PyErr_SetString(PyExc_RuntimeError,
                        "re-entrant access on one backend (from an update "
                        "or observer callback)");
        return NULL;
    }
    PyObject *result = NULL;
    Py_INCREF(backend);
    self->busy = 1;
    if (bump_attr(backend, str_access_count, self->one) == 0) {
        if (args[0] == self->op_append)
            result = kernel_append(self, backend, args[5]);
        else
            result = kernel_tree_access(self, backend, args[0], args[1],
                                        args[2], args[3], args[4]);
    }
    self->busy = 0;
    Py_DECREF(backend);
    return result;
}

/* occupancy() -> (count, mean, m2, max, min); max/min are None until the
 * first fold (RunningStats' -inf/+inf sentinels are the view's job, and
 * what the constructor is handed, and ignores, for an empty fold). */
static PyObject *
kernel_occupancy(AccessKernel *self, PyObject *Py_UNUSED(ignored))
{
    if (self->occ_count == 0)
        return Py_BuildValue("(LddOO)", self->occ_count, self->occ_mean,
                             self->occ_m2, Py_None, Py_None);
    return Py_BuildValue("(LddLL)", self->occ_count, self->occ_mean,
                         self->occ_m2, self->occ_max, self->occ_min);
}

static PyObject *
kernel_fold_occupancy(AccessKernel *self, PyObject *arg)
{
    if (!PyLong_Check(arg)) {
        PyErr_SetString(PyExc_TypeError,
                        "stash occupancy must be an int");
        return NULL;
    }
    long long n;
    if (as_int64(arg, &n) < 0)
        return NULL;
    occupancy_fold(self, n);
    Py_RETURN_NONE;
}

static PyMethodDef kernel_methods[] = {
    {"access", (PyCFunction)(void (*)(void))kernel_access, METH_FASTCALL,
     "access(op, addr, leaf, new_leaf, update, append_block) -> Block | "
     "None: one whole Backend operation."},
    {"occupancy", (PyCFunction)kernel_occupancy, METH_NOARGS,
     "(count, mean, m2, max, min) of the post-eviction stash occupancy."},
    {"fold_occupancy", (PyCFunction)kernel_fold_occupancy, METH_O,
     "Fold one occupancy sample, as RunningStats.add does."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject AccessKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.native._replay_core.AccessKernel",
    .tp_basicsize = sizeof(AccessKernel),
    .tp_dealloc = (destructor)kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Native Path ORAM access kernel bound to one "
              "ColumnarPathOramBackend (see enable_native_kernel).",
    .tp_traverse = (traverseproc)kernel_traverse,
    .tp_clear = (inquiry)kernel_clear,
    .tp_methods = kernel_methods,
    .tp_new = kernel_new,
};

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef replay_core_methods[] = {
    {"translate_block_addrs", translate_block_addrs, METH_VARARGS,
     "Line-address column -> plain-int block addresses (zero-copy over "
     "an int64 buffer; sequence fallback matches the Python kernel)."},
    {"run_access_loop", run_access_loop, METH_VARARGS,
     "Drive every (addr, is_write) event through frontend.access; "
     "returns the per-event tree-access counts."},
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

static struct PyModuleDef replay_core_module = {
    PyModuleDef_HEAD_INIT,
    "repro.sim.native._replay_core",
    "Compiled replay core: fused access/eviction loop over columnar "
    "arenas (see repro.sim.native).",
    -1,
    replay_core_methods,
};

PyMODINIT_FUNC
PyInit__replay_core(void)
{
    static const struct {
        PyObject **slot;
        const char *text;
    } names[] = {
        {&str_tree_accesses, "tree_accesses"},
        {&str_access_count, "access_count"},
        {&str_tree_access_count, "tree_access_count"},
        {&str_append_count, "append_count"},
        {&str_buckets_read, "buckets_read"},
        {&str_buckets_written, "buckets_written"},
        {&str_observer, "observer"},
        {&str_on_path_read, "on_path_read"},
        {&str_on_path_write, "on_path_write"},
        {&str_grow, "_grow"},
        {&str_abort_access, "_abort_access"},
        {&str_addr, "addr"},
        {&str_leaf, "leaf"},
        {&str_data, "data"},
        {&str_mac, "mac"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        *names[i].slot = PyUnicode_InternFromString(names[i].text);
        if (*names[i].slot == NULL)
            return NULL;
    }
    if (PyType_Ready(&AccessKernelType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&replay_core_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&AccessKernelType);
    if (PyModule_AddObject(module, "AccessKernel",
                           (PyObject *)&AccessKernelType) < 0) {
        Py_DECREF(&AccessKernelType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
