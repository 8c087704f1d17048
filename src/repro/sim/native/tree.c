/* tree.c: the Path ORAM working set and AccessKernel.
 *
 * AccessKernel is a per-backend handle whose access() is one whole
 * ColumnarPathOramBackend.access — all four ops, counters, path read,
 * drain, stash merge, update hand-off, greedy eviction, stash
 * reconcile, write-back accounting, occupancy sample, rollback — as
 * integer loops over the storage's typed columns and byte arena, which
 * it binds, never copies.  The frontend kernels call its tree access
 * (tree_access) with a C visit in place of the update closure.  The
 * working set (drain_core, place_core) is the drain and placement every
 * entry point shares.
 */

#include "_replay_core.h"

/* The stash occupancy summary's float half (mean, m2). */
static const ColKind COL_F64 = {8, "d", "float64 column (array('d'))"};

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

/* repro.storage.block.DUMMY_ADDR: the address column of a free slot. */
#define DUMMY_ADDR (-1LL)

void
ws_free(WorkSet *ws)
{
    PyMem_Free(ws->merged);
    PyMem_Free(ws->order);
    PyMem_Free(ws->stack);
    PyMem_Free(ws->keys);
    PyMem_Free(ws->mark);
    memset(ws, 0, sizeof(*ws));
}

/* Start a drain over an arena of `arena_len` slots: an empty working
 * set and a fresh stamp no slot carries yet. */
int
ws_begin(WorkSet *ws, Py_ssize_t arena_len)
{
    for (uint64_t m = ws->depths; m != 0; m &= m - 1)
        ws->count[bit_length64((long long)(m & -m)) - 1] = 0;
    ws->n = ws->n_resident = ws->n_keys = ws->n_left = 0;
    ws->depths = 0;
    Py_ssize_t had = ws->cap_mark;
    if (grow_buffer((void **)&ws->mark, &ws->cap_mark, arena_len,
                    sizeof(uint32_t)) < 0)
        return -1;
    if (ws->cap_mark > had)
        memset(ws->mark + had, 0,
               (size_t)(ws->cap_mark - had) * sizeof(uint32_t));
    if (++ws->epoch == 0) {
        memset(ws->mark, 0, (size_t)ws->cap_mark * sizeof(uint32_t));
        ws->epoch = 1;
    }
    return 0;
}

/* Room for `entries` blocks in the merge order, the depth order and the
 * placement stack, with the order's slack and the stack's padding on
 * either side. */
int
ws_reserve(WorkSet *ws, Py_ssize_t entries)
{
    const Py_ssize_t had = ws->cap_stack;
    if (grow_buffer((void **)&ws->merged, &ws->cap, entries,
                    sizeof(Entry)) < 0 ||
        grow_buffer((void **)&ws->order, &ws->cap_order, entries + WS_SLACK,
                    sizeof(int32_t)) < 0 ||
        grow_buffer((void **)&ws->stack, &ws->cap_stack,
                    WS_PAD + entries + WS_SLACK, sizeof(int32_t)) < 0)
        return -1;
    if (had == 0) /* a reallocation keeps the padding */
        memset(ws->stack, 0, WS_PAD * sizeof(int32_t));
    return 0;
}

/* A slot id read out of a column, about to join the working set: inside
 * the arena (both columns: `arena_len` is the shorter one) and not
 * already merged by this drain — a slot two buckets, or a bucket and
 * the stash, both claim is one block about to be evicted twice. */
static inline int
ws_admit(WorkSet *ws, long long slot, Py_ssize_t arena_len, const char *where,
         long long leaf)
{
    if (slot < 0 || slot >= arena_len) {
        PyErr_Format(PyExc_IndexError, "%s slot %lld outside the arena",
                     where, slot);
        return -1;
    }
    if (ws->mark[slot] == ws->epoch) {
        PyErr_Format(PyExc_ValueError,
                     "slot %lld is referenced twice on path %lld", slot,
                     leaf);
        return -1;
    }
    ws->mark[slot] = ws->epoch;
    return 0;
}

/* Merge one run of slot ids at their legal eviction depths: the stash's
 * residents (`resident`, a constant once inlined), or the path's blocks
 * after them, which the residents' addresses are probed against. */
static inline int
drain_run(WorkSet *ws, const int32_t *slots, Py_ssize_t count, int resident,
          const long long *addr_col, const long long *leaf_col,
          Py_ssize_t arena_len, long long *found, long long addr,
          long long leaf, int levels)
{
    for (Py_ssize_t k = 0; k < count; k++) {
        const int32_t s = slots[k];
        if (ws_admit(ws, s, arena_len, resident ? "stash" : "bucket",
                     leaf) < 0)
            return -1;
        const long long a = addr_col[s];
        if (resident)
            ws->keys[ws->n_keys++] = a;
        if (a == addr) {
            if (*found >= 0) {
                raise_duplicate(a);
                return -1;
            }
            *found = s;
            continue; /* the block of interest is merged last */
        }
        /* Stash-vs-path duplicate guard: `a in resident_addrs`. */
        for (Py_ssize_t j = 0; !resident && j < ws->n_keys; j++) {
            if (ws->keys[j] == a) {
                raise_duplicate(a);
                return -1;
            }
        }
        const int depth = levels - bit_length64(leaf_col[s] ^ leaf);
        if (depth < 0) {
            raise_leaf_range(leaf_col[s], levels);
            return -1;
        }
        ws_push(ws, s, depth);
    }
    return 0;
}

/* The drain: merge the stash residents (stash order), then the path's
 * blocks — `drained`, the occupied buckets' slot ids root->leaf in one
 * flat run of n_drained — with the object backend's duplicate-block and
 * leaf-range validation in its order (byte-identical messages).  Room
 * is reserved once, for every block drained plus the block of interest.
 * *found enters -1 and leaves holding the slot of the block of
 * interest, wherever it was located; it is never merged here (the
 * caller merges it last, after the visit).  Nothing is mutated: buckets
 * are only rewritten at placement time. */
int
drain_core(WorkSet *ws, const long long *addr_col, const long long *leaf_col,
           Py_ssize_t arena_len, const int32_t *stash, Py_ssize_t n_stash,
           const int32_t *drained, Py_ssize_t n_drained, long long *found,
           long long addr, long long leaf, int levels)
{
    if (grow_buffer((void **)&ws->keys, &ws->cap_keys, n_stash,
                    sizeof(long long)) < 0 ||
        ws_reserve(ws, n_stash + n_drained + 1) < 0 ||
        drain_run(ws, stash, n_stash, 1, addr_col, leaf_col, arena_len,
                  found, addr, leaf, levels) < 0)
        return -1;
    ws->n_resident = ws->n;
    return drain_run(ws, drained, n_drained, 0, addr_col, leaf_col,
                     arena_len, found, addr, leaf, levels);
}

/* Greedy placement, deepest level first: the object backend's loop —
 * a level's candidates LIFO, then the pool of deeper leftovers LIFO —
 * as one stack.  The merge indices are counting-sorted by depth
 * (deepest first, merge order within a depth); each level pushes its
 * run and pops min(Z, height) entries into its bucket, newest first.
 * Pushing a level's candidates onto the pool and popping from the top
 * takes the candidates newest first and then the pool's top, which is
 * the object backend's order; what the stack holds at the end is its
 * pool list, bottom to top (ws_leftovers, ws->n_left).  The bucket at
 * depth d is bucket_slots[index[d] * Z ...] with its fill at
 * bucket_fill[index[d]]; only levels that receive blocks are written,
 * and every level a stack entry passes does.  The copies are fixed-
 * width, not one step per block: a push copies four merge indices at a
 * time (reading into the order's slack) and a pop writes all Z of a
 * bucket's ids (reading into the stack's padding), the ones past its
 * new fill stale, which nothing reads.  Nothing here can fail. */
void
place_core(WorkSet *ws, int32_t *bucket_slots, uint8_t *bucket_fill,
           const long long *index, int cap)
{
    const Entry *e = ws->merged;
    int32_t *order = ws->order, *stack = ws->stack + WS_PAD;
    uint64_t todo = ws->depths;
    Py_ssize_t height = 0;
    if (todo != 0) {
        int32_t end[64], at = 0;
        const int deepest = bit_length64((long long)todo) - 1;
        for (int d = deepest; d >= 0; d--)
            end[d] = at += ws->count[d];
        for (Py_ssize_t i = ws->n - 1; i >= 0; i--)
            order[--end[e[i].depth]] = (int32_t)i;
        /* end[d] is now where depth d's run starts. */
        for (int level = deepest; level >= 0; level--) {
            if (height == 0) { /* jump to the next depth with candidates */
                if (todo == 0)
                    break;
                level = bit_length64((long long)todo) - 1;
            }
            todo &= ~(1ULL << level);
            const int32_t *run = order + end[level];
            const int32_t r = ws->count[level];
            int32_t *slots = bucket_slots + index[level] * cap;
            for (int32_t j = 0; j < r; j += 4)
                memcpy(stack + height + j, run + j, 4 * sizeof(int32_t));
            height += r;
            for (int k = 0; k < cap; k++)
                slots[k] = e[stack[height - 1 - k]].slot;
            const int take = height < cap ? (int)height : cap;
            height -= take;
            bucket_fill[index[level]] = (uint8_t)take;
        }
    }
    ws->n_left = height;
}

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

static int kernel_columns(AccessKernel *self);

static void
kernel_dealloc(AccessKernel *self)
{
    PyObject_GC_UnTrack(self);
    kernel_release(self);
    col_release(&self->bucket_slots);
    col_release(&self->bucket_fill);
    col_release(&self->ledger);
    col_release(&self->storage_ledger);
    col_release(&self->occupancy);
    col_release(&self->moments);
    kernel_clear(self);
    Py_CLEAR(self->backend);
    Py_CLEAR(self->observer);
    ws_free(&self->ws);
    PyMem_Free(self->path_index);
    PyMem_Free(self->drained);
    PyMem_Free(self->snap);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    PyObject *backend, *storage, *addr_col, *leaf_col, *mac_col, *chunks,
        *free_col, *bucket_slots, *bucket_fill, *stash_col, *ledger,
        *storage_ledger, *occupancy, *moments, *block_type, *op_append,
        *op_readrmv, *not_found_error, *overflow_error;
    int levels, cap, allow_missing;
    Py_ssize_t block_bytes;
    long long chunk_slots, stash_limit;
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "AccessKernel takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(
            args, "OOOOO!O!OOOOOOOOiinLLpOOOOO:AccessKernel", &backend,
            &storage, &addr_col, &leaf_col, &PyList_Type, &mac_col,
            &PyList_Type, &chunks, &free_col, &bucket_slots, &bucket_fill,
            &stash_col, &ledger, &storage_ledger, &occupancy, &moments,
            &levels, &cap, &block_bytes, &chunk_slots,
            &stash_limit, &allow_missing, &block_type, &op_append,
            &op_readrmv, &not_found_error, &overflow_error))
        return NULL;
    if (levels < 0 || levels > 60 || cap < 1 || cap > 255 ||
        block_bytes < 1 || chunk_slots < 1 ||
        (chunk_slots & (chunk_slots - 1)) != 0) {
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
    /* The tree: one count per bucket, Z slot ids per bucket, both of
     * exactly the geometry's size — what lets every later index into
     * them go unchecked. */
    const Py_ssize_t num_buckets = (Py_ssize_t)((2LL << levels) - 1);
    if (col_acquire_fixed(bucket_fill, &self->bucket_fill, "bucket_fill",
                          &COL_U8, num_buckets, 0) < 0 ||
        col_acquire_fixed(bucket_slots, &self->bucket_slots, "bucket_slots",
                          &COL_I32, num_buckets * cap, 0) < 0 ||
        col_acquire_fixed(ledger, &self->ledger, "the backend's ledger",
                          &COL_I64, N_BACKEND_SLOTS, 0) < 0 ||
        col_acquire_fixed(storage_ledger, &self->storage_ledger,
                          "the storage's ledger", &COL_I64, N_STORAGE_SLOTS,
                          0) < 0 ||
        col_acquire_fixed(occupancy, &self->occupancy, "the occupancy ledger",
                          &COL_I64, N_OCC_SLOTS, 0) < 0 ||
        col_acquire_fixed(moments, &self->moments, "the occupancy moments",
                          &COL_F64, N_MOMENT_SLOTS, 0) < 0)
        goto fail;
    self->backend_ref = PyWeakref_NewRef(backend, NULL);
    self->path_index = PyMem_Calloc((size_t)levels + 1, sizeof(long long));
    self->drained =
        PyMem_Malloc(((size_t)levels + 1) * (size_t)cap * sizeof(int32_t));
    self->snap = PyMem_Malloc((size_t)block_bytes);
    if (self->backend_ref == NULL || self->path_index == NULL ||
        self->drained == NULL || self->snap == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        goto fail;
    }
#define BIND(field) (Py_INCREF(field), self->field = field)
    BIND(storage);
    BIND(addr_col);
    BIND(leaf_col);
    BIND(mac_col);
    BIND(chunks);
    BIND(free_col);
    BIND(stash_col);
    BIND(block_type);
    BIND(op_append);
    BIND(op_readrmv);
    BIND(not_found_error);
    BIND(overflow_error);
#undef BIND
    /* Fail at set-up, not mid-access, when the storage cannot hand out
     * the growing columns writable and well-formed (the zero-copy
     * contract). */
    if (kernel_columns(self) < 0)
        goto fail;
    kernel_release(self);
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

/* -- columns, holding ------------------------------------------------ */

/* Export the growing columns (the arena's two, the free stack, the
 * stash), unless they still are from earlier in this entry, and check
 * what every later index relies on: equal arena columns, each
 * length-prefixed column's prefix inside it (after its header: two
 * words for the free stack, one for the stash), and the high-water mark
 * inside both the arena and the free stack's capacity, so that every
 * slot handed out could be pushed back. */
static int
kernel_columns(AccessKernel *self)
{
    if (self->live)
        return 0;
    if (col_acquire(self->addr_col, &self->addr, "addr_col", &COL_I64, 1) < 0 ||
        col_acquire(self->leaf_col, &self->leaf, "leaf_col", &COL_I64, 1) < 0 ||
        col_acquire(self->free_col, &self->free_stack, "the free stack",
                    &COL_I32, 1) < 0 ||
        col_acquire(self->stash_col, &self->stash_slots, "the stash column",
                    &COL_I32, 1) < 0)
        goto fail;
    if (self->addr.len != self->leaf.len) {
        PyErr_SetString(PyExc_ValueError,
                        "addr_col and leaf_col differ in length");
        goto fail;
    }
    const Col *prefixed[2] = {&self->free_stack, &self->stash_slots};
    for (int i = 0; i < 2; i++) {
        const int32_t *column = prefixed[i]->data;
        const Py_ssize_t header = i == 0 ? 2 : 1;
        if (prefixed[i]->len < header || column[0] < 0 ||
            column[0] > prefixed[i]->len - header) {
            PyErr_Format(PyExc_ValueError, "%s length %lld beyond its column",
                         i == 0 ? "free stack" : "stash",
                         prefixed[i]->len < header ? -1LL
                                                   : (long long)column[0]);
            goto fail;
        }
    }
    const long long mark = ((int32_t *)self->free_stack.data)[1];
    if (mark < 0 || mark > self->addr.len) {
        PyErr_Format(PyExc_ValueError,
                     "free stack high-water mark %lld outside the arena of "
                     "%zd slots", mark, self->addr.len);
        goto fail;
    }
    if (mark > self->free_stack.len - 2) {
        PyErr_Format(PyExc_ValueError,
                     "free stack high-water mark %lld beyond its capacity of "
                     "%zd slots", mark, self->free_stack.len - 2);
        goto fail;
    }
    self->live = 1;
    return 0;

fail:
    kernel_release(self);
    return -1;
}

/* Exports are never held across an arena or stash growth (CPython
 * refuses to resize an exported array), a call that can run foreign
 * Python — an observer, an update callback, a Block's construction, the
 * backend's rollback, a payload's buffer or bytes coercion — or the
 * return to the caller. */
void
kernel_release(AccessKernel *self)
{
    col_release(&self->addr);
    col_release(&self->leaf);
    col_release(&self->free_stack);
    col_release(&self->stash_slots);
    self->live = 0;
}

/* Take the tree for one outermost entry: its owner held, its observer
 * read once.  The caller has checked the owner alive and the handle not
 * busy (its words for either differ). */
int
kernel_hold(AccessKernel *self, PyObject *backend)
{
    PyObject *observer = PyObject_GetAttr(self->storage, str_observer);
    if (observer == NULL)
        return -1;
    if (observer == Py_None)
        Py_CLEAR(observer);
    self->observer = observer;
    self->backend = Py_NewRef(backend);
    self->busy = 1;
    return 0;
}

void
kernel_drop(AccessKernel *self)
{
    kernel_release(self);
    Py_CLEAR(self->observer);
    Py_CLEAR(self->backend);
    self->busy = 0;
}

/* -- small steps ---------------------------------------------------- */

/* storage.observer.<method>(leaf, indices), when an observer is set. */
static int
kernel_notify(AccessKernel *self, PyObject *method, long long leaf)
{
    if (self->observer == NULL)
        return 0;
    kernel_release(self);
    const int levels = self->levels;
    PyObject *leaf_obj = PyLong_FromLongLong(leaf);
    PyObject *tuple = PyTuple_New((Py_ssize_t)levels + 1);
    for (int d = 0; tuple != NULL && d <= levels; d++) {
        PyObject *index = PyLong_FromLongLong(self->path_index[d]);
        if (index == NULL)
            Py_CLEAR(tuple);
        else
            PyTuple_SET_ITEM(tuple, d, index);
    }
    PyObject *done = leaf_obj != NULL && tuple != NULL
                         ? PyObject_CallMethodObjArgs(self->observer, method,
                                                      leaf_obj, tuple, NULL)
                         : NULL;
    Py_XDECREF(leaf_obj);
    Py_XDECREF(tuple);
    if (done == NULL)
        return -1;
    Py_DECREF(done);
    return 0;
}

/* Where one slot's payload bytes lie inside its arena chunk, read in
 * place through the chunk's memoryview (storage._chunks holds one per
 * chunk, and while it lives and is not released its bytearray cannot be
 * resized): a touch is a pointer computation and exports nothing.  It
 * checks, every time, what an export used to — a live, writable,
 * C-contiguous memoryview long enough for the slot — and refuses in the
 * export's words.  The pointer is good until Python next runs. */
int
kernel_payload(AccessKernel *self, long long slot, char **bytes)
{
    Py_ssize_t chunk = (Py_ssize_t)(slot >> self->chunk_shift);
    if (slot < 0 || chunk >= PyList_GET_SIZE(self->chunks)) {
        PyErr_Format(PyExc_IndexError, "slot %lld outside the byte arena",
                     slot);
        return -1;
    }
    PyObject *owner = PyList_GET_ITEM(self->chunks, chunk);
    if (!PyMemoryView_Check(owner)) {
        PyErr_Format(PyExc_TypeError,
                     "an arena chunk must be a memoryview, not '%.100s'",
                     Py_TYPE(owner)->tp_name);
        return -1;
    }
    if (((PyMemoryViewObject *)owner)->flags & _Py_MEMORYVIEW_RELEASED) {
        PyErr_SetString(PyExc_ValueError,
                        "operation forbidden on released memoryview object");
        return -1;
    }
    const Py_buffer *view = PyMemoryView_GET_BUFFER(owner);
    if (view->readonly) {
        PyErr_SetString(PyExc_BufferError,
                        "memoryview: underlying buffer is not writable");
        return -1;
    }
    /* The flag memoryview.c_contiguous reads: PyBuffer_IsContiguous's
     * test, made once when the view was. */
    if (!(((PyMemoryViewObject *)owner)->flags & _Py_MEMORYVIEW_C)) {
        PyErr_SetString(PyExc_BufferError,
                        "memoryview: underlying buffer is not C-contiguous");
        return -1;
    }
    Py_ssize_t offset = (Py_ssize_t)(slot & self->chunk_mask) *
                        self->block_bytes;
    if (view->len < offset + self->block_bytes) {
        PyErr_Format(PyExc_IndexError, "slot %lld outside the byte arena",
                     slot);
        return -1;
    }
    *bytes = (char *)view->buf + offset;
    return 0;
}

/* store.set_payload(slot, data): exactly one block, same message. */
int
kernel_set_payload(AccessKernel *self, long long slot, PyObject *data)
{
    Py_buffer src;
    char *bytes;
    if (PyObject_GetBuffer(data, &src, PyBUF_SIMPLE) < 0)
        return -1;
    if (src.len != self->block_bytes) {
        PyErr_Format(PyExc_ValueError, "payload must be %zd bytes, got %zd",
                     self->block_bytes, src.len);
        PyBuffer_Release(&src);
        return -1;
    }
    if (kernel_payload(self, slot, &bytes) < 0) {
        PyBuffer_Release(&src);
        return -1;
    }
    memcpy(bytes, src.buf, (size_t)self->block_bytes);
    PyBuffer_Release(&src);
    return 0;
}

/* mac_col[slot] = mac */
int
kernel_set_mac(AccessKernel *self, long long slot, PyObject *mac)
{
    if (slot < 0 || slot >= PyList_GET_SIZE(self->mac_col)) {
        PyErr_Format(PyExc_IndexError, "slot %lld outside mac_col", slot);
        return -1;
    }
    Py_INCREF(mac);
    return PyList_SetItem(self->mac_col, (Py_ssize_t)slot, mac);
}

/* backend.stash.reserve(blocks), when the stash column has room for
 * fewer: the one growth of that column, done by its owner between two
 * exports.  (The stash is reached through the backend: it holds this
 * handle, as its occupancy view, and a reference back would be a cycle
 * keeping every discarded tree for the collector.) */
static int
kernel_reserve_stash(AccessKernel *self, long long blocks)
{
    if (kernel_columns(self) < 0)
        return -1;
    if (blocks < self->stash_slots.len)
        return 0;
    kernel_release(self);
    PyObject *stash = PyObject_GetAttr(self->backend, str_stash);
    PyObject *wanted = PyLong_FromLongLong(blocks);
    PyObject *done = stash == NULL || wanted == NULL
                         ? NULL
                         : PyObject_CallMethodOneArg(stash, str_reserve,
                                                     wanted);
    Py_XDECREF(stash);
    Py_XDECREF(wanted);
    if (done == NULL)
        return -1;
    Py_DECREF(done);
    if (kernel_columns(self) < 0)
        return -1;
    if (blocks >= self->stash_slots.len) {
        PyErr_SetString(PyExc_IndexError,
                        "stash.reserve left the stash column short");
        return -1;
    }
    return 0;
}

/* store.alloc's slot claim: the last released slot (the free stack's
 * top), else the fresh slot at the high-water mark, growing the arena
 * first when the mark is at its end; a slot outside the arena or still
 * holding a block is refused.  Returns the slot, or -1 with nothing
 * claimed. */
static long long
kernel_claim_slot(AccessKernel *self)
{
    if (kernel_columns(self) < 0)
        return -1;
    int32_t *stack = self->free_stack.data;
    if (stack[0] == 0 && stack[1] == self->addr.len) {
        kernel_release(self);
        PyObject *grown = PyObject_CallMethodNoArgs(self->storage, str_grow);
        if (grown == NULL)
            return -1;
        Py_DECREF(grown);
        if (kernel_columns(self) < 0)
            return -1;
        stack = self->free_stack.data;
        if (stack[0] == 0 && stack[1] == self->addr.len) {
            PyErr_SetString(PyExc_IndexError,
                            "arena growth left the free stack empty");
            return -1;
        }
    }
    const int fresh = stack[0] == 0;
    const long long slot = fresh ? stack[1] : stack[stack[0] + 1];
    if (slot < 0 || slot >= self->addr.len) {
        PyErr_Format(PyExc_IndexError, "free slot %lld outside the arena",
                     slot);
        return -1;
    }
    if (((long long *)self->addr.data)[slot] != DUMMY_ADDR) {
        PyErr_Format(PyExc_ValueError, "free slot %lld holds a live block",
                     slot);
        return -1;
    }
    if (fresh)
        stack[1]++;
    else
        stack[0]--;
    self->claimed_fresh = fresh;
    return slot;
}

/* Undo the last claim, the columns still live: the slot goes back where
 * it came from. */
static void
kernel_unclaim_slot(AccessKernel *self)
{
    int32_t *stack = self->free_stack.data;
    if (self->claimed_fresh)
        stack[1]--;
    else
        stack[0]++;
}

/* store.release(slot).  The columns are live and the stack has room
 * (kernel_tree_body checks before it commits). */
static void
kernel_release_slot(AccessKernel *self, long long slot)
{
    int32_t *stack = self->free_stack.data;
    stack[++stack[0] + 1] = (int32_t)slot;
    ((long long *)self->addr.data)[slot] = DUMMY_ADDR;
}

/* Stash.check_limit(): add the occupancy to the stash's running
 * statistics with RunningStats.add's operand order, then enforce the
 * limit. */
static int
kernel_check_limit(AccessKernel *self)
{
    if (kernel_columns(self) < 0)
        return -1;
    long long n = *(int32_t *)self->stash_slots.data;
    long long *occ = self->occupancy.data;
    double *moments = self->moments.data;
    double x = (double)n;
    tally(&self->occupancy, OCC_COUNT, 1);
    double delta = x - moments[OCC_MEAN];
    moments[OCC_MEAN] += delta / (double)occ[OCC_COUNT];
    /* volatile: the product must round on its own, as CPython's does —
     * a fused multiply-add here would change the last bit of m2. */
    volatile double product = delta * (x - moments[OCC_MEAN]);
    moments[OCC_M2] += product;
    if (occ[OCC_COUNT] == 1 || n > occ[OCC_MAX])
        occ[OCC_MAX] = n;
    if (occ[OCC_COUNT] == 1 || n < occ[OCC_MIN])
        occ[OCC_MIN] = n;
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

/* The except-BaseException arm of the object backend's access: hand the
 * pending exception to backend._abort_access — which releases a fresh
 * slot, restores the block of interest from the column snapshot and
 * chains restore failures as notes — then re-raise it.  `slot` is -1
 * while the block of interest has not been located. */
static void
kernel_abort(AccessKernel *self, int created_fresh, long long slot,
             int snapshotted, long long saved_leaf, PyObject *saved_mac)
{
    Handling handling;
    handling_begin(&handling);
    PyObject *slot_obj =
        slot >= 0 ? PyLong_FromLongLong(slot) : Py_NewRef(Py_None);
    PyObject *saved =
        (created_fresh || !snapshotted)
            ? Py_NewRef(Py_None)
            : Py_BuildValue("(Ly#O)", saved_leaf, self->snap,
                            self->block_bytes, saved_mac);
    kernel_release(self);
    if (slot_obj != NULL && saved != NULL) {
        PyObject *done = PyObject_CallMethodObjArgs(
            self->backend, str_abort_access, handling.value,
            created_fresh ? Py_True : Py_False, slot_obj, saved, NULL);
        Py_XDECREF(done);
    }
    Py_XDECREF(slot_obj);
    Py_XDECREF(saved);
    handling_end(&handling);
}

/* -- APPEND --------------------------------------------------------- */

/* Stash.add + check_limit for a block given by value: `data` is one
 * payload of `data_len` bytes (validated here, after the duplicate
 * probe, as the arena's memoryview assignment does). */
int
kernel_append(AccessKernel *self, long long addr, long long leaf,
              PyObject *mac, const char *data, Py_ssize_t data_len)
{
    if (kernel_columns(self) < 0)
        return -1;
    const long long occupancy = *(int32_t *)self->stash_slots.data;
    for (long long i = 1; i <= occupancy; i++) {
        const long long s = ((int32_t *)self->stash_slots.data)[i];
        if (s < 0 || s >= self->addr.len) {
            PyErr_Format(PyExc_IndexError, "stash slot %lld outside the arena",
                         s);
            return -1;
        }
        if (((long long *)self->addr.data)[s] == addr) {
            raise_duplicate(addr);
            return -1;
        }
    }
    /* Validate the payload before claiming the slot, so a wrong-sized
     * block leaves the free stack alone. */
    if (data_len != self->block_bytes) {
        PyErr_SetString(PyExc_ValueError,
                        "memoryview assignment: lvalue and rvalue have "
                        "different structures");
        return -1;
    }
    if (kernel_reserve_stash(self, occupancy + 1) < 0)
        return -1;
    const long long slot = kernel_claim_slot(self);
    if (slot < 0)
        return -1;
    char *bytes;
    /* The claim may have grown the arena: look at the stash column again. */
    const int room = occupancy + 1 < self->stash_slots.len;
    if (!room)
        PyErr_SetString(PyExc_IndexError,
                        "the stash column shrank under the access");
    if (!room || kernel_set_mac(self, slot, mac) < 0 ||
        kernel_payload(self, slot, &bytes) < 0) {
        kernel_unclaim_slot(self);
        return -1;
    }
    memcpy(bytes, data, (size_t)self->block_bytes);
    ((long long *)self->leaf.data)[slot] = leaf;
    ((long long *)self->addr.data)[slot] = addr;
    int32_t *stash = self->stash_slots.data;
    stash[++stash[0]] = (int32_t)slot;
    return kernel_check_limit(self);
}

/* APPEND of a Block object (the Python-facing spelling). */
static PyObject *
kernel_append_block(AccessKernel *self, PyObject *block)
{
    if (block == Py_None) {
        PyErr_SetString(PyExc_ValueError, "APPEND requires append_block");
        return NULL;
    }
    tally(&self->ledger, T_APPENDS, 1);

    PyObject *addr_obj = PyObject_GetAttr(block, str_addr);
    PyObject *leaf_obj = PyObject_GetAttr(block, str_leaf);
    PyObject *data = PyObject_GetAttr(block, str_data);
    PyObject *mac = PyObject_GetAttr(block, str_mac);
    PyObject *result = NULL;
    Py_buffer src;
    long long addr, leaf;
    if (addr_obj != NULL && leaf_obj != NULL && data != NULL && mac != NULL &&
        as_int64(addr_obj, &addr) == 0 && as_int64(leaf_obj, &leaf) == 0 &&
        PyObject_GetBuffer(data, &src, PyBUF_SIMPLE) == 0) {
        if (kernel_append(self, addr, leaf, mac, src.buf, src.len) == 0)
            result = Py_NewRef(Py_None);
        PyBuffer_Release(&src);
    }
    Py_XDECREF(addr_obj);
    Py_XDECREF(leaf_obj);
    Py_XDECREF(data);
    Py_XDECREF(mac);
    return result;
}

/* -- READ / WRITE / READRMV ----------------------------------------- */

/* The Python-facing visit: materialise the Block, hand it to `update`,
 * write its fields back into the columns.  `block` is the result. */
typedef struct {
    Visit base;
    PyObject *addr_obj, *new_leaf_obj, *update; /* borrowed */
    PyObject *block;                            /* owned, NULL until made */
} BlockVisit;

/* leaf_col[slot], payload and mac_col[slot] from the (updated) Block. */
static int
kernel_write_back(AccessKernel *self, PyObject *block, long long slot)
{
    long long leaf;
    PyObject *field = PyObject_GetAttr(block, str_leaf);
    if (field == NULL)
        return -1;
    int rc = as_int64(field, &leaf);
    Py_DECREF(field);
    if (rc < 0 || kernel_columns(self) < 0)
        return -1;
    if (slot >= self->leaf.len) {
        PyErr_Format(PyExc_IndexError, "slot %lld outside the arena", slot);
        return -1;
    }
    ((long long *)self->leaf.data)[slot] = leaf;
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

static int
block_visit(Visit *base, AccessKernel *self, long long slot)
{
    BlockVisit *visit = (BlockVisit *)base;
    char *bytes;
    kernel_release(self);
    if (kernel_payload(self, slot, &bytes) < 0)
        return -1;
    PyObject *payload = PyBytes_FromStringAndSize(bytes, self->block_bytes);
    if (payload == NULL)
        return -1;
    visit->block = PyObject_CallFunctionObjArgs(
        self->block_type, visit->addr_obj, visit->new_leaf_obj, payload,
        PyList_GET_ITEM(self->mac_col, (Py_ssize_t)slot), NULL);
    Py_DECREF(payload);
    if (visit->block == NULL)
        return -1;
    if (visit->update == Py_None)
        return 0;
    /* The callback is arbitrary frontend code.  Its mutations are
     * written into the columns even when it raises (as the object
     * backend's live Block keeps them), so the rollback always starts
     * from the same state. */
    Handling handling;
    PyObject *updated = PyObject_CallOneArg(visit->update, visit->block);
    if (updated == NULL)
        handling_begin(&handling);
    int written = kernel_write_back(self, visit->block, slot);
    if (updated == NULL) {
        handling_end(&handling);
        return -1;
    }
    Py_DECREF(updated);
    return written;
}

/* storage.read_path_slots: range-check the leaf, locate the path's buckets (heap indices are arithmetic), account the
 * read, tell the observer.  Nothing here needs rolling back. */
static int
kernel_read_path(AccessKernel *self, long long leaf)
{
    const int levels = self->levels;
    if (leaf < 0 || leaf >= self->num_leaves) {
        PyErr_Format(PyExc_ValueError, "leaf %lld out of range", leaf);
        return -1;
    }
    for (int d = 0; d <= levels; d++)
        self->path_index[d] = ((1LL << d) - 1) + (leaf >> (levels - d));
    tally(&self->storage_ledger, T_BUCKETS_READ, (long long)levels + 1);
    return kernel_notify(self, str_on_path_read, leaf);
}

/* One tree access after its path read: drain, visit, eviction, stash
 * reconcile, write-back accounting, occupancy sample — integer loops over
 * the columns.  `visit` may be NULL. */
static int
kernel_tree_body(AccessKernel *self, int readrmv, long long addr,
                 long long leaf, long long new_leaf, Visit *visit)
{
    const int levels = self->levels, cap = self->cap;
    WorkSet *ws = &self->ws;
    PyObject *saved_mac = NULL;
    long long found = -1, saved_leaf = 0;
    int created_fresh = 0, snapshotted = 0, rc = -1;

    /* ---- the transactional region: any failure rolls back --------- */
    if (kernel_columns(self) < 0)
        goto abort;
    /* Room in the stash column for every leftover this access can
     * leave, taken while nothing has moved. */
    const long long occupancy = *(int32_t *)self->stash_slots.data;
    if (kernel_reserve_stash(
            self, occupancy + (long long)cap * (levels + 1) + 1) < 0)
        goto abort;
    const long long *index = self->path_index;
    uint8_t *fill = self->bucket_fill.data;
    int32_t *tree = self->bucket_slots.data;
    uint64_t occupied = 0; /* bit d: path bucket d holds blocks */
    for (int d = 0; d <= levels; d++) {
        if (fill[index[d]] > cap) {
            PyErr_Format(PyExc_ValueError,
                         "bucket %lld holds %d blocks (Z = %d)", index[d],
                         (int)fill[index[d]], cap);
            goto abort;
        }
        occupied |= (uint64_t)(fill[index[d]] != 0) << d;
    }
    /* The occupied buckets' slot ids, root->leaf, in one flat run: all
     * Z of a bucket's ids, the cursor advancing by its fill (what a copy
     * takes past the fill is overwritten or never read). */
    Py_ssize_t n_path = 0;
    for (uint64_t m = occupied; m != 0; m &= m - 1) {
        const long long i = index[bit_length64((long long)(m & -m)) - 1];
        for (int k = 0; k < cap; k++)
            self->drained[n_path + k] = tree[i * cap + k];
        n_path += fill[i];
    }
    if (ws_begin(ws, self->addr.len) < 0 ||
        drain_core(ws, self->addr.data, self->leaf.data, self->addr.len,
                   (int32_t *)self->stash_slots.data + 1,
                   (Py_ssize_t)occupancy, self->drained, n_path, &found,
                   addr, leaf, levels) < 0)
        goto abort;

    if (found < 0) {
        if (!self->allow_missing) {
            char hex[32];
            format_hex(addr, hex);
            PyErr_Format(self->not_found_error,
                         "block %s absent from path %lld and stash", hex,
                         leaf);
            goto abort;
        }
        /* store.alloc(addr, new_leaf): zero payload, no MAC. */
        found = kernel_claim_slot(self);
        if (found < 0)
            goto abort;
        created_fresh = 1;
        ((long long *)self->addr.data)[found] = addr;
        ((long long *)self->leaf.data)[found] = new_leaf;
        char *bytes;
        if (kernel_set_mac(self, found, Py_None) < 0 ||
            kernel_payload(self, found, &bytes) < 0)
            goto abort;
        memset(bytes, 0, (size_t)self->block_bytes);
    }

    /* Snapshot the block of interest for rollback, then remap it. */
    {
        char *bytes;
        if (found >= PyList_GET_SIZE(self->mac_col)) {
            PyErr_Format(PyExc_IndexError, "slot %lld outside mac_col",
                         found);
            goto abort;
        }
        if (kernel_payload(self, found, &bytes) < 0)
            goto abort;
        memcpy(self->snap, bytes, (size_t)self->block_bytes);
        snapshotted = 1;
        saved_mac = PyList_GET_ITEM(self->mac_col, (Py_ssize_t)found);
        Py_INCREF(saved_mac);
        saved_leaf = ((long long *)self->leaf.data)[found];
        ((long long *)self->leaf.data)[found] = new_leaf;
    }

    if (visit != NULL) {
        if (visit->visit(visit, self, found) < 0 || kernel_columns(self) < 0)
            goto abort;
        if (found >= self->leaf.len) {
            PyErr_Format(PyExc_IndexError, "slot %lld outside the arena",
                         found);
            goto abort;
        }
    }

    if (!readrmv) {
        /* Grouped last, like a re-insert, at the depth its (possibly
         * updated) leaf allows. */
        long long block_leaf = ((long long *)self->leaf.data)[found];
        int depth = levels - bit_length64(block_leaf ^ leaf);
        if (depth < 0) {
            raise_leaf_range(block_leaf, levels);
            goto abort;
        }
        ws_push(ws, (int32_t)found, depth);
    }
    /* READRMV frees the slot once the eviction is done: the stack must
     * have the room now, while the access can still be refused. */
    else if (*(int32_t *)self->free_stack.data + 2 >= self->free_stack.len) {
        PyErr_SetString(PyExc_IndexError,
                        "the free stack has no room for another slot");
        goto abort;
    }
    if (ws->n >= self->stash_slots.len) {
        PyErr_SetString(PyExc_IndexError,
                        "the stash column shrank under the access");
        goto abort;
    }

    /* ---- commit: placement, stash reconcile, write-back ----------- */
    /* Every drained bucket empties and placement refills the levels that
     * receive blocks: an untouched bucket that stays empty is never
     * written. */
    for (uint64_t m = occupied; m != 0; m &= m - 1)
        fill[index[bit_length64((long long)(m & -m)) - 1]] = 0;
    place_core(ws, tree, fill, index, cap);
    int32_t *stash = self->stash_slots.data;
    if (ws->n_left > 0) {
        /* Leftovers: rebuild the stash column in merge order — resident
         * survivors, drained survivors, the block of interest last. */
        const int32_t *left = ws_leftovers(ws);
        for (Py_ssize_t k = 0; k < ws->n_left; k++)
            ws->merged[left[k]].depth = -1;
        int32_t kept = 0;
        for (Py_ssize_t i = 0; i < ws->n; i++) {
            if (ws->merged[i].depth == -1)
                stash[++kept] = ws->merged[i].slot;
        }
        stash[0] = kept;
    }
    else if (stash[0] != 0)
        stash[0] = 0;
    if (readrmv)
        kernel_release_slot(self, found);

    tally(&self->storage_ledger, T_BUCKETS_WRITTEN, (long long)levels + 1);
    if (kernel_notify(self, str_on_path_write, leaf) < 0 ||
        kernel_check_limit(self) < 0)
        goto done;
    rc = 0;
    goto done;

abort:
    kernel_abort(self, created_fresh, found, snapshotted, saved_leaf,
                 saved_mac);

done:
    Py_XDECREF(saved_mac);
    return rc;
}

/* backend.access(op, addr, leaf, new_leaf) with everything already a C
 * integer: what the frontend handles call, with a C visit in place of
 * the update closure. */
int
tree_access(AccessKernel *tree, int readrmv, long long addr, long long leaf,
            long long new_leaf, Visit *visit)
{
    tally(&tree->ledger, T_ACCESSES, 1);
    tally(&tree->ledger, T_TREE_ACCESSES, 1);
    if (kernel_read_path(tree, leaf) < 0)
        return -1;
    return kernel_tree_body(tree, readrmv, addr, leaf, new_leaf, visit);
}

/* The same from Python operands: a leaf that is no int, or no leaf of
 * this tree, fails before the path is read; an address or new leaf the
 * columns cannot hold fails after it, inside the region that rolls
 * back. */
static int
kernel_access_tree(AccessKernel *self, int readrmv, PyObject *addr_obj,
                   PyObject *leaf_obj, PyObject *new_leaf_obj, Visit *visit)
{
    int overflow = 0;
    tally(&self->ledger, T_TREE_ACCESSES, 1);
    if (!PyLong_Check(leaf_obj)) {
        PyErr_Format(PyExc_TypeError, "leaf must be an int, not %.100s",
                     Py_TYPE(leaf_obj)->tp_name);
        return -1;
    }
    long long addr, new_leaf;
    long long leaf = PyLong_AsLongLongAndOverflow(leaf_obj, &overflow);
    if (overflow) {
        PyErr_Format(PyExc_ValueError, "leaf %S out of range", leaf_obj);
        return -1;
    }
    if (kernel_read_path(self, leaf) < 0)
        return -1;
    if (as_int64(addr_obj, &addr) < 0 || as_int64(new_leaf_obj, &new_leaf) < 0) {
        kernel_abort(self, 0, -1, 0, 0, NULL);
        return -1;
    }
    return kernel_tree_body(self, readrmv, addr, leaf, new_leaf, visit);
}

/* access(op, addr, leaf, new_leaf, update, append_block)
 *
 * ColumnarPathOramBackend.access, whole: counters, path read, drain,
 * update hand-off, placement, stash reconcile, write-back accounting,
 * occupancy sample — with the object backend's exact order of side
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
    if (kernel_hold(self, backend) < 0)
        return NULL;
    PyObject *result = NULL;
    tally(&self->ledger, T_ACCESSES, 1);
    if (args[0] == self->op_append)
        result = kernel_append_block(self, args[5]);
    else {
        BlockVisit visit = {{block_visit}, args[1], args[3], args[4], NULL};
        if (kernel_access_tree(self, args[0] == self->op_readrmv, args[1],
                               args[2], args[3], &visit.base) == 0)
            result = visit.block;
        else
            Py_XDECREF(visit.block);
    }
    kernel_drop(self);
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"access", (PyCFunction)(void (*)(void))kernel_access, METH_FASTCALL,
     "access(op, addr, leaf, new_leaf, update, append_block) -> Block | "
     "None: one whole Backend operation."},
    {NULL, NULL, 0, NULL},
};

PyTypeObject AccessKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.native._replay_core.AccessKernel",
    .tp_basicsize = sizeof(AccessKernel),
    .tp_dealloc = (destructor)kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Native Path ORAM access kernel: the access of one "
              "ColumnarPathOramBackend, bound at its construction.",
    .tp_traverse = (traverseproc)kernel_traverse,
    .tp_clear = (inquiry)kernel_clear,
    .tp_methods = kernel_methods,
    .tp_new = kernel_new,
};
