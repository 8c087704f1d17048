/* _replay_core: the fast tier's kernels and the trace-synthesis kernel.
 *
 * A hand-written CPython extension fusing the hot per-access work of the
 * replay pipeline over the columnar data the Python layers already keep
 * unboxed:
 *
 * - run_access_loop: one replay slice in one call — straight off the
 *   int64 and int8 buffers of a trace's array('q') / array('b') columns
 *   (zero-copy via PEP 3118), each event's line->block translation,
 *   operand selection, frontend request, latency lookup by tree-access
 *   count and the event-ordered fold onto the running cycle count in C
 *   doubles (bit-identical to CPython float +=, which performs the same
 *   IEEE-754 additions) — and, for a frontend running on its
 *   FrontendKernel or RecursiveKernel, without a Python frame, an
 *   AccessResult or a boxed address either;
 * - ServeKernel / serve_fold / route_column: the serving layer, one call
 *   each — a whole epoch (its FIFO admission into the shards' typed log
 *   columns through the dense shard directory, then every shard's queue
 *   through the replay loop run_access_loop runs), the log's fold into
 *   the shards' digest rows and busy cycles and the tenants' histogram
 *   summaries, and the streams' CRC-32 shard routes;
 * - translate_block_addrs / accumulate: the translation and the fold on
 *   their own, list-out and list-in (kept for the perf harness's proxy
 *   of this module; nothing under src/ calls them);
 * - AccessKernel: a per-backend handle whose access() is one whole
 *   ColumnarPathOramBackend.access — all four ops, counters, path read,
 *   drain, stash merge, update hand-off, greedy eviction, stash
 *   reconcile, write-back accounting, occupancy sample, rollback — as
 *   integer loops over the storage's typed columns and byte arena;
 * - FrontendKernel: a per-frontend handle whose access() is one whole
 *   PlbFrontend.access (§4.2.4) — chain and tag arithmetic, PLB lookup
 *   loop, on-chip lookup_and_remap, uncompressed / flat / compressed
 *   remap with group remaps and sibling relocation, first-touch
 *   override, PLB refill and victim append, the data access, PMMAC
 *   verify and seal — over the frontend's own columns, calling the
 *   AccessKernel's tree access directly with a C visit in place of the
 *   update closure;
 * - RecursiveKernel: a per-frontend handle whose access() is one whole
 *   RecursiveFrontend.access (§3.2, the R_X8 baseline) — leaf-mode
 *   on-chip lookup and remap, one tree READ per PosMap level with the
 *   label remap as a C visit, the first-touch substitution, the data
 *   access — over the frontend's own columns and its per-level
 *   backends' AccessKernels, built from the FrontendKernel's own parts;
 * - blake2b: the vendored RFC 7693 hash behind that kernel's PRF and
 *   MAC (keyed mid-state per handle, byte-identical to hashlib);
 * - drain_scalar / place_greedy: the kernel's drain and placement
 *   cores on their own, behind list-in/list-out adapters (the
 *   primitives the tests pin against the interpreted loops, and the only
 *   list-facing code of the tree);
 * - synthesize_trace: what produces a replay's input — the SPEC
 *   stand-in's pattern mixture on MT19937 streams restored from
 *   random.Random, run through the L1+L2 write-back LRU hierarchy, one
 *   call per trace; used by both tiers, since a trace is the same bytes
 *   whichever tier replays it (mt_draws exposes its generator to the
 *   known-answer tests);
 * - column: the allocator of the tree's two fixed-size columns, a typed
 *   buffer over calloc'd (zeroed) or malloc'd (uninitialised) memory.
 *
 * Where the state lives.  The tree's state is typed columns the storage
 * and the stash own, and nothing else: addr_col / leaf_col (int64 per
 * arena slot), the chunked byte arena and mac_col, the free stack and
 * the stash (length-prefixed int32 columns: item 0 is the depth or the
 * occupancy; the free stack's item 1 is the arena's high-water mark,
 * the first slot never handed out), bucket_slots (Z int32 slot ids per
 * bucket) and bucket_fill (one uint8 count per bucket).  An
 * AccessKernel reads and writes those columns through the buffer
 * protocol: the drain, the placement, the stash rebuild and the slot
 * claim touch no list, dict or PyLong and allocate nothing (only the
 * block of interest's MAC and payload are reached through mac_col and
 * the chunk table, the two arena-sized lists that remain; a payload is
 * read in place through its chunk's memoryview, exporting nothing), and
 * the handle keeps no copy of tree state — the snapshots, the tamper
 * hooks and the backend's rollback read and write the same memory.
 *
 * The frontends' state is typed columns too, owned by the Python objects
 * that model the hardware and worked on in place by FrontendKernel and
 * RecursiveKernel: the PLB's one-item-per-way tags / leaves / counters /
 * last_use and its payload bytes (Plb) and the on-chip PosMap's uint64
 * table (OnChipPosMap), beside the first-touch bitmaps, which always
 * were byte columns.  The PRF keeps no state beyond its key: a remap's
 * two leaves come from the keyed mid-state every time.  Every BLAKE2b
 * compression a request has ready at one moment — a remap's two leaves,
 * the seal of a WRITE, of a READ or of a PLB victim, a READ's verify —
 * is one lane of one blake2b_lanes call: four u64 lanes where the CPU
 * has AVX-512F+VL, one scalar compression per lane elsewhere (LANES
 * names which; chosen at import).  A
 * request makes no PyLong, tuple or dict and reads no attribute: what is
 * still an object on a request is a MAC (bytes in mac_col), the
 * frontend generator's getrandbits() and a column owner's _grow(),
 * which only extends the arena's columns: a fresh slot comes from the
 * high-water mark, not from a slot id pushed per slot.
 *
 * Counters are columns too.  Every counter a kernel moves — the
 * backend's three and the storage's two, the 11 of FrontendStats, the
 * PLB's clock and hit / miss counts, the PRF's and the MAC's — is a slot
 * of its Python owner's `ledger`, a fixed-size array('q') the owner
 * allocates and reads through its old attribute names; the stash's
 * occupancy summary is two more (count / max / min as int64, mean / m2
 * as float64).  Each layout is declared once here, one X-macro per
 * ledger (ALL_LEDGERS), and once in repro.utils.stats.LEDGERS; the
 * module exports its own as LEDGERS, and repro.sim.native refuses a
 * build whose LEDGERS differ, naming the first ledger that does, as it
 * refuses a stale SOURCE_DIGEST.  A handle binds them once, under the fixed-size rule
 * below, and counts in place, at the point the interpreted path counts:
 * whatever can look — a callback in the middle of a slice, the caller
 * after it, a failed request's handler — sees exactly what the
 * interpreted path would have left.  storage.observer is read once per
 * outermost entry.
 *
 * Bit-identity contract: every routine is a transcription of the Python
 * spelling it replaces — same traversal order, same side effects in the
 * same order, same duplicate/out-of-range validation with
 * byte-identical error messages, same LIFO candidate/pool placement,
 * same float operand order. The lockstep differential harnesses
 * (tests/test_replay_differential.py, tests/test_columnar_differential.py,
 * tests/test_native_replay.py, tests/test_native_frontend.py,
 * tests/test_native_recursive.py) and the golden digests enforce this.
 *
 * Buffer discipline, fixed-size columns: bucket_slots and bucket_fill
 * are this module's `column` buffers (bucket_fill zeroed, bucket_slots
 * uninitialised: a slot at or past its bucket's fill is never read, so
 * a page of the tree is backed only once a block is written to it).
 * They never change size, are checked once against the geometry (exactly
 * 2^(L+1) - 1 counts and Z times as many slots, writable, of the right
 * item size) and stay exported for the life of the handle — CPython
 * itself then refuses to resize them — so indexing them by heap index
 * needs no further check; what is read *out* of them does (a count past
 * Z, a slot id outside the arena or merged twice by one drain).  The
 * ledgers follow the same rule: exactly their owner's count of slots.
 * A counter wraps modulo 2^64 rather than overflow.
 *
 * Buffer discipline, growing columns: addr_col, leaf_col, the free stack
 * and the stash column grow in place (array.extend, by their owners'
 * _grow / reserve), and CPython refuses to resize an array with exported
 * buffers, so the handle binds the objects, never pointers: it exports
 * them on first use inside an entry (kernel_columns, which re-checks
 * equal arena lengths, both length prefixes and the high-water mark
 * every time) and releases
 * them before a growth, before every call that can run foreign Python,
 * and when the entry returns (kernel_release).  Nothing measured before
 * such a call is trusted after it.  The frontends' columns follow the
 * first rule: the PLB's five and the on-chip table never change size
 * and stay exported for the life of their handle, checked once against
 * the geometry.  A first-touch bitmap's bytes are used through a
 * pointer fetched, with its length, after the last call that could
 * have resized it.  Nothing read *out of* a column is trusted either: a
 * PLB set may hold a tag once, a last_use lies at or before the clock,
 * a counter below 2^96 (tests/test_native_boundary.py, and the CI
 * sanitizer lane).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifndef REPRO_SOURCE_DIGEST
#define REPRO_SOURCE_DIGEST "" /* built without setup.py: never current */
#endif

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

/* An acquired column of fixed-width integers: raw pointer + element
 * count. */
typedef struct {
    Py_buffer view;
    void *data;
    Py_ssize_t len;
    int acquired;
} Col;

/* What a column's items must be: their width, the struct format codes
 * of that width, and the words for what was expected instead. */
typedef struct {
    int itemsize;
    const char *codes, *expected;
} ColKind;

static const ColKind COL_I64 = {8, "qln", "int64 column (array('q'))"};
static const ColKind COL_U64 = {8, "QL", "uint64 column (array('Q'))"};
static const ColKind COL_I32 = {4, "il", "int32 column (array('i'))"};
static const ColKind COL_U8 = {1, "Bbc", "byte column (a bytearray)"};
static const ColKind COL_F64 = {8, "d", "float64 column (array('d'))"};
static const ColKind COL_FLAG = {1, "bB?", "int8 column (array('b'))"};

/* Acquire a 1-D contiguous buffer of `kind` items, writable on request.
 * Returns 0 on success, -1 with an exception set otherwise. */
static int
col_acquire(PyObject *obj, Col *col, const char *what, const ColKind *kind,
            int writable)
{
    col->acquired = 0;
    if (PyObject_GetBuffer(obj, &col->view,
                           PyBUF_FORMAT | PyBUF_ND |
                               (writable ? PyBUF_WRITABLE : 0)) < 0)
        return -1;
    if (col->view.ndim != 1 || col->view.itemsize != kind->itemsize ||
        (col->view.format != NULL &&
         (col->view.format[0] == '\0' ||
          strchr(kind->codes, col->view.format[0]) == NULL))) {
        PyBuffer_Release(&col->view);
        PyErr_Format(PyExc_TypeError, "%s must be a 1-D %s", what,
                     kind->expected);
        return -1;
    }
    col->acquired = 1;
    col->data = col->view.buf;
    col->len = col->view.shape ? col->view.shape[0]
                               : col->view.len / col->view.itemsize;
    return 0;
}

static void
col_release(Col *col)
{
    if (col->acquired) {
        PyBuffer_Release(&col->view);
        col->acquired = 0;
    }
}

/* A column that never changes size, exported for the life of a handle
 * (CPython then refuses to resize it): acquired writable and checked,
 * once, to hold exactly `items` items — or at least that many. */
static int
col_acquire_fixed(PyObject *obj, Col *col, const char *what,
                  const ColKind *kind, Py_ssize_t items, int or_more)
{
    if (col_acquire(obj, col, what, kind, 1) < 0)
        return -1;
    if (or_more ? col->len >= items : col->len == items)
        return 0;
    PyErr_Format(PyExc_ValueError, "%s holds %zd items where %s%zd are needed",
                 what, col->len, or_more ? "at least " : "", items);
    col_release(col);
    return -1;
}

/* Slot `i` of a ledger += step, modulo 2^64 (no signed overflow). */
static inline void
tally(const Col *ledger, int i, long long step)
{
    long long *slot = (long long *)ledger->data + i;
    *slot = (long long)((unsigned long long)*slot + (unsigned long long)step);
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

/* repro.storage.block.DUMMY_ADDR: the address column of a free slot. */
#define DUMMY_ADDR (-1LL)

/* One block of the merged working set: its arena slot, the deepest
 * level of the accessed path it may legally be evicted to, and the
 * entry merged before it at that depth (-1: none) — each depth's entries
 * form a chain placement pops LIFO. */
typedef struct {
    int32_t slot;
    int32_t depth;
    int32_t below;
} Entry;

/* One bucket of the accessed path: where its slot ids live and how many
 * of them are blocks.  Under a handle `slots` points into the storage's
 * bucket_slots column; under the list adapters, into scratch. */
typedef struct {
    int32_t *slots;
    int count;
} Bucket;

/* The working set of one tree access in merge order — stash residents
 * in stash order, drained blocks root->leaf, the block of interest last —
 * threaded into one chain per depth.  Python's by_depth lists and
 * merge-order list are views of this one sequence: by_depth[d] is the
 * chain of depth d read backwards, and the leftover stash rebuild walks
 * the merge order front to back.  Integers only; the buffers are kept
 * between accesses, so the steady state allocates nothing. */
typedef struct {
    Entry *merged;
    Py_ssize_t n, cap;
    Py_ssize_t n_resident; /* merged[0..n_resident) came from the stash */
    long long *keys;       /* the residents' addresses, for the duplicate probe */
    Py_ssize_t n_keys, cap_keys;
    uint64_t depths;       /* bit d: depth d's chain is not empty */
    int32_t head[64];      /* per depth (levels <= 60): last entry merged */
    int32_t tail[64];      /* and first */
    int32_t pool;          /* after placement: the leftovers' LIFO top, or -1 */
    uint32_t *mark;        /* per arena slot: the drain that last merged it */
    Py_ssize_t cap_mark;
    uint32_t epoch;        /* this drain's stamp */
} WorkSet;

static void
ws_free(WorkSet *ws)
{
    PyMem_Free(ws->merged);
    PyMem_Free(ws->keys);
    PyMem_Free(ws->mark);
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

/* Start a drain over an arena of `arena_len` slots: an empty working
 * set and a fresh stamp no slot carries yet. */
static int
ws_begin(WorkSet *ws, Py_ssize_t arena_len)
{
    ws->n = ws->n_resident = ws->n_keys = 0;
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

/* Append one block to the merge order and to its depth's chain, into
 * room reserved beforehand (0 <= depth <= 60). */
static inline void
ws_push(WorkSet *ws, int32_t slot, int depth)
{
    const uint64_t bit = 1ULL << depth;
    const int32_t i = (int32_t)ws->n++;
    ws->merged[i].slot = slot;
    ws->merged[i].depth = depth;
    ws->merged[i].below = (ws->depths & bit) ? ws->head[depth] : -1;
    if (!(ws->depths & bit))
        ws->tail[depth] = i;
    ws->head[depth] = i;
    ws->depths |= bit;
}

/* A slot id read out of a column, about to join the working set: inside
 * the arena (both columns: `arena_len` is the shorter one) and not
 * already merged by this drain — a slot two buckets, or a bucket and
 * the stash, both claim is one block about to be evicted twice. */
static int
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

/* The fused drain: group the stash residents (stash order), then the
 * path buckets set in `occupied` (bit d: path[d] holds blocks, n_path
 * of them in all) root->leaf, by legal eviction depth, with the object
 * backend's duplicate-block and leaf-range validation in its order
 * (byte-identical messages).  Room is reserved once, for every block
 * drained plus the block of interest.  *found enters -1 and leaves
 * holding the slot of the block of interest, wherever it was located;
 * it is never merged here (the caller groups it last, after the visit).
 * Nothing is mutated: buckets are only rewritten at placement time. */
static int
drain_core(WorkSet *ws, const long long *addr_col, const long long *leaf_col,
           Py_ssize_t arena_len, const int32_t *stash, Py_ssize_t n_stash,
           const Bucket *path, uint64_t occupied, Py_ssize_t n_path,
           long long *found, long long addr, long long leaf, int levels)
{
    if (grow_buffer((void **)&ws->keys, &ws->cap_keys, n_stash,
                    sizeof(long long)) < 0 ||
        grow_buffer((void **)&ws->merged, &ws->cap, n_stash + n_path + 1,
                    sizeof(Entry)) < 0)
        return -1;
    /* The stash first, drained like one long bucket, then the occupied
     * path buckets, lowest mask bit (the root side) first. */
    const int32_t *slots = stash;
    Py_ssize_t count = n_stash;
    for (int resident = 1;; resident = 0) {
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
                continue; /* the block of interest is grouped last */
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
        if (resident)
            ws->n_resident = ws->n;
        if (occupied == 0)
            return 0;
        const int d = bit_length64((long long)(occupied & -occupied)) - 1;
        occupied &= occupied - 1;
        slots = path[d].slots;
        count = path[d].count;
    }
}

/* Greedy placement, deepest level first; candidates LIFO, then the pool
 * of deeper leftovers LIFO — the object backend's loop over the merged
 * working set, visiting only the depths that have candidates or inherit
 * a non-empty pool.  Returns the mask of the levels that received
 * blocks: path[d] is rewritten for exactly those, and every other
 * bucket is left empty.  ws->pool is then the top of the leftovers'
 * chain, which read top-down is the object backend's pool list
 * reversed.  Nothing here can fail. */
static uint64_t
place_core(WorkSet *ws, Bucket *path, int cap)
{
    Entry *e = ws->merged;
    uint64_t todo = ws->depths, received = 0;
    int32_t pool = -1;
    for (int level = 0; level >= 0 && (todo != 0 || pool >= 0); level--) {
        if (pool < 0) /* jump to the next depth with candidates */
            level = bit_length64((long long)todo) - 1;
        int32_t *slots = path[level].slots;
        int count = 0;
        if (todo >> level & 1) {
            int32_t i = ws->head[level];
            while (count < cap && i >= 0) {
                slots[count++] = e[i].slot;
                i = e[i].below;
            }
            if (i >= 0) { /* the rest goes on the pool, merge order up */
                e[ws->tail[level]].below = pool;
                pool = i;
            }
            todo &= ~(1ULL << level);
        }
        while (count < cap && pool >= 0) {
            slots[count++] = e[pool].slot;
            pool = e[pool].below;
        }
        if (count > 0) {
            path[level].count = count;
            received |= 1ULL << level;
        }
    }
    ws->pool = pool;
    return received;
}

/* ------------------------------------------------------------------ */
/* drain_scalar / place_greedy: the two cores over Python lists        */
/* ------------------------------------------------------------------ */

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
 * and the path's bucket lists are unboxed into scratch columns, drained
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
    Bucket *buckets = NULL;
    PyObject *result = NULL;
    long long found = -1;
    uint64_t occupied = 0;
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
    buckets = PyMem_Malloc((size_t)(path_len ? path_len : 1) * sizeof(Bucket));
    if (ids == NULL || buckets == NULL) {
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
        buckets[li].slots = ids + filled;
        buckets[li].count = (int)PyList_GET_SIZE(lst);
        occupied |= (uint64_t)(buckets[li].count != 0) << li;
        for (Py_ssize_t bi = 0; bi < PyList_GET_SIZE(lst); bi++) {
            if (as_slot(PyList_GET_ITEM(lst, bi), arena_len, "bucket",
                        &ids[filled++]) < 0)
                goto done;
        }
    }

    if (ws_begin(&ws, arena_len) < 0 ||
        drain_core(&ws, addr_col.data, leaf_col.data, arena_len, ids, n_stash,
                   buckets, occupied, total - n_stash, &found, addr, leaf,
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
    PyMem_Free(buckets);
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
    Bucket *buckets = PyMem_Malloc(((size_t)levels + 1) * sizeof(Bucket));
    if (ids == NULL || buckets == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (grow_buffer((void **)&ws.merged, &ws.cap, total, sizeof(Entry)) < 0)
        goto done;
    for (int d = 0; d <= levels; d++) {
        PyObject *candidates = PyList_GET_ITEM(by_depth, d);
        buckets[d].slots = ids + (Py_ssize_t)d * cap;
        buckets[d].count = 0;
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(candidates); i++) {
            int32_t slot;
            if (as_slot(PyList_GET_ITEM(candidates, i), INT32_MAX, "by_depth",
                        &slot) < 0)
                goto done;
            ws_push(&ws, slot, d);
        }
    }
    place_core(&ws, buckets, cap);
    for (int d = 0; d <= levels; d++) {
        PyObject *lst = PyList_GET_ITEM(path, d);
        PyObject *candidates = PyList_GET_ITEM(by_depth, d);
        if (PyList_SetSlice(lst, 0, PyList_GET_SIZE(lst), NULL) < 0 ||
            PyList_SetSlice(candidates, 0, PyList_GET_SIZE(candidates),
                            NULL) < 0)
            goto done;
        for (int k = 0; k < buckets[d].count; k++) {
            if (append_slot(lst, buckets[d].slots[k]) < 0)
                goto done;
        }
    }
    pool = PyList_New(0);
    for (int32_t k = ws.pool; pool != NULL && k >= 0; k = ws.merged[k].below) {
        if (append_slot(pool, ws.merged[k].slot) < 0)
            Py_CLEAR(pool);
    }
    if (pool != NULL && PyList_Reverse(pool) < 0)
        Py_CLEAR(pool);

done:
    ws_free(&ws);
    PyMem_Free(ids);
    PyMem_Free(buckets);
    return pool;
}

/* ------------------------------------------------------------------ */
/* AccessKernel: one Path ORAM tree access per call                    */
/* ------------------------------------------------------------------ */

static PyObject *str_observer, *str_on_path_read, *str_on_path_write,
    *str_grow, *str_stash, *str_reserve, *str_abort_access, *str_addr,
    *str_leaf, *str_data, *str_mac;

/* Every counter a kernel moves is a slot of a ledger, each declared here
 * once: X(enum name, Python attribute name) per slot, in slot order.  A
 * request moves the frontend's statistics, the Plb's, the Prf's and the
 * Mac's; a tree access the backend's, the storage's (buckets, levels + 1
 * a path) and the stash's occupancy summary (RunningStats: the int64
 * half, then the float64 one). */
#define FRONTEND_LEDGER(X)                                                   \
    X(C_ACCESSES, "accesses") X(C_DATA_TREE, "data_tree_accesses")           \
    X(C_POSMAP_TREE, "posmap_tree_accesses") X(C_PLB_HITS, "plb_hits")       \
    X(C_PLB_MISSES, "plb_misses") X(C_PLB_REFILLS, "plb_refills")            \
    X(C_PLB_EVICTIONS, "plb_evictions") X(C_GROUP_REMAPS, "group_remaps")    \
    X(C_GROUP_RELOCATIONS, "group_relocations")                              \
    X(C_MAC_CHECKS, "mac_checks") X(C_FRESH_BLOCKS, "fresh_blocks")
#define PLB_LEDGER(X)                                                        \
    X(PLB_CLOCK, "_clock") X(PLB_HITS, "hits") X(PLB_MISSES, "misses")
#define PRF_LEDGER(X) X(PRF_CALLS, "call_count")
#define MAC_LEDGER(X) X(MAC_CALLS, "call_count") X(MAC_BYTES, "bytes_hashed")
#define BACKEND_LEDGER(X)                                                    \
    X(T_ACCESSES, "access_count") X(T_TREE_ACCESSES, "tree_access_count")    \
    X(T_APPENDS, "append_count")
#define STORAGE_LEDGER(X)                                                    \
    X(T_BUCKETS_READ, "buckets_read") X(T_BUCKETS_WRITTEN, "buckets_written")
#define OCCUPANCY_LEDGER(X)                                                  \
    X(OCC_COUNT, "count") X(OCC_MAX, "max") X(OCC_MIN, "min")
#define MOMENTS_LEDGER(X) X(OCC_MEAN, "mean") X(OCC_M2, "_m2")
/* Serve's counters (ServeKernel): a tenant's, whose `issued` is also its
 * stream cursor, and a shard's, whose `mapped` is the next dense local
 * address its directory hands out. */
#define TENANT_LEDGER(X)                                                     \
    X(TEN_ISSUED, "issued") X(TEN_SHED, "shed") X(TEN_DEFERRED, "deferred")
#define SHARD_LEDGER(X)                                                      \
    X(SHD_SHED, "shed") X(SHD_DEFERRED, "deferred")                          \
    X(SHD_DEPTH_SAMPLES, "depth_samples") X(SHD_DEPTH_TOTAL, "depth_total")  \
    X(SHD_DEPTH_MAX, "depth_max") X(SHD_BATCHES, "batches")                  \
    X(SHD_EPOCHS_BUSY, "epochs_busy") X(SHD_MAPPED, "mapped")
/* Every ledger: its name, item type, slots and slot count, expanded to
 * its enum and to its line of LEDGERS ("name typecode slot ..."), which
 * repro.sim.native requires to equal repro.utils.stats.LEDGERS. */
#define ALL_LEDGERS(X)                                                       \
    X("frontend", "q", FRONTEND_LEDGER, N_STATS_SLOTS)                       \
    X("plb", "q", PLB_LEDGER, N_PLB_SLOTS)                                   \
    X("prf", "q", PRF_LEDGER, N_PRF_SLOTS)                                   \
    X("mac", "q", MAC_LEDGER, N_MAC_SLOTS)                                   \
    X("backend", "q", BACKEND_LEDGER, N_BACKEND_SLOTS)                       \
    X("storage", "q", STORAGE_LEDGER, N_STORAGE_SLOTS)                       \
    X("occupancy", "q", OCCUPANCY_LEDGER, N_OCC_SLOTS)                       \
    X("moments", "d", MOMENTS_LEDGER, N_MOMENT_SLOTS)                        \
    X("tenant", "q", TENANT_LEDGER, N_TENANT_SLOTS)                          \
    X("shard", "q", SHARD_LEDGER, N_SHARD_SLOTS)
#define SLOT_ENUM(slot, name) slot,
#define LEDGER_ENUM(name, typecode, slots, count)                            \
    enum { slots(SLOT_ENUM) count };
ALL_LEDGERS(LEDGER_ENUM)
#define SLOT_NAME(slot, name) " " name
#define LEDGER_LINE(name, typecode, slots, count)                            \
    name " " typecode slots(SLOT_NAME) "\n"

/* The per-backend handle a ColumnarPathOramBackend binds at construction:
 * its access is the backend's.  The tree's state is the storage's own
 * typed columns, which the snapshots and the tamper hooks read and write
 * too, and its counters are the owners' ledgers; the handle owns only
 * scratch (the working set, the block of interest's snapshot).  The
 * backend itself is held weakly — it owns this handle, and a strong
 * reference would park every discarded tree on the cyclic collector. */
typedef struct AccessKernel AccessKernel;
struct AccessKernel {
    PyObject_HEAD
    union {
        struct {
            PyObject *backend_ref; /* weakref to the owning backend */
            PyObject *storage;
            PyObject *addr_col, *leaf_col, *mac_col, *chunks, *free_col;
            PyObject *stash_col; /* backend.stash.slots */
            PyObject *block_type, *op_append, *op_readrmv;
            PyObject *not_found_error, *overflow_error;
        };
        PyObject *refs[13]; /* the same references, for the collector */
    };
    /* Held from kernel_hold to kernel_drop, one outermost entry. */
    PyObject *backend;  /* the owner, strongly */
    PyObject *observer; /* storage.observer as read at entry; NULL for None */
    int busy;
    /* The fixed-size columns, exported for the life of the handle: the
     * tree's two and the ledgers of the backend, the storage and the
     * stash's occupancy. */
    Col bucket_slots, bucket_fill;
    Col ledger, storage_ledger, occupancy, moments;
    /* The growing ones, exported from first use until the next yield,
     * growth or exit (kernel_columns / kernel_release). */
    Col addr, leaf, free_stack, stash_slots;
    int live;
    int claimed_fresh; /* the last claim came from the high-water mark */
    Bucket *path;          /* levels + 1: the accessed path's buckets */
    long long *path_index; /* their heap indices */
    char *snap; /* the block of interest's payload before its visit */
    int levels, cap, chunk_shift, allow_missing;
    Py_ssize_t block_bytes;
    long long chunk_mask, num_leaves, stash_limit;
    WorkSet ws;
};

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
static void kernel_release(AccessKernel *self);

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
    PyMem_Free(self->path);
    PyMem_Free(self->path_index);
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
    self->path = PyMem_Calloc((size_t)levels + 1, sizeof(Bucket));
    self->path_index = PyMem_Calloc((size_t)levels + 1, sizeof(long long));
    self->snap = PyMem_Malloc((size_t)block_bytes);
    if (self->backend_ref == NULL || self->path == NULL ||
        self->path_index == NULL || self->snap == NULL) {
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
static void
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
static int
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

static void
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
static int
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
static int
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
static int
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

/* int(obj) as int64 for a column store; the array's own OverflowError
 * and TypeError otherwise. */
static int
as_int64(PyObject *obj, long long *out)
{
    *out = PyLong_AsLongLong(obj);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* -- APPEND --------------------------------------------------------- */

/* Stash.add + check_limit for a block given by value: `data` is one
 * payload of `data_len` bytes (validated here, after the duplicate
 * probe, as the arena's memoryview assignment does). */
static int
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

/* What the caller wants done to the block of interest between the drain
 * and the eviction.  `visit` runs with the block in arena slot `slot`,
 * its leaf already remapped; it may rewrite leaf_col[slot], the slot's
 * payload and mac_col[slot], and what it leaves there is what gets
 * evicted.  One that can run foreign Python releases the exports first
 * (kernel_release); every one reaches the columns through the handle,
 * not through pointers from before a call.  When it fails the access
 * rolls the slot back from its own snapshot, so a visit never undoes
 * anything. */
typedef struct Visit Visit;
struct Visit {
    int (*visit)(Visit *self, AccessKernel *kernel, long long slot);
};

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
    Bucket *path = self->path;
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
    uint8_t *fill = self->bucket_fill.data;
    uint64_t occupied = 0; /* bit d: path bucket d holds blocks */
    Py_ssize_t n_path = 0;
    for (int d = 0; d <= levels; d++) {
        const long long index = self->path_index[d];
        if (fill[index] > cap) {
            PyErr_Format(PyExc_ValueError,
                         "bucket %lld holds %d blocks (Z = %d)", index,
                         (int)fill[index], cap);
            goto abort;
        }
        path[d].slots = (int32_t *)self->bucket_slots.data + index * cap;
        path[d].count = fill[index];
        occupied |= (uint64_t)(fill[index] != 0) << d;
        n_path += fill[index];
    }
    if (ws_begin(ws, self->addr.len) < 0 ||
        drain_core(ws, self->addr.data, self->leaf.data, self->addr.len,
                   (int32_t *)self->stash_slots.data + 1,
                   (Py_ssize_t)occupancy, path, occupied, n_path, &found,
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
    const uint64_t received = place_core(ws, path, cap);
    /* Only the buckets drained or refilled are written: an untouched
     * bucket that stays empty is never written. */
    for (uint64_t m = occupied | received; m != 0; m &= m - 1) {
        const int d = bit_length64((long long)(m & -m)) - 1;
        fill[self->path_index[d]] =
            (received >> d & 1) ? (uint8_t)path[d].count : 0;
    }
    int32_t *stash = self->stash_slots.data;
    if (ws->pool >= 0) {
        /* Leftovers: rebuild the stash column in merge order — resident
         * survivors, drained survivors, the block of interest last. */
        for (int32_t k = ws->pool; k >= 0; k = ws->merged[k].below)
            ws->merged[k].depth = -1;
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
static int
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

static PyTypeObject AccessKernelType = {
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

/* ------------------------------------------------------------------ */
/* BLAKE2b (RFC 7693): the PRF and the PMMAC hash of the fast suite    */
/* ------------------------------------------------------------------ */

typedef struct {
    uint64_t h[8];
    uint64_t t; /* bytes compressed so far (inputs here stay far below 2^64) */
    uint8_t buf[128];
    size_t buflen, outlen;
} Blake2b;

static const uint64_t blake2b_iv[8] = {
    0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL, 0x3c6ef372fe94f82bULL,
    0xa54ff53a5f1d36f1ULL, 0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
    0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL,
};

/* Spelled out byte by byte, which the compiler folds into a single load
 * or store on a little-endian host; as loops they get auto-vectorised
 * into byte shuffles that cost a compression a quarter of its time. */
static inline uint64_t
load64le(const uint8_t *p)
{
    return (uint64_t)p[0] | (uint64_t)p[1] << 8 | (uint64_t)p[2] << 16 |
           (uint64_t)p[3] << 24 | (uint64_t)p[4] << 32 |
           (uint64_t)p[5] << 40 | (uint64_t)p[6] << 48 | (uint64_t)p[7] << 56;
}

static inline void
store64le(uint8_t *p, uint64_t v)
{
    p[0] = (uint8_t)v;
    p[1] = (uint8_t)(v >> 8);
    p[2] = (uint8_t)(v >> 16);
    p[3] = (uint8_t)(v >> 24);
    p[4] = (uint8_t)(v >> 32);
    p[5] = (uint8_t)(v >> 40);
    p[6] = (uint8_t)(v >> 48);
    p[7] = (uint8_t)(v >> 56);
}

/* One compression, its twelve rounds unrolled over sixteen locals with
 * the message schedule (RFC 7693's SIGMA, rounds 10 and 11 repeating 0
 * and 1) spelled as compile-time constants: a loop indexing a sigma
 * table keeps v[] in memory and costs ~1.4x as much at -O3.  The table
 * is written once: this scalar spelling and blake2b_lanes_avx512vl's
 * four-lane one
 * expand BLAKE2B_ROUND over it, on v0..v15 and m[] of their type. */
#define BLAKE2B_SIGMA(X)                                                \
    X(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)             \
    X(14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3)             \
    X(11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4)             \
    X(7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8)             \
    X(9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13)             \
    X(2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9)             \
    X(12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11)             \
    X(13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10)             \
    X(6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5)             \
    X(10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0)             \
    X(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)             \
    X(14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3)
#define BLAKE2B_ROTR(x, n) ((x) >> (n) | (x) << (64 - (n)))
#define BLAKE2B_G(x, y, a, b, c, d)                                          \
    do {                                                                     \
        a = a + b + m[x], d = BLAKE2B_ROTR(d ^ a, 32);                       \
        c = c + d, b = BLAKE2B_ROTR(b ^ c, 24);                              \
        a = a + b + m[y], d = BLAKE2B_ROTR(d ^ a, 16);                       \
        c = c + d, b = BLAKE2B_ROTR(b ^ c, 63);                              \
    } while (0);
#define BLAKE2B_ROUND(s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, sa, sb, sc,    \
                      sd, se, sf)                                            \
    BLAKE2B_G(s0, s1, v0, v4, v8, v12) BLAKE2B_G(s2, s3, v1, v5, v9, v13)    \
    BLAKE2B_G(s4, s5, v2, v6, v10, v14) BLAKE2B_G(s6, s7, v3, v7, v11, v15)  \
    BLAKE2B_G(s8, s9, v0, v5, v10, v15) BLAKE2B_G(sa, sb, v1, v6, v11, v12)  \
    BLAKE2B_G(sc, sd, v2, v7, v8, v13) BLAKE2B_G(se, sf, v3, v4, v9, v14)

static void
blake2b_compress(Blake2b *s, const uint8_t block[128], int last)
{
    uint64_t m[16];
    for (int i = 0; i < 16; i++)
        m[i] = load64le(block + 8 * i);
    uint64_t v0 = s->h[0], v1 = s->h[1], v2 = s->h[2], v3 = s->h[3],
             v4 = s->h[4], v5 = s->h[5], v6 = s->h[6], v7 = s->h[7],
             v8 = blake2b_iv[0], v9 = blake2b_iv[1], v10 = blake2b_iv[2],
             v11 = blake2b_iv[3], v12 = blake2b_iv[4] ^ s->t,
             v13 = blake2b_iv[5],
             v14 = last ? ~blake2b_iv[6] : blake2b_iv[6], v15 = blake2b_iv[7];
    BLAKE2B_SIGMA(BLAKE2B_ROUND)
    s->h[0] ^= v0 ^ v8;
    s->h[1] ^= v1 ^ v9;
    s->h[2] ^= v2 ^ v10;
    s->h[3] ^= v3 ^ v11;
    s->h[4] ^= v4 ^ v12;
    s->h[5] ^= v5 ^ v13;
    s->h[6] ^= v6 ^ v14;
    s->h[7] ^= v7 ^ v15;
}

/* Keyed initialisation: outlen in 1..64, keylen in 0..64 (validated by
 * the callers).  A key is the first, zero-padded input block. */
static void
blake2b_init(Blake2b *s, size_t outlen, const uint8_t *key, size_t keylen)
{
    memcpy(s->h, blake2b_iv, sizeof(s->h));
    s->h[0] ^= 0x01010000ULL ^ ((uint64_t)keylen << 8) ^ (uint64_t)outlen;
    s->t = 0;
    s->buflen = 0;
    s->outlen = outlen;
    if (keylen > 0) {
        memset(s->buf, 0, sizeof(s->buf));
        memcpy(s->buf, key, keylen);
        s->buflen = sizeof(s->buf);
    }
}

static void
blake2b_update(Blake2b *s, const uint8_t *in, size_t inlen)
{
    while (inlen > 0) {
        if (s->buflen == sizeof(s->buf)) {
            /* More input follows, so the buffered block is not the last. */
            s->t += sizeof(s->buf);
            blake2b_compress(s, s->buf, 0);
            s->buflen = 0;
        }
        size_t take = sizeof(s->buf) - s->buflen;
        if (take > inlen)
            take = inlen;
        memcpy(s->buf + s->buflen, in, take);
        s->buflen += take;
        in += take;
        inlen -= take;
    }
}

/* Compress a buffered key block ahead of time.  The result is the
 * mid-state every later message starts from — hashlib's
 * blake2b(key=...).copy() — and is valid for non-empty messages only
 * (an empty one makes the key block the last block). */
static void
blake2b_absorb_key(Blake2b *s)
{
    if (s->buflen == sizeof(s->buf)) {
        s->t += sizeof(s->buf);
        blake2b_compress(s, s->buf, 0);
        s->buflen = 0;
    }
}

/* Finish: s->h then holds the digest words; `out` (may be NULL) gets the
 * first outlen bytes of their little-endian image. */
static void
blake2b_final(Blake2b *s, uint8_t *out)
{
    s->t += s->buflen;
    memset(s->buf + s->buflen, 0, sizeof(s->buf) - s->buflen);
    blake2b_compress(s, s->buf, 1);
    if (out != NULL) {
        uint8_t image[64];
        for (int i = 0; i < 8; i++)
            store64le(image + 8 * i, s->h[i]);
        memcpy(out, image, s->outlen);
    }
}

/* blake2b(key, message, digest_size) -> bytes
 *
 * The vendored hash on its own, through the same keyed mid-state the
 * handles use (the known-answer tests pin it against hashlib). */
static PyObject *
blake2b_digest(PyObject *self, PyObject *args)
{
    Py_buffer key, message;
    Py_ssize_t digest_size;
    if (!PyArg_ParseTuple(args, "y*y*n:blake2b", &key, &message,
                          &digest_size))
        return NULL;
    PyObject *result = NULL;
    if (digest_size < 1 || digest_size > 64 || key.len > 64)
        PyErr_SetString(PyExc_ValueError,
                        "blake2b: digest_size must be 1..64 and the key at "
                        "most 64 bytes");
    else {
        Blake2b state;
        uint8_t out[64];
        blake2b_init(&state, (size_t)digest_size, key.buf, (size_t)key.len);
        if (message.len > 0)
            blake2b_absorb_key(&state);
        blake2b_update(&state, message.buf, (size_t)message.len);
        blake2b_final(&state, out);
        result = PyBytes_FromStringAndSize((const char *)out, digest_size);
    }
    PyBuffer_Release(&key);
    PyBuffer_Release(&message);
    return result;
}

/* One lane of blake2b_lanes: a message of 1..128 bytes hashed from a
 * keyed mid-state (its key block absorbed, its buffer empty) in one
 * final compression — a PRF leaf, or a MAC whose message fits a block.
 * The message is m's little-endian words, zero past `len`.  `h` gets
 * the digest's words (the first mid->outlen bytes of their image). */
typedef struct {
    const Blake2b *mid;
    size_t len;
    uint64_t m[16];
    uint64_t h[8];
} Lane;

#define MAX_LANES 4

/* A lane's message from its bytes. */
static void
lane_message(Lane *lane, const uint8_t *message, size_t len)
{
    uint8_t block[128] = {0};
    memcpy(block, message, len);
    lane->len = len;
    for (int w = 0; w < 16; w++)
        lane->m[w] = load64le(block + 8 * w);
}

/* The image of a lane's digest words (its digest is a prefix of it). */
static void
lane_digest(const Lane *lane, uint8_t out[64])
{
    for (size_t i = 0; i < (lane->mid->outlen + 7) / 8; i++)
        store64le(out + 8 * i, lane->h[i]);
}

/* blake2b_lanes on every host: one blake2b_compress per lane. */
static void
blake2b_lanes_scalar(Lane *lane, int n)
{
    for (int i = 0; i < n; i++) {
        uint8_t block[128];
        for (int w = 0; w < 16; w++)
            store64le(block + 8 * w, lane[i].m[w]);
        Blake2b state;
        memcpy(state.h, lane[i].mid->h, sizeof(state.h));
        state.t = lane[i].mid->t + lane[i].len;
        blake2b_compress(&state, block, 1);
        memcpy(lane[i].h, state.h, sizeof(state.h));
    }
}

#if defined(__GNUC__) && defined(__x86_64__)
#define LANES_VECTOR 1
typedef uint64_t u64x4 __attribute__((vector_size(32)));

/* blake2b_lanes where the CPU has AVX-512F+VL: the n lanes side by side,
 * one per 64-bit element (a lane past n repeats lane 0, and is
 * dropped), in one pass of the rounds.  Compiled for AVX-512F+VL only:
 * vprorq makes each rotation one instruction and 32 vector registers
 * hold the sixteen state words with no spill (SSE2 and AVX2 spellings of
 * a two-lane pass spilled: 1.00x and 1.04x).  Lanes from one mid-state
 * (a leaf pair's) read its words broadcast.  When no message runs past
 * three words (a PRF's), the other thirteen are constant zeros and fold
 * out of the rounds.  Only the words of each lane's digest are written. */
__attribute__((target("avx512f,avx512vl"))) static void
blake2b_lanes_avx512vl(Lane *lane, int n)
{
    const Lane *a = &lane[0], *b = &lane[n > 1 ? 1 : 0],
               *c = &lane[n > 2 ? 2 : 0], *d = &lane[n > 3 ? 3 : 0];
    const int shared =
        a->mid == b->mid && a->mid == c->mid && a->mid == d->mid;
    const u64x4 lanes = {0, 0, 0, 0};
#define MID_WORD(k)                                                     \
    (shared ? lanes + a->mid->h[k]                                      \
            : (u64x4){a->mid->h[k], b->mid->h[k], c->mid->h[k],         \
                      d->mid->h[k]})
#define LANE_WORD(w) ((u64x4){a->m[w], b->m[w], c->m[w], d->m[w]})
    u64x4 v0 = MID_WORD(0), v1 = MID_WORD(1), v2 = MID_WORD(2),
          v3 = MID_WORD(3), v4 = MID_WORD(4), v5 = MID_WORD(5),
          v6 = MID_WORD(6), v7 = MID_WORD(7), v8 = lanes + blake2b_iv[0],
          v9 = lanes + blake2b_iv[1], v10 = lanes + blake2b_iv[2],
          v11 = lanes + blake2b_iv[3],
          v12 = (lanes + blake2b_iv[4]) ^
                (u64x4){a->mid->t + a->len, b->mid->t + b->len,
                        c->mid->t + c->len, d->mid->t + d->len},
          v13 = lanes + blake2b_iv[5], v14 = lanes + ~blake2b_iv[6],
          v15 = lanes + blake2b_iv[7];
    if (a->len <= 24 && b->len <= 24 && c->len <= 24 && d->len <= 24) {
        const u64x4 m[16] = {LANE_WORD(0), LANE_WORD(1), LANE_WORD(2)};
        BLAKE2B_SIGMA(BLAKE2B_ROUND)
    }
    else {
        u64x4 m[16];
        for (int w = 0; w < 16; w++)
            m[w] = LANE_WORD(w);
        BLAKE2B_SIGMA(BLAKE2B_ROUND)
    }
    /* The start words are read again, not kept live across the rounds. */
    const u64x4 h[8] = {
        MID_WORD(0) ^ v0 ^ v8,  MID_WORD(1) ^ v1 ^ v9,
        MID_WORD(2) ^ v2 ^ v10, MID_WORD(3) ^ v3 ^ v11,
        MID_WORD(4) ^ v4 ^ v12, MID_WORD(5) ^ v5 ^ v13,
        MID_WORD(6) ^ v6 ^ v14, MID_WORD(7) ^ v7 ^ v15,
    };
#undef LANE_WORD
#undef MID_WORD
    for (int i = 0; i < n; i++)
        for (size_t k = 0; k < (lane[i].mid->outlen + 7) / 8; k++)
            lane[i].h[k] = h[k][i];
}
#endif

/* The spelling this host runs (LANES), chosen once at module init: the
 * vector one where the CPU has AVX-512F+VL, else the scalar one, which
 * makes the compressions one lane at a time, as separate calls did. */
static void (*blake2b_lanes)(Lane *lane, int n) = blake2b_lanes_scalar;
static const char *lanes_name = "scalar";

/* _lanes(spelling, lanes, repeat=1) -> [digest, ...]: tests and micro
 * benchmarks only.  `lanes` is 1..4 (key, digest_size, message) items
 * (key 0..64 bytes, digest_size 1..64, message 1..128 bytes); each is
 * hashlib.blake2b(message, key=key, digest_size=digest_size), all of
 * them in one call of the named spelling ("scalar", or this host's
 * LANES), made `repeat` times. */
static PyObject *
lanes_entry(PyObject *self, PyObject *args)
{
    const char *spelling;
    PyObject *items;
    Py_ssize_t repeat = 1;
    if (!PyArg_ParseTuple(args, "sO|n:_lanes", &spelling, &items, &repeat))
        return NULL;
    void (*run)(Lane *, int) = !strcmp(spelling, "scalar") ? blake2b_lanes_scalar
                               : !strcmp(spelling, lanes_name) ? blake2b_lanes
                                                              : NULL;
    if (run == NULL) {
        PyErr_Format(PyExc_ValueError, "no lanes spelling %s here: this "
                     "CPU runs %s", spelling, lanes_name);
        return NULL;
    }
    PyObject *seq = PySequence_Fast(items, "_lanes: lanes must be a sequence");
    if (seq == NULL)
        return NULL;
    const Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    Blake2b mid[MAX_LANES];
    Lane lane[MAX_LANES];
    Py_ssize_t digest_size[MAX_LANES];
    PyObject *result = NULL;
    if (n < 1 || n > MAX_LANES || repeat < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "_lanes: 1 to 4 lanes, repeat 1 or more");
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_buffer key, message;
        if (!PyArg_ParseTuple(PySequence_Fast_GET_ITEM(seq, i), "y*ny*:_lanes",
                              &key, &digest_size[i], &message))
            goto done;
        const int fits = key.len <= 64 && digest_size[i] >= 1 &&
                         digest_size[i] <= 64 && message.len >= 1 &&
                         message.len <= 128;
        if (fits) {
            blake2b_init(&mid[i], (size_t)digest_size[i], key.buf,
                         (size_t)key.len);
            blake2b_absorb_key(&mid[i]);
            lane_message(&lane[i], message.buf, (size_t)message.len);
            lane[i].mid = &mid[i];
        }
        PyBuffer_Release(&key);
        PyBuffer_Release(&message);
        if (!fits) {
            PyErr_SetString(PyExc_ValueError,
                            "_lanes: a key of at most 64 bytes, digest_size "
                            "1..64 and a message of 1..128 bytes");
            goto done;
        }
    }
    for (Py_ssize_t r = 0; r < repeat; r++)
        run(lane, (int)n);
    result = PyList_New(n);
    for (Py_ssize_t i = 0; result != NULL && i < n; i++) {
        uint8_t out[64];
        lane_digest(&lane[i], out);
        PyObject *digest =
            PyBytes_FromStringAndSize((const char *)out, digest_size[i]);
        if (digest == NULL)
            Py_CLEAR(result);
        else
            PyList_SET_ITEM(result, i, digest);
    }
done:
    Py_DECREF(seq);
    return result;
}

/* ------------------------------------------------------------------ */
/* FrontendKernel: one processor request per call                      */
/* ------------------------------------------------------------------ */

/* PosMap counters are GC || IC: up to 96 bits (what the PRF and MAC
 * messages have room for), so they travel as 128-bit integers. */
typedef unsigned __int128 u128;

#define FK_MAX_LEVELS 64 /* recursion depth H: 2^48 blocks / fan-out 2 */
#define LEVEL_SHIFT 48   /* repro.frontend.addrgen.LEVEL_SHIFT */
#define LEVEL_INDEX_MASK ((1ULL << LEVEL_SHIFT) - 1)

enum { FORMAT_UNCOMPRESSED, FORMAT_FLAT, FORMAT_COMPRESSED };

static PyObject *str_kernel, *str_posmap_tree_accesses, *str_plb_hit_level,
    *empty_tuple;

typedef struct {
    PyObject_HEAD
    union {
        struct {
            PyObject *frontend_ref; /* weakref to the owning frontend */
            PyObject *backend_kernel;
            PyObject *access_func; /* PlbFrontend.access, the plain function */
            PyObject *onchip_touched, *touched;
            PyObject *getrandbits;
            PyObject *result_type, *op_read, *op_write;
            PyObject *config_error, *integrity_error;
        };
        PyObject *refs[11]; /* the same references, for the collector */
    };
    int space_levels; /* H: the data level plus the PosMap levels */
    int tree_levels;  /* L of the unified tree */
    int format, pmmac, onchip_counters, leaf_bytes, alpha, beta, ways, busy;
    int mac_lane; /* PMMAC on and c || a || d one block: a MAC can be a lane */
    long long fanout, num_blocks, num_sets, onchip_entries;
    long long level_blocks[FK_MAX_LEVELS];
    Py_ssize_t block_bytes, tag_bytes;
    /* The PLB, one item per way (two counter words), the on-chip table
     * and the four ledgers: fixed-size, exported for the life of the
     * handle. */
    Col plb_tags, plb_leaves, plb_counters, plb_last_use, plb_payload;
    Col onchip_table;
    Col stats, plb_ledger, prf_ledger, mac_ledger;
    Blake2b prf_state, mac_state; /* keyed mid-states */
    uint8_t *work;                /* two block payloads: the block in hand, */
    uint8_t *spare;               /* and a PLB victim on its way out */
    u128 *group_old;              /* a group remap's old counters, by slot */
} FrontendKernel;

#define FRONTEND_REFS \
    (sizeof(((FrontendKernel *)0)->refs) / sizeof(PyObject *))

static PyTypeObject FrontendKernelType;

static int
frontend_traverse(FrontendKernel *self, visitproc visit, void *arg)
{
    for (size_t i = 0; i < FRONTEND_REFS; i++)
        Py_VISIT(self->refs[i]);
    return 0;
}

static int
frontend_clear(FrontendKernel *self)
{
    for (size_t i = 0; i < FRONTEND_REFS; i++)
        Py_CLEAR(self->refs[i]);
    return 0;
}

static void
frontend_dealloc(FrontendKernel *self)
{
    PyObject_GC_UnTrack(self);
    col_release(&self->plb_tags);
    col_release(&self->plb_leaves);
    col_release(&self->plb_counters);
    col_release(&self->plb_last_use);
    col_release(&self->plb_payload);
    col_release(&self->onchip_table);
    col_release(&self->stats);
    col_release(&self->plb_ledger);
    col_release(&self->prf_ledger);
    col_release(&self->mac_ledger);
    frontend_clear(self);
    PyMem_Free(self->work);
    PyMem_Free(self->group_old);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
frontend_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    PyObject *frontend, *backend_kernel, *access_func, *ledgers[4],
        *plb_columns[5], *onchip_table, *onchip_touched, *touched,
        *getrandbits, *level_blocks, *result_type, *op_read, *op_write,
        *config_error, *integrity_error;
    int space_levels, ways, leaf_bytes, alpha, beta, onchip_counters, pmmac;
    long long fanout, num_blocks, num_sets, onchip_entries;
    const char *kind, *prf_key, *mac_key;
    Py_ssize_t prf_key_len, mac_key_len, tag_bytes;
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "FrontendKernel takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(
            args,
            "OO!O(OOOO)(OOOOO)OO!O!O(iLLO!LiL)(siiipp)(y#y#n)(OOOOO)"
            ":FrontendKernel",
            &frontend, &AccessKernelType, &backend_kernel, &access_func,
            &ledgers[0], &ledgers[1], &ledgers[2], &ledgers[3],
            &plb_columns[0], &plb_columns[1], &plb_columns[2],
            &plb_columns[3], &plb_columns[4], &onchip_table,
            &PyByteArray_Type, &onchip_touched, &PyList_Type, &touched,
            &getrandbits,
            &space_levels, &fanout, &num_blocks, &PyTuple_Type,
            &level_blocks, &num_sets, &ways, &onchip_entries, &kind,
            &leaf_bytes, &alpha, &beta, &onchip_counters, &pmmac, &prf_key,
            &prf_key_len, &mac_key, &mac_key_len, &tag_bytes, &result_type,
            &op_read, &op_write, &config_error, &integrity_error))
        return NULL;
    if (!PyCallable_Check(getrandbits) || !PyCallable_Check(access_func) ||
        !PyType_Check(result_type) ||
        !PyExceptionClass_Check(config_error) ||
        !PyExceptionClass_Check(integrity_error)) {
        PyErr_SetString(PyExc_TypeError,
                        "FrontendKernel: expected two callables, the "
                        "AccessResult class and two exception classes");
        return NULL;
    }

    AccessKernel *tree = (AccessKernel *)backend_kernel;
    const long long block_bits = 8 * (long long)tree->block_bytes;
    int format;
    if (strcmp(kind, "uncompressed") == 0)
        format = FORMAT_UNCOMPRESSED;
    else if (strcmp(kind, "flat") == 0)
        format = FORMAT_FLAT;
    else if (strcmp(kind, "compressed") == 0)
        format = FORMAT_COMPRESSED;
    else {
        PyErr_Format(PyExc_ValueError,
                     "FrontendKernel: unknown PosMap format '%s'", kind);
        return NULL;
    }
    int fits =
        space_levels >= 1 && space_levels <= FK_MAX_LEVELS && fanout >= 2 &&
        num_blocks >= 1 && num_blocks <= (long long)LEVEL_INDEX_MASK &&
        PyTuple_GET_SIZE(level_blocks) == space_levels && num_sets >= 1 &&
        ways >= 1 && num_sets <= PY_SSIZE_T_MAX / 64 / ways &&
        onchip_entries >= 1 &&
        PyByteArray_GET_SIZE(onchip_touched) >= (onchip_entries + 7) / 8 &&
        PyList_GET_SIZE(touched) == space_levels && prf_key_len <= 64 &&
        mac_key_len <= 64 && tag_bytes >= 1 && tag_bytes <= 64 &&
        fanout <= block_bits;
    if (fits && format == FORMAT_UNCOMPRESSED)
        fits = leaf_bytes >= 1 && leaf_bytes <= 8 &&
               fanout * leaf_bytes <= tree->block_bytes &&
               tree->levels < 8 * leaf_bytes;
    else if (fits && format == FORMAT_FLAT)
        fits = fanout * 8 <= tree->block_bytes;
    else if (fits)
        fits = alpha >= 0 && alpha <= 64 && beta >= 1 && beta <= 32 &&
               alpha + fanout * beta <= block_bits;
    if (!fits) {
        PyErr_SetString(PyExc_ValueError,
                        "FrontendKernel: geometry out of range");
        return NULL;
    }

    FrontendKernel *self = (FrontendKernel *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->space_levels = space_levels;
    self->tree_levels = tree->levels;
    self->block_bytes = tree->block_bytes;
    self->format = format;
    self->pmmac = pmmac;
    self->onchip_counters = onchip_counters;
    self->leaf_bytes = leaf_bytes;
    self->alpha = alpha;
    self->beta = beta;
    self->ways = ways;
    self->fanout = fanout;
    self->num_blocks = num_blocks;
    self->num_sets = num_sets;
    self->onchip_entries = onchip_entries;
    self->tag_bytes = tag_bytes;
    self->mac_lane = pmmac && 20 + tree->block_bytes <= 128;
    for (int i = 0; i < space_levels; i++) {
        self->level_blocks[i] =
            PyLong_AsLongLong(PyTuple_GET_ITEM(level_blocks, i));
        if (self->level_blocks[i] == -1 && PyErr_Occurred())
            goto fail;
    }
    blake2b_init(&self->prf_state, 16, (const uint8_t *)prf_key,
                 (size_t)prf_key_len);
    blake2b_absorb_key(&self->prf_state);
    blake2b_init(&self->mac_state, (size_t)tag_bytes,
                 (const uint8_t *)mac_key, (size_t)mac_key_len);
    blake2b_absorb_key(&self->mac_state);

    /* The hardware's own structures: one item per way, one per entry —
     * exactly the geometry's size, which is what lets every later index
     * into them go unchecked. */
    const Py_ssize_t total_ways = (Py_ssize_t)num_sets * ways;
    if (col_acquire_fixed(plb_columns[0], &self->plb_tags, "plb.tags",
                          &COL_I64, total_ways, 0) < 0 ||
        col_acquire_fixed(plb_columns[1], &self->plb_leaves, "plb.leaves",
                          &COL_I64, total_ways, 0) < 0 ||
        col_acquire_fixed(plb_columns[2], &self->plb_counters,
                          "plb.counters", &COL_U64, 2 * total_ways, 0) < 0 ||
        col_acquire_fixed(plb_columns[3], &self->plb_last_use,
                          "plb.last_use", &COL_I64, total_ways, 0) < 0 ||
        col_acquire_fixed(plb_columns[4], &self->plb_payload, "plb.payload",
                          &COL_U8, total_ways * tree->block_bytes, 0) < 0 ||
        col_acquire_fixed(onchip_table, &self->onchip_table,
                          "the on-chip PosMap table", &COL_U64,
                          (Py_ssize_t)onchip_entries, 1) < 0 ||
        col_acquire_fixed(ledgers[0], &self->stats, "the statistics' ledger",
                          &COL_I64, N_STATS_SLOTS, 0) < 0 ||
        col_acquire_fixed(ledgers[1], &self->plb_ledger, "the PLB's ledger",
                          &COL_I64, N_PLB_SLOTS, 0) < 0 ||
        col_acquire_fixed(ledgers[2], &self->prf_ledger, "the PRF's ledger",
                          &COL_I64, N_PRF_SLOTS, 0) < 0 ||
        col_acquire_fixed(ledgers[3], &self->mac_ledger, "the MAC's ledger",
                          &COL_I64, N_MAC_SLOTS, 0) < 0)
        goto fail;

    self->frontend_ref = PyWeakref_NewRef(frontend, NULL);
    self->work = PyMem_Malloc(2 * (size_t)tree->block_bytes);
    self->group_old = PyMem_Malloc((size_t)fanout * sizeof(u128));
    if (self->frontend_ref == NULL || self->work == NULL ||
        self->group_old == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        goto fail;
    }
    self->spare = self->work + tree->block_bytes;
#define BIND(field) (Py_INCREF(field), self->field = field)
    BIND(backend_kernel);
    BIND(access_func);
    BIND(onchip_touched);
    BIND(touched);
    BIND(getrandbits);
    BIND(result_type);
    BIND(op_read);
    BIND(op_write);
    BIND(config_error);
    BIND(integrity_error);
#undef BIND
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

/* A counter as a Python int, for an error message. */
static PyObject *
counter_to_long(u128 counter)
{
    PyObject *low = PyLong_FromUnsignedLongLong((unsigned long long)counter);
    if (low == NULL || (counter >> 64) == 0)
        return low;
    PyObject *high =
        PyLong_FromUnsignedLongLong((unsigned long long)(counter >> 64));
    PyObject *by = PyLong_FromLong(64);
    PyObject *shifted =
        high != NULL && by != NULL ? PyNumber_Lshift(high, by) : NULL;
    PyObject *out = shifted != NULL ? PyNumber_Or(shifted, low) : NULL;
    Py_XDECREF(high);
    Py_XDECREF(by);
    Py_XDECREF(shifted);
    Py_DECREF(low);
    return out;
}

/* -- the request's working state ---------------------------------------- */

/* Compressions a lane made ahead of the step that counts them: a remap's
 * leaf pair (its two first digest words) and a WRITE's seal.  The step
 * takes one only for the inputs its lane was given, else computes its
 * own; one no step takes is dropped, never counted. */
typedef struct {
    int ready;
    unsigned long long tagged;
    u128 count, new_count;
    uint64_t words[2];
} AheadPair;

typedef struct {
    int ready;
    unsigned long long tagged;
    u128 counter;
    uint8_t tag[64];
} AheadSeal;

typedef struct {
    FrontendKernel *fk;
    AccessKernel *tree;
    unsigned long long chain[FK_MAX_LEVELS]; /* a_i */
    unsigned long long tags[FK_MAX_LEVELS];  /* i || a_i */
    long posmap_accesses;
    const uint8_t *payload; /* a WRITE's bytes when its seal can be a lane */
    AheadPair pair;
    AheadSeal seal;
} Request;

/* What one PosMap entry says about its child, after the remap. */
typedef struct {
    long long leaf, new_leaf;
    u128 old_counter, new_counter;
} Mapping;

static void
raise_hex(PyObject *exc, const char *format, unsigned long long tagged,
          PyObject *counter)
{
    char hex[32];
    format_hex((long long)tagged, hex);
    PyErr_Format(exc, format, hex, counter);
}

/* rng.random_leaf(levels) through the frontend's own generator. */
static int
random_leaf(PyObject *getrandbits, int levels, long long *out)
{
    *out = 0;
    if (levels <= 0)
        return 0;
    PyObject *bits = PyLong_FromLong(levels); /* a cached small int */
    if (bits == NULL)
        return -1;
    PyObject *drawn = PyObject_CallOneArg(getrandbits, bits);
    Py_DECREF(bits);
    if (drawn == NULL)
        return -1;
    int rc = PyLong_Check(drawn) ? as_int64(drawn, out) : -1;
    if (rc < 0 && !PyErr_Occurred())
        PyErr_SetString(PyExc_TypeError, "getrandbits must return an int");
    Py_DECREF(drawn);
    return rc;
}

/* -- BLAKE2b lanes: what a request has ready goes in one call ---------------- */

/* A PRF lane: PRF_K(addr || count) over addr (8) || count (12) ||
 * subblock (4, zero), little-endian; the leaf is its first digest word. */
static void
lane_prf(Lane *lane, const Blake2b *mid, uint64_t addr, u128 count)
{
    lane->m[0] = addr;
    lane->m[1] = (uint64_t)count;
    lane->m[2] = (uint64_t)(count >> 64); /* < 2^32 */
    memset(lane->m + 3, 0, sizeof(lane->m) - 3 * sizeof(lane->m[0]));
    lane->mid = mid;
    lane->len = 24;
}

/* The PMMAC message's header: c (12 bytes) || a (8), little-endian. */
static void
mac_header(uint8_t header[20], u128 counter, unsigned long long tagged)
{
    store64le(header, (uint64_t)counter);
    for (int i = 0; i < 4; i++)
        header[8 + i] = (uint8_t)(counter >> (64 + 8 * i));
    store64le(header + 12, tagged);
}

/* Whether mac.tag(c || a || d) can be a lane: PMMAC is on, the message
 * fits one block (fk->mac_lane) and c is below 2^96 — a wider one is
 * left to fk_mac, which raises where the reference raises. */
static inline int
mac_fits_lane(const FrontendKernel *fk, u128 counter)
{
    return fk->mac_lane && (counter >> 96) == 0;
}

/* A MAC lane: mac.tag(c || a || d), d being one block. */
static void
lane_mac(Lane *lane, const FrontendKernel *fk, u128 counter,
         unsigned long long tagged, const uint8_t *data)
{
    uint8_t message[128];
    mac_header(message, counter, tagged);
    memcpy(message + 20, data, (size_t)fk->block_bytes);
    lane_message(lane, message, 20 + (size_t)fk->block_bytes);
    lane->mid = &fk->mac_state;
}

/* prf.leaf_for(address, count, levels). */
static long long
fk_leaf_for(FrontendKernel *fk, unsigned long long addr, u128 count)
{
    if (fk->tree_levels <= 0)
        return 0;
    tally(&fk->prf_ledger, PRF_CALLS, 1);
    Lane lane;
    lane_prf(&lane, &fk->prf_state, addr, count);
    blake2b_lanes(&lane, 1);
    return (long long)(lane.h[0] & ((1ULL << fk->tree_levels) - 1));
}

/* The lanes of a remap's leaf pair, PRF_K(a || c) and PRF_K(a || c'),
 * from lane[0] on — and, on the data level of a WRITE whose payload can
 * be sealed in a lane, that WRITE's seal MAC(c' || a || d'), which is
 * ready as soon as c' is.  Returns how many lanes it filled. */
static int
remap_lanes(Request *rq, int level, unsigned long long child, u128 count,
            u128 new_count, Lane *lane)
{
    FrontendKernel *fk = rq->fk;
    lane_prf(&lane[0], &fk->prf_state, child, count);
    lane_prf(&lane[1], &fk->prf_state, child, new_count);
    if (level > 0 || rq->payload == NULL || !mac_fits_lane(fk, new_count))
        return 2;
    lane_mac(&lane[2], fk, new_count, child, rq->payload);
    return 3;
}

/* Hold what remap_lanes' lanes computed for the steps that count it. */
static void
keep_remap_lanes(Request *rq, unsigned long long child, u128 count,
                 u128 new_count, const Lane *lane, int n)
{
    rq->pair = (AheadPair){1, child, count, new_count,
                           {lane[0].h[0], lane[1].h[0]}};
    if (n > 2) {
        rq->seal.ready = 1;
        rq->seal.tagged = child;
        rq->seal.counter = new_count;
        lane_digest(&lane[2], rq->seal.tag);
    }
}

/* A remap's leaf_for(child, c) and leaf_for(child, c') into m: two calls
 * on the PRF's ledger (none, leaves 0, when L <= 0).  The words come
 * from lanes run ahead for exactly these counts, else from a call of
 * their own, which also seals a WRITE's payload when it can. */
static void
fk_leaf_pair(Request *rq, int level, unsigned long long child, Mapping *m)
{
    FrontendKernel *fk = rq->fk;
    AheadPair *pair = &rq->pair;
    m->leaf = m->new_leaf = 0;
    if (fk->tree_levels <= 0) {
        pair->ready = 0;
        return;
    }
    tally(&fk->prf_ledger, PRF_CALLS, 2);
    if (!pair->ready || pair->tagged != child ||
        pair->count != m->old_counter || pair->new_count != m->new_counter) {
        Lane lane[3];
        const int n = remap_lanes(rq, level, child, m->old_counter,
                                  m->new_counter, lane);
        blake2b_lanes(lane, n);
        keep_remap_lanes(rq, child, m->old_counter, m->new_counter, lane, n);
    }
    pair->ready = 0;
    const uint64_t mask = (1ULL << fk->tree_levels) - 1;
    m->leaf = (long long)(pair->words[0] & mask);
    m->new_leaf = (long long)(pair->words[1] & mask);
}

/* mac.tag(c || a || d) into `out` (tag_bytes of it are the tag), counted
 * on the MAC's ledger: `ahead` when a lane has computed it already, else
 * a call of its own (one or two compressions). */
static int
fk_mac(FrontendKernel *fk, u128 counter, unsigned long long tagged,
       const uint8_t *data, const uint8_t *ahead, uint8_t out[64])
{
    if (ahead != NULL)
        memcpy(out, ahead, (size_t)fk->tag_bytes);
    else {
        if (counter >> 96) {
            PyErr_SetString(PyExc_OverflowError, "int too big to convert");
            return -1;
        }
        uint8_t header[20];
        mac_header(header, counter, tagged);
        Blake2b state = fk->mac_state;
        blake2b_update(&state, header, sizeof(header));
        blake2b_update(&state, data, (size_t)fk->block_bytes);
        blake2b_final(&state, out);
    }
    tally(&fk->mac_ledger, MAC_CALLS, 1);
    tally(&fk->mac_ledger, MAC_BYTES, 20 + (long long)fk->block_bytes);
    return 0;
}

/* PlbFrontend._seal: the tag a block re-enters the tree with (a new
 * reference; None without PMMAC). */
static PyObject *
fk_seal(FrontendKernel *fk, unsigned long long tagged, u128 counter,
        const uint8_t *data, const uint8_t *ahead)
{
    if (!fk->pmmac)
        return Py_NewRef(Py_None);
    uint8_t tag[64];
    if (fk_mac(fk, counter, tagged, data, ahead, tag) < 0)
        return NULL;
    return PyBytes_FromStringAndSize((const char *)tag, fk->tag_bytes);
}

/* PlbFrontend._verify: h == MAC_K(c || a || d) for the block of
 * interest; a block without a MAC is legitimate only at count zero. */
static int
fk_verify(FrontendKernel *fk, PyObject *mac, unsigned long long tagged,
          u128 counter, const uint8_t *data, const uint8_t *ahead)
{
    if (!fk->pmmac)
        return 0;
    if (mac == Py_None) {
        if (counter == 0) {
            tally(&fk->stats, C_FRESH_BLOCKS, 1);
            return 0;
        }
        PyObject *shown = counter_to_long(counter);
        if (shown != NULL) {
            raise_hex(fk->integrity_error,
                      "block %s lost: counter %S but no MAC", tagged, shown);
            Py_DECREF(shown);
        }
        return -1;
    }
    tally(&fk->stats, C_MAC_CHECKS, 1);
    uint8_t tag[64];
    if (fk_mac(fk, counter, tagged, data, ahead, tag) < 0)
        return -1;
    int equal;
    if (PyBytes_CheckExact(mac))
        equal = PyBytes_GET_SIZE(mac) == fk->tag_bytes &&
                memcmp(PyBytes_AS_STRING(mac), tag,
                       (size_t)fk->tag_bytes) == 0;
    else {
        /* Whatever else sits in mac_col compares the way it would
         * against the bytes the interpreted Mac.tag returns. */
        PyObject *computed =
            PyBytes_FromStringAndSize((const char *)tag, fk->tag_bytes);
        if (computed == NULL)
            return -1;
        equal = PyObject_RichCompareBool(computed, mac, Py_EQ);
        Py_DECREF(computed);
        if (equal < 0)
            return -1;
    }
    if (equal)
        return 0;
    PyObject *shown = counter_to_long(counter);
    if (shown != NULL) {
        raise_hex(fk->integrity_error, "MAC mismatch for block %s at count %S",
                  tagged, shown);
        Py_DECREF(shown);
    }
    return -1;
}

/* The byte of a first-touch bitmap holding bit `index`: good only until
 * the next call back into Python (a resize moves the bytes), so every
 * stretch of C that needs it asks again. */
static uint8_t *
bitmap_byte(PyObject *bitmap, unsigned long long index)
{
    if (!PyByteArray_CheckExact(bitmap)) {
        PyErr_Format(PyExc_TypeError,
                     "first-touch bitmaps must be bytearrays, not %.100s",
                     Py_TYPE(bitmap)->tp_name);
        return NULL;
    }
    if ((unsigned long long)PyByteArray_GET_SIZE(bitmap) <= index >> 3) {
        PyErr_Format(PyExc_IndexError,
                     "entry %llu outside its first-touch bitmap", index);
        return NULL;
    }
    return (uint8_t *)PyByteArray_AS_STRING(bitmap) + (index >> 3);
}

/* An instance of a slotted dataclass without running its __init__ in
 * the interpreter: allocate, then set the named fields.  (What a
 * Python-facing access() returns; no request makes one of its own.) */
static PyObject *
new_instance(PyObject *type, PyObject *const *names, PyObject *const *values,
             int count)
{
    PyTypeObject *tp = (PyTypeObject *)type;
    if (tp->tp_new == NULL) {
        PyErr_Format(PyExc_TypeError, "cannot create %.100s instances",
                     tp->tp_name);
        return NULL;
    }
    PyObject *obj = tp->tp_new(tp, empty_tuple, NULL);
    for (int i = 0; obj != NULL && i < count; i++) {
        if (values[i] == NULL || PyObject_SetAttr(obj, names[i], values[i]) < 0)
            Py_CLEAR(obj);
    }
    return obj;
}

/* -- the backend, C to C -------------------------------------------------- */

/* backend.access(APPEND, ...) for a block given by value. */
static int
request_append(Request *rq, long long addr, long long leaf, PyObject *mac,
               const uint8_t *data)
{
    AccessKernel *tree = rq->tree;
    tally(&tree->ledger, T_ACCESSES, 1);
    tally(&tree->ledger, T_APPENDS, 1);
    return kernel_append(tree, addr, leaf, mac, (const char *)data,
                         tree->block_bytes);
}

/* Take the block of interest out by value: payload into the handle's
 * work buffer, MAC by reference (READRMV hand-off without a Block). */
typedef struct {
    Visit base;
    FrontendKernel *fk;
    PyObject *mac; /* owned once the visit ran */
} FetchVisit;

static int
fetch_visit(Visit *base, AccessKernel *tree, long long slot)
{
    FetchVisit *visit = (FetchVisit *)base;
    char *bytes;
    if (kernel_payload(tree, slot, &bytes) < 0)
        return -1;
    memcpy(visit->fk->work, bytes, (size_t)tree->block_bytes);
    visit->mac = Py_NewRef(PyList_GET_ITEM(tree->mac_col, (Py_ssize_t)slot));
    return 0;
}

/* readrmv a PosMap-managed block into the handle's work buffer and
 * verify it against `counter`; `also` is the second statistic the
 * fetch moves (refills or relocations) once the tree access succeeded. */
static int
request_fetch(Request *rq, unsigned long long tagged, long long leaf,
              long long new_leaf, u128 counter, int also)
{
    FrontendKernel *fk = rq->fk;
    FetchVisit fetch = {{fetch_visit}, fk, NULL};
    if (tree_access(rq->tree, 1, (long long)tagged, leaf, new_leaf,
                    &fetch.base) < 0) {
        Py_XDECREF(fetch.mac);
        return -1;
    }
    rq->posmap_accesses++;
    tally(&fk->stats, C_POSMAP_TREE, 1);
    tally(&fk->stats, also, 1);
    int rc = fk_verify(fk, fetch.mac, tagged, counter, fk->work, NULL);
    Py_DECREF(fetch.mac);
    return rc;
}

/* The data block's update closure: verify, overwrite on a WRITE, seal. */
typedef struct {
    Visit base;
    Request *rq;
    unsigned long long addr;
    u128 old_counter, new_counter;
    PyObject *write_data; /* borrowed; NULL on a READ */
    int want_data;
    PyObject *data_out; /* owned: the block's bytes after the visit */
} DataVisit;

static int
data_visit(Visit *base, AccessKernel *tree, long long slot)
{
    DataVisit *visit = (DataVisit *)base;
    Request *rq = visit->rq;
    FrontendKernel *fk = rq->fk;
    const size_t block_bytes = (size_t)tree->block_bytes;
    char *bytes;
    if (kernel_payload(tree, slot, &bytes) < 0)
        return -1;
    memcpy(fk->work, bytes, block_bytes);

    PyObject *mac = Py_NewRef(PyList_GET_ITEM(tree->mac_col, (Py_ssize_t)slot));
    /* A READ seals the d it verifies: both tags are one call. */
    uint8_t tags[2][64];
    const uint8_t *verified = NULL, *sealed_ahead = NULL;
    if (visit->write_data == NULL && mac != Py_None &&
        mac_fits_lane(fk, visit->old_counter) &&
        mac_fits_lane(fk, visit->new_counter)) {
        Lane lane[2];
        lane_mac(&lane[0], fk, visit->old_counter, visit->addr, fk->work);
        lane_mac(&lane[1], fk, visit->new_counter, visit->addr, fk->work);
        blake2b_lanes(lane, 2);
        lane_digest(&lane[0], tags[0]);
        lane_digest(&lane[1], tags[1]);
        verified = tags[0];
        sealed_ahead = tags[1];
    }
    int rc = fk_verify(fk, mac, visit->addr, visit->old_counter, fk->work,
                       verified);
    Py_DECREF(mac);
    if (rc < 0)
        return -1;
    if (visit->write_data != NULL) {
        /* bytes(data), spelled as the call for anything but bytes (which
         * may run its own code), so that what it refuses is refused in
         * the interpreted access's words. */
        PyObject *data = Py_NewRef(visit->write_data);
        if (!PyBytes_CheckExact(data)) {
            kernel_release(tree);
            Py_SETREF(data, PyObject_CallOneArg((PyObject *)&PyBytes_Type, data));
            if (data == NULL)
                return -1;
        }
        if (PyBytes_GET_SIZE(data) != tree->block_bytes) {
            PyErr_Format(PyExc_ValueError,
                         "payload must be %zd bytes, got %zd",
                         tree->block_bytes, PyBytes_GET_SIZE(data));
            Py_DECREF(data);
            return -1;
        }
        memcpy(fk->work, PyBytes_AS_STRING(data), block_bytes);
        Py_DECREF(data);
        /* The remap sealed these bytes already when its lanes could. */
        if (rq->seal.ready && rq->seal.tagged == visit->addr &&
            rq->seal.counter == visit->new_counter)
            sealed_ahead = rq->seal.tag;
    }
    if (fk->pmmac || visit->write_data != NULL) {
        PyObject *sealed = fk_seal(fk, visit->addr, visit->new_counter,
                                   fk->work, sealed_ahead);
        if (sealed == NULL)
            return -1;
        rc = kernel_set_mac(tree, slot, sealed);
        Py_DECREF(sealed);
        if (rc < 0 || kernel_payload(tree, slot, &bytes) < 0)
            return -1;
        memcpy(bytes, fk->work, block_bytes);
    }
    if (visit->want_data) {
        visit->data_out = PyBytes_FromStringAndSize((const char *)fk->work,
                                                    tree->block_bytes);
        if (visit->data_out == NULL)
            return -1;
    }
    return 0;
}

/* -- the PLB ------------------------------------------------------------------ */

/* Plb._set_index, as the first way of that set. */
static inline long long
plb_set_base(const FrontendKernel *fk, unsigned long long tagged)
{
    return (long long)(((tagged & LEVEL_INDEX_MASK) +
                        (tagged >> LEVEL_SHIFT) * 7919) %
                       (unsigned long long)fk->num_sets) *
           fk->ways;
}

/* Plb._find: the way of its set holding i || a_i; -1 when none does, -2
 * with an exception set when two do. */
static long long
plb_find(FrontendKernel *fk, unsigned long long tagged)
{
    const long long *tags = fk->plb_tags.data;
    const long long base = plb_set_base(fk, tagged);
    long long found = -1;
    for (long long way = base; way < base + fk->ways; way++) {
        if (tags[way] != (long long)tagged)
            continue;
        if (found >= 0) {
            char hex[32];
            format_hex((long long)tagged, hex);
            PyErr_Format(PyExc_ValueError,
                         "PLB set %lld holds block %s twice",
                         base / fk->ways, hex);
            return -2;
        }
        found = way;
    }
    return found;
}

static inline uint8_t *
plb_payload(FrontendKernel *fk, long long way)
{
    return (uint8_t *)fk->plb_payload.data + way * fk->block_bytes;
}

static inline void
plb_set_counter(FrontendKernel *fk, long long way, u128 counter)
{
    uint64_t *words = (uint64_t *)fk->plb_counters.data + 2 * way;
    words[0] = (uint64_t)counter;
    words[1] = (uint64_t)(counter >> 64);
}

/* A block a refill pushed out of the PLB, by value (its payload travels
 * in fk->work). */
typedef struct {
    long long tagged, leaf;
    u128 counter;
} Victim;

/* Plb._clock. */
static inline long long
plb_clock(const FrontendKernel *fk)
{
    return ((const long long *)fk->plb_ledger.data)[PLB_CLOCK];
}

/* plb.insert of the block in fk->work, stamped with the clock: the
 * lowest free way of its set, else — replaced in place — the one way
 * when direct-mapped, the first way with the smallest last_use
 * otherwise.  Returns the way through *way_out and 1 when a victim went:
 * its fields through *victim, its payload in fk->work. */
static int
fk_plb_insert(FrontendKernel *fk, unsigned long long tagged, long long leaf,
              u128 counter, long long *way_out, Victim *victim)
{
    long long *tags = fk->plb_tags.data, *leaves = fk->plb_leaves.data;
    long long *last_use = fk->plb_last_use.data;
    const long long base = plb_set_base(fk, tagged);
    long long way = -1;
    for (long long w = base; w < base + fk->ways; w++) {
        if (tags[w] == (long long)tagged) {
            PyErr_SetString(PyExc_ValueError, "block already resident in PLB");
            return -1;
        }
        if (way < 0 && tags[w] == -1)
            way = w;
    }
    const int evicting = way < 0;
    if (evicting) {
        way = base;
        for (long long w = base; fk->ways > 1 && w < base + fk->ways; w++) {
            if (last_use[w] < 0 || last_use[w] > plb_clock(fk)) {
                PyErr_Format(PyExc_ValueError,
                             "PLB way %lld was last used at %lld; the clock "
                             "reads %lld", w, last_use[w], plb_clock(fk));
                return -1;
            }
            if (last_use[w] < last_use[way])
                way = w;
        }
        if (tags[way] < 0) {
            PyErr_Format(PyExc_ValueError, "PLB way %lld holds tag %lld", way,
                         tags[way]);
            return -1;
        }
        const uint64_t *words = (uint64_t *)fk->plb_counters.data + 2 * way;
        victim->tagged = tags[way];
        victim->leaf = leaves[way];
        victim->counter = ((u128)words[1] << 64) | words[0];
        memcpy(fk->spare, plb_payload(fk, way), (size_t)fk->block_bytes);
    }
    memcpy(plb_payload(fk, way), fk->work, (size_t)fk->block_bytes);
    if (evicting)
        memcpy(fk->work, fk->spare, (size_t)fk->block_bytes);
    tags[way] = (long long)tagged;
    leaves[way] = leaf;
    plb_set_counter(fk, way, counter);
    last_use[way] = plb_clock(fk);
    *way_out = way;
    return evicting;
}

enum { ENTRY_STEP, ENTRY_ROLLOVER, ENTRY_FULL };
static int entry_counters(const FrontendKernel *fk, const uint8_t *block,
                          long long slot, u128 *count, u128 *new_count);

/* PlbFrontend._evict_plb_entry: the victim (its payload in fk->work)
 * re-enters the stash with a fresh MAC over its current counter.  The
 * block just installed in way `parent` holds the counters of the next
 * level's entry, so that remap's leaf pair (and, on the data level, a
 * WRITE's seal) rides in the seal's call. */
static int
fk_evict(Request *rq, int level, long long parent, const Victim *victim)
{
    FrontendKernel *fk = rq->fk;
    tally(&fk->stats, C_PLB_EVICTIONS, 1);
    uint8_t tag[64];
    const uint8_t *ahead = NULL;
    if (mac_fits_lane(fk, victim->counter)) {
        Lane lane[MAX_LANES];
        lane_mac(&lane[0], fk, victim->counter, victim->tagged, fk->work);
        int n = 1;
        const int child = level - 1;
        const long long slot =
            (long long)(rq->chain[child] % (unsigned long long)fk->fanout);
        u128 count, new_count;
        if (fk->tree_levels > 0 && fk->format != FORMAT_UNCOMPRESSED &&
            entry_counters(fk, plb_payload(fk, parent), slot, &count,
                           &new_count) != ENTRY_FULL)
            n += remap_lanes(rq, child, rq->tags[child], count, new_count,
                             &lane[1]);
        blake2b_lanes(lane, n);
        if (n > 1)
            keep_remap_lanes(rq, rq->tags[child], count, new_count, &lane[1],
                             n - 1);
        lane_digest(&lane[0], tag);
        ahead = tag;
    }
    PyObject *sealed = fk_seal(fk, (unsigned long long)victim->tagged,
                               victim->counter, fk->work, ahead);
    if (sealed == NULL)
        return -1;
    int rc = request_append(rq, victim->tagged, victim->leaf, sealed, fk->work);
    Py_DECREF(sealed);
    return rc;
}

/* PlbFrontend._refill_plb: readrmv the PosMap block of `level`, verify
 * it, install it in the PLB, append the victim.  *way is where the
 * block now lives. */
static int
fk_refill(Request *rq, int level, const Mapping *m, long long *way)
{
    FrontendKernel *fk = rq->fk;
    if (request_fetch(rq, rq->tags[level], m->leaf, m->new_leaf,
                      m->old_counter, C_PLB_REFILLS) < 0)
        return -1;
    tally(&fk->plb_ledger, PLB_CLOCK, 1);
    Victim victim;
    const int evicting = fk_plb_insert(fk, rq->tags[level], m->new_leaf,
                                       m->new_counter, way, &victim);
    if (evicting <= 0)
        return evicting;
    return fk_evict(rq, level, *way, &victim);
}

/* -- PosMap formats ------------------------------------------------------------ */

/* Field `width` (0..64 bits) at bit `position` of a little-endian
 * bit-packed block; the caller has checked it lies inside the block. */
static inline uint64_t
get_bits(const uint8_t *block, long long position, int width)
{
    if (width == 0)
        return 0;
    const uint8_t *p = block + (position >> 3);
    const int shift = (int)(position & 7);
    const int span = (shift + width + 7) >> 3; /* at most 9 bytes */
    u128 window = 0;
    for (int i = 0; i < span; i++)
        window |= (u128)p[i] << (8 * i);
    window >>= shift;
    return width == 64 ? (uint64_t)window
                       : (uint64_t)window & ((1ULL << width) - 1);
}

static inline void
set_bits(uint8_t *block, long long position, int width, uint64_t value)
{
    uint8_t *p = block + (position >> 3);
    const int shift = (int)(position & 7);
    const int span = (shift + width + 7) >> 3;
    u128 window = 0;
    for (int i = 0; i < span; i++)
        window |= (u128)p[i] << (8 * i);
    const u128 mask = (((u128)1 << width) - 1) << shift; /* width < 64 */
    window = (window & ~mask) | (((u128)value << shift) & mask);
    for (int i = 0; i < span; i++)
        p[i] = (uint8_t)(window >> (8 * i));
}

/* UncompressedPosMapFormat's entry codec: a `width`-byte little-endian
 * leaf label. */
static inline uint64_t
get_label(const uint8_t *entry, int width)
{
    uint64_t label = 0;
    for (int i = width - 1; i >= 0; i--)
        label = (label << 8) | entry[i];
    return label;
}

static inline void
set_label(uint8_t *entry, int width, uint64_t label)
{
    for (int i = 0; i < width; i++, label >>= 8)
        entry[i] = (uint8_t)label;
}

/* The counters entry `slot` of a PosMap block (flat or compressed)
 * moves from and to on a remap, read without writing the block:
 * ENTRY_STEP when the count just steps, ENTRY_ROLLOVER when a
 * compressed IC rolls its group over, ENTRY_FULL when the entry can move
 * no further (a flat count at 2^64 - 1, a GC with no room left). */
static int
entry_counters(const FrontendKernel *fk, const uint8_t *block, long long slot,
               u128 *count, u128 *new_count)
{
    if (fk->format == FORMAT_FLAT) {
        const uint64_t flat = load64le(block + 8 * slot);
        *count = flat;
        *new_count = (u128)flat + 1;
        return flat == UINT64_MAX ? ENTRY_FULL : ENTRY_STEP;
    }
    const int alpha = fk->alpha, beta = fk->beta;
    const uint64_t gc = get_bits(block, 0, alpha);
    const uint64_t ic = get_bits(block, alpha + slot * beta, beta);
    *count = ((u128)gc << beta) | ic;
    if (ic < (1ULL << beta) - 1) {
        /* An IC increment cannot carry out of its field. */
        *new_count = *count + 1;
        return ENTRY_STEP;
    }
    *new_count = (u128)(gc + 1) << beta;
    return (alpha == 64 ? gc == UINT64_MAX : gc + 1 >= (1ULL << alpha))
               ? ENTRY_FULL
               : ENTRY_ROLLOVER;
}

static int fk_group_remap(Request *rq, int level, unsigned long long index,
                          long long slot, u128 new_counter);

/* format.remap on the payload of the parent in PLB way `parent`, group
 * remap and first-touch override included: PlbFrontend._remap_child
 * with a PLB parent.  The payload column never moves, so the pointer
 * holds across the draws. */
static int
fk_remap_in_block(Request *rq, long long parent, int level, Mapping *m)
{
    FrontendKernel *fk = rq->fk;
    const unsigned long long index = rq->chain[level];
    const long long slot = (long long)(index % (unsigned long long)fk->fanout);
    const unsigned long long child = rq->tags[level];
    uint8_t *block = plb_payload(fk, parent);
    int rollover = 0;
    m->old_counter = m->new_counter = 0;

    if (fk->format == FORMAT_UNCOMPRESSED) {
        const int width = fk->leaf_bytes;
        m->leaf = (long long)get_label(block + slot * width, width);
        if (random_leaf(fk->getrandbits, fk->tree_levels, &m->new_leaf) < 0)
            return -1;
        set_label(block + slot * width, width, (uint64_t)m->new_leaf);
    }
    else {
        const int step = entry_counters(fk, block, slot, &m->old_counter,
                                        &m->new_counter);
        const int alpha = fk->alpha, beta = fk->beta;
        if (step == ENTRY_FULL) {
            if (fk->format == FORMAT_FLAT)
                PyErr_SetString(PyExc_OverflowError, "int too big to convert");
            else
                PyErr_SetString(fk->config_error,
                                "group counter overflow (alpha too small)");
            return -1;
        }
        if (fk->format == FORMAT_FLAT)
            store64le(block + 8 * slot, (uint64_t)m->new_counter);
        else if (step == ENTRY_STEP)
            set_bits(block, alpha + slot * beta, beta,
                     (uint64_t)m->new_counter & ((1ULL << beta) - 1));
        else {
            /* Group remap: GC += 1, every IC (this one too) resets. */
            const u128 group = m->old_counter >> beta << beta;
            for (long long s = 0; s < fk->fanout; s++)
                fk->group_old[s] =
                    group | get_bits(block, alpha + s * beta, beta);
            memset(block, 0, (size_t)fk->block_bytes);
            uint64_t image = (uint64_t)(m->new_counter >> beta);
            for (Py_ssize_t i = 0; i < 8 && i < fk->block_bytes;
                 i++, image >>= 8)
                block[i] = (uint8_t)image;
            rollover = 1;
        }
        fk_leaf_pair(rq, level, child, m);
    }
    if (rollover &&
        fk_group_remap(rq, level, index, slot, m->new_counter) < 0)
        return -1;

    /* A never-touched leaf-mode entry gets its factory label now. */
    PyObject *bitmap = PyList_GET_SIZE(fk->touched) > level
                           ? PyList_GET_ITEM(fk->touched, level)
                           : Py_None;
    if (bitmap == Py_None)
        return 0;
    const uint8_t bit = (uint8_t)(1u << (index & 7));
    uint8_t *byte = bitmap_byte(bitmap, index);
    if (byte == NULL)
        return -1;
    if (*byte & bit)
        return 0;
    *byte |= bit;
    return random_leaf(fk->getrandbits, fk->tree_levels, &m->leaf);
}

/* One sibling of a group remap: bookkeeping only when it is
 * PLB-resident, else readrmv + re-seal + append (§5.2.2). */
static int
fk_relocate(Request *rq, unsigned long long tagged, u128 old_counter,
            u128 new_counter)
{
    FrontendKernel *fk = rq->fk;
    const long long new_leaf = fk_leaf_for(fk, tagged, new_counter);
    const long long resident = plb_find(fk, tagged);
    if (resident >= 0) {
        ((long long *)fk->plb_leaves.data)[resident] = new_leaf;
        plb_set_counter(fk, resident, new_counter);
        return 0;
    }
    if (resident < -1 ||
        request_fetch(rq, tagged, fk_leaf_for(fk, tagged, old_counter),
                      new_leaf, old_counter,
                      C_GROUP_RELOCATIONS) < 0)
        return -1;
    PyObject *sealed = fk_seal(fk, tagged, new_counter, fk->work, NULL);
    if (sealed == NULL)
        return -1;
    int rc = request_append(rq, (long long)tagged, new_leaf, sealed, fk->work);
    Py_DECREF(sealed);
    return rc;
}

/* PlbFrontend._group_remap: every sibling of the rolled-over entry
 * moves to the leaf of its new count. */
static int
fk_group_remap(Request *rq, int level, unsigned long long index,
               long long slot, u128 new_counter)
{
    FrontendKernel *fk = rq->fk;
    tally(&fk->stats, C_GROUP_REMAPS, 1);
    const unsigned long long base = index - (unsigned long long)slot;
    for (long long s = 0; s < fk->fanout; s++) {
        const unsigned long long sibling = base + (unsigned long long)s;
        if (s == slot ||
            sibling >= (unsigned long long)fk->level_blocks[level])
            continue;
        if (fk_relocate(rq, ((unsigned long long)level << LEVEL_SHIFT) | sibling,
                        fk->group_old[s], new_counter) < 0)
            return -1;
    }
    return 0;
}

/* The on-chip PosMap as a frontend handle binds it: the table is the
 * handle's own life-long export of OnChipPosMap._table, uint64 per
 * entry and `entries` of them at least (checked when it was taken); the
 * rest is borrowed. */
typedef struct {
    uint64_t *table;
    PyObject *touched, *getrandbits;
    long long entries;
    int levels; /* of the tree its labels address */
} OnChip;

/* The byte of entry `index`'s first-touch bit, the index range-checked
 * (good until the next call back into Python).  NULL with an exception
 * set otherwise. */
static uint8_t *
onchip_entry(const OnChip *chip, unsigned long long index)
{
    if (index >= (unsigned long long)chip->entries) {
        PyErr_Format(PyExc_ValueError,
                     "on-chip PosMap index %llu out of range", index);
        return NULL;
    }
    return bitmap_byte(chip->touched, index);
}

/* OnChipPosMap.lookup_and_remap in leaf mode: the entry's label — its
 * factory label, drawn now, on first touch — and the fresh one stored
 * over it. */
static int
onchip_leaf_remap(const OnChip *chip, unsigned long long index,
                  long long *leaf, long long *new_leaf)
{
    const uint8_t bit = (uint8_t)(1u << (index & 7));
    uint8_t *byte = onchip_entry(chip, index);
    if (byte == NULL)
        return -1;
    if (*byte & bit) {
        if (chip->table[index] > (uint64_t)INT64_MAX) {
            PyErr_Format(PyExc_ValueError, "leaf %llu out of range",
                         (unsigned long long)chip->table[index]);
            return -1;
        }
        *leaf = (long long)chip->table[index];
    }
    else {
        if (random_leaf(chip->getrandbits, chip->levels, leaf) < 0 ||
            (byte = bitmap_byte(chip->touched, index)) == NULL)
            return -1;
        *byte |= bit;
    }
    if (random_leaf(chip->getrandbits, chip->levels, new_leaf) < 0)
        return -1;
    chip->table[index] = (uint64_t)*new_leaf;
    return 0;
}

/* OnChipPosMap.lookup_and_remap for the top level's entry. */
static int
fk_remap_onchip(Request *rq, int level, Mapping *m)
{
    FrontendKernel *fk = rq->fk;
    const unsigned long long index = rq->chain[level];
    const OnChip chip = {fk->onchip_table.data, fk->onchip_touched,
                         fk->getrandbits, fk->onchip_entries,
                         fk->tree_levels};
    m->old_counter = m->new_counter = 0;
    if (!fk->onchip_counters)
        return onchip_leaf_remap(&chip, index, &m->leaf, &m->new_leaf);

    uint8_t *byte = onchip_entry(&chip, index);
    if (byte == NULL)
        return -1;
    const uint64_t count = chip.table[index];
    if (count == UINT64_MAX) {
        PyErr_SetString(fk->config_error, "on-chip counter overflow");
        return -1;
    }
    m->old_counter = count;
    m->new_counter = (u128)count + 1;
    chip.table[index] = count + 1;
    *byte |= (uint8_t)(1u << (index & 7));
    fk_leaf_pair(rq, level, rq->tags[level], m);
    return 0;
}

/* -- the access algorithm (§4.2.4) ------------------------------------------ */

/* PlbFrontend._remap_child: through the parent in PLB way `parent`, or
 * the on-chip PosMap when there is none (-1: the top level only). */
static int
fk_remap_child(Request *rq, long long parent, int level, Mapping *m)
{
    if (parent < 0)
        return fk_remap_onchip(rq, level, m);
    return fk_remap_in_block(rq, parent, level, m);
}

/* What every frontend's access checks before it counts the request: the
 * op is READ or WRITE, and a WRITE carries one full block.  1 for a
 * WRITE, 0 for a READ, -1 with the interpreted access's exception. */
static int
request_is_write(PyObject *op, PyObject *data, PyObject *op_read,
                 PyObject *op_write, PyObject *config_error,
                 Py_ssize_t block_bytes)
{
    if (op != op_read && op != op_write) {
        PyErr_SetString(config_error, "processor requests are READ or WRITE");
        return -1;
    }
    if (op == op_read)
        return 0;
    Py_ssize_t given = data == Py_None ? -2 : PyObject_Length(data);
    if (given == -1)
        return -1;
    if (given != block_bytes) {
        PyErr_SetString(PyExc_ValueError,
                        "WRITE requires a full block of data");
        return -1;
    }
    return 1;
}

/* AddressSpace.chain: a_0 = the address, a_i = a_{i-1} // X.  The
 * address is `addr_obj` when one is given (handle.access), else the C
 * integer `addr` (the access loop, which boxes nothing). */
static int
request_chain(PyObject *addr_obj, long long addr, long long num_blocks,
              long long fanout, int levels, unsigned long long *chain)
{
    int overflow = 0;
    if (addr_obj != NULL) {
        if (!PyLong_Check(addr_obj)) {
            PyErr_Format(PyExc_TypeError, "address must be an int, not %.100s",
                         Py_TYPE(addr_obj)->tp_name);
            return -1;
        }
        addr = PyLong_AsLongLongAndOverflow(addr_obj, &overflow);
    }
    if (overflow || addr < 0 || addr >= num_blocks) {
        if (addr_obj != NULL)
            PyErr_Format(PyExc_ValueError, "address %S out of range", addr_obj);
        else
            PyErr_Format(PyExc_ValueError, "address %lld out of range", addr);
        return -1;
    }
    chain[0] = (unsigned long long)addr;
    for (int i = 1; i < levels; i++)
        chain[i] = chain[i - 1] / (unsigned long long)fanout;
    return 0;
}

/* PlbFrontend.access between its counters' first and last movement:
 * validation, PLB lookup loop, PosMap refills, data access.  *data_out
 * (when asked for) is AccessResult.data. */
static int
fk_run(Request *rq, PyObject *addr_obj, long long addr, PyObject *op,
       PyObject *data, PyObject **data_out, int *hit_level_out)
{
    FrontendKernel *fk = rq->fk;
    const int levels = fk->space_levels;
    const int write = request_is_write(op, data, fk->op_read, fk->op_write,
                                       fk->config_error, fk->block_bytes);
    if (write < 0)
        return -1;
    tally(&fk->stats, C_ACCESSES, 1);
    /* Bytes cannot change under the request: its seal can be a lane. */
    if (write && fk->mac_lane && PyBytes_CheckExact(data))
        rq->payload = (const uint8_t *)PyBytes_AS_STRING(data);

    /* Every level's i || a_i tag. */
    if (request_chain(addr_obj, addr, fk->num_blocks, fk->fanout, levels,
                      rq->chain) < 0)
        return -1;
    rq->tags[0] = rq->chain[0];
    for (int i = 1; i < levels; i++)
        rq->tags[i] = ((unsigned long long)i << LEVEL_SHIFT) | rq->chain[i];

    /* Step 1: the PLB lookup loop. */
    long long parent = -1; /* the PLB way of the block in hand */
    int hit_level = levels - 1;
    for (int i = 0; i < levels - 1; i++) {
        tally(&fk->plb_ledger, PLB_CLOCK, 1);
        const long long way = plb_find(fk, rq->tags[i + 1]);
        if (way < -1)
            return -1;
        if (way < 0) {
            tally(&fk->plb_ledger, PLB_MISSES, 1);
            continue;
        }
        ((long long *)fk->plb_last_use.data)[way] = plb_clock(fk);
        tally(&fk->plb_ledger, PLB_HITS, 1);
        parent = way;
        hit_level = i;
        break;
    }
    if (levels > 1)
        tally(&fk->stats, hit_level == 0 ? C_PLB_HITS : C_PLB_MISSES, 1);

    /* Step 2: fetch the missing PosMap blocks, deepest level first. */
    Mapping m;
    for (int level = hit_level; level >= 1; level--) {
        if (fk_remap_child(rq, parent, level, &m) < 0 ||
            fk_refill(rq, level, &m, &parent) < 0)
            return -1;
    }

    /* Step 3: the data block. */
    if (fk_remap_child(rq, parent, 0, &m) < 0)
        return -1;
    if (fk->pmmac || write || data_out != NULL) {
        DataVisit visit = {{data_visit}, rq, rq->tags[0], m.old_counter,
                           m.new_counter, write ? data : NULL,
                           data_out != NULL && !write, NULL};
        if (tree_access(rq->tree, 0, (long long)rq->tags[0], m.leaf,
                        m.new_leaf, &visit.base) < 0) {
            Py_XDECREF(visit.data_out);
            return -1;
        }
        if (data_out != NULL)
            *data_out = write ? Py_NewRef(data) : visit.data_out;
    }
    else if (tree_access(rq->tree, 0, (long long)rq->tags[0], m.leaf,
                         m.new_leaf, NULL) < 0)
        return -1;
    tally(&fk->stats, C_DATA_TREE, 1);
    *hit_level_out = hit_level;
    return 0;
}

/* What run_access_loop and handle.access() drive a frontend handle of
 * either type through.  `enter` takes the handle and its trees for one
 * outermost entry (owners held, observers read once); `request` is one
 * processor request, whole, for the address `addr_obj` or, when that is
 * NULL, the C integer `addr` — 0 with *posmap_out and *hit_level_out
 * (and, when asked for, AccessResult.data through *data_out) filled in,
 * or -1 with the interpreted access's exception set and its state left
 * behind; `leave` lets everything go. */
typedef struct {
    int (*enter)(PyObject *handle);
    int (*request)(PyObject *handle, PyObject *addr_obj, long long addr,
                   PyObject *op, PyObject *data, PyObject **data_out,
                   long *posmap_out, int *hit_level_out);
    void (*leave)(PyObject *handle);
} HandleOps;

static void
raise_owner_gone(void)
{
    PyErr_SetString(PyExc_ReferenceError,
                    "the frontend of this kernel, or its backend, is gone");
}

static void
raise_reentrant(void)
{
    PyErr_SetString(PyExc_RuntimeError,
                    "re-entrant access on one frontend (from an observer "
                    "callback)");
}

static int
fk_enter(PyObject *handle)
{
    FrontendKernel *fk = (FrontendKernel *)handle;
    AccessKernel *tree = (AccessKernel *)fk->backend_kernel;
    PyObject *frontend = PyWeakref_GetObject(fk->frontend_ref);
    PyObject *backend = PyWeakref_GetObject(tree->backend_ref);
    if (frontend == NULL || backend == NULL)
        return -1;
    if (frontend == Py_None || backend == Py_None) {
        raise_owner_gone();
        return -1;
    }
    if (fk->busy || tree->busy) {
        raise_reentrant();
        return -1;
    }
    if (kernel_hold(tree, backend) < 0)
        return -1;
    fk->busy = 1;
    return 0;
}

static void
fk_leave(PyObject *handle)
{
    FrontendKernel *fk = (FrontendKernel *)handle;
    kernel_drop((AccessKernel *)fk->backend_kernel);
    fk->busy = 0;
}

static int
fk_request(PyObject *handle, PyObject *addr_obj, long long addr, PyObject *op,
           PyObject *data, PyObject **data_out, long *posmap_out,
           int *hit_level_out)
{
    FrontendKernel *fk = (FrontendKernel *)handle;
    Request rq;
    rq.fk = fk;
    rq.tree = (AccessKernel *)fk->backend_kernel;
    rq.posmap_accesses = 0;
    rq.payload = NULL;
    rq.pair.ready = rq.seal.ready = 0;
    int rc = fk_run(&rq, addr_obj, addr, op, data, data_out, hit_level_out);
    if (rc < 0 && data_out != NULL)
        Py_CLEAR(*data_out);
    *posmap_out = rq.posmap_accesses;
    return rc;
}

static const HandleOps frontend_ops = {fk_enter, fk_request, fk_leave};

/* handle.access(addr, op, data) -> AccessResult, for either handle. */
static PyObject *
handle_access(const HandleOps *ops, PyObject *handle, PyObject *result_type,
              PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "access expects 3 positional arguments, got %zd", nargs);
        return NULL;
    }
    PyObject *data = NULL;
    long posmap_accesses;
    int hit_level;
    if (ops->enter(handle) < 0)
        return NULL;
    int rc = ops->request(handle, args[0], 0, args[1], args[2], &data,
                          &posmap_accesses, &hit_level);
    ops->leave(handle);
    if (rc < 0)
        return NULL;
    PyObject *const names[4] = {str_data, str_tree_accesses,
                                str_posmap_tree_accesses, str_plb_hit_level};
    PyObject *const values[4] = {
        data,
        PyLong_FromLong(posmap_accesses + 1),
        PyLong_FromLong(posmap_accesses),
        PyLong_FromLong(hit_level),
    };
    PyObject *result = new_instance(result_type, names, values, 4);
    for (int i = 0; i < 4; i++)
        Py_XDECREF(values[i]);
    return result;
}

static PyObject *
frontend_access(FrontendKernel *self, PyObject *const *args, Py_ssize_t nargs)
{
    return handle_access(&frontend_ops, (PyObject *)self, self->result_type,
                         args, nargs);
}

static PyMethodDef frontend_methods[] = {
    {"access", (PyCFunction)(void (*)(void))frontend_access, METH_FASTCALL,
     "access(addr, op, data) -> AccessResult: one whole processor "
     "request."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject FrontendKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.native._replay_core.FrontendKernel",
    .tp_basicsize = sizeof(FrontendKernel),
    .tp_dealloc = (destructor)frontend_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Native PLB frontend kernel bound to one PlbFrontend and its "
              "backend's AccessKernel (see PlbFrontend.enable_native_kernel).",
    .tp_traverse = (traverseproc)frontend_traverse,
    .tp_clear = (inquiry)frontend_clear,
    .tp_methods = frontend_methods,
    .tp_new = frontend_new,
};

/* ------------------------------------------------------------------ */
/* RecursiveKernel: one Recursive ORAM request per call                */
/* ------------------------------------------------------------------ */

/* RecursiveFrontend.access (§3.2) over the frontend's own columns:
 * the leaf-mode on-chip PosMap, then ORam_{H-1} .. ORam_1 — each one a
 * tree READ whose visit remaps the child's label inside the PosMap
 * block — then the Data ORAM, every tree through its own AccessKernel.
 *
 * Draw order on the frontend's generator, which is the interpreted
 * order: on-chip current label (first touch only), on-chip new label;
 * per PosMap level the child's new label (inside the visit, i.e. after
 * the drain and before the eviction), then — first touch only, after
 * the tree access has returned — the child's factory label.  The trees
 * draw nothing: both leaves of an access are handed to them. */
typedef struct {
    PyObject_HEAD
    union {
        struct {
            PyObject *frontend_ref; /* weakref to the owning frontend */
            PyObject *access_func;  /* RecursiveFrontend.access, the function */
            PyObject *trees;        /* tuple: level i's AccessKernel */
            PyObject *onchip_touched, *touched;
            PyObject *getrandbits;
            PyObject *result_type, *op_read, *op_write, *config_error;
        };
        PyObject *refs[10]; /* the same references, for the collector */
    };
    int num_levels; /* H: the data tree plus the PosMap trees */
    int leaf_bytes, busy;
    long long fanout, num_blocks, onchip_entries;
    /* Fixed-size, exported for the life of the handle: the on-chip table
     * and the statistics' ledger. */
    Col onchip_table, stats;
} RecursiveKernel;

#define RECURSIVE_REFS \
    (sizeof(((RecursiveKernel *)0)->refs) / sizeof(PyObject *))
#define RK_TREE(rk, level) \
    ((AccessKernel *)PyTuple_GET_ITEM((rk)->trees, (level)))

static int
recursive_traverse(RecursiveKernel *self, visitproc visit, void *arg)
{
    for (size_t i = 0; i < RECURSIVE_REFS; i++)
        Py_VISIT(self->refs[i]);
    return 0;
}

static int
recursive_clear(RecursiveKernel *self)
{
    for (size_t i = 0; i < RECURSIVE_REFS; i++)
        Py_CLEAR(self->refs[i]);
    return 0;
}

static void
recursive_dealloc(RecursiveKernel *self)
{
    PyObject_GC_UnTrack(self);
    col_release(&self->onchip_table);
    col_release(&self->stats);
    recursive_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
recursive_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    PyObject *frontend, *access_func, *stats, *trees, *onchip_table,
        *onchip_touched, *touched, *getrandbits, *result_type, *op_read,
        *op_write, *config_error;
    int num_levels, leaf_bytes;
    long long fanout, num_blocks, onchip_entries;
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "RecursiveKernel takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(
            args, "OOOO!OO!O!O(iLLLi)(OOOO):RecursiveKernel", &frontend,
            &access_func, &stats, &PyTuple_Type, &trees, &onchip_table,
            &PyByteArray_Type, &onchip_touched, &PyList_Type, &touched,
            &getrandbits, &num_levels, &fanout, &num_blocks, &onchip_entries,
            &leaf_bytes, &result_type, &op_read, &op_write, &config_error))
        return NULL;
    if (!PyCallable_Check(getrandbits) || !PyCallable_Check(access_func) ||
        !PyType_Check(result_type) || !PyExceptionClass_Check(config_error)) {
        PyErr_SetString(PyExc_TypeError,
                        "RecursiveKernel: expected two callables, the "
                        "AccessResult class and an exception class");
        return NULL;
    }
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(trees); i++) {
        if (!Py_IS_TYPE(PyTuple_GET_ITEM(trees, i), &AccessKernelType)) {
            PyErr_SetString(PyExc_TypeError,
                            "RecursiveKernel: every level needs its "
                            "backend's AccessKernel");
            return NULL;
        }
    }
    int fits = num_levels >= 1 && num_levels <= FK_MAX_LEVELS &&
               PyTuple_GET_SIZE(trees) == num_levels &&
               PyList_GET_SIZE(touched) == num_levels && fanout >= 2 &&
               num_blocks >= 1 && leaf_bytes >= 1 && leaf_bytes <= 8 &&
               onchip_entries >= 1 &&
               PyByteArray_GET_SIZE(onchip_touched) >= (onchip_entries + 7) / 8;
    /* A PosMap block of tree i holds X labels of tree i-1. */
    for (int level = 1; fits && level < num_levels; level++) {
        AccessKernel *parent = (AccessKernel *)PyTuple_GET_ITEM(trees, level);
        AccessKernel *child =
            (AccessKernel *)PyTuple_GET_ITEM(trees, level - 1);
        fits = fanout <= parent->block_bytes / leaf_bytes &&
               child->levels < 8 * leaf_bytes;
    }
    if (!fits) {
        PyErr_SetString(PyExc_ValueError,
                        "RecursiveKernel: geometry out of range");
        return NULL;
    }

    RecursiveKernel *self = (RecursiveKernel *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->num_levels = num_levels;
    self->leaf_bytes = leaf_bytes;
    self->fanout = fanout;
    self->num_blocks = num_blocks;
    self->onchip_entries = onchip_entries;
    self->frontend_ref = PyWeakref_NewRef(frontend, NULL);
    if (self->frontend_ref == NULL ||
        col_acquire_fixed(onchip_table, &self->onchip_table,
                          "the on-chip PosMap table", &COL_U64,
                          (Py_ssize_t)onchip_entries, 1) < 0 ||
        col_acquire_fixed(stats, &self->stats, "the statistics' ledger",
                          &COL_I64, N_STATS_SLOTS, 0) < 0) {
        Py_DECREF(self);
        return NULL;
    }
#define BIND(field) (Py_INCREF(field), self->field = field)
    BIND(access_func);
    BIND(trees);
    BIND(onchip_touched);
    BIND(touched);
    BIND(getrandbits);
    BIND(result_type);
    BIND(op_read);
    BIND(op_write);
    BIND(config_error);
#undef BIND
    return (PyObject *)self;
}

/* The update closure of a PosMap tree's READ: UncompressedPosMapFormat
 * .remap on the block of interest, in place — the child's label out,
 * a fresh one in. */
typedef struct {
    Visit base;
    PyObject *getrandbits; /* borrowed */
    int child_levels, width;
    Py_ssize_t offset; /* of the child's entry inside the block */
    long long old_leaf, new_leaf;
} LabelVisit;

static int
label_visit(Visit *base, AccessKernel *tree, long long slot)
{
    LabelVisit *visit = (LabelVisit *)base;
    /* The draw runs Python, so it comes before the payload is found; the
     * generator is all it touches, so the order does not show. */
    if (random_leaf(visit->getrandbits, visit->child_levels,
                    &visit->new_leaf) < 0)
        return -1;
    char *bytes;
    if (kernel_payload(tree, slot, &bytes) < 0)
        return -1;
    uint8_t *entry = (uint8_t *)bytes + visit->offset;
    visit->old_leaf = (long long)get_label(entry, visit->width);
    set_label(entry, visit->width, (uint64_t)visit->new_leaf);
    return 0;
}

/* The data tree's update closure: on a WRITE, block.data = bytes(data);
 * either way AccessResult.data is what the block then holds. */
typedef struct {
    Visit base;
    PyObject *write_data; /* borrowed; NULL on a READ */
    PyObject *data_out;   /* owned: the block's bytes after the visit */
} PayloadVisit;

static int
payload_visit(Visit *base, AccessKernel *tree, long long slot)
{
    PayloadVisit *visit = (PayloadVisit *)base;
    if (visit->write_data != NULL) {
        /* bytes(data), spelled as the call so that what it refuses is
         * refused in the interpreted access's words. */
        if (PyBytes_CheckExact(visit->write_data))
            visit->data_out = Py_NewRef(visit->write_data);
        else {
            kernel_release(tree);
            visit->data_out = PyObject_CallOneArg((PyObject *)&PyBytes_Type,
                                                  visit->write_data);
        }
        return visit->data_out == NULL
                   ? -1
                   : kernel_set_payload(tree, slot, visit->data_out);
    }
    char *bytes;
    if (kernel_payload(tree, slot, &bytes) < 0)
        return -1;
    visit->data_out = PyBytes_FromStringAndSize(bytes, tree->block_bytes);
    return visit->data_out == NULL ? -1 : 0;
}

/* The byte of level `level`'s first-touch bitmap holding bit `index`
 * (bitmap_byte's lifetime rule: ask again once Python has run). */
static uint8_t *
rk_touched_byte(RecursiveKernel *rk, int level, unsigned long long index)
{
    if (PyList_GET_SIZE(rk->touched) <= level) {
        PyErr_SetString(PyExc_IndexError,
                        "the first-touch bitmap list changed size");
        return NULL;
    }
    return bitmap_byte(PyList_GET_ITEM(rk->touched, level), index);
}

/* RecursiveFrontend.access between its counters' first and last
 * movement. */
static int
rk_run(RecursiveKernel *rk, PyObject *addr_obj, long long addr, PyObject *op,
       PyObject *data, PyObject **data_out)
{
    const int top = rk->num_levels - 1;
    const int write =
        request_is_write(op, data, rk->op_read, rk->op_write,
                         rk->config_error, RK_TREE(rk, 0)->block_bytes);
    if (write < 0)
        return -1;
    tally(&rk->stats, C_ACCESSES, 1);
    unsigned long long chain[FK_MAX_LEVELS];
    if (request_chain(addr_obj, addr, rk->num_blocks, rk->fanout,
                      rk->num_levels, chain) < 0)
        return -1;

    const OnChip chip = {rk->onchip_table.data, rk->onchip_touched,
                         rk->getrandbits, rk->onchip_entries,
                         RK_TREE(rk, top)->levels};
    long long leaf, new_leaf;
    if (onchip_leaf_remap(&chip, chain[top], &leaf, &new_leaf) < 0)
        return -1;

    /* ORam_{H-1} down to ORam_1: each supplies, and remaps, the leaf of
     * the next block down. */
    for (int level = top; level >= 1; level--) {
        const unsigned long long child = chain[level - 1];
        const int child_levels = RK_TREE(rk, level - 1)->levels;
        const uint8_t bit = (uint8_t)(1u << (child & 7));
        uint8_t *byte = rk_touched_byte(rk, level - 1, child);
        if (byte == NULL)
            return -1;
        const int fresh = !(*byte & bit);

        LabelVisit visit = {
            {label_visit}, rk->getrandbits, child_levels, rk->leaf_bytes,
            (Py_ssize_t)(child % (unsigned long long)rk->fanout) *
                rk->leaf_bytes,
            0, 0};
        if (tree_access(RK_TREE(rk, level), 0, (long long)chain[level], leaf,
                        new_leaf, &visit.base) < 0)
            return -1;
        tally(&rk->stats, C_POSMAP_TREE, 1);
        leaf = visit.old_leaf;
        new_leaf = visit.new_leaf;
        if (fresh) {
            /* Never written: the label factory initialisation would
             * have left there, drawn where the interpreted access
             * draws it. */
            if (random_leaf(rk->getrandbits, child_levels, &leaf) < 0 ||
                (byte = rk_touched_byte(rk, level - 1, child)) == NULL)
                return -1;
            *byte |= bit;
        }
    }

    tally(&rk->stats, C_DATA_TREE, 1);
    if (!write && data_out == NULL)
        return tree_access(RK_TREE(rk, 0), 0, (long long)chain[0], leaf,
                           new_leaf, NULL);
    PayloadVisit visit = {{payload_visit}, write ? data : NULL, NULL};
    int rc = tree_access(RK_TREE(rk, 0), 0, (long long)chain[0], leaf,
                         new_leaf, &visit.base);
    if (rc == 0 && data_out != NULL)
        *data_out = visit.data_out;
    else
        Py_XDECREF(visit.data_out);
    return rc;
}

static int
rk_enter(PyObject *handle)
{
    RecursiveKernel *rk = (RecursiveKernel *)handle;
    const int levels = rk->num_levels;
    PyObject *backends[FK_MAX_LEVELS];
    PyObject *frontend = PyWeakref_GetObject(rk->frontend_ref);
    if (frontend == NULL)
        return -1;
    int busy = rk->busy;
    for (int i = 0; i < levels; i++) {
        backends[i] = PyWeakref_GetObject(RK_TREE(rk, i)->backend_ref);
        if (backends[i] == NULL)
            return -1;
        if (frontend == Py_None || backends[i] == Py_None) {
            raise_owner_gone();
            return -1;
        }
        busy |= RK_TREE(rk, i)->busy;
    }
    if (busy) {
        raise_reentrant();
        return -1;
    }
    for (int i = 0; i < levels; i++) {
        if (kernel_hold(RK_TREE(rk, i), backends[i]) < 0) {
            while (i-- > 0)
                kernel_drop(RK_TREE(rk, i));
            return -1;
        }
    }
    rk->busy = 1;
    return 0;
}

static void
rk_leave(PyObject *handle)
{
    RecursiveKernel *rk = (RecursiveKernel *)handle;
    for (int i = 0; i < rk->num_levels; i++)
        kernel_drop(RK_TREE(rk, i));
    rk->busy = 0;
}

static int
rk_request(PyObject *handle, PyObject *addr_obj, long long addr, PyObject *op,
           PyObject *data, PyObject **data_out, long *posmap_out,
           int *hit_level_out)
{
    RecursiveKernel *rk = (RecursiveKernel *)handle;
    int rc = rk_run(rk, addr_obj, addr, op, data, data_out);
    if (rc < 0 && data_out != NULL)
        Py_CLEAR(*data_out);
    *posmap_out = rk->num_levels - 1;
    *hit_level_out = -1; /* AccessResult's default: there is no PLB */
    return rc;
}

static const HandleOps recursive_ops = {rk_enter, rk_request, rk_leave};

static PyObject *
recursive_access(RecursiveKernel *self, PyObject *const *args,
                 Py_ssize_t nargs)
{
    return handle_access(&recursive_ops, (PyObject *)self, self->result_type,
                         args, nargs);
}

static PyMethodDef recursive_methods[] = {
    {"access", (PyCFunction)(void (*)(void))recursive_access, METH_FASTCALL,
     "access(addr, op, data) -> AccessResult: one whole processor "
     "request."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject RecursiveKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.native._replay_core.RecursiveKernel",
    .tp_basicsize = sizeof(RecursiveKernel),
    .tp_dealloc = (destructor)recursive_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Native Recursive ORAM kernel bound to one RecursiveFrontend "
              "and its per-level backends' AccessKernels (see "
              "RecursiveFrontend.enable_native_kernel).",
    .tp_traverse = (traverseproc)recursive_traverse,
    .tp_clear = (inquiry)recursive_clear,
    .tp_methods = recursive_methods,
    .tp_new = recursive_new,
};

/* The engaged kernel behind `access` — a new reference through *out,
 * how to drive it through *ops — when `access` is the unpatched bound
 * access of a frontend running on a handle of either type; NULL there
 * when it is anything else. */
static int
frontend_kernel_behind(PyObject *access, PyObject **out, const HandleOps **ops)
{
    *out = NULL;
    if (!PyMethod_Check(access))
        return 0;
    PyObject *frontend = PyMethod_GET_SELF(access);
    PyObject *kernel = PyObject_GetAttr(frontend, str_kernel);
    if (kernel == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            return -1;
        PyErr_Clear();
        return 0;
    }
    PyObject *frontend_ref = NULL, *access_func = NULL;
    if (Py_IS_TYPE(kernel, &FrontendKernelType)) {
        frontend_ref = ((FrontendKernel *)kernel)->frontend_ref;
        access_func = ((FrontendKernel *)kernel)->access_func;
        *ops = &frontend_ops;
    }
    else if (Py_IS_TYPE(kernel, &RecursiveKernelType)) {
        frontend_ref = ((RecursiveKernel *)kernel)->frontend_ref;
        access_func = ((RecursiveKernel *)kernel)->access_func;
        *ops = &recursive_ops;
    }
    if (frontend_ref != NULL &&
        access_func == PyMethod_GET_FUNCTION(access) &&
        PyWeakref_GetObject(frontend_ref) == frontend) {
        *out = kernel;
        return 0;
    }
    Py_DECREF(kernel);
    return 0;
}

/* ------------------------------------------------------------------ */
/* run_access_loop                                                     */
/* ------------------------------------------------------------------ */

/* The running total of the cycles fold: a C double while it is an exact
 * float (`obj` NULL), the object otherwise — `cycles += latency` in event
 * order either way, one IEEE-754 addition per event on the double. */
typedef struct {
    PyObject *obj;
    double value;
} Fold;

static int
fold_add(Fold *fold, PyObject *latency)
{
    if (fold->obj == NULL) {
        if (PyFloat_CheckExact(latency)) {
            fold->value += PyFloat_AS_DOUBLE(latency);
            return 0;
        }
        if ((fold->obj = PyFloat_FromDouble(fold->value)) == NULL)
            return -1;
    }
    /* The generic add (an int start, a latency of another type), which
     * may run Python: hold the operand. */
    Py_INCREF(latency);
    PyObject *next = PyNumber_InPlaceAdd(fold->obj, latency);
    Py_DECREF(latency);
    Py_SETREF(fold->obj, next);
    if (next == NULL)
        return -1;
    if (PyFloat_CheckExact(next)) {
        fold->value = PyFloat_AS_DOUBLE(next);
        Py_CLEAR(fold->obj);
    }
    return 0;
}

/* The latency of an event that took `count` tree accesses — a borrowed
 * reference into `table` (the list indexed by count), where a count not
 * yet seen (past the end, or None) is miss_latency(count), computed once
 * and stored. */
static PyObject *
latency_of(PyObject *table, PyObject *miss_latency, long count)
{
    if (count < 0) {
        PyErr_Format(PyExc_ValueError,
                     "tree_accesses must be >= 0, got %ld", count);
        return NULL;
    }
    if (count < PyList_GET_SIZE(table)) {
        PyObject *latency = PyList_GET_ITEM(table, count);
        if (latency != Py_None)
            return latency;
    }
    PyObject *boxed = PyLong_FromLong(count);
    if (boxed == NULL)
        return NULL;
    PyObject *latency = PyObject_CallOneArg(miss_latency, boxed);
    Py_DECREF(boxed);
    if (latency == NULL)
        return NULL;
    /* miss_latency is Python: the table is re-read after it. */
    while (PyList_GET_SIZE(table) <= count) {
        if (PyList_Append(table, Py_None) < 0) {
            Py_DECREF(latency);
            return NULL;
        }
    }
    /* The list's reference replaces None (or a value miss_latency put
     * there itself). */
    PyObject *old = PyList_GET_ITEM(table, count);
    PyList_SET_ITEM(table, count, latency);
    Py_DECREF(old);
    return latency;
}

/* The replay loop, one slice of it: for each of the `n` events of the
 * int64 line column `line` and the int8 write column `write`, the block
 * address line // lpb, the request access(block, write_op, payload) or
 * access(block, read_op), its latency looked up by tree-access count in
 * `table` (see latency_of), appended to `latencies` when that is a list
 * (None: not kept) and folded onto `fold`.  `kernel` (NULL: none) is the
 * frontend kernel behind `access`, driven C to C through `ops` — no
 * Python frame, no AccessResult and no boxed address per event, one
 * entry (owners held, observers read) for the whole slice; anything
 * else — another frontend, a patched or wrapped access — gets the
 * generic calls.  The one loop run_access_loop and ServeKernel.epoch
 * both run.  0, or -1 with the exception set and the frontend's state
 * where the failing request left it. */
static int
replay_events(PyObject *access, PyObject *kernel, const HandleOps *ops,
              const long long *line, const int8_t *write, Py_ssize_t n,
              long long lpb, PyObject *read_op, PyObject *write_op,
              PyObject *payload, PyObject *table, PyObject *miss_latency,
              Fold *fold, PyObject *latencies)
{
    if (kernel != NULL && ops->enter(kernel) < 0)
        return -1;
    const int pow2 = (lpb & (lpb - 1)) == 0;
    const int shift = bit_length64(lpb) - 1;
    int rc = -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        /* Arithmetic shift == floor division for a power-of-two divisor;
         * any other uses Python floor semantics. */
        const long long addr =
            pow2 ? line[i] >> shift : floordiv64(line[i], lpb);
        const int w = write[i] != 0;
        long count;
        if (kernel != NULL) {
            int hit_level;
            if (ops->request(kernel, NULL, addr, w ? write_op : read_op,
                             w ? payload : Py_None, NULL, &count,
                             &hit_level) < 0)
                goto done;
            count += 1;
        }
        else {
            PyObject *boxed = PyLong_FromLongLong(addr);
            if (boxed == NULL)
                goto done;
            PyObject *result =
                w ? PyObject_CallFunctionObjArgs(access, boxed, write_op,
                                                 payload, NULL)
                  : PyObject_CallFunctionObjArgs(access, boxed, read_op,
                                                 NULL);
            Py_DECREF(boxed);
            if (result == NULL)
                goto done;
            PyObject *ta = PyObject_GetAttr(result, str_tree_accesses);
            Py_DECREF(result);
            if (ta == NULL)
                goto done;
            if (!PyLong_Check(ta)) {
                PyErr_Format(PyExc_TypeError,
                             "tree_accesses must be an int, not %.100s",
                             Py_TYPE(ta)->tp_name);
                Py_DECREF(ta);
                goto done;
            }
            count = PyLong_AsLong(ta);
            Py_DECREF(ta);
            if (count == -1 && PyErr_Occurred())
                goto done;
        }
        PyObject *latency = latency_of(table, miss_latency, count);
        if (latency == NULL ||
            (latencies != Py_None && PyList_Append(latencies, latency) < 0) ||
            fold_add(fold, latency) < 0)
            goto done;
    }
    rc = 0;

done:
    if (kernel != NULL)
        ops->leave(kernel);
    return rc;
}

/* The fold's start: `cycles` as a C double when it is an exact float. */
static void
fold_start(Fold *fold, PyObject *cycles)
{
    fold->obj = NULL;
    fold->value = 0.0;
    if (PyFloat_CheckExact(cycles))
        fold->value = PyFloat_AS_DOUBLE(cycles);
    else
        fold->obj = Py_NewRef(cycles);
}

/* The fold's total as a new reference (consumes the fold). */
static PyObject *
fold_result(Fold *fold)
{
    return fold->obj != NULL ? fold->obj : PyFloat_FromDouble(fold->value);
}

/* run_access_loop(access, line_addrs, is_write, lines_per_block, read_op,
 *                 write_op, payload, table, miss_latency, cycles,
 *                 latencies) -> cycles
 *
 * One replay slice, whole: replay_events over the line and write
 * columns (zip: the shorter one ends the slice), with the frontend
 * kernel behind `access` when there is one, from `cycles`.  Returns the
 * new total — `cycles` itself for an empty slice.  On an error the
 * exception propagates and the caller's total stays what it was. */
static PyObject *
run_access_loop(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 11) {
        PyErr_Format(PyExc_TypeError,
                     "run_access_loop expects 11 positional arguments, "
                     "got %zd", nargs);
        return NULL;
    }
    PyObject *access = args[0], *cycles = args[9], *latencies = args[10];
    const long long lpb = PyLong_AsLongLong(args[3]);
    if (lpb == -1 && PyErr_Occurred())
        return NULL;
    if (lpb < 1) {
        PyErr_Format(PyExc_ValueError,
                     "lines_per_block must be >= 1, got %lld", lpb);
        return NULL;
    }
    if (!PyList_CheckExact(args[7])) {
        PyErr_SetString(PyExc_TypeError, "table must be a list");
        return NULL;
    }
    if (latencies != Py_None && !PyList_CheckExact(latencies)) {
        PyErr_SetString(PyExc_TypeError, "latencies must be a list or None");
        return NULL;
    }
    Col lines, writes;
    if (col_acquire(args[1], &lines, "line_addrs", &COL_I64, 0) < 0)
        return NULL;
    if (col_acquire(args[2], &writes, "is_write", &COL_FLAG, 0) < 0) {
        col_release(&lines);
        return NULL;
    }
    const Py_ssize_t n = Py_MIN(lines.len, writes.len);
    PyObject *kernel = NULL, *result = NULL;
    const HandleOps *ops = NULL;
    Fold fold;
    if (n == 0)
        result = Py_NewRef(cycles);
    else if (frontend_kernel_behind(access, &kernel, &ops) == 0) {
        fold_start(&fold, cycles);
        if (replay_events(access, kernel, ops, lines.data, writes.data, n,
                          lpb, args[4], args[5], args[6], args[7], args[8],
                          &fold, latencies) == 0)
            result = fold_result(&fold);
        else
            Py_XDECREF(fold.obj);
        Py_XDECREF(kernel);
    }
    col_release(&lines);
    col_release(&writes);
    return result;
}

/* ------------------------------------------------------------------ */
/* ServeKernel / serve_fold / route_column: serve on columns           */
/* ------------------------------------------------------------------ */

/* An epoch of repro.serve.server.OramService is three steps — admit,
 * execute every shard, account — and on the fast tier the first two are
 * one ServeKernel.epoch call and the log's fold is one serve_fold call.
 * Both transcribe the interpreted reference (OramService._admit_rows,
 * OramShard.execute, OramService._fold_rows), checked epoch by epoch by
 * tests/test_serve_columns.py::TestColumnsInLockstep.
 *
 * A shard's log is three fixed-size columns — tenant index (int64),
 * shard-local address (int64), write flag (int8) — that admission fills
 * from row 0 after each fold, plus what execution appends: the latency
 * list (one float per row) and the wall list (one float per batch of
 * max_batch rows).  `ends` is epoch-major: one entry per shard per
 * logged epoch, that shard's fill after the epoch's admission, so the
 * epoch's queue on shard s is the rows between its previous end and this
 * one.  The shard directory is one int32 column over the service's
 * address space, shared by every shard (an address routes to one shard):
 * an address's local one, or a negative value before its first touch,
 * which takes the next dense one, its shard ledger's `mapped`. */

/* One tenant's stream: global addresses, write flags and shard routes,
 * and the tenant's ledger, whose `issued` is the stream cursor; an epoch
 * offers rows [cursor, stop). */
typedef struct {
    Col addrs, writes, routes, ledger;
    Py_ssize_t cursor, stop;
} ServeStream;

/* One shard: its log and ledger, and what its batches run on — the
 * engine (whose cycles and events they move), the frontend's access and
 * the kernel behind it (NULL: none, `access` is called), the timing
 * model's latency table and miss_latency, and the WRITE payload.  The
 * epoch's queue is rows [start, fill) of the log; `routed` counts the
 * offered rows routed here. */
typedef struct {
    Col tenants, addrs, writes, ledger;
    union {
        struct {
            PyObject *latencies, *walls;
            /* The engine row, in its tuple's order. */
            PyObject *engine, *access, *table, *miss_latency, *payload;
            PyObject *kernel;
        };
        PyObject *refs[8]; /* the same references, for the collector */
    };
    const HandleOps *ops;
    Py_ssize_t start, fill, routed;
} ServeShard;

#define SHARD_REFS (sizeof(((ServeShard *)0)->refs) / sizeof(PyObject *))

typedef struct {
    PyObject_HEAD
    ServeStream *stream;
    ServeShard *shard;
    Py_ssize_t tenants, shards, capacity, max_batch;
    int shed, busy;
    Col directory; /* not acquired: a one-shard pool's identity map */
    PyObject *ends, *clock, *read_op, *write_op;
} ServeKernel;

static PyObject *str_cycles, *str_events;

/* Item `i` of a list as a Py_ssize_t in [low, high], or -1 with an
 * exception set (`what` and `index` name it). */
static Py_ssize_t
list_index(PyObject *list, Py_ssize_t i, Py_ssize_t low, Py_ssize_t high,
           const char *what, Py_ssize_t index)
{
    Py_ssize_t value = PyLong_AsSsize_t(PyList_GET_ITEM(list, i));
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (value < low || value > high) {
        PyErr_Format(PyExc_ValueError, "%s %zd is %zd, outside [%zd, %zd]",
                     what, index, value, low, high);
        return -1;
    }
    return value;
}

/* A shard's three log columns, acquired: equally long, and that length
 * (its room) stored in `room`. */
static int
log_acquire(PyObject *row, Col *tenants, Col *addrs, Col *writes,
            int writable, Py_ssize_t s, Py_ssize_t *room)
{
    if (col_acquire(PyTuple_GET_ITEM(row, 0), tenants, "a log's tenants",
                    &COL_I64, writable) < 0 ||
        col_acquire(PyTuple_GET_ITEM(row, 1), addrs, "a log's addrs",
                    &COL_I64, writable) < 0 ||
        col_acquire(PyTuple_GET_ITEM(row, 2), writes, "a log's writes",
                    &COL_FLAG, writable) < 0)
        return -1;
    if (tenants->len != addrs->len || tenants->len != writes->len) {
        PyErr_Format(PyExc_ValueError,
                     "shard %zd's log columns differ in length "
                     "(%zd tenants, %zd addrs, %zd writes)",
                     s, tenants->len, addrs->len, writes->len);
        return -1;
    }
    *room = tenants->len;
    return 0;
}

/* Item `i` of `list` as a new reference to a tuple of `size` items, or
 * NULL with a TypeError naming `shape`. */
static PyObject *
list_row(PyObject *list, Py_ssize_t i, Py_ssize_t size, const char *what,
         const char *shape)
{
    PyObject *row = i < PyList_GET_SIZE(list) ? PyList_GET_ITEM(list, i) : NULL;
    if (row == NULL || !PyTuple_Check(row) || PyTuple_GET_SIZE(row) != size) {
        PyErr_Format(PyExc_TypeError, "ServeKernel: %s %zd must be a tuple %s",
                     what, i, shape);
        return NULL;
    }
    return Py_NewRef(row);
}

static int
serve_kernel_clear(ServeKernel *self)
{
    for (Py_ssize_t t = 0; self->stream != NULL && t < self->tenants; t++) {
        ServeStream *st = &self->stream[t];
        col_release(&st->addrs);
        col_release(&st->writes);
        col_release(&st->routes);
        col_release(&st->ledger);
    }
    for (Py_ssize_t s = 0; self->shard != NULL && s < self->shards; s++) {
        ServeShard *sh = &self->shard[s];
        col_release(&sh->tenants);
        col_release(&sh->addrs);
        col_release(&sh->writes);
        col_release(&sh->ledger);
        for (size_t k = 0; k < SHARD_REFS; k++)
            Py_CLEAR(sh->refs[k]);
    }
    PyMem_Free(self->stream);
    PyMem_Free(self->shard);
    self->stream = NULL;
    self->shard = NULL;
    self->tenants = self->shards = 0;
    col_release(&self->directory);
    Py_CLEAR(self->ends);
    Py_CLEAR(self->clock);
    Py_CLEAR(self->read_op);
    Py_CLEAR(self->write_op);
    return 0;
}

static int
serve_kernel_traverse(ServeKernel *self, visitproc visit, void *arg)
{
    for (Py_ssize_t s = 0; self->shard != NULL && s < self->shards; s++)
        for (size_t k = 0; k < SHARD_REFS; k++)
            Py_VISIT(self->shard[s].refs[k]);
    Py_VISIT(self->ends);
    Py_VISIT(self->clock);
    Py_VISIT(self->read_op);
    Py_VISIT(self->write_op);
    return 0;
}

static void
serve_kernel_dealloc(ServeKernel *self)
{
    PyObject_GC_UnTrack(self);
    serve_kernel_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* ServeKernel(streams, logs, engines, ends, directory, capacity, shed,
 *             max_batch, clock, read_op, write_op)
 *
 * streams: [(addrs int64, writes int8, routes int64, ledger int64), ...],
 * one per tenant; logs: [(tenants int64, addrs int64, writes int8,
 * latencies list, walls list, ledger int64), ...], one per shard, the
 * columns writable; engines: [(engine, access, table list, miss_latency,
 * payload), ...], one per shard; ends: the list of the shards' fills;
 * directory: a writable int32 column, or None (a one-shard pool's
 * identity map); clock: the wall clock, called with no arguments.  Every
 * column is acquired and checked here, once, and held for the kernel's
 * life: exported, so CPython refuses to resize it, and read through the
 * pointer taken here (the ledgers hold exactly their slots).  The
 * frontend kernel behind each `access` is looked up here too. */
static PyObject *
serve_kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    PyObject *streams, *logs, *engines, *ends, *directory, *clock, *read_op,
        *write_op;
    Py_ssize_t capacity, max_batch;
    int shed;
    if ((kwargs != NULL && PyDict_GET_SIZE(kwargs) != 0) ||
        !PyArg_ParseTuple(args, "O!O!O!O!OnpnOOO:ServeKernel", &PyList_Type,
                          &streams, &PyList_Type, &logs, &PyList_Type,
                          &engines, &PyList_Type, &ends, &directory,
                          &capacity, &shed, &max_batch, &clock, &read_op,
                          &write_op)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "ServeKernel takes positional arguments only");
        return NULL;
    }
    const Py_ssize_t tenants = PyList_GET_SIZE(streams),
                     shards = PyList_GET_SIZE(logs);
    if (shards == 0 || PyList_GET_SIZE(engines) != shards) {
        PyErr_Format(PyExc_ValueError,
                     "ServeKernel needs at least one shard and one engine "
                     "per shard (%zd engines for %zd shards)",
                     PyList_GET_SIZE(engines), shards);
        return NULL;
    }
    if (capacity < 1 || max_batch < 1) {
        PyErr_Format(PyExc_ValueError,
                     "queue capacity and max_batch must be >= 1, got %zd "
                     "and %zd", capacity, max_batch);
        return NULL;
    }
    if (!PyCallable_Check(clock)) {
        PyErr_SetString(PyExc_TypeError, "ServeKernel: clock must be callable");
        return NULL;
    }
    ServeKernel *self = (ServeKernel *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->stream = PyMem_Calloc(tenants ? tenants : 1, sizeof(ServeStream));
    self->shard = PyMem_Calloc(shards, sizeof(ServeShard));
    if (self->stream == NULL || self->shard == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    self->tenants = tenants;
    self->shards = shards;
    self->capacity = capacity;
    self->shed = shed;
    self->max_batch = max_batch;
    self->ends = Py_NewRef(ends);
    self->clock = Py_NewRef(clock);
    self->read_op = Py_NewRef(read_op);
    self->write_op = Py_NewRef(write_op);
    if (directory != Py_None &&
        col_acquire(directory, &self->directory, "the directory", &COL_I32,
                    1) < 0)
        goto fail;
    for (Py_ssize_t t = 0; t < tenants; t++) {
        ServeStream *st = &self->stream[t];
        PyObject *row = list_row(streams, t, 4, "stream",
                                 "(addrs, writes, routes, ledger)");
        if (row == NULL)
            goto fail;
        int rc = col_acquire(PyTuple_GET_ITEM(row, 0), &st->addrs,
                             "a stream's addrs", &COL_I64, 0) < 0 ||
                 col_acquire(PyTuple_GET_ITEM(row, 1), &st->writes,
                             "a stream's writes", &COL_FLAG, 0) < 0 ||
                 col_acquire(PyTuple_GET_ITEM(row, 2), &st->routes,
                             "a stream's routes", &COL_I64, 0) < 0 ||
                 col_acquire_fixed(PyTuple_GET_ITEM(row, 3), &st->ledger,
                                   "a tenant's ledger", &COL_I64,
                                   N_TENANT_SLOTS, 0) < 0;
        Py_DECREF(row);
        if (rc)
            goto fail;
        if (st->writes.len != st->addrs.len || st->routes.len != st->addrs.len) {
            PyErr_Format(PyExc_ValueError,
                         "stream %zd's columns differ in length (%zd addrs, "
                         "%zd writes, %zd routes)",
                         t, st->addrs.len, st->writes.len, st->routes.len);
            goto fail;
        }
    }
    for (Py_ssize_t s = 0; s < shards; s++) {
        ServeShard *sh = &self->shard[s];
        Py_ssize_t room;
        PyObject *row = list_row(logs, s, 6, "log",
                                 "(tenants, addrs, writes, latencies list, "
                                 "walls list, ledger)");
        if (row == NULL)
            goto fail;
        sh->latencies = Py_NewRef(PyTuple_GET_ITEM(row, 3));
        sh->walls = Py_NewRef(PyTuple_GET_ITEM(row, 4));
        int rc = log_acquire(row, &sh->tenants, &sh->addrs, &sh->writes, 1, s,
                             &room) < 0 ||
                 col_acquire_fixed(PyTuple_GET_ITEM(row, 5), &sh->ledger,
                                   "a shard's ledger", &COL_I64,
                                   N_SHARD_SLOTS, 0) < 0;
        Py_DECREF(row);
        if (rc)
            goto fail;
        if (!PyList_CheckExact(sh->latencies) || !PyList_CheckExact(sh->walls)) {
            PyErr_Format(PyExc_TypeError,
                         "ServeKernel: log %zd's latencies and walls must be "
                         "lists", s);
            goto fail;
        }
        if ((row = list_row(engines, s, 5, "engine",
                            "(engine, access, table, miss_latency, "
                            "payload)")) == NULL)
            goto fail;
        for (int k = 0; k < 5; k++) /* refs[2..6]: engine .. payload */
            sh->refs[2 + k] = Py_NewRef(PyTuple_GET_ITEM(row, k));
        Py_DECREF(row);
        if (!PyList_CheckExact(sh->table)) {
            PyErr_SetString(PyExc_TypeError, "table must be a list");
            goto fail;
        }
        if (frontend_kernel_behind(sh->access, &sh->kernel, &sh->ops) < 0)
            goto fail;
    }
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

/* One epoch's admission (OramService._admit_rows): tenants in index
 * order, tenant t's offer — offers[t], or min(burst, rows left) when
 * `offers` is NULL — from its cursor in stream order, each row appended
 * to its routed shard's log: the tenant, the address (through the
 * directory when there is one) and the write flag.  A row whose shard
 * already admitted `capacity` rows this epoch is shed (counted, the
 * cursor moves on) or deferred (counted, the tenant stops until the next
 * epoch).  Moves each tenant's ledger (issued, the cursor; shed;
 * deferred) and each shard's (shed; deferred; the depth sample, total
 * and max; mapped), leaves each shard's queue in [start, fill), appends
 * the fills to `ends` and returns how far the cursors moved.
 *
 * Everything is checked before any row moves: the ends, each offered
 * window inside its stream, its routes in [0, shards), its addresses
 * inside the directory (>= 0 without one), and room in each log for the
 * most the epoch can admit there.  Each row re-checks what it indexes
 * with: a column can alias another, so one written here can be one
 * read here.  Runs no Python. */
static Py_ssize_t
serve_admit(ServeKernel *self, PyObject *offers, Py_ssize_t burst)
{
    const Py_ssize_t tenants = self->tenants, shards = self->shards,
                     capacity = self->capacity, n = PyList_GET_SIZE(self->ends);
    const long long bound =
        self->directory.acquired ? self->directory.len : LLONG_MAX;
    if (offers != NULL && PyList_GET_SIZE(offers) != tenants) {
        PyErr_Format(PyExc_ValueError,
                     "admission needs one offer per tenant (%zd offers for "
                     "%zd tenants)", PyList_GET_SIZE(offers), tenants);
        return -1;
    }
    if (n % shards != 0) {
        PyErr_Format(PyExc_ValueError,
                     "ends holds %zd entries, not a multiple of %zd shards",
                     n, shards);
        return -1;
    }
    for (Py_ssize_t s = 0; s < shards; s++) {
        ServeShard *sh = &self->shard[s];
        const Py_ssize_t fill =
            n == 0 ? 0 : list_index(self->ends, n - shards + s, 0,
                                    sh->tenants.len, "the end of shard", s);
        if (fill < 0)
            return -1;
        sh->start = sh->fill = fill;
        sh->routed = 0;
    }
    for (Py_ssize_t t = 0; t < tenants; t++) {
        ServeStream *st = &self->stream[t];
        const Py_ssize_t length = st->addrs.len;
        const long long cursor = ((long long *)st->ledger.data)[TEN_ISSUED];
        if (cursor < 0 || cursor > length) {
            PyErr_Format(PyExc_ValueError,
                         "stream %zd's cursor %lld is outside its %zd rows",
                         t, cursor, length);
            return -1;
        }
        st->cursor = (Py_ssize_t)cursor;
        const Py_ssize_t offer =
            offers != NULL ? list_index(offers, t, 0, length - st->cursor,
                                        "the offer of stream", t)
                           : Py_MIN(burst, length - st->cursor);
        if (offer < 0)
            return -1;
        st->stop = st->cursor + offer;
        const long long *addr = st->addrs.data, *route = st->routes.data;
        for (Py_ssize_t c = st->cursor; c < st->stop; c++) {
            if (route[c] < 0 || route[c] >= shards) {
                PyErr_Format(PyExc_ValueError,
                             "stream %zd row %zd routes to shard %lld of %zd",
                             t, c, route[c], shards);
                return -1;
            }
            if (addr[c] < 0 || addr[c] >= bound) {
                PyErr_Format(PyExc_ValueError,
                             "stream %zd row %zd has address %lld outside "
                             "the directory's [0, %lld)",
                             t, c, addr[c], bound);
                return -1;
            }
            self->shard[route[c]].routed++;
        }
    }
    for (Py_ssize_t s = 0; s < shards; s++) {
        ServeShard *sh = &self->shard[s];
        const Py_ssize_t most = Py_MIN(capacity, sh->routed);
        if (most > sh->tenants.len - sh->fill) {
            PyErr_Format(PyExc_ValueError,
                         "shard %zd's log has room for %zd more rows and "
                         "the epoch may admit %zd there",
                         s, sh->tenants.len - sh->fill, most);
            return -1;
        }
    }

    Py_ssize_t consumed = 0;
    int32_t *directory = self->directory.acquired ? self->directory.data : NULL;
    for (Py_ssize_t t = 0; t < tenants; t++) {
        ServeStream *st = &self->stream[t];
        const long long *addr = st->addrs.data, *route = st->routes.data;
        const int8_t *write = st->writes.data;
        Py_ssize_t c = st->cursor;
        for (; c < st->stop; c++) {
            if (route[c] < 0 || route[c] >= shards) {
                PyErr_Format(PyExc_ValueError,
                             "stream %zd row %zd's route changed during "
                             "admission", t, c);
                return -1;
            }
            ServeShard *sh = &self->shard[route[c]];
            if (sh->fill - sh->start >= capacity) {
                tally(&st->ledger, self->shed ? TEN_SHED : TEN_DEFERRED, 1);
                tally(&sh->ledger, self->shed ? SHD_SHED : SHD_DEFERRED, 1);
                if (self->shed)
                    continue;
                break; /* retried next epoch */
            }
            if (sh->fill >= sh->tenants.len) {
                PyErr_Format(PyExc_ValueError,
                             "shard %lld's log filled up during admission",
                             route[c]);
                return -1;
            }
            long long local = addr[c];
            if (local < 0 || local >= bound) {
                PyErr_Format(PyExc_ValueError,
                             "stream %zd row %zd's address changed during "
                             "admission", t, c);
                return -1;
            }
            if (directory != NULL) {
                if (directory[local] < 0) {
                    long long *mapped = (long long *)sh->ledger.data + SHD_MAPPED;
                    if (*mapped < 0 || *mapped > INT32_MAX) {
                        PyErr_Format(PyExc_ValueError,
                                     "shard %lld's directory has mapped %lld "
                                     "addresses", route[c], *mapped);
                        return -1;
                    }
                    directory[local] = (int32_t)(*mapped)++;
                }
                local = directory[local];
            }
            ((long long *)sh->tenants.data)[sh->fill] = t;
            ((long long *)sh->addrs.data)[sh->fill] = local;
            ((int8_t *)sh->writes.data)[sh->fill] = write[c];
            sh->fill++;
        }
        tally(&st->ledger, TEN_ISSUED, c - st->cursor);
        consumed += c - st->cursor;
    }
    for (Py_ssize_t s = 0; s < shards; s++) {
        ServeShard *sh = &self->shard[s];
        const long long depth = sh->fill - sh->start;
        long long *ledger = sh->ledger.data;
        tally(&sh->ledger, SHD_DEPTH_SAMPLES, 1);
        tally(&sh->ledger, SHD_DEPTH_TOTAL, depth);
        if (depth > ledger[SHD_DEPTH_MAX])
            ledger[SHD_DEPTH_MAX] = depth;
        PyObject *end = PyLong_FromSsize_t(sh->fill);
        int rc = end == NULL ? -1 : PyList_Append(self->ends, end);
        Py_XDECREF(end);
        if (rc < 0)
            return -1;
    }
    return consumed;
}

/* (now - stamp) * 1e6 as the interpreted expression computes it: in C
 * doubles for two exact floats, by the generic operators otherwise. */
static PyObject *
wall_us(PyObject *now, PyObject *stamp)
{
    if (PyFloat_CheckExact(now) && PyFloat_CheckExact(stamp))
        return PyFloat_FromDouble(
            (PyFloat_AS_DOUBLE(now) - PyFloat_AS_DOUBLE(stamp)) * 1e6);
    PyObject *span = PyNumber_Subtract(now, stamp);
    PyObject *scale = span == NULL ? NULL : PyFloat_FromDouble(1e6);
    PyObject *wall = scale == NULL ? NULL : PyNumber_Multiply(span, scale);
    Py_XDECREF(span);
    Py_XDECREF(scale);
    return wall;
}

/* engine.events += n */
static int
add_events(PyObject *engine, Py_ssize_t n)
{
    PyObject *events = PyObject_GetAttr(engine, str_events);
    PyObject *step = events == NULL ? NULL : PyLong_FromSsize_t(n);
    PyObject *sum = step == NULL ? NULL : PyNumber_InPlaceAdd(events, step);
    Py_XDECREF(events);
    Py_XDECREF(step);
    int rc = sum == NULL ? -1 : PyObject_SetAttr(engine, str_events, sum);
    Py_XDECREF(sum);
    return rc;
}

/* One shard's epoch queue drained (OramShard.execute): max_batch rows at
 * a time in ticket order, each batch one replay_events slice of the
 * log's own columns from the engine's cycles, its latencies appended to
 * the log, the engine's cycles and events set, then one clock reading —
 * microseconds since `stamp` — appended to the walls.  The batches and
 * the busy epoch count once the queue is drained.  A batch that raises
 * leaves the engine's totals and the log's latencies as they were before
 * it, as run_batch does. */
static int
serve_execute(ServeKernel *self, ServeShard *sh, PyObject *stamp)
{
    const Py_ssize_t stop = sh->fill;
    if (sh->start == stop)
        return 0;
    const long long *addrs = sh->addrs.data;
    const int8_t *writes = sh->writes.data;
    Py_ssize_t batches = 0, n;
    for (Py_ssize_t first = sh->start; first < stop; first += n, batches++) {
        n = Py_MIN(self->max_batch, stop - first);
        const Py_ssize_t kept = PyList_GET_SIZE(sh->latencies);
        PyObject *cycles = PyObject_GetAttr(sh->engine, str_cycles);
        if (cycles == NULL)
            return -1;
        Fold fold;
        fold_start(&fold, cycles);
        Py_DECREF(cycles);
        if (replay_events(sh->access, sh->kernel, sh->ops, addrs + first,
                          writes + first, n, 1, self->read_op,
                          self->write_op, sh->payload, sh->table,
                          sh->miss_latency, &fold, sh->latencies) < 0) {
            Py_XDECREF(fold.obj);
            PyObject *type, *value, *tb;
            PyErr_Fetch(&type, &value, &tb);
            if (PyList_GET_SIZE(sh->latencies) > kept &&
                PyList_SetSlice(sh->latencies, kept, PY_SSIZE_T_MAX, NULL) < 0)
                PyErr_Clear();
            PyErr_Restore(type, value, tb);
            return -1;
        }
        cycles = fold_result(&fold);
        int rc = cycles == NULL ? -1
                                : PyObject_SetAttr(sh->engine, str_cycles, cycles);
        Py_XDECREF(cycles);
        if (rc < 0 || add_events(sh->engine, n) < 0)
            return -1;
        PyObject *now = PyObject_CallNoArgs(self->clock);
        PyObject *wall = now == NULL ? NULL : wall_us(now, stamp);
        Py_XDECREF(now);
        rc = wall == NULL ? -1 : PyList_Append(sh->walls, wall);
        Py_XDECREF(wall);
        if (rc < 0)
            return -1;
    }
    tally(&sh->ledger, SHD_BATCHES, batches);
    tally(&sh->ledger, SHD_EPOCHS_BUSY, 1);
    return 0;
}

/* A kernel runs one call at a time: a callback of its own epoch (an
 * observer, the clock) cannot admit or run another. */
static int
serve_enter(ServeKernel *self)
{
    if (self->shards == 0) {
        PyErr_SetString(PyExc_ValueError, "this ServeKernel was cleared");
        return -1;
    }
    if (self->busy) {
        PyErr_SetString(PyExc_RuntimeError,
                        "re-entrant ServeKernel call (from a callback of "
                        "its own epoch)");
        return -1;
    }
    self->busy = 1;
    return 0;
}

/* admit(offers) -> rows consumed: one epoch's admission alone. */
static PyObject *
serve_kernel_admit(ServeKernel *self, PyObject *offers)
{
    if (!PyList_Check(offers)) {
        PyErr_SetString(PyExc_TypeError, "admit: offers must be a list");
        return NULL;
    }
    if (serve_enter(self) < 0)
        return NULL;
    const Py_ssize_t consumed = serve_admit(self, offers, 0);
    self->busy = 0;
    return consumed < 0 ? NULL : PyLong_FromSsize_t(consumed);
}

/* epoch(burst) -> rows admitted: one whole epoch but its accounting — the
 * admission stamp (one clock reading), the admission of up to `burst`
 * rows per tenant, and every shard's queue drained in shard order.  An
 * exception leaves everything where the interpreted steps leave it. */
static PyObject *
serve_kernel_epoch(ServeKernel *self, PyObject *arg)
{
    const Py_ssize_t burst = PyLong_AsSsize_t(arg);
    if (burst == -1 && PyErr_Occurred())
        return NULL;
    if (burst < 1) {
        PyErr_Format(PyExc_ValueError, "burst must be >= 1, got %zd", burst);
        return NULL;
    }
    if (serve_enter(self) < 0)
        return NULL;
    PyObject *result = NULL, *stamp = PyObject_CallNoArgs(self->clock);
    if (stamp != NULL && serve_admit(self, NULL, burst) >= 0) {
        Py_ssize_t admitted = 0, s = 0;
        for (; s < self->shards; s++)
            admitted += self->shard[s].fill - self->shard[s].start;
        for (s = 0; s < self->shards; s++)
            if (serve_execute(self, &self->shard[s], stamp) < 0)
                break;
        if (s == self->shards)
            result = PyLong_FromSsize_t(admitted);
    }
    Py_XDECREF(stamp);
    self->busy = 0;
    return result;
}

/* Requests not yet admitted or shed: each stream's rows past its cursor
 * (clamped to the stream). */
static PyObject *
serve_kernel_unserved(ServeKernel *self, void *closure)
{
    Py_ssize_t left = 0;
    for (Py_ssize_t t = 0; t < self->tenants; t++) {
        const ServeStream *st = &self->stream[t];
        const long long cursor = ((long long *)st->ledger.data)[TEN_ISSUED];
        if (cursor >= 0 && cursor < st->addrs.len)
            left += st->addrs.len - (Py_ssize_t)cursor;
        else if (cursor < 0)
            left += st->addrs.len;
    }
    return PyLong_FromSsize_t(left);
}

static PyMethodDef serve_kernel_methods[] = {
    {"admit", (PyCFunction)serve_kernel_admit, METH_O,
     "admit(offers) -> rows consumed: one epoch's FIFO admission, tenant t "
     "offering offers[t] rows from its cursor."},
    {"epoch", (PyCFunction)serve_kernel_epoch, METH_O,
     "epoch(burst) -> rows admitted: the admission stamp, the admission of "
     "up to burst rows per tenant and every shard's queue executed."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef serve_kernel_getset[] = {
    {"unserved", (getter)serve_kernel_unserved, NULL,
     "Requests not yet admitted or shed, over every stream.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject ServeKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.native._replay_core.ServeKernel",
    .tp_basicsize = sizeof(ServeKernel),
    .tp_dealloc = (destructor)serve_kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "One serve run's admission and execution over held columns "
              "(see OramService._epochs).",
    .tp_traverse = (traverseproc)serve_kernel_traverse,
    .tp_clear = (inquiry)serve_kernel_clear,
    .tp_methods = serve_kernel_methods,
    .tp_getset = serve_kernel_getset,
    .tp_new = serve_kernel_new,
};

/* route_column(addrs, routes, shards): routes[i] = the CRC-32 of
 * addrs[i]'s eight little-endian (two's complement) bytes, mod shards —
 * zlib.crc32(addr.to_bytes(8, "little", signed=True)) % shards, one
 * table-driven CRC per address (crc_table: the reflected polynomial
 * 0xEDB88320, zlib's). */
static uint32_t crc_table[256];

static PyObject *
route_column(PyObject *self, PyObject *args)
{
    PyObject *addrs_obj, *routes_obj;
    Py_ssize_t shards;
    if (!PyArg_ParseTuple(args, "OOn:route_column", &addrs_obj, &routes_obj,
                          &shards))
        return NULL;
    if (shards < 1) {
        PyErr_Format(PyExc_ValueError, "shards must be >= 1, got %zd", shards);
        return NULL;
    }
    Col addrs, routes;
    if (col_acquire(addrs_obj, &addrs, "addrs", &COL_I64, 0) < 0)
        return NULL;
    if (col_acquire(routes_obj, &routes, "routes", &COL_I64, 1) < 0) {
        col_release(&addrs);
        return NULL;
    }
    PyObject *result = NULL;
    if (addrs.len != routes.len)
        PyErr_Format(PyExc_ValueError,
                     "%zd routes for %zd addresses", routes.len, addrs.len);
    else {
        const long long *addr = addrs.data;
        long long *route = routes.data;
        for (Py_ssize_t i = 0; i < addrs.len; i++) {
            const uint64_t word = (uint64_t)addr[i];
            uint32_t crc = 0xFFFFFFFFu;
            for (int k = 0; k < 8; k++)
                crc = crc_table[(crc ^ (uint32_t)(word >> (8 * k))) & 0xFF] ^
                      (crc >> 8);
            route[i] = (long long)((~crc) % (uint64_t)shards);
        }
        result = Py_NewRef(Py_None);
    }
    col_release(&addrs);
    col_release(&routes);
    return result;
}

/* What LatencyHistogram.record_many of one fold's values adds to one
 * histogram: the count, the left-fold total from the histogram's own,
 * the first minimum and the first maximum, and the bucket counts —
 * int(v).bit_length() — dense below FOLD_DENSE and in a dict above. */
#define FOLD_DENSE 64

typedef struct {
    Py_ssize_t count;
    double total, low, high;
    Py_ssize_t dense[FOLD_DENSE];
    PyObject *sparse;
} FoldHist;

/* Record `value`: 0, or 1 for a value the reference must see (not
 * finite: int() of it raises there), or -1 with an exception set. */
static int
hist_feed(FoldHist *h, double value)
{
    if (!isfinite(value))
        return 1;
    if (h->count++ == 0)
        h->low = h->high = value;
    else {
        /* Strict: the first of equal values stays (0.0 / -0.0). */
        if (value < h->low)
            h->low = value;
        if (value > h->high)
            h->high = value;
    }
    h->total += value;
    int bucket = 0;
    const double magnitude = fabs(value);
    /* trunc(m) for m in [2^(e-1), 2^e) has e bits. */
    if (magnitude >= 1.0)
        (void)frexp(magnitude, &bucket);
    if (bucket < FOLD_DENSE) {
        h->dense[bucket]++;
        return 0;
    }
    if (h->sparse == NULL && (h->sparse = PyDict_New()) == NULL)
        return -1;
    PyObject *key = PyLong_FromLong(bucket);
    if (key == NULL)
        return -1;
    PyObject *seen = PyDict_GetItemWithError(h->sparse, key);
    Py_ssize_t n = seen == NULL ? 0 : PyLong_AsSsize_t(seen);
    PyObject *next = PyErr_Occurred() ? NULL : PyLong_FromSsize_t(n + 1);
    int rc = next == NULL ? -1 : PyDict_SetItem(h->sparse, key, next);
    Py_XDECREF(next);
    Py_DECREF(key);
    return rc;
}

/* (count, total, low | None, high | None, {bucket: count}) */
static PyObject *
hist_summary(FoldHist *h)
{
    PyObject *buckets = h->sparse != NULL ? Py_NewRef(h->sparse) : PyDict_New();
    if (buckets == NULL)
        return NULL;
    for (int b = 0; b < FOLD_DENSE; b++) {
        if (h->dense[b] == 0)
            continue;
        PyObject *key = PyLong_FromLong(b), *n = PyLong_FromSsize_t(h->dense[b]);
        int rc = key == NULL || n == NULL ? -1 : PyDict_SetItem(buckets, key, n);
        Py_XDECREF(key);
        Py_XDECREF(n);
        if (rc < 0) {
            Py_DECREF(buckets);
            return NULL;
        }
    }
    if (h->count == 0)
        return Py_BuildValue("(ndOON)", h->count, h->total, Py_None, Py_None,
                             buckets);
    return Py_BuildValue("(ndddN)", h->count, h->total, h->low, h->high,
                         buckets);
}

/* One shard's log as serve_fold reads it (its lists held). */
typedef struct {
    Col tenants, addrs, writes;
    PyObject *latencies, *walls;
    Py_ssize_t rows, prev, walls_at;
} FoldLog;

/* An exact, finite float's value, or 1 when the row is the reference's
 * (another type, or not finite). */
static inline int
exact_float(PyObject *item, double *out)
{
    if (!PyFloat_CheckExact(item))
        return 1;
    *out = PyFloat_AS_DOUBLE(item);
    return 0;
}

/* Item `i` of a list as exact_float reads it; -1 with an exception set
 * when the list no longer reaches it (a finaliser run by an allocation
 * here can have cut it short). */
static inline int
list_float(PyObject *list, Py_ssize_t i, double *out)
{
    if (i >= PyList_GET_SIZE(list)) {
        PyErr_SetString(PyExc_ValueError,
                        "a log's latencies or walls changed during the fold");
        return -1;
    }
    return exact_float(PyList_GET_ITEM(list, i), out);
}

static inline void
put_le64(unsigned char *p, long long value)
{
    unsigned long long u = (unsigned long long)value;
    for (int k = 0; k < 8; k++)
        p[k] = (unsigned char)(u >> (8 * k));
}

/* serve_fold(logs, ends, max_batch, busy, totals)
 *     -> (packed, busy, summaries) | None
 *
 * The accounting log's fold (OramService._fold_rows), pure: nothing the
 * arguments hold is changed.  logs: [(tenants int64, addrs int64,
 * writes int8, latencies list, walls list), ...], one per shard; ends:
 * as admission leaves it; busy: each shard's busy cycles so far;
 * totals: each tenant's service, latency and wall histogram totals so
 * far, tenant-major.  Returns, per shard, its rows packed `<qqB` (the
 * access digest's input) and its busy cycles folded on, and per
 * histogram (the order of `totals`) what record_many of its rows adds —
 * see FoldHist.  A tenant's rows are its service latencies, their
 * running sum within each epoch queue (its wait + latency) and the wall
 * of the row's run_batch (one per max_batch rows of a queue), in
 * accounting order: epoch by epoch, shard by shard.
 *
 * Like run_access_loop's fold, only exact floats are summed here: a
 * latency, wall or starting total of any other type, or a value int()
 * refuses, returns None, and the caller folds the rows the reference
 * way. */
static PyObject *
serve_fold(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError,
                     "serve_fold expects 5 positional arguments, got %zd",
                     nargs);
        return NULL;
    }
    PyObject *logs_obj = args[0], *ends = args[1], *busy = args[3],
             *totals = args[4];
    if (!PyList_Check(logs_obj) || !PyList_Check(ends) ||
        !PyList_Check(busy) || !PyList_Check(totals)) {
        PyErr_SetString(PyExc_TypeError,
                        "serve_fold: logs, ends, busy and totals must be "
                        "lists");
        return NULL;
    }
    const Py_ssize_t max_batch = PyLong_AsSsize_t(args[2]);
    if (max_batch == -1 && PyErr_Occurred())
        return NULL;
    const Py_ssize_t shards = PyList_GET_SIZE(logs_obj),
                     hists = PyList_GET_SIZE(totals);
    if (max_batch < 1 || shards == 0 || PyList_GET_SIZE(busy) != shards ||
        hists % 3 != 0) {
        PyErr_Format(PyExc_ValueError,
                     "serve_fold needs max_batch >= 1 (got %zd), at least "
                     "one log, one busy total per log (%zd for %zd) and "
                     "three totals per tenant (%zd)",
                     max_batch, PyList_GET_SIZE(busy), shards, hists);
        return NULL;
    }
    if (PyList_GET_SIZE(ends) % shards != 0) {
        PyErr_Format(PyExc_ValueError,
                     "ends holds %zd entries, not a multiple of %zd shards",
                     PyList_GET_SIZE(ends), shards);
        return NULL;
    }
    const Py_ssize_t tenants = hists / 3,
                     epochs = PyList_GET_SIZE(ends) / shards;
    FoldLog *logs = PyMem_Calloc(shards, sizeof(FoldLog));
    FoldHist *hist = PyMem_Calloc(hists ? hists : 1, sizeof(FoldHist));
    Py_ssize_t *bounds = PyMem_Calloc(epochs * shards + 1, sizeof(Py_ssize_t));
    double *cycles = PyMem_Calloc(shards, sizeof(double));
    /* The outputs come first: a finaliser an allocation runs can change
     * the argument lists, so everything read from them is read after. */
    PyObject *packed = PyList_New(shards), *busy_out = PyList_New(shards),
             *summaries = PyList_New(hists), *result = NULL;
    int declined = 0;
    if (logs == NULL || hist == NULL || bounds == NULL || cycles == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (packed == NULL || busy_out == NULL || summaries == NULL)
        goto done;
    for (Py_ssize_t s = 0; s < shards; s++) {
        PyObject *row = PyList_GET_ITEM(logs_obj, s);
        FoldLog *log = &logs[s];
        if (!PyTuple_Check(row) || PyTuple_GET_SIZE(row) != 5 ||
            !PyList_Check(PyTuple_GET_ITEM(row, 3)) ||
            !PyList_Check(PyTuple_GET_ITEM(row, 4))) {
            PyErr_Format(PyExc_TypeError,
                         "serve_fold: log %zd must be a tuple (tenants, "
                         "addrs, writes, latencies list, walls list)", s);
            goto done;
        }
        Py_ssize_t room;
        log->latencies = Py_NewRef(PyTuple_GET_ITEM(row, 3));
        log->walls = Py_NewRef(PyTuple_GET_ITEM(row, 4));
        if (log_acquire(row, &log->tenants, &log->addrs, &log->writes, 0, s,
                        &room) < 0)
            goto done;
        /* Every queue's bounds, and the rows and walls execution left. */
        Py_ssize_t prev = 0, batches = 0;
        for (Py_ssize_t e = 0; e < epochs; e++) {
            const Py_ssize_t end = list_index(ends, e * shards + s, prev,
                                              room, "the end of shard", s);
            if (end < 0)
                goto done;
            bounds[e * shards + s] = end;
            batches += (end - prev + max_batch - 1) / max_batch;
            prev = end;
        }
        log->rows = prev;
        if (PyList_GET_SIZE(log->latencies) != prev ||
            PyList_GET_SIZE(log->walls) != batches) {
            PyErr_Format(PyExc_ValueError,
                         "shard %zd logged %zd rows in %zd batches, and its "
                         "log holds %zd latencies and %zd walls",
                         s, prev, batches, PyList_GET_SIZE(log->latencies),
                         PyList_GET_SIZE(log->walls));
            goto done;
        }
    }
    for (Py_ssize_t s = 0; s < shards && !declined; s++)
        declined = exact_float(PyList_GET_ITEM(busy, s), &cycles[s]);
    for (Py_ssize_t h = 0; h < hists && !declined; h++)
        declined = exact_float(PyList_GET_ITEM(totals, h), &hist[h].total);
    /* Per shard: its rows packed in log order, its busy cycles folded. */
    for (Py_ssize_t s = 0; s < shards && !declined; s++) {
        FoldLog *log = &logs[s];
        const long long *tenant = log->tenants.data, *addr = log->addrs.data;
        const int8_t *write = log->writes.data;
        PyObject *bytes = PyBytes_FromStringAndSize(NULL, 17 * log->rows);
        if (bytes == NULL)
            goto done;
        PyList_SET_ITEM(packed, s, bytes);
        unsigned char *out = (unsigned char *)PyBytes_AS_STRING(bytes);
        double latency;
        for (Py_ssize_t i = 0; i < log->rows; i++, out += 17) {
            if (write[i] < 0) {
                PyErr_Format(PyExc_ValueError,
                             "shard %zd row %zd holds write flag %d",
                             s, i, (int)write[i]);
                goto done;
            }
            if ((declined = list_float(log->latencies, i, &latency)) != 0)
                break;
            cycles[s] += latency;
            put_le64(out, tenant[i]);
            put_le64(out + 8, addr[i]);
            out[16] = (unsigned char)write[i];
        }
    }
    /* Per tenant, in accounting order: epoch by epoch, shard by shard. */
    for (Py_ssize_t e = 0; e < epochs && !declined; e++) {
        for (Py_ssize_t s = 0; s < shards && !declined; s++) {
            FoldLog *log = &logs[s];
            const Py_ssize_t start = log->prev, end = bounds[e * shards + s];
            const long long *tenant = log->tenants.data;
            double running = 0.0, latency, wall;
            for (Py_ssize_t i = start; i < end; i++) {
                if (tenant[i] < 0 || tenant[i] >= tenants) {
                    PyErr_Format(PyExc_ValueError,
                                 "shard %zd row %zd holds tenant %lld of %zd",
                                 s, i, tenant[i], tenants);
                    goto done;
                }
                FoldHist *own = &hist[3 * tenant[i]];
                if ((declined = list_float(log->latencies, i, &latency)) ||
                    (declined = list_float(log->walls,
                                           log->walls_at +
                                               (i - start) / max_batch,
                                           &wall)))
                    break;
                /* accumulate(): the first row's latency as it is. */
                running = i == start ? latency : running + latency;
                if ((declined = hist_feed(&own[0], latency)) ||
                    (declined = hist_feed(&own[1], running)) ||
                    (declined = hist_feed(&own[2], wall)))
                    break;
            }
            log->walls_at += (end - start + max_batch - 1) / max_batch;
            log->prev = end;
        }
    }
    if (declined < 0)
        goto done;
    if (declined) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    for (Py_ssize_t s = 0; s < shards; s++) {
        PyObject *boxed = PyFloat_FromDouble(cycles[s]);
        if (boxed == NULL)
            goto done;
        PyList_SET_ITEM(busy_out, s, boxed);
    }
    for (Py_ssize_t h = 0; h < hists; h++) {
        PyObject *summary = hist_summary(&hist[h]);
        if (summary == NULL)
            goto done;
        PyList_SET_ITEM(summaries, h, summary);
    }
    result = PyTuple_Pack(3, packed, busy_out, summaries);

done:
    for (Py_ssize_t s = 0; logs != NULL && s < shards; s++) {
        col_release(&logs[s].tenants);
        col_release(&logs[s].addrs);
        col_release(&logs[s].writes);
        Py_XDECREF(logs[s].latencies);
        Py_XDECREF(logs[s].walls);
    }
    for (Py_ssize_t h = 0; hist != NULL && h < hists; h++)
        Py_XDECREF(hist[h].sparse);
    PyMem_Free(logs);
    PyMem_Free(hist);
    PyMem_Free(bounds);
    PyMem_Free(cycles);
    Py_XDECREF(packed);
    Py_XDECREF(busy_out);
    Py_XDECREF(summaries);
    return result;
}

/* ------------------------------------------------------------------ */
/* trace synthesis: reference stream + L1/L2 hierarchy in one call     */
/* ------------------------------------------------------------------ */

/* synthesize_trace is SpecStandIn.refs -> CacheHierarchy.run as one C
 * loop: the pattern mixture draws byte addresses from MT19937 streams
 * restored from random.Random.getstate(), two set-associative
 * write-back LRU levels filter them, and what is left — the LLC miss /
 * dirty-eviction stream — comes back as two columns.
 *
 * Identity contract: draw for draw the same words as CPython's random
 * (random(), _randbelow_with_getrandbits for moduli of at most 32
 * bits), the generators of repro.workloads.synthetic transcribed
 * operation for operation (zipf through libm pow with every product
 * rounded on its own), and Cache.access / Cache.install's LRU victim
 * and write-back rules.  Each generator draws only from its own stream,
 * so initialising all of them up front, where Python initialises at the
 * first next(), yields the same addresses.
 *
 * Errors: ValueError for a table the reference could not run either
 * (unknown kind, zero stride, bad weights, bad geometry, no miss
 * budget); OverflowError for one that is valid but outside what the
 * kernel represents (a modulus over 32 bits, a cache too large to
 * allocate flat) — the caller runs the interpreted reference then.
 *
 * A stream that fits in the L2 stops missing, so the loop also ends
 * after MAX_REFS_PER_MISS measured references per miss of the budget,
 * as CacheHierarchy.run does (repro.proc.hierarchy.MAX_REFS_PER_MISS),
 * and returns the short trace; the caller names the working set. */

#define MAX_REFS_PER_MISS 1000

#define MT_N 624
#define MT_M 397
#define MT_STATE_WORDS (MT_N + 1) /* getstate()[1]: the words, then the index */

typedef struct {
    uint32_t mt[MT_N];
    uint32_t index;
} Mt;

/* random.Random.setstate's checks: the index is 0..624. */
static int
mt_load(Mt *s, const uint32_t *words)
{
    if (words[MT_N] > MT_N) {
        PyErr_SetString(PyExc_ValueError, "invalid MT19937 state: index "
                                          "outside 0..624");
        return -1;
    }
    memcpy(s->mt, words, sizeof(s->mt));
    s->index = words[MT_N];
    return 0;
}

/* _randommodule.c genrand_uint32. */
static uint32_t
mt_u32(Mt *s)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = s->mt;
    uint32_t y;
    if (s->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        s->index = 0;
    }
    y = mt[s->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.random(): genrand_res53. */
static inline double
mt_random(Mt *s)
{
    uint32_t a = mt_u32(s) >> 5, b = mt_u32(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Random._randbelow_with_getrandbits(n) for 1 <= n < 2**32: n == 1
 * still draws a word. */
static inline uint32_t
mt_below(Mt *s, uint32_t n)
{
    int shift = 32 - bit_length64((long long)n);
    uint32_t r;
    do
        r = mt_u32(s) >> shift;
    while (r >= n);
    return r;
}

/* A 1-D contiguous buffer of 32-bit unsigned words (array('I')), as the
 * MT state blocks arrive. */
static int
u32_acquire(PyObject *obj, Py_buffer *view, const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_FORMAT | PyBUF_ND) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != 4 || view->format == NULL ||
        (view->format[0] != 'I' && view->format[0] != 'L')) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError,
                     "%s must be a 1-D contiguous uint32 buffer "
                     "(array('I'))", what);
        return -1;
    }
    return 0;
}

/* mt_draws(state, n, count) -> list
 *
 * The kernel's generator on its own, for the known-answer tests against
 * random.Random: count draws of random() when n == 0, of randbelow(n)
 * otherwise. */
static PyObject *
mt_draws(PyObject *self, PyObject *args)
{
    PyObject *state_obj;
    unsigned long long n;
    Py_ssize_t count;
    if (!PyArg_ParseTuple(args, "OKn:mt_draws", &state_obj, &n, &count))
        return NULL;
    if (n > 0xffffffffULL || count < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "mt_draws: n must fit 32 bits and count be >= 0");
        return NULL;
    }
    Py_buffer view;
    if (u32_acquire(state_obj, &view, "state") < 0)
        return NULL;
    Mt rng;
    int bad = view.len != 4 * MT_STATE_WORDS;
    if (bad)
        PyErr_Format(PyExc_ValueError, "state must hold %d words",
                     MT_STATE_WORDS);
    else
        bad = mt_load(&rng, (const uint32_t *)view.buf) < 0;
    PyBuffer_Release(&view);
    if (bad)
        return NULL;
    PyObject *out = PyList_New(count);
    for (Py_ssize_t i = 0; out != NULL && i < count; i++) {
        PyObject *item =
            n == 0 ? PyFloat_FromDouble(mt_random(&rng))
                   : PyLong_FromUnsignedLong(mt_below(&rng, (uint32_t)n));
        if (item == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, item);
    }
    return out;
}

/* -- the address patterns of repro.workloads.synthetic ---------------- */

#define SYNTH_LINE 64          /* the generators' own line granularity */
#define MAX_MODULUS 0xffffffffULL
#define MAX_OFFSET (1ULL << 62)
#define MAX_CACHE_LINES (1ULL << 24) /* per level; 1 GiB of 64-byte lines */

enum {
    PAT_SEQUENTIAL,
    PAT_STRIDED,
    PAT_UNIFORM,
    PAT_ZIPF,
    PAT_POINTER_CHASE,
    PAT_HOT_COLD,
    N_PATTERN_KINDS,
};

static const char *const pattern_kind_names[N_PATTERN_KINDS] = {
    "sequential", "strided", "uniform", "zipf", "pointer_chase", "hot_cold",
};

typedef struct {
    int kind;
    Mt rng;
    uint64_t wss, step, offset;
    double alpha, hot_probability;
    /* generator locals */
    uint64_t addr;                      /* sequential, strided */
    uint64_t lines;                     /* uniform, zipf, hot_cold */
    uint64_t hot_lines, cold_lines;     /* hot_cold */
    uint64_t nodes, current, mult, add; /* pointer_chase */
    double zipf_one, zipf_span;         /* 1 - alpha, n ** one - 1.0 */
} Pattern;

static inline uint64_t
at_least(uint64_t value, uint64_t floor)
{
    return value < floor ? floor : value;
}

/* Parse one (kind, wss, step, alpha, hot_fraction, hot_probability,
 * offset) row and run the generator's prologue (its initial draws). */
static int
pattern_init(Pattern *p, PyObject *row, const uint32_t *state)
{
    const char *kind;
    long long wss, step, offset;
    double hot_fraction;
    if (!PyTuple_Check(row)) {
        PyErr_SetString(PyExc_TypeError, "a pattern row must be a tuple");
        return -1;
    }
    if (!PyArg_ParseTuple(row, "sLLdddL:pattern", &kind, &wss, &step,
                          &p->alpha, &hot_fraction, &p->hot_probability,
                          &offset))
        return -1;
    p->kind = -1;
    for (int k = 0; k < N_PATTERN_KINDS; k++)
        if (strcmp(kind, pattern_kind_names[k]) == 0)
            p->kind = k;
    if (p->kind < 0) {
        PyErr_Format(PyExc_ValueError, "unknown pattern kind '%s'", kind);
        return -1;
    }
    if (wss <= 0 || step <= 0 || offset < 0) {
        PyErr_Format(PyExc_ValueError,
                     "pattern '%s': wss and step must be positive and the "
                     "offset non-negative (wss=%lld step=%lld offset=%lld)",
                     kind, wss, step, offset);
        return -1;
    }
    if (isnan(p->alpha) || isnan(hot_fraction) || isnan(p->hot_probability)) {
        PyErr_Format(PyExc_ValueError,
                     "pattern '%s': alpha, hot_fraction and hot_probability "
                     "must not be NaN", kind);
        return -1;
    }
    if ((unsigned long long)wss > MAX_MODULUS ||
        (unsigned long long)step > MAX_MODULUS ||
        (unsigned long long)offset > MAX_OFFSET) {
        PyErr_Format(PyExc_OverflowError,
                     "pattern '%s': wss, step or offset outside the "
                     "kernel's 32-bit draw range", kind);
        return -1;
    }
    if (mt_load(&p->rng, state) < 0)
        return -1;
    p->wss = (uint64_t)wss;
    p->step = (uint64_t)step;
    p->offset = (uint64_t)offset;
    p->lines = at_least(p->wss / SYNTH_LINE, 1);

    switch (p->kind) {
    case PAT_SEQUENTIAL:
        p->addr = mt_below(&p->rng,
                           (uint32_t)at_least(p->wss / p->step, 1)) * p->step;
        break;
    case PAT_STRIDED:
        p->addr = (uint64_t)mt_below(&p->rng, (uint32_t)p->lines) * SYNTH_LINE;
        break;
    case PAT_ZIPF:
        p->zipf_one = 1.0 - p->alpha;
        p->zipf_span = pow((double)p->lines, p->zipf_one) - 1.0;
        break;
    case PAT_POINTER_CHASE:
        p->nodes = at_least(p->wss / p->step, 2);
        p->current = mt_below(&p->rng, (uint32_t)p->nodes);
        /* 0x5DEECE66D is 35 bits: reduced first, current * mult fits. */
        p->mult = (0x5DEECE66DULL | 1) % p->nodes;
        p->add = mt_below(&p->rng, (uint32_t)p->nodes) | 1;
        break;
    case PAT_HOT_COLD: {
        /* max(int(lines * hot_fraction), 1) */
        double hot = (double)p->lines * hot_fraction;
        if (!(hot > -9.0e18 && hot <= (double)MAX_MODULUS)) {
            PyErr_SetString(PyExc_OverflowError,
                            "pattern 'hot_cold': hot region outside the "
                            "kernel's 32-bit draw range");
            return -1;
        }
        p->hot_lines = hot < 1.0 ? 1 : (uint64_t)hot;
        p->cold_lines =
            p->lines > p->hot_lines ? p->lines - p->hot_lines : 1;
        break;
    }
    default:
        break;
    }
    return 0;
}

/* DeterministicRng.zipf(n, alpha).  Returns -1 where Python's float
 * power raises OverflowError (a non-finite result). */
static inline int
pattern_zipf(Pattern *p, uint64_t *rank_out)
{
    uint64_t n = p->lines;
    if (n <= 1) { /* no draw */
        *rank_out = 0;
        return 0;
    }
    double u = mt_random(&p->rng);
    double power;
    if (p->alpha == 1.0)
        power = pow((double)n, u);
    else {
        /* volatile: the product rounds before the add, as Python's two
         * separate float operations do. */
        volatile double scaled = p->zipf_span * u;
        power = pow(scaled + 1.0, 1.0 / p->zipf_one);
    }
    if (!isfinite(power) || !isfinite(p->zipf_span))
        return -1;
    /* min(max(int(power) - 1, 0), n - 1) */
    if (power < 2.0)
        *rank_out = 0;
    else if (power >= (double)n + 1.0)
        *rank_out = n - 1;
    else
        *rank_out = (uint64_t)power - 1;
    return 0;
}

/* next(generator): one byte address.  Returns -1 on a zipf overflow. */
static inline int
pattern_next(Pattern *p, uint64_t *addr_out)
{
    uint64_t addr;
    switch (p->kind) {
    case PAT_SEQUENTIAL:
    case PAT_STRIDED:
        addr = p->addr;
        p->addr = (p->addr + p->step) % p->wss;
        break;
    case PAT_UNIFORM:
        addr = (uint64_t)mt_below(&p->rng, (uint32_t)p->lines) * SYNTH_LINE;
        break;
    case PAT_ZIPF: {
        uint64_t rank;
        if (pattern_zipf(p, &rank) < 0)
            return -1;
        addr = ((rank * 0x9E3779B1ULL) % p->lines) * SYNTH_LINE;
        break;
    }
    case PAT_POINTER_CHASE:
        addr = (p->current % p->nodes) * p->step;
        p->current = (p->current * p->mult + p->add) % p->nodes;
        break;
    default: /* PAT_HOT_COLD */
        if (mt_random(&p->rng) < p->hot_probability)
            addr = (uint64_t)mt_below(&p->rng, (uint32_t)p->hot_lines) *
                   SYNTH_LINE;
        else
            addr = (p->hot_lines +
                    mt_below(&p->rng, (uint32_t)p->cold_lines)) *
                   SYNTH_LINE;
        break;
    }
    *addr_out = addr + p->offset;
    return 0;
}

/* -- repro.proc.cache.Cache ------------------------------------------- */

typedef struct {
    uint64_t set_mask;
    int set_shift;
    uint32_t ways;
    uint64_t clock;
    uint64_t *tags;     /* [set * ways + way] */
    uint64_t *last_use; /* 0: the way is empty (the clock starts at 1) */
    uint8_t *dirty;
} LruCache;

static void
cache_free(LruCache *c)
{
    free(c->tags);
    free(c->last_use);
    free(c->dirty);
}

/* Cache.__init__'s checks, with its messages. */
static int
cache_init(LruCache *c, long long size_bytes, long long ways,
           long long line_bytes)
{
    memset(c, 0, sizeof(*c));
    if (size_bytes < 0 || ways <= 0 || line_bytes <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "cache ways and line size must be positive and the "
                        "size not negative");
        return -1;
    }
    long long lines = size_bytes / line_bytes;
    if (lines % ways) {
        PyErr_SetString(PyExc_ValueError,
                        "capacity must divide evenly into ways");
        return -1;
    }
    long long num_sets = lines / ways;
    if (num_sets <= 0 || (num_sets & (num_sets - 1)) != 0) {
        PyErr_SetString(PyExc_ValueError, "set count must be a power of two");
        return -1;
    }
    if ((unsigned long long)lines > MAX_CACHE_LINES) {
        PyErr_SetString(PyExc_OverflowError,
                        "cache level too large for the kernel's flat arrays");
        return -1;
    }
    c->set_mask = (uint64_t)num_sets - 1;
    c->set_shift = bit_length64(num_sets) - 1;
    c->ways = (uint32_t)ways;
    c->tags = calloc((size_t)lines, sizeof(uint64_t));
    c->last_use = calloc((size_t)lines, sizeof(uint64_t));
    c->dirty = calloc((size_t)lines, 1);
    if (c->tags == NULL || c->last_use == NULL || c->dirty == NULL) {
        cache_free(c);
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* Cache.access(line, dirty) and Cache.install(line, dirty) are the same
 * state transition (a hit ORs the dirty bit, a miss allocates over the
 * least recently used way); they differ only in the statistics, which
 * the trace does not carry.  Returns hit; *writeback is the displaced
 * dirty line's address or -1. */
static inline int
cache_touch(LruCache *c, uint64_t line, int dirty, int64_t *writeback)
{
    uint64_t set = line & c->set_mask, tag = line >> c->set_shift;
    size_t base = (size_t)set * c->ways;
    uint64_t *tags = c->tags + base, *last_use = c->last_use + base;
    uint8_t *dirty_bits = c->dirty + base;
    uint32_t victim = 0;
    uint64_t oldest = UINT64_MAX;
    *writeback = -1;
    c->clock += 1;
    for (uint32_t way = 0; way < c->ways; way++) {
        if (last_use[way] != 0 && tags[way] == tag) {
            last_use[way] = c->clock;
            dirty_bits[way] |= (uint8_t)dirty;
            return 1;
        }
        if (last_use[way] < oldest) { /* an empty way sorts first */
            oldest = last_use[way];
            victim = way;
        }
    }
    if (oldest != 0 && dirty_bits[victim])
        *writeback = (int64_t)((tags[victim] << c->set_shift) | set);
    tags[victim] = tag;
    last_use[victim] = c->clock;
    dirty_bits[victim] = (uint8_t)dirty;
    return 0;
}

/* -- the run ----------------------------------------------------------- */

typedef struct {
    /* SpecStandIn.refs */
    Pattern *patterns;
    double *cum;
    Py_ssize_t n_patterns;
    Mt pick;
    double write_fraction;
    uint32_t gap_modulus; /* randint(0, 2 * gap_instructions) */
    /* CacheHierarchy.run */
    LruCache l1, l2;
    int line_shift;
    long long warm_remaining, misses, max_llc_misses;
    unsigned long long max_refs; /* measured references before giving up */
    unsigned long long instructions, mem_refs, l1_hits, l2_hits;
    /* MissTrace.events as columns; they grow, since one reference can
     * record more than two events */
    int64_t *line_addrs;
    uint8_t *is_write;
    size_t n_events, capacity;
} Synth;

static inline int
synth_record(Synth *s, int64_t line, int is_write)
{
    if (s->n_events == s->capacity) {
        size_t capacity = s->capacity ? 2 * s->capacity : 4096;
        int64_t *lines = realloc(s->line_addrs, capacity * sizeof(int64_t));
        if (lines == NULL)
            return -1;
        s->line_addrs = lines;
        uint8_t *writes = realloc(s->is_write, capacity);
        if (writes == NULL)
            return -1;
        s->is_write = writes;
        s->capacity = capacity;
    }
    s->line_addrs[s->n_events] = line;
    s->is_write[s->n_events] = (uint8_t)is_write;
    s->n_events += 1;
    return 0;
}

enum { SYNTH_DONE, SYNTH_MORE, SYNTH_NO_MEMORY, SYNTH_ZIPF_OVERFLOW };

/* Up to `budget` references of the refs() / run() loop, with no Python
 * object in reach (the caller has released the GIL). */
static int
synth_run(Synth *s, long budget)
{
    Py_ssize_t last = s->n_patterns - 1;
    while (budget-- > 0) {
        if (s->warm_remaining <= 0 && s->mem_refs == s->max_refs)
            return SYNTH_DONE;
        double u = mt_random(&s->pick);
        Py_ssize_t pick = 0;
        /* first i with u <= cum[i]; the last pattern when float
         * accumulation left cum[-1] below u */
        while (pick < last && !(u <= s->cum[pick]))
            pick++;
        uint32_t gap = mt_below(&s->pick, s->gap_modulus);
        int is_write = mt_random(&s->pick) < s->write_fraction;
        uint64_t byte_addr;
        if (pattern_next(&s->patterns[pick], &byte_addr) < 0)
            return SYNTH_ZIPF_OVERFLOW;

        int recording = s->warm_remaining <= 0;
        if (recording) {
            s->instructions += (unsigned long long)gap + 1;
            s->mem_refs += 1;
        }
        else
            s->warm_remaining -= 1;
        uint64_t line = byte_addr >> s->line_shift;
        int64_t l1_victim, l2_victim;
        if (cache_touch(&s->l1, line, is_write, &l1_victim)) {
            s->l1_hits += recording;
            continue;
        }
        if (l1_victim >= 0) {
            cache_touch(&s->l2, (uint64_t)l1_victim, 1, &l2_victim);
            if (l2_victim >= 0 && recording &&
                synth_record(s, l2_victim, 1) < 0)
                return SYNTH_NO_MEMORY;
        }
        if (cache_touch(&s->l2, line, 0, &l2_victim)) {
            s->l2_hits += recording;
            continue;
        }
        if (!recording)
            continue;
        if ((l2_victim >= 0 && synth_record(s, l2_victim, 1) < 0) ||
            synth_record(s, (int64_t)line, 0) < 0)
            return SYNTH_NO_MEMORY;
        s->misses += 1;
        if (s->misses >= s->max_llc_misses)
            return SYNTH_DONE;
    }
    return SYNTH_MORE;
}

static void
synth_free(Synth *s)
{
    free(s->patterns);
    free(s->cum);
    cache_free(&s->l1);
    cache_free(&s->l2);
    free(s->line_addrs);
    free(s->is_write);
}

/* The mixture: pattern rows, cumulative weights and one MT state block
 * per stream (pick_rng's first, then each pattern's). */
static int
synth_bind_mixture(Synth *s, PyObject *rows, PyObject *weights,
                   PyObject *states)
{
    PyObject *row_seq = PySequence_Fast(rows, "patterns must be a sequence");
    if (row_seq == NULL)
        return -1;
    PyObject *cum_seq =
        PySequence_Fast(weights, "cumulative weights must be a sequence");
    if (cum_seq == NULL) {
        Py_DECREF(row_seq);
        return -1;
    }
    Py_buffer view;
    int status = -1, have_view = 0;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(row_seq);
    if (n < 1 || PySequence_Fast_GET_SIZE(cum_seq) != n) {
        PyErr_SetString(PyExc_ValueError,
                        "a mixture needs at least one pattern and one "
                        "cumulative weight per pattern");
        goto done;
    }
    if (u32_acquire(states, &view, "states") < 0)
        goto done;
    have_view = 1;
    if (view.len / 4 != (n + 1) * MT_STATE_WORDS) {
        PyErr_Format(PyExc_ValueError,
                     "states must hold %d words for pick_rng and for each "
                     "of the %zd patterns", MT_STATE_WORDS, n);
        goto done;
    }
    const uint32_t *words = (const uint32_t *)view.buf;
    if (mt_load(&s->pick, words) < 0)
        goto done;
    s->patterns = calloc((size_t)n, sizeof(Pattern));
    s->cum = calloc((size_t)n, sizeof(double));
    if (s->patterns == NULL || s->cum == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    s->n_patterns = n;
    double previous = 0.0;
    for (Py_ssize_t i = 0; i < n; i++) {
        double c = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(cum_seq, i));
        if (c == -1.0 && PyErr_Occurred())
            goto done;
        if (!(c >= previous)) { /* NaN fails every comparison */
            PyErr_SetString(PyExc_ValueError,
                            "cumulative weights must be non-negative, "
                            "non-decreasing and not NaN");
            goto done;
        }
        s->cum[i] = previous = c;
        if (pattern_init(&s->patterns[i], PySequence_Fast_GET_ITEM(row_seq, i),
                         words + (i + 1) * MT_STATE_WORDS) < 0)
            goto done;
    }
    status = 0;
done:
    if (have_view)
        PyBuffer_Release(&view);
    Py_DECREF(cum_seq);
    Py_DECREF(row_seq);
    return status;
}

/* synthesize_trace(patterns, cum_weights, write_fraction,
 *                  gap_instructions, states,
 *                  (line_bytes, l1_bytes, l1_ways, l2_bytes, l2_ways),
 *                  warmup_refs, max_llc_misses)
 *   -> (line_addrs, is_write, instructions, mem_refs, l1_hits, l2_hits)
 *
 * line_addrs is a bytearray of native int64, is_write one of 0/1 bytes. */
static PyObject *
synthesize_trace(PyObject *self, PyObject *args)
{
    PyObject *rows, *weights, *states;
    double write_fraction;
    long long gap, line_bytes, l1_bytes, l1_ways, l2_bytes, l2_ways;
    long long warmup_refs, max_llc_misses;
    if (!PyArg_ParseTuple(args, "OOdLO(LLLLL)LL:synthesize_trace", &rows,
                          &weights, &write_fraction, &gap, &states,
                          &line_bytes, &l1_bytes, &l1_ways, &l2_bytes,
                          &l2_ways, &warmup_refs, &max_llc_misses))
        return NULL;
    if (isnan(write_fraction) || gap < 0 || warmup_refs < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "write_fraction must not be NaN; gap_instructions "
                        "and warmup_refs must be non-negative");
        return NULL;
    }
    if (max_llc_misses <= 0) {
        /* CacheHierarchy.run never returns from an infinite stream
         * without a budget; here that would be a spin in C. */
        PyErr_SetString(PyExc_ValueError,
                        "max_llc_misses must be positive: the reference "
                        "stream is infinite");
        return NULL;
    }
    if (2 * (unsigned long long)gap + 1 > MAX_MODULUS) {
        PyErr_SetString(PyExc_OverflowError,
                        "gap_instructions outside the kernel's 32-bit draw "
                        "range");
        return NULL;
    }

    Synth s;
    memset(&s, 0, sizeof(s));
    PyObject *result = NULL, *line_col = NULL, *write_col = NULL;
    if (cache_init(&s.l1, l1_bytes, l1_ways, line_bytes) < 0 ||
        cache_init(&s.l2, l2_bytes, l2_ways, line_bytes) < 0 ||
        synth_bind_mixture(&s, rows, weights, states) < 0)
        goto done;
    s.write_fraction = write_fraction;
    s.gap_modulus = (uint32_t)(2 * gap + 1);
    s.line_shift = bit_length64(line_bytes) - 1;
    s.warm_remaining = warmup_refs;
    s.max_llc_misses = max_llc_misses;
    s.max_refs = (unsigned long long)max_llc_misses > ULLONG_MAX / MAX_REFS_PER_MISS
                     ? ULLONG_MAX
                     : (unsigned long long)max_llc_misses * MAX_REFS_PER_MISS;

    int state;
    do {
        /* A slice of references without the GIL, then a look at pending
         * signals: a stream that stops missing stays interruptible. */
        Py_BEGIN_ALLOW_THREADS
        state = synth_run(&s, 1L << 20);
        Py_END_ALLOW_THREADS
        if (state == SYNTH_MORE && PyErr_CheckSignals() < 0)
            goto done;
        if (s.instructions > (1ULL << 62)) {
            PyErr_SetString(PyExc_OverflowError,
                            "instruction count outside 64 bits");
            goto done;
        }
    } while (state == SYNTH_MORE);
    if (state == SYNTH_NO_MEMORY) {
        PyErr_NoMemory();
        goto done;
    }
    if (state == SYNTH_ZIPF_OVERFLOW) {
        PyErr_SetString(PyExc_OverflowError,
                        "zipf draw: float power out of range");
        goto done;
    }

    line_col = PyByteArray_FromStringAndSize(
        (const char *)s.line_addrs, (Py_ssize_t)(s.n_events * sizeof(int64_t)));
    write_col = PyByteArray_FromStringAndSize((const char *)s.is_write,
                                              (Py_ssize_t)s.n_events);
    if (line_col != NULL && write_col != NULL)
        result = Py_BuildValue("OOKKKK", line_col, write_col, s.instructions,
                               s.mem_refs, s.l1_hits, s.l2_hits);
done:
    Py_XDECREF(line_col);
    Py_XDECREF(write_col);
    synth_free(&s);
    return result;
}

/* ------------------------------------------------------------------ */
/* column: the one allocator of fixed-size columns                     */
/* ------------------------------------------------------------------ */

/* A typed buffer that never changes size, over PyMem_RawCalloc memory
 * (zeroed) or PyMem_RawMalloc memory (uninitialised), freed with the
 * object.  Uninitialised memory costs a page only once something is
 * written to it: the tree's bucket_slots are read only below their
 * bucket's fill, so they need no zeroing, and an untouched bucket of a
 * paper-scale tree costs no memory. */
typedef struct {
    PyObject_HEAD
    void *data;
    Py_ssize_t length, itemsize;
    char format[2];
} Column;

static const struct {
    char code;
    Py_ssize_t size;
} column_codes[] = {
    {'b', sizeof(signed char)}, {'B', sizeof(unsigned char)},
    {'h', sizeof(short)},       {'H', sizeof(unsigned short)},
    {'i', sizeof(int)},         {'I', sizeof(unsigned int)},
    {'l', sizeof(long)},        {'L', sizeof(unsigned long)},
    {'q', sizeof(long long)},   {'Q', sizeof(unsigned long long)},
    {'f', sizeof(float)},       {'d', sizeof(double)},
};

static void
column_dealloc(Column *self)
{
    PyMem_RawFree(self->data);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
column_getbuffer(Column *self, Py_buffer *view, int flags)
{
    view->obj = Py_NewRef(self);
    view->buf = self->data;
    view->len = self->length * self->itemsize;
    view->readonly = 0;
    view->itemsize = self->itemsize;
    view->format = (flags & PyBUF_FORMAT) ? self->format : NULL;
    view->ndim = 1;
    view->shape = (flags & PyBUF_ND) ? &self->length : NULL;
    view->strides =
        (flags & PyBUF_STRIDES) == PyBUF_STRIDES ? &self->itemsize : NULL;
    view->suboffsets = NULL;
    view->internal = NULL;
    return 0;
}

static PyBufferProcs column_as_buffer = {
    .bf_getbuffer = (getbufferproc)column_getbuffer,
};

static PyTypeObject ColumnType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.native._replay_core.Column",
    .tp_basicsize = sizeof(Column),
    .tp_dealloc = (destructor)column_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A fixed-size, writable typed buffer (see column()).",
    .tp_as_buffer = &column_as_buffer,
};

static PyObject *
column_new(PyObject *module, PyObject *args)
{
    const char *typecode;
    Py_ssize_t length;
    int zeroed;
    if (!PyArg_ParseTuple(args, "snp:column", &typecode, &length, &zeroed))
        return NULL;
    Py_ssize_t itemsize = 0;
    for (size_t i = 0; i < sizeof(column_codes) / sizeof(column_codes[0]); i++) {
        if (typecode[0] == column_codes[i].code && typecode[1] == '\0')
            itemsize = column_codes[i].size;
    }
    if (itemsize == 0) {
        PyErr_Format(PyExc_ValueError,
                     "column typecode must be one of bBhHiIlLqQfd, not %R",
                     PyTuple_GET_ITEM(args, 0));
        return NULL;
    }
    if (length < 0) {
        PyErr_SetString(PyExc_ValueError, "column length must be >= 0");
        return NULL;
    }
    if (length > PY_SSIZE_T_MAX / itemsize)
        return PyErr_NoMemory();
    Column *self = PyObject_New(Column, &ColumnType);
    if (self == NULL)
        return NULL;
    /* Both allocators hand back a unique pointer for 0 bytes. */
    self->data = zeroed ? PyMem_RawCalloc((size_t)length, (size_t)itemsize)
                        : PyMem_RawMalloc((size_t)(length * itemsize));
    if (self->data == NULL) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    self->length = length;
    self->itemsize = itemsize;
    self->format[0] = typecode[0];
    self->format[1] = '\0';
    return (PyObject *)self;
}

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef replay_core_methods[] = {
    {"column", column_new, METH_VARARGS,
     "column(typecode, length, zeroed) -> a fixed-size, writable buffer "
     "of `length` array-typecode items, over calloc'd memory when "
     "`zeroed` and uninitialised malloc'd memory otherwise."},
    {"translate_block_addrs", translate_block_addrs, METH_VARARGS,
     "Line-address column -> plain-int block addresses (zero-copy over "
     "an int64 buffer; sequence fallback matches the Python kernel)."},
    {"run_access_loop", (PyCFunction)(void (*)(void))run_access_loop,
     METH_FASTCALL,
     "run_access_loop(access, line_addrs, is_write, lines_per_block, "
     "read_op, write_op, payload, table, miss_latency, cycles, latencies) "
     "-> cycles: one replay slice, translated, accessed and folded."},
    {"route_column", route_column, METH_VARARGS,
     "route_column(addrs, routes, shards): each address's shard, the CRC-32 "
     "of its 8 little-endian bytes mod shards, into routes."},
    {"serve_fold", (PyCFunction)(void (*)(void))serve_fold, METH_FASTCALL,
     "serve_fold(logs, ends, max_batch, busy, totals) -> (packed, busy, "
     "summaries) | None: the serve accounting log's fold, or None for "
     "the reference fold."},
    {"accumulate", accumulate, METH_VARARGS,
     "Event-ordered left-fold of per-event latencies onto a running "
     "cycle count (bit-identical to Python float accumulation)."},
    {"drain_scalar", drain_scalar, METH_VARARGS,
     "Columnar Path ORAM path drain + stash merge + depth grouping over "
     "the arena columns; returns the slot of the block of interest."},
    {"place_greedy", place_greedy, METH_VARARGS,
     "Greedy deepest-first eviction with LIFO candidate/pool placement; "
     "returns the leftover pool."},
    {"blake2b", blake2b_digest, METH_VARARGS,
     "blake2b(key, message, digest_size) -> bytes: the vendored RFC 7693 "
     "hash behind the frontend kernel's PRF and MAC."},
    {"_lanes", lanes_entry, METH_VARARGS,
     "_lanes(spelling, lanes, repeat=1) -> [digest, ...]: 1..4 "
     "(key, digest_size, message) lanes in one call of the named "
     "blake2b_lanes spelling (tests and micro benchmarks only)."},
    {"synthesize_trace", synthesize_trace, METH_VARARGS,
     "One whole SpecStandIn.refs -> CacheHierarchy.run: pattern mixture, "
     "MT19937 draws and the L1+L2 LRU hierarchy; returns the miss "
     "columns and the four counters."},
    {"mt_draws", mt_draws, METH_VARARGS,
     "mt_draws(state, n, count) -> list: the synthesis kernel's MT19937 "
     "on its own (random() when n == 0, randbelow(n) otherwise)."},
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
        {&str_observer, "observer"},
        {&str_on_path_read, "on_path_read"},
        {&str_on_path_write, "on_path_write"},
        {&str_grow, "_grow"},
        {&str_stash, "stash"},
        {&str_reserve, "reserve"},
        {&str_abort_access, "_abort_access"},
        {&str_addr, "addr"},
        {&str_leaf, "leaf"},
        {&str_data, "data"},
        {&str_mac, "mac"},
        {&str_kernel, "_kernel"},
        {&str_posmap_tree_accesses, "posmap_tree_accesses"},
        {&str_plb_hit_level, "plb_hit_level"},
        {&str_cycles, "cycles"},
        {&str_events, "events"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        *names[i].slot = PyUnicode_InternFromString(names[i].text);
        if (*names[i].slot == NULL)
            return NULL;
    }
    for (uint32_t n = 0; n < 256; n++) {
        uint32_t crc = n;
        for (int k = 0; k < 8; k++)
            crc = crc & 1 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
        crc_table[n] = crc;
    }
    empty_tuple = PyTuple_New(0);
    if (empty_tuple == NULL || PyType_Ready(&AccessKernelType) < 0 ||
        PyType_Ready(&FrontendKernelType) < 0 ||
        PyType_Ready(&RecursiveKernelType) < 0 ||
        PyType_Ready(&ServeKernelType) < 0 ||
        PyType_Ready(&ColumnType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&replay_core_module);
    if (module == NULL)
        return NULL;
#ifdef LANES_VECTOR
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl"))
        blake2b_lanes = blake2b_lanes_avx512vl, lanes_name = "avx512vl";
#endif
    /* What this build was compiled from (setup.py's SHA-256 of the
     * sources); native_core refuses a module whose sources have moved. */
    if (PyModule_AddStringConstant(module, "LEDGERS",
                                   ALL_LEDGERS(LEDGER_LINE)) < 0 ||
        PyModule_AddStringConstant(module, "SOURCE_DIGEST",
                                   REPRO_SOURCE_DIGEST) < 0 ||
        PyModule_AddStringConstant(module, "LANES", lanes_name) < 0 ||
        PyModule_AddIntConstant(module, "MAX_REFS_PER_MISS",
                                MAX_REFS_PER_MISS) < 0 ||
        PyModule_AddObjectRef(module, "AccessKernel",
                              (PyObject *)&AccessKernelType) < 0 ||
        PyModule_AddObjectRef(module, "FrontendKernel",
                              (PyObject *)&FrontendKernelType) < 0 ||
        PyModule_AddObjectRef(module, "RecursiveKernel",
                              (PyObject *)&RecursiveKernelType) < 0 ||
        PyModule_AddObjectRef(module, "ServeKernel",
                              (PyObject *)&ServeKernelType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
