/* _replay_core.h: what the units of the _replay_core extension share.
 *
 * Only what crosses a unit boundary: the types two units both read, the
 * small helpers as static inline, and every function or object one unit
 * defines and another uses, each HIDDEN — so the .so exports
 * PyInit__replay_core alone, and no other library in the process can
 * interpose on a kernel's internals. */

#ifndef REPRO_REPLAY_CORE_H
#define REPRO_REPLAY_CORE_H

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define HIDDEN __attribute__((visibility("hidden")))

/* -- binding.c: columns, ledgers and the small helpers ---------------- */

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
static const ColKind COL_FLAG = {1, "bB?", "int8 column (array('b'))"};

/* Slot `i` of a ledger += step, modulo 2^64 (no signed overflow). */
static inline void
tally(const Col *ledger, int i, long long step)
{
    long long *slot = (long long *)ledger->data + i;
    *slot = (long long)((unsigned long long)*slot + (unsigned long long)step);
}

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

HIDDEN int col_acquire(PyObject *obj, Col *col, const char *what,
                       const ColKind *kind, int writable);
HIDDEN void col_release(Col *col);
HIDDEN int col_acquire_fixed(PyObject *obj, Col *col, const char *what,
                             const ColKind *kind, Py_ssize_t items,
                             int or_more);
HIDDEN int grow_buffer(void **buf, Py_ssize_t *cap, Py_ssize_t need,
                       size_t size);
HIDDEN void format_hex(long long addr, char buf[32]);
HIDDEN int as_int64(PyObject *obj, long long *out);

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

/* -- tree.c: the working set and AccessKernel ------------------------- */

/* One block of the merged working set: its arena slot and the deepest
 * level of the accessed path it may legally be evicted to. */
typedef struct {
    int32_t slot;
    int32_t depth;
} Entry;

/* Below the placement stack's bottom: merge index 0, what a pop of all
 * Z ids from a stack holding fewer reads past the real ones (Z <= 255,
 * so up to 254).  After the order and the stack: room a four-wide copy
 * may read or write past the entries it means. */
#define WS_PAD 256
#define WS_SLACK 4

/* The working set of one tree access in merge order — stash residents
 * in stash order, drained blocks root->leaf, the block of interest last
 * — with a count of its entries per depth.  Python's by_depth lists are
 * views of this one sequence: by_depth[d] is its depth-d entries in
 * merge order.  Placement counting-sorts the merge indices by depth
 * (deepest first, merge order within a depth) into `order` and places
 * from one stack; the leftovers are what the stack holds at the end.
 * Integers only; the buffers are kept between accesses, so the steady
 * state allocates nothing. */
typedef struct {
    Entry *merged;
    Py_ssize_t n, cap;
    Py_ssize_t n_resident; /* merged[0..n_resident) came from the stash */
    int32_t *order;        /* merge indices by depth, + WS_SLACK */
    int32_t *stack;        /* WS_PAD zeroes, then the placement stack */
    Py_ssize_t cap_order, cap_stack;
    long long *keys;       /* the residents' addresses, for the duplicate probe */
    Py_ssize_t n_keys, cap_keys;
    uint64_t depths;       /* bit d: some entry has depth d */
    int32_t count[64];     /* per depth (levels <= 60): entries merged */
    Py_ssize_t n_left;     /* after placement: the stack's height */
    uint32_t *mark;        /* per arena slot: the drain that last merged it */
    Py_ssize_t cap_mark;
    uint32_t epoch;        /* this drain's stamp */
} WorkSet;

/* Append one block to the merge order, into room reserved beforehand
 * (0 <= depth <= 60). */
static inline void
ws_push(WorkSet *ws, int32_t slot, int depth)
{
    Entry *e = &ws->merged[ws->n++];
    e->slot = slot;
    e->depth = depth;
    ws->count[depth]++;
    ws->depths |= 1ULL << depth;
}

/* The blocks placement left behind, bottom to top: merge indices. */
static inline const int32_t *
ws_leftovers(const WorkSet *ws)
{
    return ws->stack + WS_PAD;
}

HIDDEN void ws_free(WorkSet *ws);
HIDDEN int ws_begin(WorkSet *ws, Py_ssize_t arena_len);
HIDDEN int ws_reserve(WorkSet *ws, Py_ssize_t entries);
HIDDEN int drain_core(WorkSet *ws, const long long *addr_col,
                      const long long *leaf_col, Py_ssize_t arena_len,
                      const int32_t *stash, Py_ssize_t n_stash,
                      const int32_t *drained, Py_ssize_t n_drained,
                      long long *found, long long addr, long long leaf,
                      int levels);
HIDDEN void place_core(WorkSet *ws, int32_t *bucket_slots,
                       uint8_t *bucket_fill, const long long *index, int cap);

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
    long long *path_index; /* levels + 1: the accessed path's heap indices */
    int32_t *drained;      /* (levels + 1) * Z: its blocks' slot ids */
    char *snap; /* the block of interest's payload before its visit */
    int levels, cap, chunk_shift, allow_missing;
    Py_ssize_t block_bytes;
    long long chunk_mask, num_leaves, stash_limit;
    WorkSet ws;
};

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

HIDDEN extern PyTypeObject AccessKernelType;
HIDDEN void kernel_release(AccessKernel *self);
HIDDEN int kernel_hold(AccessKernel *self, PyObject *backend);
HIDDEN void kernel_drop(AccessKernel *self);
HIDDEN int kernel_payload(AccessKernel *self, long long slot, char **bytes);
HIDDEN int kernel_set_payload(AccessKernel *self, long long slot,
                              PyObject *data);
HIDDEN int kernel_set_mac(AccessKernel *self, long long slot, PyObject *mac);
HIDDEN int kernel_append(AccessKernel *self, long long addr, long long leaf,
                         PyObject *mac, const char *data,
                         Py_ssize_t data_len);
HIDDEN int tree_access(AccessKernel *tree, int readrmv, long long addr,
                       long long leaf, long long new_leaf, Visit *visit);

/* -- blake2b.c: BLAKE2b and blake2b_lanes ----------------------------- */

typedef struct {
    uint64_t h[8];
    uint64_t t; /* bytes compressed so far (inputs here stay far below 2^64) */
    uint8_t buf[128];
    size_t buflen, outlen;
} Blake2b;

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

HIDDEN void blake2b_init(Blake2b *s, size_t outlen, const uint8_t *key,
                         size_t keylen);
HIDDEN void blake2b_update(Blake2b *s, const uint8_t *in, size_t inlen);
HIDDEN void blake2b_absorb_key(Blake2b *s);
HIDDEN void blake2b_final(Blake2b *s, uint8_t *out);
HIDDEN void lane_message(Lane *lane, const uint8_t *message, size_t len);
HIDDEN void lane_digest(const Lane *lane, uint8_t out[64]);
/* The spelling this host runs; blake2b_lanes_choose() sets it, once, and
 * names it (LANES). */
HIDDEN extern void (*blake2b_lanes)(Lane *lane, int n);
HIDDEN const char *blake2b_lanes_choose(void);
HIDDEN PyObject *blake2b_digest(PyObject *self, PyObject *args);
HIDDEN PyObject *lanes_entry(PyObject *self, PyObject *args);

/* -- frontend.c: FrontendKernel --------------------------------------- */

/* PosMap counters are GC || IC: up to 96 bits (what the PRF and MAC
 * messages have room for), so they travel as 128-bit integers. */
typedef unsigned __int128 u128;

#define FK_MAX_LEVELS 64 /* recursion depth H: 2^48 blocks / fan-out 2 */

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

HIDDEN extern PyTypeObject FrontendKernelType;
HIDDEN PyObject *passes_entry(PyObject *self, PyObject *unused);
HIDDEN extern const HandleOps frontend_ops;
HIDDEN int random_leaf(PyObject *getrandbits, int levels, long long *out);
HIDDEN uint8_t *bitmap_byte(PyObject *bitmap, unsigned long long index);
HIDDEN int onchip_leaf_remap(const OnChip *chip, unsigned long long index,
                             long long *leaf, long long *new_leaf);
HIDDEN int request_is_write(PyObject *op, PyObject *data, PyObject *op_read,
                            PyObject *op_write, PyObject *config_error,
                            Py_ssize_t block_bytes);
HIDDEN int request_chain(PyObject *addr_obj, long long addr,
                         long long num_blocks, long long fanout, int levels,
                         unsigned long long *chain);
HIDDEN void raise_owner_gone(void);
HIDDEN void raise_reentrant(void);
HIDDEN PyObject *handle_access(const HandleOps *ops, PyObject *handle,
                               PyObject *result_type, PyObject *const *args,
                               Py_ssize_t nargs);

/* -- recursive.c: RecursiveKernel ------------------------------------- */

HIDDEN extern PyTypeObject RecursiveKernelType;
HIDDEN int frontend_kernel_behind(PyObject *access, PyObject **out,
                                  const HandleOps **ops);

/* -- access_loop.c: run_access_loop ----------------------------------- */

HIDDEN int replay_events(PyObject *access, PyObject *kernel,
                         const HandleOps *ops, const long long *line,
                         const int8_t *write, Py_ssize_t n, long long lpb,
                         PyObject *read_op, PyObject *write_op,
                         PyObject *payload, PyObject *table,
                         PyObject *miss_latency, double *cycles,
                         PyObject *latencies);
HIDDEN PyObject *run_access_loop(PyObject *self, PyObject *const *args,
                                 Py_ssize_t nargs);

/* -- serve.c: ServeKernel, serve_fold, route_column ------------------- */

HIDDEN extern PyTypeObject ServeKernelType;
HIDDEN extern uint32_t crc_table[256]; /* filled at module init */
HIDDEN PyObject *route_column(PyObject *self, PyObject *args);
HIDDEN PyObject *serve_fold(PyObject *self, PyObject *const *args,
                            Py_ssize_t nargs);

/* -- synth.c: trace synthesis and mt_draws ---------------------------- */

#define MAX_REFS_PER_MISS 1000 /* repro.proc.hierarchy.MAX_REFS_PER_MISS */

HIDDEN PyObject *synthesize_trace(PyObject *self, PyObject *args);
HIDDEN PyObject *mt_draws(PyObject *self, PyObject *args);

/* -- column.c and list_adapters.c ------------------------------------- */

HIDDEN extern PyTypeObject ColumnType;
HIDDEN PyObject *column_new(PyObject *module, PyObject *args);
HIDDEN extern PyMethodDef list_adapter_methods[];

/* -- _replay_core.c: interned at module init -------------------------- */

HIDDEN extern PyObject *str_tree_accesses, *str_observer, *str_on_path_read,
    *str_on_path_write, *str_grow, *str_stash, *str_reserve,
    *str_abort_access, *str_addr, *str_leaf, *str_data, *str_mac, *str_kernel,
    *str_posmap_tree_accesses, *str_plb_hit_level, *str_cycles, *str_events,
    *empty_tuple;

#endif /* REPRO_REPLAY_CORE_H */
