/* frontend.c: FrontendKernel, one processor request per call.
 *
 * A per-frontend handle whose access() is one whole PlbFrontend.access
 * (§4.2.4) — chain and tag arithmetic, PLB lookup loop, on-chip
 * lookup_and_remap, uncompressed / flat / compressed remap (§5) with
 * group remaps and sibling relocation, first-touch override, PLB refill
 * and victim append, the data access, PMMAC verify and seal (§6) — over
 * the frontend's own columns (the PLB's, the on-chip table, the
 * first-touch bitmaps), calling the AccessKernel's tree access directly
 * with a C visit in place of the update closure.  Every BLAKE2b
 * compression a request has ready at one moment is one lane of one
 * blake2b_lanes call.  RecursiveKernel is built from its parts.
 */

#include "_replay_core.h"

#define LEVEL_SHIFT 48   /* repro.frontend.addrgen.LEVEL_SHIFT */
#define LEVEL_INDEX_MASK ((1ULL << LEVEL_SHIFT) - 1)

enum { FORMAT_UNCOMPRESSED, FORMAT_FLAT, FORMAT_COMPRESSED };

#define FRONTEND_REFS \
    (sizeof(((FrontendKernel *)0)->refs) / sizeof(PyObject *))

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
 * leaf pair (its two first digest words), the data block's seal (a
 * WRITE's payload, or a first READ's zeros) and a PLB victim's seal.  The
 * step takes one only for the inputs its lane was given, else computes
 * its own; one no step takes is dropped, never counted. */
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
    int write;
    const uint8_t *payload; /* a WRITE's bytes when its seal can be a lane */
    AheadPair pair;
    AheadSeal seal, evicted;
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
int
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

/* blake2b_lanes calls and fk_mac's own compressions since import, for
 * _passes(). */
static unsigned long long lanes_calls, scalar_compressions;

static inline void
run_lanes(Lane *lane, int n)
{
    lanes_calls++;
    blake2b_lanes(lane, n);
}

/* _passes() -> (lanes calls, scalar compressions): tests only. */
PyObject *
passes_entry(PyObject *self, PyObject *unused)
{
    return Py_BuildValue("(KK)", lanes_calls, scalar_compressions);
}

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

/* What a block never written holds: a first READ seals these bytes. */
static const uint8_t zero_block[128];

/* The lanes of a remap's leaf pair, PRF_K(a || c) and PRF_K(a || c'),
 * from lane[0] on — and, on the data level with a third of `room` free,
 * the data block's seal MAC(c' || a || d), which is ready as soon as c'
 * is: d is a WRITE's payload when it can be a lane, and the zeros of a
 * never-written block on a READ at count 0 (data_visit takes that one
 * only for a block that has no MAC and holds zeros).  Returns how many
 * lanes it filled. */
static int
remap_lanes(Request *rq, int level, unsigned long long child, u128 count,
            u128 new_count, Lane *lane, int room)
{
    FrontendKernel *fk = rq->fk;
    lane_prf(&lane[0], &fk->prf_state, child, count);
    lane_prf(&lane[1], &fk->prf_state, child, new_count);
    if (level > 0 || room < 3 || !mac_fits_lane(fk, new_count))
        return 2;
    if (rq->payload != NULL)
        lane_mac(&lane[2], fk, new_count, child, rq->payload);
    else if (!rq->write && count == 0)
        lane_mac(&lane[2], fk, new_count, child, zero_block);
    else
        return 2;
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
                                  m->new_counter, lane, 3);
        run_lanes(lane, n);
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
        scalar_compressions += (20 + (size_t)fk->block_bytes + 127) / 128;
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
uint8_t *
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

/* readrmv a PosMap-managed block into the handle's work buffer; `also`
 * is the second statistic the fetch moves (refills or relocations) once
 * the tree access succeeded.  Returns the block's MAC (a new reference),
 * for the caller to verify, or NULL. */
static PyObject *
request_fetch(Request *rq, unsigned long long tagged, long long leaf,
              long long new_leaf, int also)
{
    FrontendKernel *fk = rq->fk;
    FetchVisit fetch = {{fetch_visit}, fk, NULL};
    if (tree_access(rq->tree, 1, (long long)tagged, leaf, new_leaf,
                    &fetch.base) < 0) {
        Py_XDECREF(fetch.mac);
        return NULL;
    }
    rq->posmap_accesses++;
    tally(&fk->stats, C_POSMAP_TREE, 1);
    tally(&fk->stats, also, 1);
    return fetch.mac;
}

/* A seal made ahead for exactly this block and counter, or NULL. */
static inline const uint8_t *
ahead_seal(const AheadSeal *seal, unsigned long long tagged, u128 counter)
{
    return seal->ready && seal->tagged == tagged && seal->counter == counter
               ? seal->tag
               : NULL;
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
    /* A READ seals the d it verifies: both tags are one call.  A READ of
     * a block never written (no MAC, zeros) takes the seal its remap's
     * lanes made of the zeros. */
    uint8_t tags[2][64];
    const uint8_t *verified = NULL, *sealed_ahead = NULL;
    if (visit->write_data == NULL && mac != Py_None &&
        mac_fits_lane(fk, visit->old_counter) &&
        mac_fits_lane(fk, visit->new_counter)) {
        Lane lane[2];
        lane_mac(&lane[0], fk, visit->old_counter, visit->addr, fk->work);
        lane_mac(&lane[1], fk, visit->new_counter, visit->addr, fk->work);
        run_lanes(lane, 2);
        lane_digest(&lane[0], tags[0]);
        lane_digest(&lane[1], tags[1]);
        verified = tags[0];
        sealed_ahead = tags[1];
    }
    /* A seal is only ahead with MAC lanes on, so block_bytes fits
     * zero_block by then. */
    else if (visit->write_data == NULL && mac == Py_None &&
             (sealed_ahead = ahead_seal(&rq->seal, visit->addr,
                                        visit->new_counter)) != NULL &&
             memcmp(fk->work, zero_block, block_bytes) != 0)
        sealed_ahead = NULL;
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
        sealed_ahead = ahead_seal(&rq->seal, visit->addr, visit->new_counter);
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

/* The way plb.insert of `tagged` takes, found without moving anything:
 * the lowest free way of its set (*evicting = 0), else the one way when
 * direct-mapped, the first way with the smallest last_use otherwise
 * (*evicting = 1).  -1 when the set already holds the tag. */
static long long
plb_way(const FrontendKernel *fk, unsigned long long tagged, int *evicting)
{
    const long long *tags = fk->plb_tags.data;
    const long long *last_use = fk->plb_last_use.data;
    const long long base = plb_set_base(fk, tagged);
    long long free_way = -1, lru = base;
    for (long long w = base; w < base + fk->ways; w++) {
        if (tags[w] == (long long)tagged)
            return -1;
        if (free_way < 0 && tags[w] == -1)
            free_way = w;
        if (last_use[w] < last_use[lru])
            lru = w;
    }
    *evicting = free_way < 0;
    return *evicting ? lru : free_way;
}

/* plb.insert of the block in fk->work, stamped with the clock, into the
 * way plb_way picks — replaced in place when evicting.  Returns the way
 * through *way_out and 1 when a victim went: its fields through *victim,
 * its payload in fk->work. */
static int
fk_plb_insert(FrontendKernel *fk, unsigned long long tagged, long long leaf,
              u128 counter, long long *way_out, Victim *victim)
{
    long long *tags = fk->plb_tags.data, *leaves = fk->plb_leaves.data;
    long long *last_use = fk->plb_last_use.data;
    int evicting;
    const long long way = plb_way(fk, tagged, &evicting);
    if (way < 0) {
        PyErr_SetString(PyExc_ValueError, "block already resident in PLB");
        return -1;
    }
    if (evicting) {
        const long long base = plb_set_base(fk, tagged);
        for (long long w = base; fk->ways > 1 && w < base + fk->ways; w++)
            if (last_use[w] < 0 || last_use[w] > plb_clock(fk)) {
                PyErr_Format(PyExc_ValueError,
                             "PLB way %lld was last used at %lld; the clock "
                             "reads %lld", w, last_use[w], plb_clock(fk));
                return -1;
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

/* Every compression a refill has ready once its PosMap block is in
 * fk->work, in one call: the block's verify MAC(c || a || d) into
 * `verified`, the seal of the victim fk_plb_insert is about to evict,
 * and the leaf pair of the next level's entry (whose counters are in the
 * block) — with the data block's seal when a lane is left.  Only with
 * MAC lanes on and `mac` a bytes object or None, so that nothing between
 * this call and the insert runs Python code.  Returns whether it made
 * the verify. */
static int
refill_lanes(Request *rq, int level, const Mapping *m, PyObject *mac,
             uint8_t verified[64])
{
    FrontendKernel *fk = rq->fk;
    rq->evicted.ready = 0;
    if (!fk->mac_lane || (mac != Py_None && !PyBytes_CheckExact(mac)))
        return 0;
    Lane lane[MAX_LANES];
    int n = 0;
    const unsigned long long tagged = rq->tags[level];
    const int verify = mac != Py_None && mac_fits_lane(fk, m->old_counter);
    if (verify)
        lane_mac(&lane[n++], fk, m->old_counter, tagged, fk->work);
    /* A way the insert then refuses is only a lane it drops. */
    int evicting;
    const long long way = plb_way(fk, tagged, &evicting);
    const long long *tags = fk->plb_tags.data;
    AheadSeal *evicted = &rq->evicted;
    if (way >= 0 && evicting && tags[way] >= 0) {
        const uint64_t *words = (uint64_t *)fk->plb_counters.data + 2 * way;
        evicted->tagged = (unsigned long long)tags[way];
        evicted->counter = ((u128)words[1] << 64) | words[0];
        evicted->ready = mac_fits_lane(fk, evicted->counter);
        if (evicted->ready)
            lane_mac(&lane[n++], fk, evicted->counter, evicted->tagged,
                     plb_payload(fk, way));
    }
    const int pair = n, child = level - 1;
    const long long slot =
        (long long)(rq->chain[child] % (unsigned long long)fk->fanout);
    u128 count, new_count;
    if (fk->tree_levels > 0 && fk->format != FORMAT_UNCOMPRESSED &&
        entry_counters(fk, fk->work, slot, &count, &new_count) != ENTRY_FULL)
        n += remap_lanes(rq, child, rq->tags[child], count, new_count,
                         &lane[n], MAX_LANES - n);
    if (n == 0)
        return 0;
    run_lanes(lane, n);
    if (verify)
        lane_digest(&lane[0], verified);
    if (evicted->ready)
        lane_digest(&lane[verify], evicted->tag);
    if (n > pair)
        keep_remap_lanes(rq, rq->tags[child], count, new_count, &lane[pair],
                         n - pair);
    return verify;
}

/* PlbFrontend._evict_plb_entry: the victim (its payload in fk->work)
 * re-enters the stash with a fresh MAC over its current counter — the
 * one the refill's lanes made, when they made it for this victim. */
static int
fk_evict(Request *rq, const Victim *victim)
{
    FrontendKernel *fk = rq->fk;
    tally(&fk->stats, C_PLB_EVICTIONS, 1);
    PyObject *sealed =
        fk_seal(fk, (unsigned long long)victim->tagged, victim->counter,
                fk->work,
                ahead_seal(&rq->evicted, (unsigned long long)victim->tagged,
                           victim->counter));
    if (sealed == NULL)
        return -1;
    int rc = request_append(rq, victim->tagged, victim->leaf, sealed, fk->work);
    Py_DECREF(sealed);
    return rc;
}

/* PlbFrontend._refill_plb: readrmv the PosMap block of `level`, verify
 * it, install it in the PLB, append the victim.  *way is where the
 * block now lives.  The verify is compared before the insert, so a
 * mismatch leaves the PLB as it was. */
static int
fk_refill(Request *rq, int level, const Mapping *m, long long *way)
{
    FrontendKernel *fk = rq->fk;
    PyObject *mac = request_fetch(rq, rq->tags[level], m->leaf, m->new_leaf,
                                  C_PLB_REFILLS);
    if (mac == NULL)
        return -1;
    uint8_t verified[64];
    const int ahead = refill_lanes(rq, level, m, mac, verified);
    const int rc = fk_verify(fk, mac, rq->tags[level], m->old_counter,
                             fk->work, ahead ? verified : NULL);
    Py_DECREF(mac);
    if (rc < 0)
        return -1;
    tally(&fk->plb_ledger, PLB_CLOCK, 1);
    Victim victim;
    const int evicting = fk_plb_insert(fk, rq->tags[level], m->new_leaf,
                                       m->new_counter, way, &victim);
    if (evicting <= 0)
        return evicting;
    return fk_evict(rq, &victim);
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
 * PLB-resident, else readrmv + re-seal + append (§5.2.2).  Its leaves
 * are one call before the fetch (one lane when it is resident: only the
 * new leaf is taken), its verify and seal one call after it — each
 * counted where the reference derives it. */
static int
fk_relocate(Request *rq, unsigned long long tagged, u128 old_counter,
            u128 new_counter)
{
    FrontendKernel *fk = rq->fk;
    const int prf = fk->tree_levels > 0; /* L <= 0: every leaf is 0 */
    const long long resident = plb_find(fk, tagged);
    tally(&fk->prf_ledger, PRF_CALLS, prf); /* the new leaf, before the peek */
    if (resident < -1)
        return -1;
    long long new_leaf = 0, old_leaf = 0;
    if (prf) {
        Lane lane[2];
        lane_prf(&lane[0], &fk->prf_state, tagged, new_counter);
        lane_prf(&lane[1], &fk->prf_state, tagged, old_counter);
        const int n = resident < 0 ? 2 : 1;
        run_lanes(lane, n);
        const uint64_t mask = (1ULL << fk->tree_levels) - 1;
        new_leaf = (long long)(lane[0].h[0] & mask);
        if (n > 1)
            old_leaf = (long long)(lane[1].h[0] & mask);
    }
    if (resident >= 0) {
        ((long long *)fk->plb_leaves.data)[resident] = new_leaf;
        plb_set_counter(fk, resident, new_counter);
        return 0;
    }
    tally(&fk->prf_ledger, PRF_CALLS, prf); /* the old leaf */
    PyObject *mac =
        request_fetch(rq, tagged, old_leaf, new_leaf, C_GROUP_RELOCATIONS);
    if (mac == NULL)
        return -1;
    uint8_t tags[2][64];
    const uint8_t *verified = NULL, *sealed_ahead = NULL;
    if (mac_fits_lane(fk, new_counter) &&
        (mac == Py_None || mac_fits_lane(fk, old_counter))) {
        Lane lane[2];
        int n = 0;
        if (mac != Py_None)
            lane_mac(&lane[n++], fk, old_counter, tagged, fk->work);
        lane_mac(&lane[n++], fk, new_counter, tagged, fk->work);
        run_lanes(lane, n);
        if (n > 1) {
            lane_digest(&lane[0], tags[0]);
            verified = tags[0];
        }
        lane_digest(&lane[n - 1], tags[1]);
        sealed_ahead = tags[1];
    }
    int rc = fk_verify(fk, mac, tagged, old_counter, fk->work, verified);
    Py_DECREF(mac);
    if (rc < 0)
        return -1;
    PyObject *sealed =
        fk_seal(fk, tagged, new_counter, fk->work, sealed_ahead);
    if (sealed == NULL)
        return -1;
    rc = request_append(rq, (long long)tagged, new_leaf, sealed, fk->work);
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
int
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
int
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
int
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
    rq->write = write;
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

void
raise_owner_gone(void)
{
    PyErr_SetString(PyExc_ReferenceError,
                    "the frontend of this kernel, or its backend, is gone");
}

void
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
    rq.pair.ready = rq.seal.ready = rq.evicted.ready = 0;
    int rc = fk_run(&rq, addr_obj, addr, op, data, data_out, hit_level_out);
    if (rc < 0 && data_out != NULL)
        Py_CLEAR(*data_out);
    *posmap_out = rq.posmap_accesses;
    return rc;
}

const HandleOps frontend_ops = {fk_enter, fk_request, fk_leave};

/* handle.access(addr, op, data) -> AccessResult, for either handle. */
PyObject *
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

PyTypeObject FrontendKernelType = {
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
