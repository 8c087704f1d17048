/* recursive.c: RecursiveKernel, one Recursive ORAM request per call.
 *
 * A per-frontend handle whose access() is one whole
 * RecursiveFrontend.access (§3.2, the R_X8 baseline) — leaf-mode on-chip
 * lookup and remap, one tree READ per PosMap level with the label remap
 * as a C visit, the first-touch substitution, the data access — over
 * the frontend's own columns and its per-level backends' AccessKernels,
 * built from FrontendKernel's own parts.  frontend_kernel_behind finds
 * the handle of either type behind a frontend's bound access.
 */

#include "_replay_core.h"

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

PyTypeObject RecursiveKernelType = {
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
int
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
