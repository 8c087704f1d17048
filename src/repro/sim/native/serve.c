/* serve.c: ServeKernel, serve_fold and route_column, serve on columns.
 *
 * An epoch of repro.serve.server.OramService is three steps — admit,
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

#include "_replay_core.h"

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
 * order, tenant t's offer — min(burst, rows left) — from its cursor in
 * stream order, each row appended to its routed shard's log: the tenant,
 * the address (through the directory when there is one) and the write
 * flag.  A row whose shard already admitted `capacity` rows this epoch
 * is shed (counted, the cursor moves on) or deferred (counted, the
 * tenant stops until the next epoch).  Moves each tenant's ledger (issued, the cursor; shed;
 * deferred) and each shard's (shed; deferred; the depth sample, total
 * and max; mapped), leaves each shard's queue in [start, fill), appends
 * the fills to `ends`.  0 on success, -1 with an exception set.
 *
 * Everything is checked before any row moves: the ends, each cursor
 * inside its stream, each offered window's routes in [0, shards), its
 * addresses inside the directory (>= 0 without one), and room in each
 * log for the most the epoch can admit there.  Each row re-checks what
 * it indexes with: a column can alias another, so one written here can
 * be one read here.  Runs no Python. */
static int
serve_admit(ServeKernel *self, Py_ssize_t burst)
{
    const Py_ssize_t tenants = self->tenants, shards = self->shards,
                     capacity = self->capacity, n = PyList_GET_SIZE(self->ends);
    const long long bound =
        self->directory.acquired ? self->directory.len : LLONG_MAX;
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
        st->stop = st->cursor + Py_MIN(burst, length - st->cursor);
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
    return 0;
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
 * observer, the clock) cannot run another. */
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
    if (stamp != NULL && serve_admit(self, burst) >= 0) {
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

PyTypeObject ServeKernelType = {
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
uint32_t crc_table[256];

PyObject *
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
PyObject *
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
