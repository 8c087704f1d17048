/* access_loop.c: run_access_loop, one replay slice in one call.
 *
 * Straight off a trace's array('q') / array('b') columns (zero-copy via
 * PEP 3118): each event's line->block translation, its frontend
 * request, its latency looked up by tree-access count and the
 * event-ordered fold onto the running cycle count in one C double
 * (bit-identical to CPython float +=) — for a frontend on its
 * FrontendKernel or RecursiveKernel without a Python frame, an
 * AccessResult or a boxed address.  Simulated time is floats: a latency
 * of any other type is a TypeError.  replay_events is the loop;
 * ServeKernel runs it too.
 */

#include "_replay_core.h"

/* NULL, with the TypeError for a latency that is not a float. */
static PyObject *
refuse_latency(PyObject *latency, long count)
{
    PyErr_Format(PyExc_TypeError,
                 "the latency of %ld tree accesses must be a float, not "
                 "%.100s", count, Py_TYPE(latency)->tp_name);
    return NULL;
}

/* The latency of an event that took `count` tree accesses — a borrowed
 * reference to a float in `table` (the list indexed by count), where a
 * count not yet seen (past the end, or None) is miss_latency(count),
 * computed once and stored.  An entry or a result that is not a float
 * is refused, and such a result is not stored. */
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
        if (PyFloat_CheckExact(latency))
            return latency;
        if (latency != Py_None)
            return refuse_latency(latency, count);
    }
    PyObject *boxed = PyLong_FromLong(count);
    if (boxed == NULL)
        return NULL;
    PyObject *latency = PyObject_CallOneArg(miss_latency, boxed);
    Py_DECREF(boxed);
    if (latency == NULL)
        return NULL;
    if (!PyFloat_CheckExact(latency)) {
        refuse_latency(latency, count);
        Py_DECREF(latency);
        return NULL;
    }
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
 * (None: not kept) and added onto `*cycles`.  `kernel` (NULL: none) is the
 * frontend kernel behind `access`, driven C to C through `ops` — no
 * Python frame, no AccessResult and no boxed address per event, one
 * entry (owners held, observers read) for the whole slice; anything
 * else — another frontend, a patched or wrapped access — gets the
 * generic calls.  The one loop run_access_loop and ServeKernel.epoch
 * both run.  0, or -1 with the exception set, the frontend's state
 * where the failing request left it and `latencies` cut back to what it
 * held. */
int
replay_events(PyObject *access, PyObject *kernel, const HandleOps *ops,
              const long long *line, const int8_t *write, Py_ssize_t n,
              long long lpb, PyObject *read_op, PyObject *write_op,
              PyObject *payload, PyObject *table, PyObject *miss_latency,
              double *cycles, PyObject *latencies)
{
    if (kernel != NULL && ops->enter(kernel) < 0)
        return -1;
    const Py_ssize_t kept =
        latencies != Py_None ? PyList_GET_SIZE(latencies) : 0;
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
        if (latency == NULL)
            goto done;
        *cycles += PyFloat_AS_DOUBLE(latency);
        if (latencies != Py_None && PyList_Append(latencies, latency) < 0)
            goto done;
    }
    rc = 0;

done:
    if (kernel != NULL)
        ops->leave(kernel);
    if (rc < 0 && latencies != Py_None && PyList_GET_SIZE(latencies) > kept) {
        PyObject *type, *value, *tb;
        PyErr_Fetch(&type, &value, &tb);
        if (PyList_SetSlice(latencies, kept, PY_SSIZE_T_MAX, NULL) < 0)
            PyErr_Clear();
        PyErr_Restore(type, value, tb);
    }
    return rc;
}

/* run_access_loop(access, line_addrs, is_write, lines_per_block, read_op,
 *                 write_op, payload, table, miss_latency, cycles,
 *                 latencies) -> cycles
 *
 * One replay slice, whole: replay_events over the line and write
 * columns (zip: the shorter one ends the slice), with the frontend
 * kernel behind `access` when there is one, from `cycles` read once as
 * a C double (PyFloat_AsDouble rounds an int as int + float does).
 * Returns the new total, a float — `cycles` itself for an empty slice.
 * On an error the exception propagates, the caller's total stays what it
 * was and `latencies` holds what it held. */
PyObject *
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
    double total = 0.0;
    if (n == 0)
        result = Py_NewRef(cycles);
    else if (((total = PyFloat_AsDouble(cycles)) != -1.0 || !PyErr_Occurred())
             && frontend_kernel_behind(access, &kernel, &ops) == 0) {
        if (replay_events(access, kernel, ops, lines.data, writes.data, n,
                          lpb, args[4], args[5], args[6], args[7], args[8],
                          &total, latencies) == 0)
            result = PyFloat_FromDouble(total);
        Py_XDECREF(kernel);
    }
    col_release(&lines);
    col_release(&writes);
    return result;
}
