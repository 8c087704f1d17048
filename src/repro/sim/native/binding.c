/* binding.c: column and ledger binding, and the small helpers.
 *
 * Every kernel reaches its Python owner's data through the buffer
 * protocol as a Col: a typed 1-D buffer checked once for its item width
 * (col_acquire), and, for a column that never changes size, for its
 * length too, then held for the life of a handle (col_acquire_fixed).
 * A ledger — the counters one owner keeps, laid out by its X-macro in
 * _replay_core.h — is such a column, counted in place by tally.
 */

#include "_replay_core.h"

/* Acquire a 1-D contiguous buffer of `kind` items, writable on request.
 * Returns 0 on success, -1 with an exception set otherwise. */
int
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

void
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
int
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

/* Format an address the way f"{a:#x}" does — "0x" + lowercase hex,
 * "0x0" for zero, sign before the prefix — spelled out via snprintf
 * because PyErr_Format has no 64-bit hex conversion. */
void
format_hex(long long addr, char buf[32])
{
    if (addr < 0)
        snprintf(buf, 32, "-0x%llx",
                 (unsigned long long)(-(unsigned long long)addr));
    else
        snprintf(buf, 32, "0x%llx", (unsigned long long)addr);
}
/* Grow *buf (elements of `size` bytes) to hold at least `need`. */
int
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

/* int(obj) as int64 for a column store; the array's own OverflowError
 * and TypeError otherwise. */
int
as_int64(PyObject *obj, long long *out)
{
    *out = PyLong_AsLongLong(obj);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}
