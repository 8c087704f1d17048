/* column.c: column(), the one allocator of fixed-size columns.
 *
 * A typed buffer that never changes size, over PyMem_RawCalloc memory
 * (zeroed) or PyMem_RawMalloc memory (uninitialised), freed with the
 * object.  Uninitialised memory costs a page only once something is
 * written to it: the tree's bucket_slots are read only below their
 * bucket's fill, so they need no zeroing, and an untouched bucket of a
 * paper-scale tree costs no memory. */

#include "_replay_core.h"

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

PyTypeObject ColumnType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.native._replay_core.Column",
    .tp_basicsize = sizeof(Column),
    .tp_dealloc = (destructor)column_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A fixed-size, writable typed buffer (see column()).",
    .tp_as_buffer = &column_as_buffer,
};

PyObject *
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
