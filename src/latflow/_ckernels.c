/* Compiled kernels: the CSR matvec, in float64 and in integers, and the
 * integer-keyed table lookup.
 *
 * Plain C over the buffer protocol, so the extension builds with nothing
 * but a C compiler.  The loops trust their buffers: latflow.backend checks
 * dtypes, contiguity and lengths before every call, and SparseMatrix
 * validates its column indices when it is built.
 *
 * Build with -ffp-contract=off: each float64 row is summed in order, one
 * rounded multiply and one rounded add per entry, never a fused
 * multiply-add.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

static PyObject *
csr_matvec(PyObject *self, PyObject *args)
{
    Py_buffer data, indices, indptr, x, out;
    if (!PyArg_ParseTuple(args, "y*y*y*y*w*:csr_matvec",
                          &data, &indices, &indptr, &x, &out))
        return NULL;
    const double *d = data.buf, *xv = x.buf;
    const int64_t *col = indices.buf, *ptr = indptr.buf;
    double *y = out.buf;
    Py_ssize_t n_rows = indptr.len / (Py_ssize_t)sizeof(int64_t) - 1;

    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        double acc = 0.0;
        for (int64_t j = ptr[i]; j < ptr[i + 1]; j++)
            acc += d[j] * xv[col[j]];
        y[i] = acc;
    }
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&data);
    PyBuffer_Release(&indices);
    PyBuffer_Release(&indptr);
    PyBuffer_Release(&x);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* The caller guarantees that no row's sum of |weight| * 255 reaches 2^31,
   so the int32 accumulator cannot overflow and the product is exact. */
static PyObject *
csr_matvec_u8(PyObject *self, PyObject *args)
{
    Py_buffer data, indices, indptr, x, out;
    if (!PyArg_ParseTuple(args, "y*y*y*y*w*:csr_matvec_u8",
                          &data, &indices, &indptr, &x, &out))
        return NULL;
    const int32_t *d = data.buf, *col = indices.buf;
    const int64_t *ptr = indptr.buf;
    const uint8_t *xv = x.buf;
    int32_t *y = out.buf;
    Py_ssize_t n_rows = indptr.len / (Py_ssize_t)sizeof(int64_t) - 1;

    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        int32_t acc = 0;
        for (int64_t j = ptr[i]; j < ptr[i + 1]; j++)
            acc += d[j] * xv[col[j]];
        y[i] = acc;
    }
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&data);
    PyBuffer_Release(&indices);
    PyBuffer_Release(&indptr);
    PyBuffer_Release(&x);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

static PyObject *
table_lookup(PyObject *self, PyObject *args)
{
    Py_buffer keys, table, out;
    long long lo;
    Py_ssize_t width, stride;
    if (!PyArg_ParseTuple(args, "y*y*Lnnw*:table_lookup",
                          &keys, &table, &lo, &width, &stride, &out))
        return NULL;
    const int32_t *k = keys.buf;
    const int8_t *t = table.buf;
    uint8_t *y = out.buf;
    Py_ssize_t n = keys.len / (Py_ssize_t)sizeof(int32_t), bad = -1;

    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n; i++) {
        /* modulo 2^64 a key below lo wraps above every width, so one
           unsigned compare checks both ends of the range */
        uint64_t j = (uint64_t)(int64_t)k[i] - (uint64_t)lo;
        if (j >= (uint64_t)width) {
            bad = i;
            break;
        }
        int8_t v = t[i * stride + (Py_ssize_t)j];
        if (v < 0) {
            bad = i;
            break;
        }
        y[i] = (uint8_t)v;
    }
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&keys);
    PyBuffer_Release(&table);
    PyBuffer_Release(&out);
    return PyLong_FromSsize_t(bad);
}

static PyMethodDef methods[] = {
    {"csr_matvec", csr_matvec, METH_VARARGS,
     "csr_matvec(data, indices, indptr, x, out): out = A @ x for a float64 "
     "CSR matrix, each row summed in order."},
    {"csr_matvec_u8", csr_matvec_u8, METH_VARARGS,
     "csr_matvec_u8(data, indices, indptr, x, out): out = A @ x in int32 "
     "for int32 weights and column indices and a uint8 vector."},
    {"table_lookup", table_lookup, METH_VARARGS,
     "table_lookup(keys, table, lo, width, stride, out): "
     "out[i] = table[i*stride + keys[i] - lo] for int32 keys and an int8 "
     "table.  Returns -1, or the first index whose key lies outside "
     "[lo, lo + width) or hits a -1 entry."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckernels", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    return PyModule_Create(&module);
}
