/* Compiled kernels: the CSR matvec and the lookup-table rule.
 *
 * Plain C over the buffer protocol, so the extension builds with nothing
 * but a C compiler.  The loops trust their buffers: latflow.backend checks
 * dtypes, contiguity and lengths before every call, and SparseMatrix
 * validates its column indices when it is built.
 *
 * Build without -ffast-math: the key guard relies on rint rounding half to
 * even, as np.rint does, and on every comparison with NaN being false.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>

/* must equal latflow.rules.KEY_TOL */
#define KEY_TOL 1e-6

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

static PyObject *
table_lookup(PyObject *self, PyObject *args)
{
    Py_buffer pre, table, out;
    long long lo;
    Py_ssize_t width, stride;
    if (!PyArg_ParseTuple(args, "y*y*Lnnw*:table_lookup",
                          &pre, &table, &lo, &width, &stride, &out))
        return NULL;
    const double *p = pre.buf;
    const int64_t *t = table.buf;
    double *y = out.buf;
    Py_ssize_t n = pre.len / (Py_ssize_t)sizeof(double), bad = -1;
    /* keys are compared as doubles, so an out-of-range key never reaches
       the integer conversion */
    const double first = (double)lo, end = (double)(lo + width);

    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n; i++) {
        double key = rint(p[i]);
        if (!(fabs(p[i] - key) <= KEY_TOL && key >= first && key < end)) {
            bad = i;
            break;
        }
        int64_t v = t[i * stride + ((int64_t)key - lo)];
        if (v < 0) {
            bad = i;
            break;
        }
        y[i] = (double)v;
    }
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&pre);
    PyBuffer_Release(&table);
    PyBuffer_Release(&out);
    return PyLong_FromSsize_t(bad);
}

static PyMethodDef methods[] = {
    {"csr_matvec", csr_matvec, METH_VARARGS,
     "csr_matvec(data, indices, indptr, x, out): out = A @ x for a CSR "
     "matrix, each row summed in order."},
    {"table_lookup", table_lookup, METH_VARARGS,
     "table_lookup(pre, table, lo, width, stride, out): "
     "out[i] = table[i*stride + rint(pre[i]) - lo].  Returns -1, or the "
     "first index whose key is not within 1e-6 of an integer, lies outside "
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
