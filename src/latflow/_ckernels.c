/* Compiled kernels: the CSR matvec, in float64 and in integers, and the
 * integer-keyed table lookup.
 *
 * The integer matvec has one loop per row width from 1 to MAX_FIXED_WIDTH:
 * when every row holds the same number w of entries, row i is
 * data[i*w : (i+1)*w], so the loop reads no row pointers and the compiler
 * unrolls each row fully, as the ELL format does (Bell & Garland, SC'09).
 * Every lattice automaton and random Boolean network has such a matrix.
 *
 * Plain C over the buffer protocol, so the extension builds with nothing
 * but a C compiler.  The loops trust their buffers: latflow.backend checks
 * dtypes, contiguity and lengths, and that a row width spans the entries,
 * before every call, and SparseMatrix validates its column indices when it
 * is built.
 *
 * Build with -ffp-contract=off: each float64 row is summed in order, one
 * rounded multiply and one rounded add per entry, never a fused
 * multiply-add.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* The interface version: latflow.backend uses the extension only when its
   VERSION equals the one it was written for, so a build of older source,
   whose functions take other arguments, counts as absent. */
#define KERNELS_VERSION 2
#define MAX_FIXED_WIDTH 9

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

/* Rows of exactly W entries each, W a constant, so each row unrolls. */
#define FIXED_WIDTH_ROWS(W)                                               \
    static void rows_##W(const int32_t *d, const int32_t *col,            \
                         const uint8_t *xv, int32_t *y, Py_ssize_t n_rows) \
    {                                                                     \
        for (Py_ssize_t i = 0; i < n_rows; i++, d += W, col += W) {       \
            int32_t acc = 0;                                              \
            for (int j = 0; j < W; j++)                                   \
                acc += d[j] * xv[col[j]];                                 \
            y[i] = acc;                                                   \
        }                                                                 \
    }
FIXED_WIDTH_ROWS(1)
FIXED_WIDTH_ROWS(2)
FIXED_WIDTH_ROWS(3)
FIXED_WIDTH_ROWS(4)
FIXED_WIDTH_ROWS(5)
FIXED_WIDTH_ROWS(6)
FIXED_WIDTH_ROWS(7)
FIXED_WIDTH_ROWS(8)
FIXED_WIDTH_ROWS(9)

static void (*const fixed_width_rows[MAX_FIXED_WIDTH + 1])(
    const int32_t *, const int32_t *, const uint8_t *, int32_t *, Py_ssize_t) = {
    NULL, rows_1, rows_2, rows_3, rows_4, rows_5, rows_6, rows_7, rows_8, rows_9,
};

/* The caller guarantees that no row's sum of |weight| * 255 reaches 2^31,
   so the int32 accumulator cannot overflow and the product is exact, and
   that a width from 1 to MAX_FIXED_WIDTH is the length of every row.  Any
   other width runs the CSR loop over the row pointers. */
static PyObject *
csr_matvec_u8(PyObject *self, PyObject *args)
{
    Py_buffer data, indices, indptr, x, out;
    Py_ssize_t width;
    if (!PyArg_ParseTuple(args, "y*y*y*y*w*n:csr_matvec_u8",
                          &data, &indices, &indptr, &x, &out, &width))
        return NULL;
    const int32_t *d = data.buf, *col = indices.buf;
    const int64_t *ptr = indptr.buf;
    const uint8_t *xv = x.buf;
    int32_t *y = out.buf;
    Py_ssize_t n_rows = indptr.len / (Py_ssize_t)sizeof(int64_t) - 1;

    Py_BEGIN_ALLOW_THREADS
    if (width > 0 && width <= MAX_FIXED_WIDTH) {
        fixed_width_rows[width](d, col, xv, y, n_rows);
    } else {
        for (Py_ssize_t i = 0; i < n_rows; i++) {
            int32_t acc = 0;
            for (int64_t j = ptr[i]; j < ptr[i + 1]; j++)
                acc += d[j] * xv[col[j]];
            y[i] = acc;
        }
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
     "csr_matvec_u8(data, indices, indptr, x, out, width): out = A @ x in "
     "int32 for int32 weights and column indices and a uint8 vector; a "
     "width from 1 to 9 is the length of every row and runs that width's "
     "unrolled loop, any other width the CSR loop."},
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
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntConstant(m, "VERSION", KERNELS_VERSION) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
