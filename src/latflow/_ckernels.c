/* Compiled kernels: the CSR matvec, in float64 and in integers, the
 * stencil matvec of lattice automata, and the integer-keyed table lookup.
 *
 * The integer matvec has one loop per row width from 1 to MAX_FIXED_WIDTH:
 * when every row holds the same number w of entries, row i is
 * data[i*w : (i+1)*w], so the loop reads no row pointers and the compiler
 * unrolls each row fully, as the ELL format does (Bell & Garland, SC'09).
 * Every lattice automaton and random Boolean network has such a matrix.
 *
 * A lattice automaton's matrix is one stencil shifted to every cell of a
 * grid, the DIA format of the same paper: stencil_matvec_u8 reads no
 * column indices and no per-entry weights.  For each grid row and each tap
 * it adds weight * source row, shifted by the tap's column offset, to an
 * int16 accumulator row: a straight loop over uint8 bytes that the compiler
 * vectorises.  The columns that wrap are the same loop over the other end
 * of the source row, so no index is reduced with %.  stencil_check tells,
 * once per matrix, whether its CSR arrays are exactly such a stencil.
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
#define KERNELS_VERSION 4
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

/* Whether every tap offset is smaller than the grid, so that one add or
   subtract brings a shifted row or column back inside it. */
static int
taps_fit(Py_ssize_t height, Py_ssize_t width, Py_ssize_t n_taps,
         const int32_t *dr, const int32_t *dc)
{
    for (Py_ssize_t t = 0; t < n_taps; t++)
        if (dr[t] <= -height || dr[t] >= height || dc[t] <= -width || dc[t] >= width)
            return 0;
    return 1;
}

/* acc[c] += w * src[c] for c < n, in int16 */
static void
add_tap(int16_t *restrict acc, const uint8_t *restrict src, int16_t w, Py_ssize_t n)
{
    for (Py_ssize_t c = 0; c < n; c++)
        acc[c] = (int16_t)(acc[c] + w * src[c]);
}

/* Cell (r, c) of a height x width grid, flattened row-major, sums
   w[t] * x[r + dr[t], c + dc[t]] over the taps t; on a wrapped grid the
   indices are taken modulo the grid, on an unwrapped one a tap outside it
   reads zero.  The caller guarantees that the sum of |w| times 255 stays
   below 2^15, so every int16 partial sum is exact. */
static PyObject *
stencil_matvec_u8(PyObject *self, PyObject *args)
{
    Py_buffer x, out, rows, cols, weights;
    Py_ssize_t height, width;
    int wrapped;
    if (!PyArg_ParseTuple(args, "y*w*nnpy*y*y*:stencil_matvec_u8", &x, &out,
                          &height, &width, &wrapped, &rows, &cols, &weights))
        return NULL;
    const uint8_t *xv = x.buf;
    int32_t *y = out.buf;
    const int32_t *dr = rows.buf, *dc = cols.buf;
    const int16_t *w = weights.buf;
    Py_ssize_t n_taps = weights.len / (Py_ssize_t)sizeof(int16_t);
    int16_t *acc = NULL;
    PyObject *result = NULL;

    if (!taps_fit(height, width, n_taps, dr, dc)) {
        PyErr_SetString(PyExc_ValueError, "a stencil offset reaches past the grid");
        goto done;
    }
    acc = PyMem_Malloc((width > 0 ? width : 1) * sizeof(int16_t));
    if (acc == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t r = 0; r < height; r++) {
        memset(acc, 0, width * sizeof(int16_t));
        for (Py_ssize_t t = 0; t < n_taps; t++) {
            Py_ssize_t sr = r + dr[t], d = dc[t];
            if (sr < 0 || sr >= height) {
                if (!wrapped)
                    continue;
                sr += sr < 0 ? height : -height;
            }
            const uint8_t *src = xv + sr * width;
            /* columns c with c + d inside the grid */
            Py_ssize_t lo = d < 0 ? -d : 0, hi = d > 0 ? width - d : width;
            add_tap(acc + lo, src + lo + d, w[t], hi - lo);
            if (wrapped) {
                add_tap(acc, src + width + d, w[t], lo);
                add_tap(acc + hi, src + hi + d - width, w[t], width - hi);
            }
        }
        int32_t *yr = y + r * width;
        for (Py_ssize_t c = 0; c < width; c++)
            yr[c] = acc[c];
    }
    Py_END_ALLOW_THREADS
    result = Py_None;
    Py_INCREF(result);

done:
    PyMem_Free(acc);
    PyBuffer_Release(&x);
    PyBuffer_Release(&out);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&cols);
    PyBuffer_Release(&weights);
    return result;
}

/* Whether a square CSR matrix is exactly the expansion of a stencil on a
   height x width grid: row r * width + c holds one entry for each tap that
   lands inside the grid (every tap, when wrapped), at the column of cell
   (r + dr, c + dc) and with the tap's weight, and nothing else.  The caller
   guarantees that no two taps land on one cell, which holds when they are
   distinct and span less than the grid, so a row in which every tap finds
   its entry, and which has no other, is exact.  Each tap's entry is found
   by bisection, so a row whose columns do not increase may be refused. */
static PyObject *
stencil_check(PyObject *self, PyObject *args)
{
    Py_buffer data, indices, indptr, rows, cols, weights;
    Py_ssize_t height, width;
    int wrapped, exact;
    if (!PyArg_ParseTuple(args, "y*y*y*nnpy*y*y*:stencil_check", &data, &indices,
                          &indptr, &height, &width, &wrapped, &rows, &cols, &weights))
        return NULL;
    const double *d = data.buf;
    const int64_t *col = indices.buf, *ptr = indptr.buf;
    const int32_t *dr = rows.buf, *dc = cols.buf;
    const int16_t *w = weights.buf;
    Py_ssize_t n_taps = weights.len / (Py_ssize_t)sizeof(int16_t);
    int64_t nnz = indices.len / (Py_ssize_t)sizeof(int64_t);

    Py_BEGIN_ALLOW_THREADS
    exact = taps_fit(height, width, n_taps, dr, dc);
    for (Py_ssize_t r = 0; exact && r < height; r++) {
        for (Py_ssize_t c = 0; exact && c < width; c++) {
            int64_t lo = ptr[r * width + c], hi = ptr[r * width + c + 1], found = 0;
            exact = 0 <= lo && lo <= hi && hi <= nnz;
            for (Py_ssize_t t = 0; exact && t < n_taps; t++) {
                Py_ssize_t tr = r + dr[t], tc = c + dc[t];
                if (tr < 0 || tr >= height || tc < 0 || tc >= width) {
                    if (!wrapped)
                        continue;
                    tr += tr < 0 ? height : tr >= height ? -height : 0;
                    tc += tc < 0 ? width : tc >= width ? -width : 0;
                }
                int64_t target = tr * width + tc, a = lo, b = hi;
                /* in interior rows the taps come in column order */
                if (lo + found < hi && col[lo + found] == target) {
                    a = lo + found;
                } else {
                    while (a < b) {
                        int64_t m = a + (b - a) / 2;
                        if (col[m] < target)
                            a = m + 1;
                        else
                            b = m;
                    }
                }
                exact = a < hi && col[a] == target && d[a] == (double)w[t];
                found++;
            }
            if (found != hi - lo)
                exact = 0;
        }
    }
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&data);
    PyBuffer_Release(&indices);
    PyBuffer_Release(&indptr);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&cols);
    PyBuffer_Release(&weights);
    return PyBool_FromLong(exact);
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
    const uint8_t *t = table.buf;
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
        uint8_t v = t[i * stride + (Py_ssize_t)j];
        if (v == 255) {
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
    {"stencil_matvec_u8", stencil_matvec_u8, METH_VARARGS,
     "stencil_matvec_u8(x, out, height, width, wrapped, dr, dc, w): out = A @ x "
     "in int32 for the matrix of a stencil on a height x width grid, whose tap "
     "t reads cell (r + dr[t], c + dc[t]) with int16 weight w[t], and a uint8 "
     "vector; the sum of |w| times 255 must stay below 2^15."},
    {"stencil_check", stencil_check, METH_VARARGS,
     "stencil_check(data, indices, indptr, height, width, wrapped, dr, dc, w): "
     "whether a float64 CSR matrix with int64 indices is exactly the "
     "expansion on the grid of distinct taps that span less than it."},
    {"table_lookup", table_lookup, METH_VARARGS,
     "table_lookup(keys, table, lo, width, stride, out): "
     "out[i] = table[i*stride + keys[i] - lo] for int32 keys and a uint8 "
     "table.  Returns -1, or the first index whose key lies outside "
     "[lo, lo + width) or hits a 255 entry, a hole."},
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
