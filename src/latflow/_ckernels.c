/* Compiled kernels: the CSR matvec, in float64 and in integers, whole
 * steps of two-state lattice automata and networks, and the line assembler
 * and entry scanners of the text formats.  The fused steps are the ones
 * that DynamicalSystem.step and run take for every two-state preset; the
 * two CSR loops serve the float systems and every other discrete one,
 * whose table lookup is numpy's.
 *
 * A lattice automaton's matrix is one stencil shifted to every cell of a
 * grid, the DIA format (Bell & Garland, SC'09).  stencil_steps_u8 runs k
 * steps of a two-state one in one call and reads no column index and no
 * per-entry weight: the state is kept in two grids used in turn, each row
 * padded on both sides with the columns that wrap, or with zeros, and the
 * taps come from the generator that built the matrix from them, whose
 * arrays are read-only, so the taps and its entries agree.  With cells of
 * 0 or 1 and a stencil whose |weights| sum to at most 31, a key spans at
 * most 32 values, so it is summed exactly in uint8 lanes modulo 256,
 * re-based to [0, 32) and looked up in the same row loop: the layer's
 * weights and its activation with no key vector between them.  It checks
 * no key: the caller runs it only when every key that cells of 0 or 1 can
 * produce has a next state, and its table is padded to 256 entries, so a
 * caller that breaks that guarantee gets wrong states but no access out of
 * bounds.
 *
 * network_steps_u8 runs k steps of a two-state network whose rows all hold
 * W entries, as a random Boolean network's do, in two buffers used in
 * turn.  fold_tables first folds each node's weights into its table: with
 * cells of 0 or 1 the key is a function of the pattern of the node's W
 * inputs, so the table gets one entry per pattern, n * 2^W bytes, and a
 * step reads the inputs as the bits of a pattern and that pattern's entry:
 * no weight, no key vector.  The fold reports a row with a pattern whose
 * key has no next state, and the caller then runs no steps; the steps take
 * each cell for its low bit, so a caller that breaks that guarantee gets
 * wrong states but no access out of bounds.
 *
 * Three kernels serve the text formats.  assemble builds the lines of the
 * Matrix Market and rule text writers from their fields, with the contract
 * of _textcodec.assemble.  mm_entries reads Matrix Market entry lines into
 * index and weight arrays, each weight by PyOS_string_to_double, the
 * correctly rounded reader that numpy's loadtxt calls, so it keeps its
 * bits, and passes whole-line % comments and empty lines, as loadtxt does.
 * node_lines reads the node lines of a per-node rule into the spans of
 * their tables, indexed by node.  The two scanners take only the exact
 * shape the writers emit, comment lines aside, and decline anything else,
 * never reading past the text: the caller then runs the numpy path on the
 * whole text, so every result and every error stays that path's.
 *
 * Plain C over the buffer protocol, so the extension builds with nothing
 * but a C compiler.  The loops trust their buffers: latflow.backend checks
 * dtypes, contiguity and lengths before every call, and SparseMatrix
 * validates its column indices when it is built.
 *
 * The build names no -march, so on x86 with GCC or Clang the fused steps of
 * a lattice automaton have a second row loop, which module init selects
 * once when the CPU has AVX2: 32 cells a register, the lookup by two byte
 * shuffles.  It gives the same bytes as the plain loop, which every other
 * compiler and CPU runs.  target_clones would pick by ifunc, which musl
 * lacks, so the choice is made here by __builtin_cpu_supports.
 *
 * Build with -ffp-contract=off: each float64 row is summed in order, one
 * rounded multiply and one rounded add per entry, never a fused
 * multiply-add.  And with -falign-loops=32: unaligned, the inner loop of
 * csr_matvec_u8, the same instructions, ran 40% slower once code added
 * before it had moved it across a 32-byte boundary.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define X86_DISPATCH 1
#include <immintrin.h>
/* set once by PyInit__ckernels */
static int have_avx2;
#endif

/* The interface version: latflow.backend uses the extension only when its
   VERSION equals the one it was written for, so a build of older source,
   whose functions take other arguments, counts as absent. */
#define KERNELS_VERSION 10
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

/* The halo, max |dc|, when every tap offset is smaller than the grid, so
   that one add or subtract brings a shifted row or column back inside it
   and each side's halo lies in the row; else -1. */
static Py_ssize_t
halo_of(Py_ssize_t height, Py_ssize_t width, Py_ssize_t n_taps,
        const int32_t *dr, const int32_t *dc)
{
    Py_ssize_t halo = 0;
    for (Py_ssize_t t = 0; t < n_taps; t++) {
        if (dr[t] <= -height || dr[t] >= height || dc[t] <= -width || dc[t] >= width)
            return -1;
        halo = Py_MAX(halo, Py_ABS(dc[t]));
    }
    return halo;
}

/* the columns that wrap, copied into the halos on each side of a row */
static void
wrap_halo(uint8_t *row, Py_ssize_t width, Py_ssize_t halo)
{
    memcpy(row, row + width, halo);
    memcpy(row + halo + width, row + halo, halo);
}

/* The grid x copied into rows padded by halo bytes on each side, which
   hold the columns that wrap, or zeros. */
static void
pad_grid(uint8_t *pad, const uint8_t *x, Py_ssize_t height, Py_ssize_t width,
         Py_ssize_t halo, int wrapped)
{
    for (Py_ssize_t r = 0; r < height; r++) {
        uint8_t *row = pad + r * (width + 2 * halo);
        memcpy(row + halo, x + r * width, width);
        if (wrapped) {
            wrap_halo(row, width, halo);
        } else {
            memset(row, 0, halo);
            memset(row + halo + width, 0, halo);
        }
    }
}

/* The fused steps of a two-state lattice automaton.  A cell's key is the sum
   of w[t] & -x over its taps, x being 0 or 1, taken modulo 256 from -kmin:
   when every key lies in [kmin, kmin + LANE_KEYS) it is exact, re-based to
   [0, LANE_KEYS), and indexes the table, which the caller guarantees has a
   next state for every key that can occur. */
#define LANE_KEYS 32

/* Bodies that an AVX2 version or a fixed width inlines, so that they are
   compiled for it. */
#ifdef X86_DISPATCH
#define INLINED static inline __attribute__((always_inline))
#else
#define INLINED static inline
#endif

/* One grid row of the next state, columns start to n: the keys summed in
   y, then looked up in place through the table padded to 256 entries with
   255. */
INLINED void
next_row(uint8_t *restrict y, const uint8_t *const *src, const uint8_t *w,
         Py_ssize_t n_taps, uint8_t base, const uint8_t *table, Py_ssize_t start,
         Py_ssize_t n)
{
    memset(y + start, base, n - start);
    for (Py_ssize_t t = 0; t < n_taps; t++) {
        const uint8_t *restrict s = src[t];
        uint8_t wt = w[t];
        for (Py_ssize_t c = start; c < n; c++)
            y[c] = (uint8_t)(y[c] + (wt & (uint8_t)-s[c]));
    }
    for (Py_ssize_t c = start; c < n; c++)
        y[c] = table[y[c]];
}

#ifdef X86_DISPATCH
#define AVX2_INLINED static inline __attribute__((target("avx2"), always_inline))
/* BLOCKS chunks of 32 cells from column c of the next row: the taps summed
   in byte lanes, where for x of 0 or 1 sign(w, x) is w & -x, then the
   lookup by two byte shuffles of the table's halves. */
AVX2_INLINED void
chunks_avx2(uint8_t *y, const uint8_t *const *src, const __m256i *w, Py_ssize_t n_taps,
            __m256i start, __m256i low, __m256i high, Py_ssize_t c, const int BLOCKS)
{
    const __m256i fifteen = _mm256_set1_epi8(15);
    __m256i key[4];
    for (int b = 0; b < BLOCKS; b++)
        key[b] = start;
    for (Py_ssize_t t = 0; t < n_taps; t++) {
        const uint8_t *s = src[t] + c;
        for (int b = 0; b < BLOCKS; b++)
            key[b] = _mm256_add_epi8(key[b], _mm256_sign_epi8(
                w[t], _mm256_loadu_si256((const __m256i *)(s + 32 * b))));
    }
    for (int b = 0; b < BLOCKS; b++) {
        /* a key from 16 takes the high half; every key is below 32 */
        __m256i v = _mm256_blendv_epi8(_mm256_shuffle_epi8(low, key[b]),
                                       _mm256_shuffle_epi8(high, key[b]),
                                       _mm256_cmpgt_epi8(key[b], fifteen));
        _mm256_storeu_si256((__m256i *)(y + c + 32 * b), v);
    }
}

/* next_row in registers, 128 cells and then 32 at a time: four chunks
   share each tap's loads of its source row pointer and weight. */
__attribute__((target("avx2"))) static void
next_row_avx2(uint8_t *y, const uint8_t *const *src, const uint8_t *w, Py_ssize_t n_taps,
              uint8_t base, const uint8_t *table, Py_ssize_t n)
{
    const __m256i low = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)table));
    const __m256i high = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)(table + 16)));
    const __m256i start = _mm256_set1_epi8((char)base);
    __m256i wv[LANE_KEYS];
    for (Py_ssize_t t = 0; t < n_taps; t++)
        wv[t] = _mm256_set1_epi8((char)w[t]);
    Py_ssize_t c = 0;
    for (; c + 128 <= n; c += 128)
        chunks_avx2(y, src, wv, n_taps, start, low, high, c, 4);
    for (; c + 32 <= n; c += 32)
        chunks_avx2(y, src, wv, n_taps, start, low, high, c, 1);
    next_row(y, src, w, n_taps, base, table, c, n);
}
#endif

/* Advance a two-state stencil automaton `steps` steps, in two halo-padded
   grids used in turn.  Writes the final state to out, and the state after
   step s to row s of hist unless hist is empty. */
static PyObject *
stencil_steps_u8(PyObject *self, PyObject *args)
{
    Py_buffer x, out, hist, rows, cols, weights, keys;
    Py_ssize_t height, width, steps;
    int wrapped;
    long long kmin;
    if (!PyArg_ParseTuple(args, "y*w*w*nnpy*y*y*y*Ln:stencil_steps_u8", &x, &out, &hist,
                          &height, &width, &wrapped, &rows, &cols, &weights, &keys,
                          &kmin, &steps))
        return NULL;
    const int32_t *dr = rows.buf, *dc = cols.buf;
    const int16_t *wk = weights.buf;
    Py_ssize_t n_taps = weights.len / (Py_ssize_t)sizeof(int16_t);
    Py_ssize_t halo = halo_of(height, width, n_taps, dr, dc);
    uint8_t *pad = NULL;
    PyObject *result = NULL;

    if (n_taps > LANE_KEYS || halo < 0) {
        PyErr_SetString(PyExc_ValueError, "more taps than keys, or a tap past the grid");
        goto done;
    }
    Py_ssize_t stride = width + 2 * halo, size = height * stride, n = height * width;
    /* the halos of the second grid, unwrapped, stay zero */
    pad = PyMem_Calloc(2 * size > 0 ? 2 * size : 1, 1);
    if (pad == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    uint8_t table[256], w[LANE_KEYS], base = (uint8_t)(0 - (unsigned long long)kmin);
    const uint8_t *src[LANE_KEYS];
    memset(table, 255, sizeof table);
    memcpy(table, keys.buf, LANE_KEYS);
    pad_grid(pad, x.buf, height, width, halo, wrapped);
    for (Py_ssize_t s = 0; s < steps; s++) {
        const uint8_t *cur = pad + (s & 1) * size;
        uint8_t *next = pad + ((s + 1) & 1) * size;
        for (Py_ssize_t r = 0; r < height; r++) {
            Py_ssize_t k = 0;
            for (Py_ssize_t t = 0; t < n_taps; t++) {
                Py_ssize_t sr = r + dr[t];
                if (sr < 0 || sr >= height) {
                    if (!wrapped)
                        continue;
                    sr += sr < 0 ? height : -height;
                }
                src[k] = cur + sr * stride + halo + dc[t];
                w[k++] = (uint8_t)wk[t];
            }
            uint8_t *row = next + r * stride;
#ifdef X86_DISPATCH
            if (have_avx2)
                next_row_avx2(row + halo, src, w, k, base, table, width);
            else
#endif
                next_row(row + halo, src, w, k, base, table, 0, width);
            if (hist.len)
                memcpy((uint8_t *)hist.buf + s * n + r * width, row + halo, width);
            if (wrapped)
                wrap_halo(row, width, halo);
        }
    }
    const uint8_t *last = pad + (steps & 1) * size;
    for (Py_ssize_t r = 0; r < height; r++)
        memcpy((uint8_t *)out.buf + r * width, last + r * stride + halo, width);
    Py_END_ALLOW_THREADS
    result = Py_None;
    Py_INCREF(result);

done:
    PyMem_Free(pad);
    PyBuffer_Release(&x);
    PyBuffer_Release(&out);
    PyBuffer_Release(&hist);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&cols);
    PyBuffer_Release(&weights);
    PyBuffer_Release(&keys);
    return result;
}

/* The folded tables of a two-state network whose rows all hold W entries:
   with cells of 0 or 1, node i's key is the sum of the weights of its
   inputs that are 1, so bit j of an input pattern p in [0, 2^W) standing
   for the j-th entry of row i, entry (i << W) | p of out is the next state
   of node i for the key sum_j w[i*W + j] * bit j of p.  The patterns are
   visited in Gray-code order, each key one add or subtract from the last.
   Returns -1, or the first row that has a pattern whose key lies outside
   [lo, lo + width) or hits a 255 entry of the table, a hole: out is then
   incomplete. */
static Py_ssize_t
fold_rows(const int32_t *restrict w, const uint8_t *restrict t, uint8_t *restrict out,
          Py_ssize_t n, int W, uint64_t lo, uint64_t width, Py_ssize_t stride)
{
    size_t patterns = (size_t)1 << W;
    for (Py_ssize_t i = 0; i < n; i++, w += W, t += stride, out += patterns) {
        int64_t key = 0;
        size_t gray = 0;
        for (size_t q = 0; q < patterns; q++) {
            if (q) {
                /* the bit that flips is the lowest set bit of q */
                int j = 0;
                while (!(q >> j & 1))
                    j++;
                gray ^= (size_t)1 << j;
                key += gray >> j & 1 ? w[j] : -(int64_t)w[j];
            }
            /* modulo 2^64 a key below lo wraps above every width */
            uint64_t k = (uint64_t)key - lo;
            if (k >= width || t[k] == 255)
                return i;
            out[gray] = t[k];
        }
    }
    return -1;
}

static PyObject *
fold_tables(PyObject *self, PyObject *args)
{
    Py_buffer weights, table, out;
    long long lo;
    Py_ssize_t width, stride, W;
    if (!PyArg_ParseTuple(args, "y*y*Lnnnw*:fold_tables",
                          &weights, &table, &lo, &width, &stride, &W, &out))
        return NULL;
    Py_ssize_t n = weights.len / (Py_ssize_t)sizeof(int32_t) / W, bad;

    Py_BEGIN_ALLOW_THREADS
    bad = fold_rows(weights.buf, table.buf, out.buf, n, (int)W, (uint64_t)lo,
                    (uint64_t)width, stride);
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&weights);
    PyBuffer_Release(&table);
    PyBuffer_Release(&out);
    return PyLong_FromSsize_t(bad);
}

/* One step of the network: node i's inputs, read as the bits of a pattern,
   index its folded table.  A cell other than 0 or 1 counts as its low bit,
   so every pattern stays below 2^W and inside the table. */
INLINED void
folded_step(uint8_t *restrict y, const uint8_t *restrict x, const int32_t *restrict col,
            const uint8_t *restrict f, Py_ssize_t n, int W)
{
    for (Py_ssize_t i = 0; i < n; i++, col += W) {
        size_t p = 0;
        for (int j = 0; j < W; j++)
            p |= (size_t)(x[col[j]] & 1) << j;
        y[i] = f[((size_t)i << W) | p];
    }
}

/* folded_step for W a constant, so that each row unrolls */
#define FOLDED_STEP(W)                                                        \
    static void folded_step_##W(uint8_t *y, const uint8_t *x, const int32_t *col, \
                                const uint8_t *f, Py_ssize_t n, int width)    \
    {                                                                         \
        (void)width;                                                          \
        folded_step(y, x, col, f, n, W);                                      \
    }
FOLDED_STEP(1)
FOLDED_STEP(2)
FOLDED_STEP(3)
FOLDED_STEP(4)
FOLDED_STEP(5)
FOLDED_STEP(6)
FOLDED_STEP(7)
FOLDED_STEP(8)
FOLDED_STEP(9)

static void
folded_step_any(uint8_t *y, const uint8_t *x, const int32_t *col, const uint8_t *f,
                Py_ssize_t n, int width)
{
    folded_step(y, x, col, f, n, width);
}

static void (*const folded_steps[MAX_FIXED_WIDTH + 1])(
    uint8_t *, const uint8_t *, const int32_t *, const uint8_t *, Py_ssize_t, int) = {
    folded_step_any, folded_step_1, folded_step_2, folded_step_3, folded_step_4,
    folded_step_5, folded_step_6, folded_step_7, folded_step_8, folded_step_9,
};

/* Advance a two-state network of W inputs a node `steps` steps through its
   folded tables: into the rows of hist unless it is empty, the state after
   step s into row s, else into out and one more buffer used in turn.
   Writes the final state to out. */
static PyObject *
network_steps_u8(PyObject *self, PyObject *args)
{
    Py_buffer x, out, hist, indices, folded;
    Py_ssize_t W, steps;
    if (!PyArg_ParseTuple(args, "y*w*w*y*ny*n:network_steps_u8", &x, &out, &hist,
                          &indices, &W, &folded, &steps))
        return NULL;
    Py_ssize_t n = x.len;
    PyObject *result = NULL;
    uint8_t *spare = PyMem_Malloc(n > 0 ? n : 1);
    if (spare == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    void (*step)(uint8_t *, const uint8_t *, const int32_t *, const uint8_t *, Py_ssize_t,
                 int) = folded_steps[W <= MAX_FIXED_WIDTH ? W : 0];
    /* without a history the state after step s lies in
       bufs[(steps - s) & 1], the last in out */
    uint8_t *bufs[2] = {out.buf, spare};
    const uint8_t *prev = x.buf;
    for (Py_ssize_t s = 0; s < steps; s++) {
        uint8_t *y = hist.len ? (uint8_t *)hist.buf + s * n : bufs[(steps - s - 1) & 1];
        step(y, prev, indices.buf, folded.buf, n, (int)W);
        prev = y;
    }
    if (prev != out.buf)
        memcpy(out.buf, prev, n);
    Py_END_ALLOW_THREADS
    result = Py_None;
    Py_INCREF(result);

done:
    PyMem_Free(spare);
    PyBuffer_Release(&x);
    PyBuffer_Release(&out);
    PyBuffer_Release(&hist);
    PyBuffer_Release(&indices);
    PyBuffer_Release(&folded);
    return result;
}

/* -- text: line assembly and the entry scanners -------------------------- */

static const uint64_t POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL, 1000000000000ULL,
    10000000000000ULL, 100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL, 10000000000000000000ULL,
};

static inline Py_ssize_t
digit_count(uint64_t v)
{
    Py_ssize_t d = 1;
    while (d < 20 && v >= POW10[d])
        d++;
    return d;
}

/* One field of assemble: the same bytes on every line, the decimal digits
   of values[i], or pool[offsets[i] : offsets[i] + lengths[i]]. */
typedef struct {
    Py_buffer views[3];
    int n_views;
    const char *bytes;
    Py_ssize_t len;
    const int64_t *values, *offsets, *lengths;
    const uint8_t *pool;
} Field;

static Py_ssize_t
field_width(const Field *f, Py_ssize_t i)
{
    if (f->bytes != NULL)
        return f->len;
    if (f->values != NULL)
        return digit_count((uint64_t)f->values[i]);
    return (Py_ssize_t)f->lengths[i];
}

static char *
put_field(char *p, const Field *f, Py_ssize_t i)
{
    if (f->bytes != NULL) {
        memcpy(p, f->bytes, f->len);
        return p + f->len;
    }
    if (f->values != NULL) {
        uint64_t v = (uint64_t)f->values[i];
        char *end = p + digit_count(v);
        p = end;
        do {
            *--p = (char)('0' + v % 10);
            v /= 10;
        } while (v);
        return end;
    }
    memcpy(p, f->pool + f->offsets[i], f->lengths[i]);
    return p + f->lengths[i];
}

/* A field given as bytes, as an int64 buffer of n values, or as a tuple of
   a pool and int64 buffers of n offsets and n lengths; 0 with an exception
   set for anything else. */
static int
get_field(PyObject *item, Py_ssize_t n, Field *f)
{
    if (PyBytes_Check(item)) {
        f->bytes = PyBytes_AS_STRING(item);
        f->len = PyBytes_GET_SIZE(item);
        return 1;
    }
    int pooled = PyTuple_Check(item);
    if (pooled && PyTuple_GET_SIZE(item) != 3) {
        PyErr_SetString(PyExc_ValueError, "a pooled field is (pool, offsets, lengths)");
        return 0;
    }
    for (int k = 0; k < (pooled ? 3 : 1); k++) {
        PyObject *obj = pooled ? PyTuple_GET_ITEM(item, k) : item;
        if (PyObject_GetBuffer(obj, &f->views[k], PyBUF_SIMPLE) < 0)
            return 0;
        f->n_views++;
        if ((!pooled || k > 0) && f->views[k].len != n * (Py_ssize_t)sizeof(int64_t)) {
            PyErr_SetString(PyExc_ValueError, "a field does not hold one int64 per line");
            return 0;
        }
    }
    if (pooled) {
        f->pool = f->views[0].buf;
        f->offsets = f->views[1].buf;
        f->lengths = f->views[2].buf;
    } else {
        f->values = f->views[0].buf;
    }
    return 1;
}

/* The bytes of n lines, line i the concatenation of field i of each field.
   The caller guarantees that values, offsets and lengths are non-negative
   and that every pooled span lies inside its pool. */
static PyObject *
assemble(PyObject *self, PyObject *args)
{
    Py_ssize_t n;
    PyObject *items, *result = NULL;
    if (!PyArg_ParseTuple(args, "nO!:assemble", &n, &PyTuple_Type, &items))
        return NULL;
    Py_ssize_t n_fields = PyTuple_GET_SIZE(items);
    Field *fields = PyMem_Calloc(n_fields > 0 ? n_fields : 1, sizeof(Field));
    if (fields == NULL)
        return PyErr_NoMemory();
    for (Py_ssize_t k = 0; k < n_fields; k++)
        if (!get_field(PyTuple_GET_ITEM(items, k), n, &fields[k]))
            goto done;
    Py_ssize_t total = 0;
    int too_long = 0;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n && !too_long; i++)
        for (Py_ssize_t k = 0; k < n_fields; k++) {
            Py_ssize_t width = field_width(&fields[k], i);
            if (width > PY_SSIZE_T_MAX - total) {
                too_long = 1;
                break;
            }
            total += width;
        }
    Py_END_ALLOW_THREADS
    if (too_long) {
        PyErr_NoMemory();
        goto done;
    }
    result = PyBytes_FromStringAndSize(NULL, total);
    if (result == NULL)
        goto done;
    char *p = PyBytes_AS_STRING(result);
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n; i++)
        for (Py_ssize_t k = 0; k < n_fields; k++)
            p = put_field(p, &fields[k], i);
    Py_END_ALLOW_THREADS

done:
    for (Py_ssize_t k = 0; k < n_fields; k++)
        for (int v = 0; v < fields[k].n_views; v++)
            PyBuffer_Release(&fields[k].views[v]);
    PyMem_Free(fields);
    return result;
}

static inline int
is_digit(char c)
{
    return (unsigned char)(c - '0') <= 9;
}

static inline int
is_gap(const char *p, const char *end)
{
    return p < end && (*p == ' ' || *p == '\t');
}

static inline int
is_weight_byte(char c)
{
    return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-';
}

/* An integer of the form -?[0-9]{1,18} at *p followed by a space or a tab,
   which it passes; 0 for anything else, a longer run of digits included. */
static int
scan_int(const char **p, const char *end, int64_t *value)
{
    const char *s = *p;
    int negative = s < end && *s == '-';
    s += negative;
    const char *digits = s;
    int64_t v = 0;
    while (s < end && s - digits < 18 && is_digit(*s))
        v = 10 * v + (*s++ - '0');
    if (s == digits || !is_gap(s, end))
        return 0;
    *value = negative ? -v : v;
    *p = s + 1;
    return 1;
}

/* A line end at *p, LF or CRLF, which it passes, or the end of the text;
   0 for anything else. */
static int
scan_eol(const char **p, const char *end)
{
    const char *s = *p;
    if (s == end)
        return 1;
    s += *s == '\r';
    if (s == end || *s != '\n')
        return 0;
    *p = s + 1;
    return 1;
}

/* Passes the lines at *p that numpy's loadtxt(comments="%") skips and
   that a scan need not read: empty ones, LF or CRLF, and ones that start
   with %. */
static void
skip_comments(const char **p, const char *end)
{
    const char *s = *p;
    while (s < end) {
        if (*s == '%') {
            const char *lf = memchr(s, '\n', end - s);
            s = lf != NULL ? lf + 1 : end;
        } else if (*s == '\n') {
            s++;
        } else if (*s == '\r' && end - s > 1 && s[1] == '\n') {
            s += 2;
        } else {
            break;
        }
    }
    *p = s;
}

/* Reads the entry lines "i j w" of a Matrix Market file from text[start:]
   into rows, cols and weights, which hold one entry per line, passing the
   comment and empty lines before, between and after them.  The weight
   goes through PyOS_string_to_double, the correctly rounded reader that
   numpy's loadtxt calls.  Returns False, with the outputs undefined, for a
   text of any other shape: another entry count, a % after the start of a
   line, other whitespace, an integer that is not -?[0-9]{1,18}, a weight
   of other bytes than [0-9.eE+-] or of 64 or more. */
static PyObject *
mm_entries(PyObject *self, PyObject *args)
{
    Py_buffer text, rows, cols, weights;
    Py_ssize_t start;
    if (!PyArg_ParseTuple(args, "s*nw*w*w*:mm_entries", &text, &start, &rows, &cols, &weights))
        return NULL;
    int ok = 0 <= start && start <= text.len;
    const char *base = text.buf, *end = base + text.len, *p = ok ? base + start : end;
    int64_t *i = rows.buf, *j = cols.buf;
    double *w = weights.buf;
    Py_ssize_t nnz = rows.len / (Py_ssize_t)sizeof(int64_t);
    for (Py_ssize_t k = 0; ok && k < nnz; k++) {
        skip_comments(&p, end);
        ok = scan_int(&p, end, &i[k]) && scan_int(&p, end, &j[k]);
        if (!ok)
            break;
        const char *weight = p;
        while (p < end && p - weight < 64 && is_weight_byte(*p))
            p++;
        char digits[64];
        Py_ssize_t len = p - weight;
        ok = 0 < len && len < 64 && scan_eol(&p, end);
        if (!ok)
            break;
        memcpy(digits, weight, len);
        digits[len] = '\0';
        w[k] = PyOS_string_to_double(digits, NULL, NULL);
        if (w[k] == -1.0 && PyErr_Occurred()) {
            PyErr_Clear();
            ok = 0;
        }
    }
    skip_comments(&p, end);
    ok = ok && p == end;
    PyBuffer_Release(&text);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&cols);
    PyBuffer_Release(&weights);
    return PyBool_FromLong(ok);
}

/* Reads the node lines "node <i> table=<digits>" of a per-node rule from
   text[start:], one per entry of starts and ends: the table of node i
   spans text[starts[i]:ends[i]].  Returns False, with the outputs
   undefined, for a text of any other shape: another line count, an index
   that is not -?[0-9]{1,18}, outside [0, nodes) or given twice, a comment,
   a blank line or other whitespace. */
static PyObject *
node_lines(PyObject *self, PyObject *args)
{
    Py_buffer text, starts, ends;
    Py_ssize_t start;
    if (!PyArg_ParseTuple(args, "s*nw*w*:node_lines", &text, &start, &starts, &ends))
        return NULL;
    int ok = 0 <= start && start <= text.len && ends.len == starts.len;
    const char *base = text.buf, *end = base + text.len, *p = ok ? base + start : end;
    int64_t *lo = starts.buf, *hi = ends.buf;
    Py_ssize_t nodes = starts.len / (Py_ssize_t)sizeof(int64_t);
    for (Py_ssize_t k = 0; ok && k < nodes; k++)
        lo[k] = -1;
    for (Py_ssize_t k = 0; ok && k < nodes; k++) {
        int64_t index;
        ok = end - p > 4 && memcmp(p, "node", 4) == 0 && is_gap(p + 4, end);
        if (!ok)
            break;
        p += 5;
        ok = scan_int(&p, end, &index) && 0 <= index && index < nodes && lo[index] < 0
             && end - p >= 6 && memcmp(p, "table=", 6) == 0;
        if (!ok)
            break;
        p += 6;
        lo[index] = p - base;
        while (p < end && is_digit(*p))
            p++;
        hi[index] = p - base;
        ok = scan_eol(&p, end);
    }
    ok = ok && p == end;
    PyBuffer_Release(&text);
    PyBuffer_Release(&starts);
    PyBuffer_Release(&ends);
    return PyBool_FromLong(ok);
}

static PyMethodDef methods[] = {
    {"csr_matvec", csr_matvec, METH_VARARGS,
     "csr_matvec(data, indices, indptr, x, out): out = A @ x for a float64 "
     "CSR matrix, each row summed in order."},
    {"csr_matvec_u8", csr_matvec_u8, METH_VARARGS,
     "csr_matvec_u8(data, indices, indptr, x, out): out = A @ x in int32 for "
     "int32 weights and column indices and a uint8 vector, each row summed "
     "over its row pointers."},
    {"stencil_steps_u8", stencil_steps_u8, METH_VARARGS,
     "stencil_steps_u8(x, out, hist, height, width, wrapped, dr, dc, w, table, kmin, "
     "steps): `steps` steps of a two-state automaton on a height x width grid "
     "whose tap t reads cell (r + dr[t], c + dc[t]) with weight w[t], the keys "
     "lying in [kmin, kmin + 32) and table[key - kmin] being the next state of "
     "every key that can occur.  Writes the final state to out and, unless hist "
     "is empty, the state after each step as uint8 to its row of hist."},
    {"fold_tables", fold_tables, METH_VARARGS,
     "fold_tables(weights, table, lo, width, stride, W, out): for rows of W int32 "
     "weights, out[(i << W) | p] = table[i*stride + key - lo], key the sum of the "
     "weights of row i whose bit of p is 1.  Returns -1, or the first row with a "
     "key outside [lo, lo + width) or on a 255 entry, a hole."},
    {"network_steps_u8", network_steps_u8, METH_VARARGS,
     "network_steps_u8(x, out, hist, indices, W, folded, steps): `steps` steps of a "
     "two-state network whose node i reads cells indices[i*W : (i+1)*W], the j-th "
     "as bit j of a pattern p, and takes folded[(i << W) | p].  Writes the final "
     "state to out and, unless hist is empty, the state after each step as uint8 "
     "to its row of hist."},
    {"assemble", assemble, METH_VARARGS,
     "assemble(n, fields): the bytes of n lines, line i the concatenation of field i "
     "of each field: bytes, the same on every line; an int64 buffer, its non-negative "
     "value in decimal; or (pool, offsets, lengths), pool[offsets[i] : offsets[i] + "
     "lengths[i]]."},
    {"mm_entries", mm_entries, METH_VARARGS,
     "mm_entries(text, start, rows, cols, weights): reads the Matrix Market entry "
     "lines of text[start:] into the int64 rows and cols and the float64 weights, one "
     "line per entry, passing empty lines and lines that start with %.  False when "
     "the text has any other shape than the writer's."},
    {"node_lines", node_lines, METH_VARARGS,
     "node_lines(text, start, starts, ends): reads the lines 'node <i> table=<digits>' "
     "of text[start:], one per entry of the int64 starts and ends, the table of node i "
     "spanning text[starts[i]:ends[i]].  False when the text has any other shape than "
     "the writer's."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckernels", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    PyObject *m = PyModule_Create(&module);
#ifdef X86_DISPATCH
    __builtin_cpu_init();
    have_avx2 = __builtin_cpu_supports("avx2");
#endif
    if (m != NULL && PyModule_AddIntConstant(m, "VERSION", KERNELS_VERSION) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
