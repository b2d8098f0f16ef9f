/* Compiled kernels: the CSR matvec, in float64 and in integers, the
 * stencil matvec of lattice automata, the integer-keyed table lookup, and
 * whole steps of two-state lattice automata.
 *
 * The integer matvec has one loop per row width from 1 to MAX_FIXED_WIDTH:
 * when every row holds the same number w of entries, row i is
 * data[i*w : (i+1)*w], so the loop reads no row pointers and the compiler
 * unrolls each row fully, as the ELL format does (Bell & Garland, SC'09).
 * Every lattice automaton and random Boolean network has such a matrix.
 *
 * A lattice automaton's matrix is one stencil shifted to every cell of a
 * grid, the DIA format of the same paper: stencil_matvec_u8 reads no
 * column indices and no per-entry weights.  It first copies the grid into
 * rows padded on each side with the columns that wrap, or with zeros, so
 * that for each grid row and each tap it adds weight * the padded source
 * row, shifted by the tap's column offset, to an int16 accumulator row in
 * one straight loop over uint8 bytes that the compiler vectorises.  The
 * taps come from the generator that built the matrix from them, and the
 * matrix's arrays are read-only, so the taps and its entries agree.
 *
 * stencil_steps_u8 runs k steps of a two-state lattice automaton in one
 * call, the state kept in two padded grids used in turn.  With cells of 0
 * or 1 and a stencil whose |weights| sum to at most 31, a key spans at most
 * 32 values, so it is summed exactly in uint8 lanes modulo 256, re-based to
 * [0, 32) and looked up in the same row loop: the layer's weights and its
 * activation with no key vector between them.  It stops before a step in
 * which any key misses the table, so the caller can take that step itself
 * and raise the error the per-step path raises.
 *
 * Plain C over the buffer protocol, so the extension builds with nothing
 * but a C compiler.  The loops trust their buffers: latflow.backend checks
 * dtypes, contiguity and lengths, and that a row width spans the entries,
 * before every call, and SparseMatrix validates its column indices when it
 * is built.
 *
 * The build names no -march, so on x86 with GCC or Clang three kernels
 * have a second version that module init selects once from the CPU's
 * features: the stencil's row loop compiled for AVX2; the fused steps' row
 * loop in AVX2 registers, 32 cells a register, the lookup by two byte
 * shuffles; and, for a table shared by all cells with at most 32 entries, a
 * lookup of 16 keys at a time by SSE4.1 byte shuffles.  All give the same
 * bytes as the plain loops, which every other compiler and CPU runs.
 * target_clones would pick by ifunc, which musl lacks, so the choice is
 * made here by __builtin_cpu_supports.
 *
 * Build with -ffp-contract=off: each float64 row is summed in order, one
 * rounded multiply and one rounded add per entry, never a fused
 * multiply-add.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define X86_DISPATCH 1
#include <immintrin.h>
/* set once by PyInit__ckernels */
static int have_avx2, have_sse41;
#endif

/* The interface version: latflow.backend uses the extension only when its
   VERSION equals the one it was written for, so a build of older source,
   whose functions take other arguments, counts as absent. */
#define KERNELS_VERSION 5
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

/* Bodies that the AVX2 version inlines, so that they are compiled for it. */
#ifdef X86_DISPATCH
#define INLINED static inline __attribute__((always_inline))
#else
#define INLINED static inline
#endif

/* acc[c] += w * src[c] for c < n, in int16 */
INLINED void
add_tap(int16_t *restrict acc, const uint8_t *restrict src, int16_t w, Py_ssize_t n)
{
    for (Py_ssize_t c = 0; c < n; c++)
        acc[c] = (int16_t)(acc[c] + w * src[c]);
}

/* A stencil and its grid, copied into rows padded by halo >= max |dc|
   bytes on each side, which hold the columns that wrap or zeros. */
struct padded_grid {
    const uint8_t *pad; /* height rows of width + 2 * halo bytes */
    Py_ssize_t height, width, halo, n_taps;
    int wrapped;
    const int32_t *dr, *dc;
    const int16_t *w;
};

/* Row r of y sums w[t] * padded row r + dr[t], shifted by dc[t], over the
   taps whose row lands in the grid or, wrapped, wraps back into it. */
INLINED void
stencil_rows(int32_t *restrict y, int16_t *restrict acc, struct padded_grid g)
{
    Py_ssize_t stride = g.width + 2 * g.halo;
    for (Py_ssize_t r = 0; r < g.height; r++) {
        memset(acc, 0, g.width * sizeof(int16_t));
        for (Py_ssize_t t = 0; t < g.n_taps; t++) {
            Py_ssize_t sr = r + g.dr[t];
            if (sr < 0 || sr >= g.height) {
                if (!g.wrapped)
                    continue;
                sr += sr < 0 ? g.height : -g.height;
            }
            add_tap(acc, g.pad + sr * stride + g.halo + g.dc[t], g.w[t], g.width);
        }
        int32_t *yr = y + r * g.width;
        for (Py_ssize_t c = 0; c < g.width; c++)
            yr[c] = acc[c];
    }
}

#ifdef X86_DISPATCH
__attribute__((target("avx2"))) static void
stencil_rows_avx2(int32_t *y, int16_t *acc, struct padded_grid g)
{
    stencil_rows(y, acc, g);
}
#endif

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
    const int32_t *dr = rows.buf, *dc = cols.buf;
    Py_ssize_t n_taps = weights.len / (Py_ssize_t)sizeof(int16_t);
    Py_ssize_t halo = halo_of(height, width, n_taps, dr, dc);
    int16_t *acc = NULL;
    uint8_t *pad = NULL;
    PyObject *result = NULL;

    if (halo < 0) {
        PyErr_SetString(PyExc_ValueError, "a stencil offset reaches past the grid");
        goto done;
    }
    Py_ssize_t stride = width + 2 * halo;
    acc = PyMem_Malloc((width > 0 ? width : 1) * sizeof(int16_t));
    pad = PyMem_Malloc(height * stride > 0 ? height * stride : 1);
    if (acc == NULL || pad == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    pad_grid(pad, x.buf, height, width, halo, wrapped);
    struct padded_grid g = {pad, height, width, halo, n_taps, wrapped, dr, dc, weights.buf};
#ifdef X86_DISPATCH
    if (have_avx2)
        stencil_rows_avx2(out.buf, acc, g);
    else
#endif
        stencil_rows(out.buf, acc, g);
    Py_END_ALLOW_THREADS
    result = Py_None;
    Py_INCREF(result);

done:
    PyMem_Free(acc);
    PyMem_Free(pad);
    PyBuffer_Release(&x);
    PyBuffer_Release(&out);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&cols);
    PyBuffer_Release(&weights);
    return result;
}

/* out[i] = t[i * stride + k[i] - lo] for i from start on; returns the
   first index whose key lies outside [lo, lo + width) or hits a 255 entry,
   else -1.  Arguments by value, so the uint8 stores cannot alias them. */
static Py_ssize_t
lookup_scalar(const int32_t *restrict k, const uint8_t *restrict t, uint8_t *restrict y,
              Py_ssize_t start, Py_ssize_t n, uint64_t lo, uint64_t width, Py_ssize_t stride)
{
    for (Py_ssize_t i = start; i < n; i++) {
        /* modulo 2^64 a key below lo wraps above every width, so one
           unsigned compare checks both ends of the range */
        uint64_t j = (uint64_t)(int64_t)k[i] - lo;
        if (j >= width)
            return i;
        uint8_t v = t[i * stride + (Py_ssize_t)j];
        if (v == 255)
            return i;
        y[i] = v;
    }
    return -1;
}

#ifdef X86_DISPATCH
/* The lookup in one table of 1 to 32 entries, 16 keys at a time, while
   every key of the 16 finds an entry; returns how many keys it looked up.
   The caller guarantees that lo and lo + width - 1 are int32, so that
   modulo 2^32 a key below lo wraps above width - 1: one unsigned compare of
   k - lo in int32 lanes then checks the range as lookup_scalar's does. */
__attribute__((target("sse4.1"))) static Py_ssize_t
lookup_shuffle(const int32_t *k, const uint8_t *t, uint8_t *y, Py_ssize_t n,
               int32_t lo, int width)
{
    uint8_t padded[32];
    memset(padded, 255, sizeof padded);
    memcpy(padded, t, width);
    const __m128i low = _mm_loadu_si128((const __m128i *)padded);
    const __m128i high = _mm_loadu_si128((const __m128i *)(padded + 16));
    const __m128i base = _mm_set1_epi32(lo), top = _mm_set1_epi32(width - 1);
    const __m128i fifteen = _mm_set1_epi8(15), hole = _mm_set1_epi8((char)255);
    Py_ssize_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m128i j[4], ok = _mm_set1_epi32(-1);
        for (int q = 0; q < 4; q++) {
            j[q] = _mm_sub_epi32(_mm_loadu_si128((const __m128i *)(k + i + 4 * q)), base);
            ok = _mm_and_si128(ok, _mm_cmpeq_epi32(_mm_max_epu32(j[q], top), top));
        }
        /* in range, each j is below 32 and survives the saturating packs */
        __m128i idx = _mm_packus_epi16(_mm_packs_epi32(j[0], j[1]),
                                       _mm_packs_epi32(j[2], j[3]));
        __m128i v = _mm_blendv_epi8(_mm_shuffle_epi8(low, idx), _mm_shuffle_epi8(high, idx),
                                    _mm_cmpgt_epi8(idx, fifteen));
        if (!_mm_test_all_ones(ok) || _mm_movemask_epi8(_mm_cmpeq_epi8(v, hole)))
            break;
        _mm_storeu_si128((__m128i *)(y + i), v);
    }
    return i;
}
#endif

static PyObject *
table_lookup(PyObject *self, PyObject *args)
{
    Py_buffer keys, table, out;
    long long lo;
    Py_ssize_t width, stride;
    if (!PyArg_ParseTuple(args, "y*y*Lnnw*:table_lookup",
                          &keys, &table, &lo, &width, &stride, &out))
        return NULL;
    Py_ssize_t n = keys.len / (Py_ssize_t)sizeof(int32_t), done = 0, bad;

    Py_BEGIN_ALLOW_THREADS
#ifdef X86_DISPATCH
    if (have_sse41 && stride == 0 && 1 <= width && width <= 32 && lo >= INT32_MIN
        && lo <= INT32_MAX - (width - 1))
        done = lookup_shuffle(keys.buf, table.buf, out.buf, n, (int32_t)lo, (int)width);
#endif
    /* the keys after the last full block, or a block with a miss, rescanned
       for the first bad index */
    bad = lookup_scalar(keys.buf, table.buf, out.buf, done, n, (uint64_t)lo,
                        (uint64_t)width, stride);
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&keys);
    PyBuffer_Release(&table);
    PyBuffer_Release(&out);
    return PyLong_FromSsize_t(bad);
}

/* The fused steps of a two-state lattice automaton.  A cell's key is the sum
   of w[t] & -x over its taps, x being 0 or 1, taken modulo 256 from -kmin:
   when every key lies in [kmin, kmin + LANE_KEYS) it is exact, re-based to
   [0, LANE_KEYS), and indexes the table, 255 marking a hole. */
#define LANE_KEYS 32

/* One grid row of the next state, columns start to n: the keys summed in
   y, then looked up in place through the table padded to 256 entries with
   255, and copied as float64 to h when h is not NULL.  Returns whether some
   key missed the table. */
INLINED int
next_row(uint8_t *restrict y, double *restrict h, const uint8_t *const *src,
         const uint8_t *w, Py_ssize_t n_taps, uint8_t base, const uint8_t *table,
         Py_ssize_t start, Py_ssize_t n)
{
    memset(y + start, base, n - start);
    for (Py_ssize_t t = 0; t < n_taps; t++) {
        const uint8_t *restrict s = src[t];
        uint8_t wt = w[t];
        for (Py_ssize_t c = start; c < n; c++)
            y[c] = (uint8_t)(y[c] + (wt & (uint8_t)-s[c]));
    }
    int bad = 0;
    for (Py_ssize_t c = start; c < n; c++) {
        y[c] = table[y[c]];
        bad |= y[c] == 255;
    }
    if (h != NULL)
        for (Py_ssize_t c = start; c < n; c++)
            h[c] = y[c];
    return bad;
}

#ifdef X86_DISPATCH
#define AVX2_INLINED static inline __attribute__((target("avx2"), always_inline))
/* BLOCKS chunks of 32 cells from column c of the next row: the taps summed
   in byte lanes, where for x of 0 or 1 sign(w, x) is w & -x, then the
   lookup by two byte shuffles of the table's halves.  Returns the states
   OR'd lane by lane, 255 where some key missed the table. */
AVX2_INLINED __m256i
chunks_avx2(uint8_t *y, const uint8_t *const *src, const __m256i *w, Py_ssize_t n_taps,
            __m256i start, __m256i low, __m256i high, Py_ssize_t c, const int BLOCKS)
{
    const __m256i fifteen = _mm256_set1_epi8(15), past = _mm256_set1_epi8(LANE_KEYS);
    __m256i key[4], bad = _mm256_setzero_si256();
    for (int b = 0; b < BLOCKS; b++)
        key[b] = start;
    for (Py_ssize_t t = 0; t < n_taps; t++) {
        const uint8_t *s = src[t] + c;
        for (int b = 0; b < BLOCKS; b++)
            key[b] = _mm256_add_epi8(key[b], _mm256_sign_epi8(
                w[t], _mm256_loadu_si256((const __m256i *)(s + 32 * b))));
    }
    for (int b = 0; b < BLOCKS; b++) {
        /* a key from 16 takes the high half; one from 128 has its top bit
           set, so both shuffles give 0; every key from 32 is then set to 255 */
        __m256i v = _mm256_blendv_epi8(_mm256_shuffle_epi8(low, key[b]),
                                       _mm256_shuffle_epi8(high, key[b]),
                                       _mm256_cmpgt_epi8(key[b], fifteen));
        v = _mm256_or_si256(v, _mm256_cmpeq_epi8(_mm256_min_epu8(key[b], past), past));
        /* a state is 0 or 1, so a lane of the OR is 255 only on a miss */
        bad = _mm256_or_si256(bad, v);
        _mm256_storeu_si256((__m256i *)(y + c + 32 * b), v);
    }
    return bad;
}

/* next_row in registers, 128 cells and then 32 at a time: four chunks
   share each tap's loads of its source row pointer and weight. */
__attribute__((target("avx2"))) static int
next_row_avx2(uint8_t *y, double *h, const uint8_t *const *src, const uint8_t *w,
              Py_ssize_t n_taps, uint8_t base, const uint8_t *table, Py_ssize_t n)
{
    const __m256i low = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)table));
    const __m256i high = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)(table + 16)));
    const __m256i start = _mm256_set1_epi8((char)base), hole = _mm256_set1_epi8((char)255);
    __m256i wv[LANE_KEYS], bad = _mm256_setzero_si256();
    for (Py_ssize_t t = 0; t < n_taps; t++)
        wv[t] = _mm256_set1_epi8((char)w[t]);
    Py_ssize_t c = 0;
    for (; c + 128 <= n; c += 128)
        bad = _mm256_or_si256(bad, _mm256_cmpeq_epi8(
            chunks_avx2(y, src, wv, n_taps, start, low, high, c, 4), hole));
    for (; c + 32 <= n; c += 32)
        bad = _mm256_or_si256(bad, _mm256_cmpeq_epi8(
            chunks_avx2(y, src, wv, n_taps, start, low, high, c, 1), hole));
    if (h != NULL)
        for (Py_ssize_t i = 0; i < c; i++)
            h[i] = y[i];
    int tail = next_row(y, h, src, w, n_taps, base, table, c, n);
    return tail || !_mm256_testz_si256(bad, bad);
}
#endif

/* Advance a two-state stencil automaton up to `steps` steps, in two
   halo-padded grids used in turn; stops before a step in which some key
   misses the table.  Writes the state after the steps done to out, and
   the state after step s to row s of hist unless hist is empty.  Returns
   the number of steps done. */
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
    Py_ssize_t n_taps = weights.len / (Py_ssize_t)sizeof(int16_t), taken = 0;
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
    for (; taken < steps; taken++) {
        const uint8_t *cur = pad + (taken & 1) * size;
        uint8_t *next = pad + ((taken + 1) & 1) * size;
        int bad = 0;
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
            double *h = hist.len ? (double *)hist.buf + taken * n + r * width : NULL;
#ifdef X86_DISPATCH
            if (have_avx2)
                bad |= next_row_avx2(row + halo, h, src, w, k, base, table, width);
            else
#endif
                bad |= next_row(row + halo, h, src, w, k, base, table, 0, width);
            if (wrapped)
                wrap_halo(row, width, halo);
        }
        if (bad)
            break;
    }
    const uint8_t *last = pad + (taken & 1) * size;
    for (Py_ssize_t r = 0; r < height; r++)
        memcpy((uint8_t *)out.buf + r * width, last + r * stride + halo, width);
    Py_END_ALLOW_THREADS
    result = PyLong_FromSsize_t(taken);

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
    {"table_lookup", table_lookup, METH_VARARGS,
     "table_lookup(keys, table, lo, width, stride, out): "
     "out[i] = table[i*stride + keys[i] - lo] for int32 keys and a uint8 "
     "table.  Returns -1, or the first index whose key lies outside "
     "[lo, lo + width) or hits a 255 entry, a hole."},
    {"stencil_steps_u8", stencil_steps_u8, METH_VARARGS,
     "stencil_steps_u8(x, out, hist, height, width, wrapped, dr, dc, w, table, kmin, "
     "steps): up to `steps` steps of a two-state automaton on a height x width "
     "grid whose tap t reads cell (r + dr[t], c + dc[t]) with weight w[t], the "
     "keys lying in [kmin, kmin + 32) and table[key - kmin] being the next state, "
     "255 a hole.  Stops before a step with a key on a hole; writes the state "
     "after the steps done to out and, unless hist is empty, the state after "
     "each step as float64 to its row of hist.  Returns the steps done."},
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
    have_sse41 = __builtin_cpu_supports("sse4.1");
#endif
    if (m != NULL && PyModule_AddIntConstant(m, "VERSION", KERNELS_VERSION) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
