"""Pure-numpy CSR matvec, the fallback for the compiled kernels.

A float64 row is summed in entry order from +0.0, one rounded add per
entry, as the compiled loop sums it, so both backends give the same bits:
one vector pass per entry position adds the p-th product of every row that
has one.  Rows of one length are columns of the reshaped products; ragged
rows are visited longest first, so the rows with a p-th entry are a prefix.
The int32 product is exact in any order and is summed by ``np.add.reduceat``.
"""

import numpy as np


def csr_matvec(data, indices, indptr, x, dtype=np.float64):
    """A @ x, accumulated in ``dtype``: float64, or int32 for the integer
    product of int32 weights and a uint8 vector."""
    n_rows = len(indptr) - 1
    out = np.zeros(n_rows, dtype=dtype)
    if len(data) == 0:
        return out
    products = data * x[indices]
    lengths = np.diff(indptr)
    if out.dtype == np.int32:
        nonempty = lengths != 0
        out[nonempty] = np.add.reduceat(products, indptr[:-1][nonempty])
        return out
    if np.all(lengths == lengths[0]):
        for column in products.reshape(n_rows, -1).T:
            out += column
        return out
    order = np.argsort(-lengths, kind="stable")
    starts = indptr[:-1][order]
    # rows[p] rows have a p-th entry
    rows = np.bincount(lengths)[:0:-1].cumsum()[::-1]
    acc = np.zeros(n_rows)
    for p, m in enumerate(rows):
        acc[:m] += products[starts[:m] + p]
    out[order] = acc
    return out
