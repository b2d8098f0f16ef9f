"""Pure-numpy CSR matvec, the fallback for the compiled kernels.

Row sums are taken with ``np.add.reduceat`` over the non-empty rows; a
cumsum-difference trick would be shorter but loses accuracy to cancellation,
which matters because sparse and dense products must agree to 1e-12.
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
    nonempty = indptr[:-1] != indptr[1:]
    starts = indptr[:-1][nonempty]
    if len(starts):
        out[nonempty] = np.add.reduceat(products, starts)
    return out
