"""Symmetric "constant diagonal + constant off-diagonal" matrices.

M(a, b) denotes the n x n matrix with a on the diagonal and b everywhere
else.  The package needs three things of it: the stretch operator mn(n),
scaling by a number, and apply, one O(n) matrix-vector pass that never
materializes the n x n array.

Beside them are three kernels for arrays of many short rows, such as the
agent axis of the engine's state (n is 2 to 5 in practice), where numpy
runs one n-element inner loop per row.  Each works on whole columns
instead and reproduces numpy 2.4's bits:

- row_sum gives v.sum(axis=-1), which adds a row of up to 7 elements
  strictly left to right;
- along_rows gives ufunc(s[..., None], v), which acts on each element
  alone, so any order gives the same bits;
- row_sum_sq gives np.einsum("ij,ij->i", v, v), which for rows of up to
  7 elements sums the squares of the even columns and those of the odd
  columns separately, each left to right, and then adds the two sums.

Each kernel hands longer rows to numpy's own routine.
"""

from dataclasses import dataclass

import numpy as np


# numpy sums rows shorter than this strictly left to right
SEQUENTIAL_SUM_MAX = 7

# The longest row along_rows and row_sum_sq work on by columns.  A column
# pass strides over the whole array once per column, so the kernels lose
# once the array leaves the cache; the cutoff keeps to the lengths that win
# at every shape measured.  Best of 7 x 100 calls, in microseconds, kernel
# against numpy, on a 2-vCPU Xeon VM with numpy 2.4.6:
#
#   (lanes, rows, n)   along_rows / broadcast   row_sum_sq / einsum
#   (17, 1000, 2)            26 / 73                 33 / 91
#   (17, 1000, 3)            43 / 95                 45 / 95
#   (17, 1000, 4)            69 / 99                 63 / 109
#   (1, 20000, 3)            48 / 102                67 / 115
#   (1, 20000, 4)           106 / 108                77 / 122
#   (1, 20000, 5)           193 / 153               100 / 136
#   (2, 20000, 3)           223 / 305               115 / 260
#   (2, 20000, 4)           459 / 302               359 / 346
#   (6, 20000, 3)           890 / 833               622 / 963
#   (6, 20000, 4)          1524 / 1163             1146 / 1096
SHORT_ROW_MAX = 3


def row_sum(v: np.ndarray, out=None) -> np.ndarray:
    """v.sum(axis=-1), bit for bit, without numpy's per-row reduction loop.

    numpy adds the elements of a row shorter than 8 strictly left to
    right (checked for numpy 2.4), so adding whole columns in that order
    gives the same bits at a fraction of the cost when there are many
    short rows.  Longer rows use numpy's own reduction.

    One exception: a row of 2 to 7 elements that are all -0.0 sums to
    -0.0 here, while numpy, which starts from +0.0, returns +0.0.  The
    two compare equal; only their sign bits differ.
    """
    n = v.shape[-1]
    if not 2 <= n <= SEQUENTIAL_SUM_MAX:
        return np.sum(v, axis=-1, out=out)
    out = np.add(v[..., 0], v[..., 1], out=out)
    for j in range(2, n):
        out += v[..., j]
    return out


def along_rows(ufunc, s: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """ufunc(s[..., None], v), bit for bit, one column of v at a time.

    s has v's shape without its last axis; out may be v itself.  Rows
    longer than SHORT_ROW_MAX use the broadcast.
    """
    n = v.shape[-1]
    if n > SHORT_ROW_MAX:
        return ufunc(s[..., np.newaxis], v, out=out)
    if out is None:
        out = np.empty(v.shape, dtype=np.result_type(s, v))
    for j in range(n):
        ufunc(s, v[..., j], out=out[..., j])
    return out


def row_sum_sq(v: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """np.einsum("ij,ij->i", v, v) over the last axis of v, bit for bit.

    out and the scratch tmp have v's shape without its last axis.  numpy
    2.4's einsum squares and adds a row of up to 7 elements in two
    accumulators, one for the even and one for the odd columns, and adds
    them at the end: (v0² + v2²) + v1² for a row of 3.  (Checked on
    100,000 rows of wide dynamic range at each length, also with numpy's
    dispatched SIMD targets disabled; from 8 elements on, einsum unrolls
    its loop and the order changes.)  Rows longer than SHORT_ROW_MAX go
    to einsum itself.
    """
    k = v.shape[-1]
    if not 1 <= k <= SHORT_ROW_MAX:
        flat = v.reshape(-1, k)
        np.einsum("ij,ij->i", flat, flat, out=out.reshape(-1))
        return out
    np.multiply(v[..., 0], v[..., 0], out=out)
    if k == 3:
        out += np.multiply(v[..., 2], v[..., 2], out=tmp)
    if k > 1:
        out += np.multiply(v[..., 1], v[..., 1], out=tmp)
    return out


@dataclass(frozen=True)
class StructuredMatrix:
    """M(a, b): diagonal entries a, off-diagonal entries b, dimension n."""

    n: int
    diag: float
    off: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return StructuredMatrix(self.n, c * self.diag, c * self.off)

    __rmul__ = __mul__

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array.  For checks and reports only."""
        out = np.full((self.n, self.n), self.off, dtype=float)
        np.fill_diagonal(out, self.diag)
        return out


def mn(n: int) -> StructuredMatrix:
    """The stretch operator: -1 on the diagonal, 1/(n-1) off it.

    Maps a position vector to the vector of stretches.  Needs n >= 2.
    """
    if n < 2:
        raise ValueError(f"stretch operator needs n >= 2, got {n}")
    return StructuredMatrix(n, -1.0, 1.0 / (n - 1))


def apply(x: StructuredMatrix, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product along the last axis, one O(n) pass.

    (M(a, b) v)_i = b * sum(v) + (a - b) * v_i, so batched inputs of shape
    (..., n) are handled without forming the matrix.  The result is a new
    array; v is left as it is.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != x.n:
        raise ValueError(f"vector length {v.shape[-1]} != dimension {x.n}")
    out = (x.diag - x.off) * v
    return along_rows(np.add, x.off * row_sum(v), out, out=out)
