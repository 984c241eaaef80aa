"""Symmetric "constant diagonal + constant off-diagonal" matrices.

M(a, b) denotes the n x n matrix with a on the diagonal and b everywhere
else.  The package needs three things of it: the stretch operator mn(n),
scaling by a number, and apply, one O(n) matrix-vector pass that never
materializes the n x n array.  row_sum is that pass's bit-exact row sum.
"""

from dataclasses import dataclass

import numpy as np


# numpy sums rows shorter than this strictly left to right
SEQUENTIAL_SUM_MAX = 7


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
    (..., n) are handled without forming the matrix.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != x.n:
        raise ValueError(f"vector length {v.shape[-1]} != dimension {x.n}")
    s = row_sum(v)[..., np.newaxis]
    return x.off * s + (x.diag - x.off) * v
