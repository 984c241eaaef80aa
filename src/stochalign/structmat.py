"""Symmetric "constant diagonal + constant off-diagonal" matrices.

M(a, b) denotes the n x n matrix with a on the diagonal and b everywhere
else.  The family is closed under multiplication and (when nonsingular)
inversion, so products, inverses and matrix-vector applications never
materialize an n x n array; everything is O(1) or O(n).
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


class SingularStructuredMatrixError(ValueError):
    """Raised when an M(a, b) matrix fails an exact invertibility condition."""


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

    def __neg__(self):
        return StructuredMatrix(self.n, -self.diag, -self.off)

    def __matmul__(self, other):
        if isinstance(other, StructuredMatrix):
            return mul(self, other)
        return apply(self, other)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array.  For checks and reports only."""
        out = np.full((self.n, self.n), self.off, dtype=float)
        np.fill_diagonal(out, self.diag)
        return out


def identity(n: int) -> StructuredMatrix:
    return StructuredMatrix(n, 1.0, 0.0)


def mn(n: int) -> StructuredMatrix:
    """The stretch operator: -1 on the diagonal, 1/(n-1) off it.

    Maps a position vector to the vector of stretches.  Needs n >= 2.
    """
    if n < 2:
        raise ValueError(f"stretch operator needs n >= 2, got {n}")
    return StructuredMatrix(n, -1.0, 1.0 / (n - 1))


def mul(x: StructuredMatrix, y: StructuredMatrix) -> StructuredMatrix:
    """Product of two M(a, b) matrices of the same dimension (commutative)."""
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} != {y.n}")
    n, a, b = x.n, x.diag, x.off
    a2, b2 = y.diag, y.off
    return StructuredMatrix(
        n,
        a * a2 + (n - 1) * b * b2,
        a * b2 + a2 * b + (n - 2) * b * b2,
    )


def inverse(x: StructuredMatrix) -> StructuredMatrix:
    """Exact inverse within the family.

    M(a, b) is singular iff a == -(n-1) b (the all-ones vector is in the
    kernel) or, for n >= 2, a == b (rank-1 directions collapse).  Both
    conditions are checked exactly, not against an epsilon.  The 1x1
    matrix [a] has no off-diagonal entry; its inverse is M(1/a, 0).
    """
    n, a, b = x.n, x.diag, x.off
    if n > 1 and a == b:
        raise SingularStructuredMatrixError(
            f"M(a={a}, b={b}) is singular: a == b")
    if a == -(n - 1) * b:
        raise SingularStructuredMatrixError(
            f"M(a={a}, b={b}) is singular: a == -(n-1)*b with n={n}")
    if n == 1:
        return StructuredMatrix(1, 1.0 / a, 0.0)
    # one eigenvalue after the other: their product may leave the double range
    lam, mu = a - b, a + (n - 1) * b
    return StructuredMatrix(n, (a + (n - 2) * b) / lam / mu, -b / lam / mu)


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
