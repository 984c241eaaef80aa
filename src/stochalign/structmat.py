"""Symmetric "constant diagonal + constant off-diagonal" matrices.

M(a, b) denotes the n x n matrix with a on the diagonal and b everywhere
else.  The package needs three things of it: the stretch operator mn(n),
scaling by a number, and apply, one O(n) matrix-vector pass that never
materializes the n x n array.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np


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


def apply(x: StructuredMatrix, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Matrix-vector product along the last axis, one O(n) pass.

    (M(a, b) v)_i = b * sum(v) + (a - b) * v_i, so batched inputs of shape
    (..., n) are handled without forming the matrix.  The result is a new
    array, or out when given, which may be v itself: the row sums are
    taken before out is written.  Both give the same bits.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != x.n:
        raise ValueError(f"vector length {v.shape[-1]} != dimension {x.n}")
    total = v.sum(axis=-1, keepdims=True)
    out = np.multiply(v, x.diag - x.off, out=out)
    total *= x.off
    out += total
    return out
