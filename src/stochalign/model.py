"""The model's scenario and its stretch map: n agents on the line.

Each agent i sees a noisy measurement of its stretch (the gap between the
average of everyone else and itself), chooses a move, and drifts.  All
noise is zero-mean Gaussian and independent across agents, rounds and
kinds; the Monte Carlo engine in `sim` draws it.  Stretches always sum to
zero, and stretch_values works on the last axis of arbitrarily batched
position arrays.
"""

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .streams import normalize_seed
from .structmat import along_rows, row_sum


def require_int(name: str, value) -> None:
    """Reject anything but an integer (bools included) for a count setting."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


SCALE_MIN, SCALE_MAX = 1e-50, 1e50  # the accepted magnitudes of a noise scale


@dataclass(frozen=True)
class ModelConfig:
    """Scenario parameters.

    n, horizon and seed are integers.  Each noise scale lies in
    [SCALE_MIN, SCALE_MAX]; sigma0 may also be zero (all agents start at
    the origin).
    """

    n: int
    sigma0: float = 1.0
    sigma_m: float = 1.0
    sigma_d: float = 1.0
    horizon: int = 100
    seed: int = 0

    def __post_init__(self):
        require_int("n", self.n)
        require_int("horizon", self.horizon)
        require_int("seed", self.seed)
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        # in this range a product of two variances times c^2 = (n/(n-1))^2,
        # and the engine's fourth-power sums of stretches, stay finite and
        # nonzero; a NaN fails every comparison
        for name in ("sigma0", "sigma_m", "sigma_d"):
            value = getattr(self, name)
            zero = name == "sigma0"
            if not (SCALE_MIN <= value <= SCALE_MAX or (zero and value == 0)):
                raise ValueError(f"{name} must be finite and {'0 or ' if zero else ''}in "
                                 f"[{SCALE_MIN:g}, {SCALE_MAX:g}], got {value}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        object.__setattr__(self, "seed", normalize_seed(self.seed))


def stretch_values(positions: np.ndarray, out: Optional[np.ndarray] = None, *,
                   total: Optional[np.ndarray] = None) -> np.ndarray:
    """Stretches along the last axis: mean of the others minus self.

    out, when given, receives the result; it must not overlap positions.
    total, when given, is row_sum(positions), which a caller that also
    needs it (the engine's centre of mass) computes once.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[-1]
    if n < 2:
        raise ValueError(f"need at least 2 agents, got {n}")
    if out is not None and np.may_share_memory(out, positions):
        raise ValueError("out must not overlap positions")
    if total is None:
        total = row_sum(positions)
    out = along_rows(np.subtract, total, positions, out)
    if n > 2:
        out /= n - 1
    out -= positions
    return out
