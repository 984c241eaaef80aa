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


def require_int(name: str, value, lo: Optional[int] = None, hi: Optional[int] = None) -> None:
    """Reject anything but an integer (bools included) for a count setting,
    and, when lo is given, one below lo or, with hi too, one outside [lo, hi)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if hi is not None and not lo <= value < hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}), got {value}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")


def require_schedule(name: str, values, rounds: int) -> np.ndarray:
    """values as a 1-D float array of at least rounds entries, finite over
    the first rounds; entries past them are never read."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < rounds:
        raise ValueError(f"{name} needs one scale per round ({rounds}), "
                         f"got shape {values.shape}")
    if not np.all(np.isfinite(values[:rounds])):
        raise ValueError(f"{name} must be finite over its {rounds} rounds, got {values!r}")
    return values


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
        require_int("n", self.n, lo=2)
        require_int("horizon", self.horizon, lo=0)
        require_int("seed", self.seed)
        # in this range a product of two variances times c^2 = (n/(n-1))^2,
        # and the engine's fourth-power sums of stretches, stay finite and
        # nonzero; a NaN fails every comparison
        for name in ("sigma0", "sigma_m", "sigma_d"):
            value = getattr(self, name)
            zero = name == "sigma0"
            if not (SCALE_MIN <= value <= SCALE_MAX or (zero and value == 0)):
                raise ValueError(f"{name} must be finite and {'0 or ' if zero else ''}in "
                                 f"[{SCALE_MIN:g}, {SCALE_MAX:g}], got {value}")
        object.__setattr__(self, "seed", normalize_seed(self.seed))


def stretch_values(positions: np.ndarray, out: Optional[np.ndarray] = None, *,
                   total: Optional[np.ndarray] = None) -> np.ndarray:
    """Stretches along the last axis: mean of the others minus self.

    out, when given, receives the result; it must not overlap positions.
    total, when given, is positions.sum(axis=-1), which a caller that also
    needs it (the engine's centre of mass) computes once.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[-1]
    if n < 2:
        raise ValueError(f"need at least 2 agents, got {n}")
    if out is not None and np.may_share_memory(out, positions):
        raise ValueError("out must not overlap positions")
    if total is None:
        total = positions.sum(axis=-1)
    out = np.subtract(total[..., np.newaxis], positions, out=out)
    if n > 2:
        out /= n - 1
    out -= positions
    return out
