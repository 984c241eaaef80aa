"""The model's scenario and its stretch map: n agents on the line.

Each agent i sees a noisy measurement of its stretch (the gap between the
average of everyone else and itself), chooses a move, and drifts.  All
noise is zero-mean Gaussian and independent across agents, rounds and
kinds; the Monte Carlo engine in `sim` draws it.  Stretches always sum to
zero, and stretch_values works on the last axis of arbitrarily batched
position arrays.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .streams import normalize_seed
from .structmat import row_sum


def require_int(name: str, value) -> None:
    """Reject anything but an integer (bools included) for a count setting."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Scenario parameters.

    n, horizon and seed are integers.  sigma0 may be zero (all agents start at
    the origin); the measurement and drift noise scales must be positive.
    All three are finite.
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
        for name in ("sigma0", "sigma_m", "sigma_d"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.sigma0 < 0:
            raise ValueError(f"sigma0 must be >= 0, got {self.sigma0}")
        if self.sigma_m <= 0:
            raise ValueError(f"sigma_m must be > 0, got {self.sigma_m}")
        if self.sigma_d <= 0:
            raise ValueError(f"sigma_d must be > 0, got {self.sigma_d}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        object.__setattr__(self, "seed", normalize_seed(self.seed))


def stretch_values(positions: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Stretches along the last axis: mean of the others minus self.

    out, when given, receives the result (it must not overlap positions).
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[-1]
    if n < 2:
        raise ValueError(f"need at least 2 agents, got {n}")
    s = row_sum(positions)[..., np.newaxis]
    out = np.subtract(s, positions, out=out)
    out /= n - 1
    out -= positions
    return out


def cost_estimate(samples) -> float:
    """Mean absolute value of a batch of stretch samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cost estimate needs at least one sample")
    return float(np.abs(samples).mean())

