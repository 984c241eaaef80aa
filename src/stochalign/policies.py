"""Alignment policies, compiled to per-round gains.

Every policy the package ships is a weighted-average rule: at round t
each agent moves a scale known before round 0 times either its own
measurement or a structured linear map of the round's measurement
vector.  make_policy compiles a declarative PolicySpec into that Gain
once; the engine then calls it as gain(measurements, t).
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .kalman import AlphaSchedule
from .model import ModelConfig
from .structmat import StructuredMatrix, apply, mn

POLICY_KINDS = ("weighted", "scheduled", "wstar", "matc")


@dataclass(frozen=True, eq=False)
class Gain:
    """Round-t moves scale[t] * y, or scale[t] * apply(op, y) when op is set.

    scale has one entry per round, or one row of n per-agent entries per
    round; it is stored as a read-only float copy.  Measurements y have
    shape (..., n).
    """

    scale: np.ndarray
    op: Optional[StructuredMatrix] = None

    def __post_init__(self):
        scale = np.array(self.scale, dtype=float)
        if scale.ndim not in (1, 2):
            raise ValueError(f"gain scale must be (rounds,) or (rounds, n), got {scale.shape}")
        scale.flags.writeable = False
        object.__setattr__(self, "scale", scale)

    def __call__(self, y: np.ndarray, t: int) -> np.ndarray:
        if self.op is None:
            return self.scale[t] * y
        # scale apply's fresh result in place: a new (count, n) array per
        # call costs page faults once blocks are large
        moves = apply(self.op, y)
        moves *= self.scale[t]
        return moves


@dataclass(frozen=True)
class PolicySpec:
    """Declarative policy description, compiled by make_policy.

    kind: one of POLICY_KINDS.
    rho: responsiveness for "weighted".
    rhos: per-round responsiveness for "scheduled", each in [0, 1]; the
        engine requires one value per simulated round.
    """

    kind: str
    rho: Optional[float] = None
    rhos: Optional[Sequence[float]] = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "weighted":
            if self.rho is None:
                raise ValueError("weighted policy needs rho")
            if not 0.0 <= self.rho <= 1.0:
                raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if self.kind == "scheduled":
            if self.rhos is None:
                raise ValueError("scheduled policy needs rhos")
            rhos = np.asarray(self.rhos, dtype=float)
            if rhos.ndim != 1 or not np.all((rhos >= 0.0) & (rhos <= 1.0)):
                raise ValueError(f"scheduled rhos must be a sequence of values in [0, 1], "
                                 f"got {self.rhos!r}")


def make_policy(spec: PolicySpec, cfg: ModelConfig, rounds: Optional[int] = None) -> Gain:
    """Compile a PolicySpec into its Gain for rounds 0..rounds-1.

    rounds defaults to the config horizon.  "weighted" moves rho times
    the agent's own measurement, "scheduled" rhos[t] times it (rhos is
    taken whole), "wstar" rho*(t) times it, and "matc" moves
    -(n-1)/n rho*(t) times the stretch operator applied to the
    measurements, i.e. toward the estimated center of mass.
    """
    rounds = cfg.horizon if rounds is None else rounds
    if spec.kind == "weighted":
        return Gain(np.full(rounds, spec.rho, dtype=float))
    if spec.kind == "scheduled":
        return Gain(spec.rhos)
    rhos = AlphaSchedule(cfg, rounds).rhos(rounds)[:rounds]
    if spec.kind == "wstar":
        return Gain(rhos)
    n = cfg.n
    return Gain(-((n - 1) / n * rhos), mn(n))
