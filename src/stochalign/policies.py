"""Alignment policies, compiled to per-round gains.

Every policy the package ships is a weighted-average rule: at round t
each agent moves a scale known before round 0 times either its own
measurement or a structured linear map of the round's measurement
vector.  make_policy compiles a declarative PolicySpec into that Gain
once.  The engine never calls a Gain: it stacks the Gains' scales and
applies an operator to the measurements in place, which gives the bits
of gain(measurements, t).  It calls only a plain callable, such as the
benchmark tracer's wrapper of make_policy's Gains.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kalman import AlphaSchedule
from .model import ModelConfig
from .structmat import StructuredMatrix, apply, mn

POLICY_KINDS = ("weighted", "wstar", "matc")


@dataclass(frozen=True, eq=False)
class Gain:
    """Round-t moves scale[t] * y, or scale[t] * apply(op, y) when op is set.

    scale has one finite entry per round, or one row of n per-agent
    entries per round; it is stored as a read-only float copy.  A
    per-round schedule rhos is Gain(rhos).  Measurements y have shape
    (..., n).
    """

    scale: np.ndarray
    op: Optional[StructuredMatrix] = None

    def __post_init__(self):
        scale = np.array(self.scale, dtype=float)
        if scale.ndim not in (1, 2):
            raise ValueError(f"gain scale must be (rounds,) or (rounds, n), got {scale.shape}")
        if not np.all(np.isfinite(scale)):
            raise ValueError(f"gain scale must be finite, got {self.scale!r}")
        if self.op is not None and not isinstance(self.op, StructuredMatrix):
            raise ValueError(f"gain op must be None or a StructuredMatrix, got {self.op!r}")
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
    rho: responsiveness in [0, 1] for "weighted"; no other kind takes it.
    """

    kind: str
    rho: Optional[float] = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "weighted":
            if self.rho is None:
                raise ValueError("weighted policy needs rho")
            if not 0.0 <= self.rho <= 1.0:
                raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        elif self.rho is not None:
            raise ValueError(f"{self.kind} policy takes no rho, got {self.rho}")


def make_policy(spec: PolicySpec, cfg: ModelConfig) -> Gain:
    """Compile a PolicySpec into its Gain for rounds 0..cfg.horizon-1.

    "weighted" moves rho times the agent's own measurement, "wstar"
    rho*(t) times it, and "matc" moves -(n-1)/n rho*(t) times the stretch
    operator applied to the measurements, i.e. toward the estimated
    center of mass.
    """
    rounds = cfg.horizon
    if spec.kind == "weighted":
        return Gain(np.full(rounds, spec.rho, dtype=float))
    rhos = AlphaSchedule(cfg, rounds).rhos()[:rounds]
    if spec.kind == "wstar":
        return Gain(rhos)
    n = cfg.n
    return Gain(-((n - 1) / n * rhos), mn(n))
