"""Alignment policies: maps from a round's measurements to moves.

All functions accept measurement arrays of shape (..., n) and return moves
of the same shape, so they drop into both single-world stepping and the
vectorized Monte Carlo engine.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .kalman import AlphaSchedule
from .model import ModelConfig
from .structmat import apply, mn

# a policy maps (measurements, round index) to moves
PolicyFn = Callable[[np.ndarray, int], np.ndarray]

POLICY_KINDS = ("weighted", "scheduled", "wstar", "matc", "shifted")


def weighted_moves(measurements: np.ndarray, rho: float) -> np.ndarray:
    """Constant responsiveness: move rho times your own measurement."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    return rho * np.asarray(measurements, dtype=float)


def wstar_moves(measurements: np.ndarray, t: int,
                schedule: AlphaSchedule) -> np.ndarray:
    """Round-optimal responsiveness rho*(t) times your own measurement."""
    return schedule.rho(t) * np.asarray(measurements, dtype=float)


def matc_moves(measurements: np.ndarray, t: int,
               schedule: AlphaSchedule) -> np.ndarray:
    """Move toward the estimated center of mass instead of the stretch target.

    Equals (n-1)/n * rho*(t) * (Y_i - mean of the other measurements),
    i.e. a rescaled application of the negated stretch operator to Y.
    Keeps the center of the group's estimated positions fixed.
    """
    y = np.asarray(measurements, dtype=float)
    n = y.shape[-1]
    if n != schedule.cfg.n:
        raise ValueError(f"measurement length {n} != configured n {schedule.cfg.n}")
    coeff = (n - 1) / n * schedule.rho(t)
    return -coeff * apply(mn(n), y)


def shifted_moves(base_moves: np.ndarray, shift) -> np.ndarray:
    """Add a common shift to every agent's move.

    shift may be a scalar or an array broadcastable against the leading
    (replication) axes; the same value is added to all n agents, which
    leaves every stretch unchanged.
    """
    base = np.asarray(base_moves, dtype=float)
    shift = np.asarray(shift, dtype=float)
    if shift.ndim > 0:
        shift = shift[..., np.newaxis]
    return base + shift


@dataclass(frozen=True)
class PolicySpec:
    """Declarative policy description, compiled by make_policy.

    kind: one of POLICY_KINDS.
    rho: responsiveness for "weighted".
    rhos: per-round responsiveness for "scheduled", each in [0, 1]; the
        engine requires one value per simulated round.
    base / shift_rule: for "shifted", the underlying spec plus a callable
        (measurements, t) -> common shift.
    """

    kind: str
    rho: Optional[float] = None
    rhos: Optional[Sequence[float]] = None
    base: Optional["PolicySpec"] = None
    shift_rule: Optional[Callable[[np.ndarray, int], np.ndarray]] = None

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
        if self.kind == "shifted" and (self.base is None or self.shift_rule is None):
            raise ValueError("shifted policy needs base and shift_rule")


def make_policy(spec: PolicySpec, cfg: ModelConfig,
                schedule: Optional[AlphaSchedule] = None) -> PolicyFn:
    """Compile a PolicySpec into a (measurements, t) -> moves callable."""
    if spec.kind == "weighted":
        rho = spec.rho
        return lambda y, t: rho * np.asarray(y, dtype=float)
    if spec.kind == "scheduled":
        rhos = np.asarray(spec.rhos, dtype=float)
        return lambda y, t: rhos[t] * np.asarray(y, dtype=float)
    if schedule is None:
        schedule = AlphaSchedule(cfg)
    if spec.kind == "wstar":
        return lambda y, t: wstar_moves(y, t, schedule)
    if spec.kind == "matc":
        return lambda y, t: matc_moves(y, t, schedule)
    base_fn = make_policy(spec.base, cfg, schedule)
    shift_rule = spec.shift_rule
    return lambda y, t: shifted_moves(base_fn(y, t), shift_rule(y, t))
