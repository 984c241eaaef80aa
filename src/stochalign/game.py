"""Best response of a single deviating agent.

When every other agent plays a weighted-average schedule rho(t), the
deviating agent's optimal move is a coefficient times its own measurement,
computed from the scalar Kalman filter that tracks its stretch.  The
per-round optimal schedule rho*(t) is the unique fixed point: best
responding to it returns it.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kalman import AlphaSchedule, scalar_filter_step
from .model import ModelConfig, require_int, require_schedule
from .policies import Gain


@dataclass(frozen=True)
class BestResponseSchedule:
    """Deviating agent's per-round coefficient and prediction variance."""

    responsiveness: np.ndarray
    p_pre: np.ndarray

    def __len__(self):
        return len(self.responsiveness)


def best_response(opp_schedule: Sequence[float], cfg: ModelConfig,
                  t_max: int) -> BestResponseSchedule:
    """Optimal deviation coefficients for rounds 0..t_max.

    opp_schedule[t] is the finite responsiveness every opponent plays at round t.
    The deviating agent moves (1 - rho_opp/(n-1)) * gain * Y_i, the move
    that zeroes its predicted stretch.  t_max is an integer >= 0.
    """
    require_int("t_max", t_max, lo=0)
    opp = require_schedule("opponent schedule", opp_schedule, t_max + 1)
    coeff = np.empty(t_max + 1)
    p_pre = np.empty(t_max + 1)
    p = cfg.n * cfg.sigma0 ** 2 / (cfg.n - 1)
    for t in range(t_max + 1):
        p_pre[t] = p
        k, p = scalar_filter_step(p, opp[t], cfg)
        coeff[t] = (1.0 - opp[t] / (cfg.n - 1)) * k
    return BestResponseSchedule(responsiveness=coeff, p_pre=p_pre)


def nash_residual(schedule: Sequence[float], cfg: ModelConfig, t_max: int) -> float:
    """Worst per-round gap between a schedule and the best response to it.

    Zero iff no agent can gain at any round by deviating from the
    schedule with a weighted-average move.
    """
    schedule = np.asarray(schedule, dtype=float)
    br = best_response(schedule, cfg, t_max)
    return float(np.abs(br.responsiveness - schedule[:t_max + 1]).max())


def deviant_policy(coeffs: Sequence[float], schedule: AlphaSchedule,
                   agent: int = 0) -> Gain:
    """Everyone plays rho*(t) except one agent, who plays coeffs[t].

    Used by the empirical dominance checks.  The returned Gain has one
    row of per-agent scales per round that both coeffs and the schedule
    cover; the engine rejects it for a run with more rounds.  agent is an
    integer in [0, n).
    """
    n = schedule.cfg.n
    require_int("agent", agent, lo=0, hi=n)
    coeffs = np.asarray(coeffs, dtype=float)
    rounds = min(len(coeffs), schedule.t_max + 1)
    rhos = schedule.rhos()[:rounds]
    scale = np.repeat(rhos[:, np.newaxis], n, axis=1)
    scale[:, agent] = coeffs[:rounds]
    return Gain(scale)
