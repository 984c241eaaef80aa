"""Best response of a single deviating agent.

When every other agent plays a weighted-average schedule rho(t), the
deviating agent's optimal move is a coefficient times its own measurement,
computed from the scalar Kalman filter that tracks its stretch; that
filter runs in `best_response`'s own loop.  The per-round optimal
schedule rho*(t) is the unique fixed point: best responding to it
returns it.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kalman import AlphaSchedule
from .model import ModelConfig, require_int, require_schedule
from .policies import Gain


@dataclass(frozen=True)
class BestResponseSchedule:
    """Deviating agent's per-round coefficient and prediction variance."""

    responsiveness: np.ndarray
    p_pre: np.ndarray


def best_response(opp_schedule: Sequence[float], cfg: ModelConfig,
                  t_max: int) -> BestResponseSchedule:
    """Optimal deviation coefficients for rounds 0..t_max.

    opp_schedule[t] is the finite responsiveness every opponent plays at round t.
    The deviating agent moves (1 - rho_opp/(n-1)) * gain * Y_i, the move
    that zeroes its predicted stretch.  Its scalar filter runs here, one
    round per pass: the gain is p-/(p- + sigma_m^2), and the next
    prediction variance adds the opponents' moves and the drift to the
    shrunk posterior; its own move is known to it and does not enter the
    variance.  t_max is an integer >= 0.
    """
    require_int("t_max", t_max, lo=0)
    opp = require_schedule("opponent schedule", opp_schedule, t_max + 1)
    n, sm2, sd2 = cfg.n, cfg.sigma_m ** 2, cfg.sigma_d ** 2
    coeff = np.empty(t_max + 1)
    p_pre = np.empty(t_max + 1)
    p = n * cfg.sigma0 ** 2 / (n - 1)
    for t, rho_opp in enumerate(opp[:t_max + 1]):
        p_pre[t] = p
        shrink = 1.0 - rho_opp / (n - 1)
        coeff[t] = shrink * (p / (p + sm2))
        p = shrink ** 2 * p * sm2 / (p + sm2) + (rho_opp ** 2 * sm2 + sd2) / (n - 1) + sd2
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
