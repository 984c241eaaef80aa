"""Kalman filtering for the alignment dynamics.

Two routes to the same covariances are kept deliberately separate:

* a dense, textbook filter (`gain`, `measurement_update`, `time_update`)
  that works for any linear-Gaussian system and serves as the reference
  implementation, and
* closed forms (`AlphaSchedule`, `closed_form_filter_state`) that exploit
  the constant-diagonal structure of the alignment system and cost O(1)
  per round.

`kalman_check` style comparisons of the two routes are the main
correctness guard for everything downstream.  `dense_filter_path` streams
the dense route on the alignment system, where A = H = I: each round is
K = P(P+R)^-1 and P <- (I-K)P + Q, one solve and one matrix product.  It
yields one fresh (P-_t, K_t) pair per round, so its memory is O(n^2)
whatever the number of rounds.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ModelConfig, require_int
from .structmat import StructuredMatrix, mn


@dataclass(frozen=True)
class LinearSystem:
    """x' = A x + B u + w, z = H x + v, w ~ N(0, Q), v ~ N(0, R)."""

    a: np.ndarray
    b: np.ndarray
    h: np.ndarray
    q: np.ndarray
    r: np.ndarray


@dataclass
class KalmanState:
    """Filter state at one round.

    The _pre fields are the predicted quantities; the _post fields and the
    gain that produced them are filled in by the measurement update.
    """

    round: int
    estimate_pre: np.ndarray
    cov_pre: np.ndarray
    estimate_post: Optional[np.ndarray] = None
    cov_post: Optional[np.ndarray] = None
    gain: Optional[np.ndarray] = None


def alignment_system(cfg: ModelConfig) -> LinearSystem:
    """Dense matrices for the stretch-vector dynamics.

    The state is the stretch vector itself: it is measured directly with
    variance sigma_m^2 per coordinate, moves enter through the stretch
    operator, and the drift covariance is sigma_d^2 times its square.
    """
    m = mn(cfg.n).to_dense()
    eye = np.eye(cfg.n)
    return LinearSystem(
        a=eye,
        b=m,
        h=eye,
        q=cfg.sigma_d ** 2 * (m @ m),
        r=cfg.sigma_m ** 2 * eye,
    )


def alignment_initial_state(cfg: ModelConfig) -> KalmanState:
    """Zero initial estimate; covariance sigma0^2 times the squared stretch operator."""
    m = mn(cfg.n).to_dense()
    return KalmanState(
        round=0,
        estimate_pre=np.zeros(cfg.n),
        cov_pre=cfg.sigma0 ** 2 * (m @ m),
    )


def gain(state: KalmanState, system: LinearSystem) -> np.ndarray:
    """Optimal gain K = P- H' (H P- H' + R)^-1 for the current prediction."""
    ph = state.cov_pre @ system.h.T
    s = system.h @ ph + system.r
    # K = ph s^-1; solve on the transposed system to avoid forming s^-1
    return np.linalg.solve(s.T, ph.T).T


def measurement_update(state: KalmanState, system: LinearSystem,
                       z: np.ndarray) -> KalmanState:
    """Condition the prediction on one measurement vector z."""
    k = gain(state, system)
    innovation = np.asarray(z, dtype=float) - system.h @ state.estimate_pre
    estimate_post = state.estimate_pre + k @ innovation
    cov_post = (np.eye(state.cov_pre.shape[0]) - k @ system.h) @ state.cov_pre
    return KalmanState(
        round=state.round,
        estimate_pre=state.estimate_pre,
        cov_pre=state.cov_pre,
        estimate_post=estimate_post,
        cov_post=cov_post,
        gain=k,
    )


def time_update(state: KalmanState, system: LinearSystem,
                u: np.ndarray) -> KalmanState:
    """Propagate the posterior through the dynamics with known input u."""
    if state.estimate_post is None or state.cov_post is None:
        raise ValueError("time update requires a measurement-updated state")
    return KalmanState(
        round=state.round + 1,
        estimate_pre=system.a @ state.estimate_post + system.b @ np.asarray(u, dtype=float),
        cov_pre=system.a @ state.cov_post @ system.a.T + system.q,
    )


def _check_t_max(t_max) -> None:
    require_int("t_max", t_max)
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")


def dense_filter_path(cfg: ModelConfig, t_max: int):
    """Prediction covariance and gain per round from the dense filter.

    Runs the textbook covariance recursion on the alignment system, whose
    dynamics and measurement matrices are both I (measurements and inputs
    do not affect covariances, so none are needed):

        K_t = P-_t (P-_t + R)^-1,    P-_{t+1} = (I - K_t) P-_t + Q.

    These are the bits `gain`, `measurement_update` and `time_update`
    give on this system, except that at sigma0 = 0 zero entries of K_0
    may carry the other sign.  Yields (P-_t, K_t) for t = 0..t_max as fresh
    dense arrays, one round at a time, and holds only the current round's
    matrices, so its memory is O(n^2) independent of t_max.  t_max is
    checked when this is called, not when the first round is drawn.
    """
    _check_t_max(t_max)
    return _dense_filter_rounds(cfg, t_max)


def _dense_filter_rounds(cfg: ModelConfig, t_max: int):
    # gain/measurement_update/time_update with their products with
    # A = H = I left out; the solve gets the operands and layout gain gives it
    system = alignment_system(cfg)
    p = alignment_initial_state(cfg).cov_pre
    eye = np.eye(cfg.n)
    for _ in range(t_max + 1):
        k = np.linalg.solve((p + system.r).T, p.T).T
        yield p, k
        p = (eye - k) @ p + system.q


class AlphaSchedule:
    """Per-coordinate prediction uncertainty alpha_t and responsiveness rho*(t).

    alpha_0 = n sigma0^2 / (n-1), and each round

        alpha_{t+1} = sigma_m^2 alpha_t / (c alpha_t + sigma_m^2) + c sigma_d^2,
        rho*(t)     = alpha_t / (c alpha_t + sigma_m^2),         c = n/(n-1).

    Both are computed once, for rounds 0..t_max (default: the config
    horizon); a round outside that range is rejected.
    """

    def __init__(self, cfg: ModelConfig, t_max: Optional[int] = None):
        t_max = cfg.horizon if t_max is None else t_max
        _check_t_max(t_max)
        self.cfg = cfg
        self.t_max = t_max
        c = cfg.n / (cfg.n - 1)
        sm2 = cfg.sigma_m ** 2
        csd2 = c * cfg.sigma_d ** 2
        a = [cfg.n * cfg.sigma0 ** 2 / (cfg.n - 1)]
        for _ in range(t_max):
            prev = a[-1]
            a.append(sm2 * prev / (c * prev + sm2) + csd2)
        self._alphas = np.array(a)
        self._rhos = self._alphas / (c * self._alphas + sm2)

    def _check(self, t: int) -> int:
        if not 0 <= t <= self.t_max:
            raise ValueError(f"round {t} is outside the schedule's rounds 0..{self.t_max}")
        return t

    def alpha(self, t: int) -> float:
        return float(self._alphas[self._check(t)])

    def rho(self, t: int) -> float:
        return float(self._rhos[self._check(t)])

    def alphas(self, t_max: int) -> np.ndarray:
        return self._alphas[:self._check(t_max) + 1].copy()

    def rhos(self, t_max: int) -> np.ndarray:
        return self._rhos[:self._check(t_max) + 1].copy()


def closed_form_filter_state(cfg: ModelConfig, t: int,
                             schedule: Optional[AlphaSchedule] = None):
    """Structured (prediction covariance, gain) at round t.

    P-_t = -alpha_t M and K_t = -rho*(t) M, where M is the stretch
    operator; both stay in the constant-diagonal family forever.
    """
    if schedule is None:
        schedule = AlphaSchedule(cfg, t)
    m = mn(cfg.n)
    cov_pre: StructuredMatrix = -schedule.alpha(t) * m
    gain_t: StructuredMatrix = -schedule.rho(t) * m
    return cov_pre, gain_t


def scalar_filter_step(p_pre: float, rho_opp: float, cfg: ModelConfig):
    """One round of the deviating agent's scalar filter.

    The agent tracks its own stretch while every opponent plays
    responsiveness rho_opp this round.  Returns (gain, next prediction
    variance); the agent's own move is known to it and does not enter the
    variance recursion.
    """
    if p_pre < 0:
        raise ValueError(f"prediction variance must be >= 0, got {p_pre}")
    n = cfg.n
    sm2 = cfg.sigma_m ** 2
    sd2 = cfg.sigma_d ** 2
    k = p_pre / (p_pre + sm2)
    shrink = 1.0 - rho_opp / (n - 1)
    p_next = (shrink ** 2 * p_pre * sm2 / (p_pre + sm2)
              + (rho_opp ** 2 * sm2 + sd2) / (n - 1) + sd2)
    return k, p_next
