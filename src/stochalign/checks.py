"""The paper's three exact claims as checks, each returning a Verdict.

filter_agreement: the closed-form filter is the dense Kalman filter
(kalman-check); filter_failure is that check's verdict when the dense
filter raises.  shift_identity: W* and the centre-seeking rule make the
same move up to a common per-round shift (compare).  nash_fixed_point:
rho*(t) is its own best response (best-response).

Each check takes values its command has already computed, and computes
nothing its command computed: no filter pass, compile or best response.
Each tolerance lives beside the one check that applies it.
"""

from dataclasses import dataclass

import numpy as np

from .model import ModelConfig
from .policies import Gain
from .structmat import StructuredMatrix

@dataclass(frozen=True)
class Verdict:
    """A check's stdout line and whether the check passed."""

    line: str
    ok: bool


def _fmt(x: float) -> str:
    """Fixed 17-significant-digit decimal form; round-trips doubles."""
    return f"{float(x):.17g}"


def _noise_scale(cfg: ModelConfig) -> float:
    """max(1, sigma0, sigma_m, sigma_d): the unit of the checks' absolute deviations."""
    return max(1.0, cfg.sigma0, cfg.sigma_m, cfg.sigma_d)


# kalman-check: the closed-form filter is the dense Kalman filter

KALMAN_TOL = 1e-9


def _max_deviation(dense: np.ndarray, x: StructuredMatrix) -> float:
    """max |dense - x.to_dense()| entrywise, the same bits, without forming x.

    Rounding is monotone, so fl(e - c) is monotone in e: over a set of
    entries (the diagonal, or the off-diagonal entries, with c the
    matching entry of x) every fl(e - c) lies between those of the set's
    min and max, and the largest |fl(e - c)| is one of theirs.  A NaN
    shows too: a NaN entry is both extremes, and e - c is NaN otherwise
    only at e = c = +-inf, an extreme.  In memory order, C or F, the
    off-diagonal entries are flat[1:] cut into rows of n + 1 with each
    row's last entry, a diagonal one, left out: a view for any contiguous
    dense.  Needs n >= 2.
    """
    n = x.n
    off = dense.ravel(order="K")[1:].reshape(n - 1, n + 1)[:, :n]
    diag = dense.diagonal()
    return np.max(np.abs([off.max() - x.off, off.min() - x.off,
                          diag.max() - x.diag, diag.min() - x.diag]))


def filter_agreement(cfg: ModelConfig, t_max: int, cov_dev: float, gain_dev: float) -> Verdict:
    """The worst covariance and gain deviations of rounds 0..t_max against their bounds.

    Covariances grow with the square of the noise scale; gains have no units.
    """
    cov_tol = KALMAN_TOL * _noise_scale(cfg) ** 2
    ok = bool(cov_dev <= cov_tol and gain_dev <= KALMAN_TOL)
    bound = (f"{KALMAN_TOL}" if cov_tol == KALMAN_TOL
             else f"{cov_tol:g} for covariances, {KALMAN_TOL} for gains")
    return Verdict(f"{_filter_prefix(cfg, t_max)}max entrywise deviation "
                   f"{_fmt(max(cov_dev, gain_dev))} ({'pass' if ok else 'FAIL'} at {bound})", ok)


def filter_failure(cfg: ModelConfig, t_max: int, t: int, exc: Exception) -> Verdict:
    """The dense reference filter raised exc at round t, so the check cannot pass.

    A valid config can still be singular to LAPACK's solve.
    """
    return Verdict(f"{_filter_prefix(cfg, t_max)}the dense reference filter failed "
                   f"at round {t} ({exc}): FAIL", False)


def _filter_prefix(cfg: ModelConfig, t_max: int) -> str:
    """The opening that both of kalman-check's verdict lines share."""
    return f"dense filter vs closed form, n={cfg.n}, t<= {t_max}: "


# compare: W* and the centre-seeking rule differ by a common shift

SHIFT_TOL = 1e-12
STRETCH_EQ_TOL = 1e-9


def _entries(gain: Gain) -> np.ndarray:
    """A compiled gain's (diagonal, off-diagonal) entries, one row per round."""
    entries = (1.0, 0.0) if gain.op is None else (gain.op.diag, gain.op.off)
    return gain.scale[:, np.newaxis] * entries


def shift_identity(cfg: ModelConfig, stretch_diff: float, gain_a: Gain, gain_b: Gain,
                   rhos: np.ndarray) -> Verdict:
    """gain_a and gain_b make the same move up to a common per-round shift.

    The shift is rhos[t] times the mean measurement, so the gains differ
    in every entry by rhos[t]/n.  Gains have no units, so that check is
    exact; stretch_diff, the paired run's largest stretch difference,
    grows with the noise scale, and so does its bound.
    """
    stretch_tol = STRETCH_EQ_TOL * _noise_scale(cfg)
    diff = _entries(gain_a) - _entries(gain_b)
    rule = rhos[:cfg.horizon, np.newaxis] / cfg.n
    worst_spread = np.abs(diff[:, 0] - diff[:, 1]).max(initial=0.0)
    worst_rule = np.abs(diff - rule).max(initial=0.0)
    ok = bool(stretch_diff <= stretch_tol
              and worst_spread <= SHIFT_TOL and worst_rule <= SHIFT_TOL)
    return Verdict(f"shift equivalence: stretch diff <= {stretch_tol:g}, "
                   f"shift spread {_fmt(worst_spread)}, rule deviation {_fmt(worst_rule)}: "
                   f"{'pass' if ok else 'FAIL'}", ok)


# best-response: rho*(t) is its own best response

NASH_TOL = 1e-12


def nash_fixed_point(residual: float) -> Verdict:
    """The worst gap between a schedule and its best response, against NASH_TOL."""
    ok = bool(residual <= NASH_TOL)
    return Verdict(f"nash fixed point at {NASH_TOL}: {'pass' if ok else 'FAIL'}", ok)
