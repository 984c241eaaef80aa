"""Closed-form limits for constant-responsiveness play.

When every agent moves rho times its own measurement each round, the
stretch of each agent is an AR(1) process; these helpers give its limiting
variance, the variance-minimizing constant responsiveness, and the
expected-absolute-stretch cost of a variance.
"""

import math

from .model import ModelConfig


def var_limit(rho: float, cfg: ModelConfig) -> float:
    """Limiting per-agent stretch variance under constant responsiveness rho.

    Returns math.inf when the round map does not contract (rho = 0 always;
    rho = 1 with n = 2).
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    c = cfg.n / (cfg.n - 1)
    denom = 1.0 - (1.0 - c * rho) ** 2
    if denom <= 0.0:
        return math.inf
    return c * (rho ** 2 * cfg.sigma_m ** 2 + cfg.sigma_d ** 2) / denom


def rho_star_const(cfg: ModelConfig) -> float:
    """The constant responsiveness minimizing var_limit.

    Tends to (sqrt(5)-1)/2 as n grows when sigma_m == sigma_d.
    """
    c = cfg.n / (cfg.n - 1)
    sm2 = cfg.sigma_m ** 2
    sd = cfg.sigma_d
    return (sd * math.sqrt(4.0 * sm2 + (c * sd) ** 2) - c * sd ** 2) / (2.0 * sm2)


def var_star_large_n(sigma_m: float, sigma_d: float) -> float:
    """Large-n limit of the optimal-constant stretch variance."""
    return 0.5 * sigma_d * (math.sqrt(4.0 * sigma_m ** 2 + sigma_d ** 2) + sigma_d)


def alpha_infty(cfg: ModelConfig) -> float:
    """Limit of the one-step-ahead stretch-uncertainty sequence alpha_t."""
    c = cfg.n / (cfg.n - 1)
    sm2 = cfg.sigma_m ** 2
    sd = cfg.sigma_d
    return 0.5 * (sd * math.sqrt(4.0 * sm2 + (c * sd) ** 2) + c * sd ** 2)


def cost_from_variance(variance: float) -> float:
    """Expected |x| of a centered Gaussian with the given variance."""
    if variance < 0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    if math.isinf(variance):
        return math.inf
    return math.sqrt(2.0 * variance / math.pi)
