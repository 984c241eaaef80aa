"""stochalign: simulation and analysis of noisy multi-agent alignment on a line.

n agents each observe a noisy version of their stretch (the gap between
the average of everyone else and themselves), move some fraction of the
observation, and drift.  The package provides the stretch map, the M(a, b)
matrices that matc's gain and the closed-form filter are written in, the
pooled Kalman filter on the stretch vector (a dense reference path and its
O(1) closed forms), the standard policies and their closed-form limits,
the best-response game layer, and a reproducible Monte Carlo engine with a
CSV-producing command line (`stochalign`).
"""

from .analysis import (alpha_infty, cost_from_variance, rho_star_const, var_limit,
                       var_star_large_n)
from .game import BestResponseSchedule, best_response, deviant_policy, nash_residual
from .kalman import AlphaSchedule, closed_form_filter_state, dense_filter_path
from .model import ModelConfig, stretch_values
from .policies import Gain, PolicySpec, make_policy
from .sim import (PairedRunResult, RoundStats, RunPlan, RunResult, SweepPoint,
                  run, run_lanes, run_paired, steady_state_variance, sweep_rho)
from .structmat import StructuredMatrix, apply, mn

__version__ = "0.1.0"
