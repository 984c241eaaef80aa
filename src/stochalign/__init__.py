"""stochalign: simulation and analysis of noisy multi-agent alignment on a line.

n agents each observe a noisy version of their stretch (the gap between
the average of everyone else and themselves), move some fraction of the
observation, and drift.  The package provides the stretch map, the
structured-matrix algebra behind the dynamics, Kalman-filter machinery
with O(1) closed forms, the standard policies and their closed-form
limits, the best-response game layer, and a reproducible Monte Carlo engine with a
CSV-producing command line (`stochalign`).
"""

from .analysis import (SteadyStatePrediction, alpha_infty, cost_from_variance,
                       predict, rho_star_const, var_limit, var_star_large_n,
                       variance_from_cost)
from .game import BestResponseSchedule, best_response, deviant_policy, nash_residual
from .kalman import (AlphaSchedule, KalmanState, LinearSystem,
                     alignment_initial_state, alignment_system,
                     closed_form_filter_state, dense_filter_path, gain,
                     measurement_update, scalar_filter_step, time_update)
from .model import ModelConfig, cost_estimate, stretch_values
from .policies import Gain, PolicySpec, make_policy
from .sim import (PairedRunResult, RoundStats, RunPlan, RunResult, SweepPoint,
                  run, run_paired, steady_state_variance, sweep_rho)
from .structmat import (SingularStructuredMatrixError, StructuredMatrix,
                        apply, identity, inverse, mn, mul)

__version__ = "0.1.0"
