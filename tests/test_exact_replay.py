"""An exact replay of small runs bounds the engine's rounding at each sigma0.

A round of the engine adds and multiplies doubles and divides by n - 1
and by n, so fractions.Fraction replays a one-block run exactly from the
engine's own inputs: the draws of streams.substream, in the engine's
order and shapes, and the compiled Gain's scales and operator entries.
Each round's var_stretch and mean_abs_stretch are then compared with
their exact values in units in the last place (ulps) of the exact value.

The engine keeps absolute positions, of order sigma0, and subtracts them
to get the stretches, which a policy contracts to the order of sigma_d.
Each stretch therefore carries an error of a few ulps of sigma0, and the
columns lose about log2(sigma0 / sigma_d) bits.  The bound states that
defect: it is the larger of ROUNDING_ULPS, what the sums and means round
away, and SUBTRACTION_ULPS * sigma0 / sigma_d, about 4e-4 of the value at
sigma0 = 1e12.  Above sigma_d the engine misses the rounding bound,
which is asserted too, so that a change that mends the subtraction must
tighten the bound to ROUNDING_ULPS at every sigma0.
The replay needs only the standard library.
"""

import math
from fractions import Fraction

import pytest

from stochalign import streams
from stochalign.model import ModelConfig
from stochalign.policies import PolicySpec, make_policy
from stochalign.sim import RunPlan, run

ROUNDING_ULPS = 8
SUBTRACTION_ULPS = 2

# (n, replications, rounds): small enough for exact arithmetic
SHAPES = [(2, 8, 30), (3, 7, 21), (5, 6, 12)]


def exact_replay(cfg: ModelConfig, replications: int, gain):
    """The exact var_stretch and mean_abs_stretch columns of a one-block run.

    Draws are made as the engine makes them: (replications, n) normals
    from the block-0 stream of each kind, the initial positions first,
    then one measurement draw per round and one drift draw from round 1
    on.  A stretch is the mean of the others minus self, and an operator
    M(a, b) maps y_i to a y_i + b times the others' sum.
    """
    n, shape = cfg.n, (replications, cfg.n)
    init, meas, drift = (streams.substream(cfg.seed, 0, kind)
                         for kind in (streams.INIT, streams.MEASURE, streams.DRIFT))

    def draw(gen, sigma):
        return [[Fraction(v) for v in row] for row in gen.normal(0.0, sigma, shape).tolist()]

    pos = draw(init, cfg.sigma0)
    var, mean_abs = [], []
    for t in range(cfg.horizon + 1):
        if t:
            ds = draw(drift, cfg.sigma_d)
            pos = [[x + d for x, d in zip(xs, dd)] for xs, dd in zip(pos, ds)]
        stretches = [[(sum(xs) - x) / (n - 1) - x for x in xs] for xs in pos]
        var.append(sum(s * s for ss in stretches for s in ss) / (n * replications))
        mean_abs.append(sum(abs(s) for ss in stretches for s in ss) / (n * replications))
        if t == cfg.horizon:
            break
        ms = draw(meas, cfg.sigma_m)
        ys = [[s + m for s, m in zip(ss, mm)] for ss, mm in zip(stretches, ms)]
        if gain.op is not None:
            a, b = Fraction(gain.op.diag), Fraction(gain.op.off)
            ys = [[a * y + b * (sum(yy) - y) for y in yy] for yy in ys]
        scale = Fraction(gain.scale[t])
        pos = [[x + scale * y for x, y in zip(xs, yy)] for xs, yy in zip(pos, ys)]
    return var, mean_abs


def worst_ulps(column, exact) -> float:
    """The largest |column[t] - exact[t]| in ulps of float(exact[t])."""
    return max(float(abs(Fraction(got) - want) / Fraction(math.ulp(float(want))))
               for got, want in zip(column.tolist(), exact, strict=True))


@pytest.mark.parametrize("sigma0", [0.0, 1.0, 1e8, 1e12])
@pytest.mark.parametrize("kind", ["weighted", "wstar", "matc"])
@pytest.mark.parametrize("n, replications, rounds", SHAPES)
def test_columns_within_the_bound_of_their_sigma0(n, replications, rounds, kind, sigma0):
    cfg = ModelConfig(n=n, sigma0=sigma0, horizon=rounds, seed=n + replications)
    gain = make_policy(PolicySpec(kind, 0.5 if kind == "weighted" else None), cfg)
    result = run(RunPlan(cfg, gain, replications))
    var, mean_abs = exact_replay(cfg, replications, gain)
    ratio = cfg.sigma0 / cfg.sigma_d
    bound = max(ROUNDING_ULPS, SUBTRACTION_ULPS * ratio)
    worst = [worst_ulps(result.var_stretch, var),
             worst_ulps(result.mean_abs_stretch, mean_abs)]
    assert max(worst) <= bound, worst
    if ratio > 1:  # the subtraction's loss, until the engine mends it
        assert min(worst) > ROUNDING_ULPS, worst
