"""An exact replay of small runs bounds the engine's rounding at each sigma0.

A round of the engine adds and multiplies doubles and divides by n - 1
and by n, so fractions.Fraction replays a run exactly from the engine's
own inputs: the draws of streams.substream, in the engine's order and
shapes, block by block, and the compiled Gain's scales and operator
entries.  Every column of a run's RunResult, and of a paired run's
PairedRunResult, is then compared with its exact value, in units in the
last place (ulps).

The engine keeps absolute positions, of order sigma0, and subtracts them
to get the stretches, which a policy contracts to the order of sigma_d.
Each stretch therefore carries an error of a few ulps of sigma0, and the
columns lose about log2(sigma0 / sigma_d) bits.  The bounds state that
defect.  A column whose exact value is of the stretches' order is
bounded in ulps of that value, by the larger of its rounding bound and
its subtraction bound times sigma0 / sigma_d.  A column whose exact
value may be 0 (the largest |sum of stretches|, which is 0, the largest
stretch difference and the common shift of a pair) is bounded in ulps of
max(sigma0, sigma_d).  Above sigma_d every such column misses its
rounding bound in ulps of sigma_d, which is asserted too, so that a
change that mends the subtraction must tighten the bounds to rounding at
every sigma0.  The centre of mass is of the positions' order, so it is
bounded in ulps of the round's largest |position|, at every sigma0 alike;
at sigma0 = 0 that makes its round-0 value exactly 0.
The replay needs only the standard library.
"""

import functools
import math
from fractions import Fraction

import pytest

from stochalign import streams
from stochalign.game import deviant_policy
from stochalign.kalman import AlphaSchedule
from stochalign.model import ModelConfig
from stochalign.policies import PolicySpec, make_policy
from stochalign.sim import RunPlan, run, run_paired

# (n, replications, rounds): small enough for exact arithmetic, and n - 1
# a power of two, so that every exact value is a dyadic fraction
SHAPES = [(2, 8, 30), (3, 7, 21), (5, 6, 12)]
SIGMA0S = [0.0, 1.0, 1e8, 1e12]
KINDS = ["weighted", "wstar", "matc", "deviant"]
PAIRS = [("wstar", "matc"), ("weighted", "wstar")]

# column: (rounding ulps, subtraction ulps per unit of sigma0 / sigma_d),
# in ulps of the exact value.  A standard error is compared as its square,
# whose formula, a sum of squares minus count times the squared mean,
# cancels most of its terms' bits at six to eight replications
RELATIVE = {
    "var_stretch": (8, 2),
    "mean_abs_stretch": (8, 2),
    "var_std_error": (64, 4),
    "std_error": (128, 4),
    "agent_var_stretch": (8, 4),
    "agent_mean_abs_stretch": (8, 2),
    "agent_std_error": (64, 8),
}
SQUARED = {"var_std_error", "std_error", "agent_std_error"}
# column: ulps of max(sigma0, sigma_d), the bound at every sigma0
ABSOLUTE = {"max_abs_stretch_sum": 16, "max_stretch_diff": 16, "shift_mean": 2}
# ulps of the round's largest |position|
CENTRE_ULPS = 2


def config(n, replications, rounds, sigma0):
    return ModelConfig(n=n, sigma0=sigma0, horizon=rounds, seed=n + replications)


def gain_of(kind: str, cfg: ModelConfig):
    """The compiled Gain of a policy kind; "deviant" is a per-agent Gain in
    which the last agent plays its own coefficients against wstar."""
    if kind == "deviant":
        coeffs = [0.2 + 0.7 * t / cfg.horizon for t in range(cfg.horizon)]
        return deviant_policy(coeffs, AlphaSchedule(cfg, cfg.horizon), agent=cfg.n - 1)
    return make_policy(PolicySpec(kind, 0.5 if kind == "weighted" else None), cfg)


@functools.cache
def engine_draws(cfg: ModelConfig, replications: int, block_size: int):
    """The run's normals as exact Fractions: (initial, measurements, drift).

    Each is a list of (replications, n) rows, per round for the
    measurements (rounds 0..T-1) and the drift (rounds 1..T).  Block i
    draws its rows from its own stream of each kind, as the engine does:
    one (count, n) initial draw, then one measurement and one drift draw
    per round; its rows follow those of block i - 1.
    """
    initial, meas, drift = [], [[] for _ in range(cfg.horizon)], [[] for _ in range(cfg.horizon)]
    for index, start in enumerate(range(0, replications, block_size)):
        shape = (min(block_size, replications - start), cfg.n)
        gens = [streams.substream(cfg.seed, index, kind)
                for kind in (streams.INIT, streams.MEASURE, streams.DRIFT)]

        def draw(gen, sigma):
            return [[Fraction(v) for v in row] for row in gen.normal(0.0, sigma, shape).tolist()]

        initial += draw(gens[0], cfg.sigma0)
        for t in range(cfg.horizon):
            meas[t] += draw(gens[1], cfg.sigma_m)
        for t in range(cfg.horizon):
            drift[t] += draw(gens[2], cfg.sigma_d)
    return initial, meas, drift


@functools.cache
def exact_replay(cfg: ModelConfig, replications: int, kind: str, block_size: int):
    """The exact (positions, stretches, moves) of every round, each a list
    of (replications, n) rows; moves for rounds 0..T-1.

    A stretch is the mean of the others minus self, and an operator
    M(a, b) maps y_i to a y_i + b times the others' sum.
    """
    gain = gain_of(kind, cfg)
    initial, meas, drift = engine_draws(cfg, replications, block_size)
    n = cfg.n
    positions, stretches, moves = [], [], []
    pos = initial
    for t in range(cfg.horizon + 1):
        if t:
            pos = [[x + x_move + d for x, x_move, d in zip(xs, ms, dd)]
                   for xs, ms, dd in zip(pos, moves[-1], drift[t - 1])]
        positions.append(pos)
        stretches.append([[(sum(xs) - x) / (n - 1) - x for x in xs] for xs in pos])
        if t == cfg.horizon:
            break
        ys = [[s + m for s, m in zip(ss, mm)] for ss, mm in zip(stretches[-1], meas[t])]
        if gain.op is not None:
            a, b = Fraction(gain.op.diag), Fraction(gain.op.off)
            ys = [[a * y + b * (sum(yy) - y) for y in yy] for yy in ys]
        row = gain.scale[t].tolist()
        scales = [Fraction(v) for v in (row if isinstance(row, list) else [row] * n)]
        moves.append([[k * y for k, y in zip(scales, yy)] for yy in ys])
    return positions, stretches, moves


def mean_and_se2(values, unit: int):
    """The mean over replications of values[r] / unit, and its squared
    standard error, from integer values."""
    count, total = len(values), sum(values)
    return (Fraction(total, count * unit),
            Fraction(count * sum(v * v for v in values) - total * total,
                     count * count * (count - 1) * unit * unit))


def exact_columns(stretches):
    """Every RunResult column of one round, from its exact stretches.

    Each stretch is a dyadic fraction, so it is an integer over the
    round's largest denominator, and the sums are sums of integers.
    """
    n, den = len(stretches[0]), max(s.denominator for ss in stretches for s in ss)
    rows = [[s.numerator * (den // s.denominator) for s in ss] for ss in stretches]
    var, var_se2 = mean_and_se2([sum(v * v for v in row) for row in rows], n * den * den)
    mean_abs, se2 = mean_and_se2([sum(map(abs, row)) for row in rows], n * den)
    agents = [mean_and_se2([abs(row[i]) for row in rows], den) for i in range(n)]
    return {"var_stretch": [var], "var_std_error": [var_se2], "mean_abs_stretch": [mean_abs],
            "std_error": [se2],
            "agent_var_stretch": [Fraction(sum(row[i] ** 2 for row in rows), len(rows) * den * den)
                                  for i in range(n)],
            "agent_mean_abs_stretch": [mean for mean, _ in agents],
            "agent_std_error": [se2 for _, se2 in agents],
            "max_abs_stretch_sum": [Fraction(0)]}


def ulps(got, want: Fraction, unit: float) -> float:
    """|got - want| in ulps of unit, for a float or Fraction got."""
    return float(abs(Fraction(got) - want) / Fraction(math.ulp(unit)))


def worst(name: str, column, exact) -> float:
    """The column's largest error over its rounds (and agents), in ulps of
    each exact value; a squared column's values are squared exactly first."""
    power = 2 if name in SQUARED else 1
    return max(ulps(Fraction(g) ** power, w, float(w))
               for got, want in zip(column.reshape(len(exact), -1).tolist(), exact, strict=True)
               for g, w in zip(got, want, strict=True))


def assert_absolute(name: str, column, exact, cfg: ModelConfig):
    """Bound an absolute column in ulps of max(sigma0, sigma_d), and above
    sigma_d assert that it misses the bound in ulps of sigma_d."""
    scale = max(cfg.sigma0, cfg.sigma_d)
    errors = [ulps(got, want, scale) for got, want in zip(column.tolist(), exact, strict=True)]
    assert max(errors) <= ABSOLUTE[name], (name, max(errors))
    if cfg.sigma0 > cfg.sigma_d:  # the subtraction's loss, until the engine mends it
        assert max(errors) * math.ulp(scale) / math.ulp(cfg.sigma_d) > ABSOLUTE[name], name


@pytest.mark.parametrize("sigma0", SIGMA0S)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n, replications, rounds", SHAPES)
def test_columns_within_the_bound_of_their_sigma0(n, replications, rounds, kind, sigma0):
    cfg = config(n, replications, rounds, sigma0)
    result = run(RunPlan(cfg, gain_of(kind, cfg), replications))
    _, stretches, _ = exact_replay(cfg, replications, kind, replications)
    exact = [exact_columns(st) for st in stretches]
    ratio = cfg.sigma0 / cfg.sigma_d
    misses = {}
    for name, (rounding, subtraction) in RELATIVE.items():
        misses[name] = worst(name, getattr(result, name), [row[name] for row in exact])
        assert misses[name] <= max(rounding, subtraction * ratio), (name, misses[name])
    if ratio > 1:  # the subtraction's loss, until the engine mends it
        assert all(misses[name] > RELATIVE[name][0] for name in RELATIVE), misses
    assert_absolute("max_abs_stretch_sum", result.max_abs_stretch_sum,
                    [row["max_abs_stretch_sum"][0] for row in exact], cfg)


def exact_pair(cfg, replications, pair, block_size):
    """The exact PairedRunResult columns: (centre of mass of each lane,
    largest stretch difference, common shift) per round, and each round's
    largest |position| of the two lanes."""
    (pos_a, st_a, mv_a), (pos_b, st_b, mv_b) = (
        exact_replay(cfg, replications, kind, block_size) for kind in pair)
    cells = replications * cfg.n
    com = [[sum(map(sum, pos[t])) / cells for t in range(cfg.horizon + 1)]
           for pos in (pos_a, pos_b)]
    largest = [float(max(abs(x) for pos in (pos_a[t], pos_b[t]) for xs in pos for x in xs))
               for t in range(cfg.horizon + 1)]
    diff = [max(abs(a - b) for sa, sb in zip(st_a[t], st_b[t]) for a, b in zip(sa, sb))
            for t in range(cfg.horizon + 1)]
    shift = [sum(a - b for ma, mb in zip(mv_a[t], mv_b[t]) for a, b in zip(ma, mb)) / cells
             for t in range(cfg.horizon)]
    return com, largest, diff, shift


def assert_pair(paired, cfg: ModelConfig, replications: int, pair, block_size: int):
    """Bound every column of a paired run by the exact replay of its lanes."""
    com, largest, diff, shift = exact_pair(cfg, replications, pair, block_size)
    for got, want in zip(paired.center_of_mass, com, strict=True):
        errors = [ulps(g, w, unit) for g, w, unit in zip(got.tolist(), want, largest)]
        assert max(errors) <= CENTRE_ULPS, max(errors)
    assert_absolute("max_stretch_diff", paired.max_stretch_diff, diff, cfg)
    assert_absolute("shift_mean", paired.shift_mean[:cfg.horizon], shift, cfg)


@pytest.mark.parametrize("sigma0", SIGMA0S)
@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("n, replications, rounds", SHAPES)
def test_paired_columns_within_the_bound_of_their_sigma0(n, replications, rounds, pair, sigma0):
    cfg = config(n, replications, rounds, sigma0)
    paired = run_paired(RunPlan(cfg, gain_of(pair[0], cfg), replications), gain_of(pair[1], cfg))
    assert_pair(paired, cfg, replications, pair, replications)
    if sigma0 == 0:  # every lane starts aligned at the origin
        assert paired.center_of_mass[:, 0].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("pair", PAIRS)
def test_paired_blocks_merge_within_the_bound(pair):
    # 7 replications in blocks of 3, 3 and 1, on two threads: the blocks'
    # sums merge in block order to the same bounds
    cfg = config(3, 7, 21, 1.0)
    plan = RunPlan(cfg, gain_of(pair[0], cfg), 7, threads=2, block_size=3)
    assert_pair(run_paired(plan, gain_of(pair[1], cfg)), cfg, 7, pair, 3)
