"""Property tests: engine and algebra invariants over randomly drawn inputs.

Examples are derandomized and capped, so every run checks the same cases
and the file stays within a few seconds.
"""

import os
import tempfile
from dataclasses import fields, replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stochalign.analysis import alpha_infty, rho_star_const, var_limit
from stochalign.cli import MAX_GRID_POINTS, MIN_GRID_STEP, _rho_grid, main
from stochalign.game import deviant_policy
from stochalign.kalman import AlphaSchedule
from stochalign.model import ModelConfig
from stochalign.policies import Gain, PolicySpec
from stochalign.sim import RunPlan, run, run_lanes
from stochalign.structmat import StructuredMatrix, apply


def derandomized(max_examples):
    return settings(derandomize=True, database=None, max_examples=max_examples,
                    deadline=None)


scales = st.floats(0.05, 5.0)
# a gain may move against the measurement (matc's scale is negative) or past it
gain_values = st.floats(-1.5, 1.5)


@st.composite
def lane_setups(draw):
    """A plan with random size, blocking and threads, 0-4 further lanes, and
    whether run_lanes records traces.

    Lanes are drawn from the three spec kinds, Gain(rhos) schedules and
    per-agent deviant_policy gains; a gain may cover more rounds than the
    run, never fewer.
    """
    n = draw(st.integers(2, 9))
    horizon = draw(st.integers(0, 6))
    cfg = ModelConfig(n=n, sigma0=draw(st.sampled_from([0.0, 0.3, 1.0, 4.0])),
                      sigma_m=draw(scales), sigma_d=draw(scales), horizon=horizon,
                      seed=draw(st.integers(0, 2**32 - 1)))

    def covering(values):
        return st.lists(values, min_size=horizon, max_size=horizon + 2)

    def policies():
        return st.one_of(
            st.floats(0.0, 1.0).map(lambda rho: PolicySpec(kind="weighted", rho=rho)),
            st.sampled_from([PolicySpec(kind="wstar"), PolicySpec(kind="matc")]),
            covering(gain_values).map(Gain),
            st.tuples(covering(gain_values), st.integers(0, n - 1)).map(
                lambda drawn: deviant_policy(drawn[0], AlphaSchedule(cfg, horizon),
                                             agent=drawn[1])),
        )

    plan = RunPlan(cfg=cfg, policy=draw(policies()),
                   replications=draw(st.integers(1, 30)),
                   block_size=draw(st.integers(1, 40)),
                   threads=draw(st.sampled_from([1, 2])))
    return plan, draw(st.lists(policies(), max_size=4)), draw(st.booleans())


@derandomized(150)
@given(lane_setups())
def test_every_lane_equals_its_own_run_bit_for_bit(setup):
    # every statistic column equals the untraced run of the lane's policy,
    # so recording traces changes no statistic; a traced lane's traces
    # equal those of its policy's traced run alone
    plan, others, traces = setup
    lanes = run_lanes(plan, others, traces=traces)
    assert len(lanes) == 1 + len(others)
    for policy, lane in zip([plan.policy, *others], lanes):
        alone = replace(plan, policy=policy)
        untraced = run(alone)
        traced = run_lanes(alone, (), traces=True)[0] if traces else None
        # byte for byte: -0.0 is not 0.0
        for field in fields(lane):
            x, y = getattr(lane, field.name), getattr(untraced, field.name)
            if field.name == "stretch_traces":
                assert y is None and (x is None) == (not traces), field.name
                if x is None:
                    continue
                y = getattr(traced, field.name)
            assert (x.dtype, x.shape) == (y.dtype, y.shape), field.name
            assert x.tobytes() == y.tobytes(), field.name


@derandomized(200)
@given(n=st.integers(2, 1000), sigma0=st.just(0.0) | st.floats(1e-50, 100.0),
       sigma_m=st.floats(0.01, 100.0),
       sigma_d=st.floats(0.01, 100.0), t_max=st.integers(0, 300))
def test_alphas_move_monotonically_toward_alpha_infty(n, sigma0, sigma_m, sigma_d, t_max):
    cfg = ModelConfig(n=n, sigma0=sigma0, sigma_m=sigma_m, sigma_d=sigma_d)
    alphas = AlphaSchedule(cfg, t_max).alphas()
    limit = alpha_infty(cfg)
    # rounding in the recursion and in the closed-form limit
    tol = 1e-12 * max(alphas[0], limit)
    # signed distance to the limit, positive on the side alpha_0 starts from
    side = 1.0 if alphas[0] >= limit else -1.0
    dist = side * (alphas - limit)
    assert np.all(dist >= -tol)
    assert np.all(np.diff(dist) <= tol)


EPS = np.finfo(float).eps
entries = st.floats(-100.0, 100.0)


def exact_rho_star(n, sigma_m, sigma_d):
    """rho* from its closed root, (sd sqrt(4 sm^2 + c^2 sd^2) - c sd^2) / (2 sm^2),
    in 320-digit decimals: the root loses up to 200 of them to cancellation
    at noise ratios of 1e100."""
    with localcontext() as ctx:
        ctx.prec = 320
        c = Decimal(n) / Decimal(n - 1)
        sm, sd = Decimal(sigma_m), Decimal(sigma_d)
        root = sd * (4 * sm * sm + c * c * sd * sd).sqrt()
        return (root - c * sd * sd) / (2 * sm * sm)


# noise scales spread evenly in log10 over the accepted range [1e-50, 1e50]
log_scales = st.floats(-50.0, 50.0).map(lambda e: min(max(10.0 ** e, 1e-50), 1e50))


@derandomized(300)
@given(n=st.integers(2, 10**6), sigma_m=log_scales, sigma_d=log_scales)
@example(n=5, sigma_m=1e-50, sigma_d=1e50)
@example(n=5, sigma_m=1e50, sigma_d=1e-50)
@example(n=3, sigma_m=1.0, sigma_d=1e8)
@example(n=2, sigma_m=1.0, sigma_d=1.0)
def test_rho_star_const_is_accurate_at_any_noise_ratio(n, sigma_m, sigma_d):
    cfg = ModelConfig(n=n, sigma_m=sigma_m, sigma_d=sigma_d)
    got = rho_star_const(cfg)
    exact = exact_rho_star(n, sigma_m, sigma_d)
    assert abs(Decimal(got) - exact) <= 4 * Decimal(EPS) * exact
    assert 0.0 < got < 1.0  # inside var_limit's domain
    c = n / (n - 1)
    # the variance at rho* is alpha_infty; var_limit's denominator
    # 1 - (1 - c rho)^2 loses about 1 / (c rho) ulps, so it is compared
    # only where that leaves it some bits
    tol = 8 * EPS * (1.0 + 1.0 / (c * got))
    if tol < 1e-3:
        assert var_limit(got, cfg) == pytest.approx(alpha_infty(cfg), rel=tol)


@st.composite
def structured(draw):
    n = draw(st.integers(2, 12))
    return StructuredMatrix(n, draw(entries), draw(entries))


def dense(m):
    """Independent dense form: off everywhere, diag on the diagonal."""
    out = np.full((m.n, m.n), m.off)
    out[np.diag_indices(m.n)] = m.diag
    return out


@derandomized(200)
@given(structured(), st.data())
def test_apply_agrees_with_the_dense_product(m, data):
    v = data.draw(arrays(np.float64, array_shapes(max_dims=2, max_side=5).map(
        lambda shape: shape + (m.n,)), elements=entries))
    got = apply(m, v)
    assert got.shape == v.shape
    expected = v @ dense(m).T
    # apply computes b * sum(v) + (a - b) * v_i, whose terms may cancel
    terms = (abs(m.off) * np.abs(v).sum(axis=-1, keepdims=True)
             + (abs(m.diag) + abs(m.off)) * np.abs(v))
    assert np.all(np.abs(got - expected) <= 4 * (m.n + 2) * EPS * terms + 1e-300)


MONTE_CARLO = ("simulate", "compare", "sweep")
CLOSED_FORM = ("kalman-check", "best-response")


def flag(name, values):
    return values.map(lambda value: [f"{name}={value}"])


@st.composite
def bad_cli_calls(draw):
    """A subcommand at a tiny valid size, then one setting it must reject.

    The bad setting comes last, so it overrides its valid counterpart.
    Sizes stay tiny and --threads is always 1 or 2, so a call that is
    wrongly accepted does a few microseconds of work and starts no more
    than two threads.
    """
    command = draw(st.sampled_from(MONTE_CARLO + CLOSED_FORM))
    argv = [command, f"--n={draw(st.integers(2, 4))}", f"--seed={draw(st.integers(0, 9))}",
            f"--threads={draw(st.integers(1, 2))}"]
    if command in MONTE_CARLO:
        argv += [f"--rounds={draw(st.integers(0, 3))}", f"--reps={draw(st.integers(1, 3))}"]
    else:
        argv += [f"--t-max={draw(st.integers(0, 3))}"]
    # a finite scale outside [1e-50, 1e50], of either sign
    outside = (st.floats(1e50, 1e308, exclude_min=True)
               | st.floats(0.0, 1e-50, exclude_min=True, exclude_max=True))
    outside |= outside.map(lambda value: -value)
    bad = [
        flag("--n", st.integers(-3, 1)),
        flag(draw(st.sampled_from(["--sigma0", "--sigma-m", "--sigma-d"])),
             st.sampled_from([np.nan, np.inf, -np.inf]) | outside),
        flag(draw(st.sampled_from(["--sigma-m", "--sigma-d"])), st.floats(-10.0, 0.0)),
        flag("--sigma0", st.floats(-10.0, -1e-300)),
        flag("--out", st.sampled_from(["", "sub", "sub" + os.sep,
                                       os.path.join("missing", "x.csv")])),
    ]
    if command in MONTE_CARLO:
        bad += [flag("--reps", st.integers(-2, 0)), flag("--rounds", st.integers(-2, -1))]
    else:
        # flags the closed forms do not take, then a negative last round
        bad += [flag(draw(st.sampled_from(["--reps", "--rounds"])), st.integers(1, 3)),
                flag("--t-max", st.integers(-2, -1))]
    off_unit = st.floats(-10.0, -1e-9) | st.floats(1.0 + 1e-9, 10.0)
    if command == "simulate":
        bad.append(flag("--rho", off_unit).map(lambda rho: ["--policy=weighted", *rho]))
    if command == "best-response":
        bad.append(flag("--rho", off_unit).map(lambda rho: ["--opponents=constant", *rho]))
    if command == "sweep":
        bad += [flag("--grid-step", st.floats(-1.0, 1e-13)),
                flag("--grid-start", st.floats(-1.0, -1e-6))]
    return argv + draw(st.one_of(bad))


@derandomized(150)
@given(bad_cli_calls())
def test_bad_cli_input_exits_2_and_writes_nothing(argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "sub"))
        os.chdir(tmp)
        try:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag or its value
                code = exc.code
        finally:
            os.chdir(cwd)
        assert code == 2
        assert os.listdir(tmp) == ["sub"]
        assert os.listdir(os.path.join(tmp, "sub")) == []


grid_ends = st.floats(0.0, 1.0) | st.floats(-0.5, 1.5) | st.floats(-1e6, 1e6)
grid_steps = st.one_of(st.floats(MIN_GRID_STEP, 1e-4), st.floats(1e-4, 0.1),
                       st.floats(0.1, 2.0), st.floats(0.0, 1e-11))


@derandomized(150)
@given(grid_ends, grid_ends, grid_steps)
@example(0.02, 1.0, 0.02)
@example(0.0001, 1.0, 0.0001)  # exactly MAX_GRID_POINTS points
@example(0.0, 1.0, 1e-7)
@example(0.5, 0.4, 0.02)
@example(-0.1, 1.0, 0.02)
def test_rho_grid_is_the_prefix_of_points_within_stop(start, stop, step):
    if step < MIN_GRID_STEP:
        with pytest.raises(ValueError, match="grid_step must be >="):
            _rho_grid(start, stop, step)
        return
    # the points increase with i, so one past the cap tells a grid too long
    expected = []
    while len(expected) <= MAX_GRID_POINTS:
        point = round(start + len(expected) * step, 12)
        if point > stop + 1e-9:
            break
        expected.append(point)
    if not expected:
        message = "empty rho grid"
    elif len(expected) > MAX_GRID_POINTS:
        message = f"more than {MAX_GRID_POINTS} points"
    elif expected[0] < 0.0 or expected[-1] > 1.0:
        message = r"outside \[0, 1\]"
    else:
        assert _rho_grid(start, stop, step) == expected
        return
    with pytest.raises(ValueError, match=message):
        _rho_grid(start, stop, step)
