"""Property tests: engine and algebra invariants over randomly drawn inputs.

Examples are derandomized and capped, so every run checks the same cases
and the file stays within a few seconds.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stochalign.analysis import alpha_infty
from stochalign.game import deviant_policy
from stochalign.kalman import AlphaSchedule
from stochalign.model import ModelConfig
from stochalign.policies import Gain, PolicySpec
from stochalign.sim import RunPlan, run, run_lanes
from stochalign.structmat import SEQUENTIAL_SUM_MAX, row_sum


def derandomized(max_examples):
    return settings(derandomize=True, database=None, max_examples=max_examples,
                    deadline=None)


scales = st.floats(0.05, 5.0)
# a gain may move against the measurement (matc's scale is negative) or past it
gain_values = st.floats(-1.5, 1.5)


@st.composite
def lane_setups(draw):
    """A plan with random size, blocking and threads, plus 0-4 further lanes.

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
                   threads=draw(st.sampled_from([1, 2])),
                   stat_agent=draw(st.sampled_from([None, 0])),
                   record_com=draw(st.booleans()),
                   record_moments=draw(st.booleans()),
                   record_traces=draw(st.booleans()))
    return plan, draw(st.lists(policies(), max_size=4))


@derandomized(150)
@given(lane_setups())
def test_every_lane_equals_its_own_run_bit_for_bit(setup):
    plan, others = setup
    lanes = run_lanes(plan, others)
    assert len(lanes) == 1 + len(others)
    for policy, lane in zip([plan.policy, *others], lanes):
        alone = run(replace(plan, policy=policy))
        assert lane.rounds == alone.rounds
        np.testing.assert_array_equal(lane.max_abs_stretch_sum, alone.max_abs_stretch_sum)
        for name in ("stretch_traces", "com_traces"):
            x, y = getattr(lane, name), getattr(alone, name)
            assert (x is None) == (y is None) == (not plan.record_traces)
            if x is not None:
                np.testing.assert_array_equal(x, y)


# -0.0 and +0.0 drawn often enough to fill whole rows, beside any other double
sum_elements = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(width=64))


@derandomized(200)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12),
              elements=sum_elements),
       st.booleans())
def test_row_sum_equals_numpy_sum_bit_for_bit(v, into_out):
    expected = v.sum(axis=-1)
    out = np.empty_like(expected) if into_out else None
    got = row_sum(v, out=out)
    if into_out:
        assert got is out
    np.testing.assert_array_equal(got, expected)  # NaN matches NaN
    # the documented exception: an all -0.0 row of 2..7 elements keeps its sign
    n = v.shape[-1]
    kept = (np.all((v == 0.0) & np.signbit(v), axis=-1)
            & (2 <= n <= SEQUENTIAL_SUM_MAX))
    compared = ~kept & ~np.isnan(expected)
    np.testing.assert_array_equal(np.signbit(got)[compared], np.signbit(expected)[compared])
    np.testing.assert_array_equal(np.signbit(got)[kept], True)


@derandomized(200)
@given(n=st.integers(2, 1000), sigma0=st.floats(0.0, 100.0), sigma_m=st.floats(0.01, 100.0),
       sigma_d=st.floats(0.01, 100.0), t_max=st.integers(0, 300))
def test_alphas_move_monotonically_toward_alpha_infty(n, sigma0, sigma_m, sigma_d, t_max):
    cfg = ModelConfig(n=n, sigma0=sigma0, sigma_m=sigma_m, sigma_d=sigma_d)
    alphas = AlphaSchedule(cfg, t_max).alphas(t_max)
    limit = alpha_infty(cfg)
    # rounding in the recursion and in the closed-form limit
    tol = 1e-12 * max(alphas[0], limit)
    # signed distance to the limit, positive on the side alpha_0 starts from
    side = 1.0 if alphas[0] >= limit else -1.0
    dist = side * (alphas - limit)
    assert np.all(dist >= -tol)
    assert np.all(np.diff(dist) <= tol)
