"""The engine's agent-major reductions give the agent-last formulas' bits.

The engine holds each block's positions and stretches as (lanes, n,
count) arrays, one contiguous row of replications per agent, and reduces
over agents with numpy's own axis sums and einsum.  These tests pin the
summation orders that layout keeps: numpy adds agent rows strictly in
order, and even-plus-odd einsums reproduce the agent-last einsum.  A
whole-run oracle then recomputes every per-round statistic from the
traces with the agent-last formulas, and every per-agent statistic from
each agent's column of the traces.  Bits are compared as uint64, so a
sign of zero or a last-place difference shows.  Examples are
derandomized and capped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stochalign.game import deviant_policy
from stochalign.kalman import AlphaSchedule
from stochalign.model import ModelConfig, stretch_values
from stochalign.policies import PolicySpec
from stochalign.sim import RunPlan, run_lanes
from stochalign.structmat import StructuredMatrix, apply


def derandomized(max_examples):
    return settings(derandomize=True, database=None, max_examples=max_examples,
                    deadline=None)


# finite doubles with the corners that show a change of order or of sign:
# signed zeros, subnormals, and magnitudes whose sums overflow
elements = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False))


def agent_major(n, counts):
    """(lanes, n, count) arrays with 1 to 3 lanes and count drawn from counts.

    The values span 2^-60 to 2^60 in magnitude, so that any change of
    summation order shows in the last bits, with some signed zeros and
    subnormals among them.
    """
    def build(drawn):
        lanes, count, seed = drawn
        rng = np.random.default_rng(seed)
        shape = (lanes, n, count)
        v = rng.normal(size=shape) * 2.0 ** rng.integers(-60, 61, size=shape)
        corners = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310])
        where = rng.random(shape) < 0.05
        v[where] = rng.choice(corners, size=where.sum())
        return v

    return st.tuples(st.integers(1, 3), counts, st.integers(0, 2**32 - 1)).map(build)


def rows(n_max=12):
    """Arrays of 1 to 3 dimensions whose last axis has 1 to n_max elements."""
    shapes = st.tuples(array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=6),
                       st.integers(1, n_max)).map(lambda p: p[0] + (p[1],))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=elements))


def transposed(v):
    """The same values as v, as a view whose last axis is strided: the
    layout of the engine's agent-last views of its state."""
    if v.ndim < 2:
        return v
    return np.ascontiguousarray(np.swapaxes(v, -1, -2)).swapaxes(-1, -2)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    np.testing.assert_array_equal(bits(got), bits(expected))


def in_order_sum(v):
    """Sum over axis 1, one agent row after another, from +0.0 as numpy does."""
    total = np.zeros(v.shape[:1] + v.shape[2:])
    for j in range(v.shape[1]):
        total += v[:, j]
    return total


def agent_last_sum_sq(v):
    """np.einsum("ij,ij->i") over the agents of a (lanes, n, count) array,
    with the agents last and contiguous, as the engine once held them."""
    lanes, n, count = v.shape
    flat = np.ascontiguousarray(v.transpose(0, 2, 1)).reshape(-1, n)
    return np.einsum("ij,ij->i", flat, flat).reshape(lanes, count)


def even_odd_sum_sq(v):
    """The engine's sum of squares over axis 1."""
    out = np.empty((v.shape[0], v.shape[2]))
    even, odd = v[:, 0::2], v[:, 1::2]
    np.einsum("lac,lac->lc", even, even, out=out)
    out += np.einsum("lac,lac->lc", odd, odd)
    return out


class TestAgentSums:
    @pytest.mark.parametrize("n", range(1, 13))
    @derandomized(40)
    @given(data=st.data())
    def test_agent_rows_are_added_in_order(self, n, data):
        # a block of one replication is a single contiguous row of n
        # agents, which numpy sums pairwise from n = 8 on, as it always has
        counts = st.integers(1 if n <= 7 else 2, 40)
        v = data.draw(agent_major(n, counts))
        expected = in_order_sum(v)
        assert_same_bits(v.sum(axis=1), expected)
        assert_same_bits(v.transpose(0, 2, 1).sum(axis=-1), expected)
        out = np.empty(expected.shape)
        assert v.sum(axis=1, out=out) is out
        assert_same_bits(out, expected)

    @pytest.mark.parametrize("n", range(1, 8))
    @derandomized(40)
    @given(data=st.data())
    def test_even_odd_einsums_equal_the_agent_last_einsum(self, n, data):
        v = data.draw(agent_major(n, st.integers(1, 40)))
        assert_same_bits(even_odd_sum_sq(v), agent_last_sum_sq(v))


def se_of(total, total_sq, count):
    """The standard error of a mean over count replications from the sums
    of the values and of their squares, by the engine's formula."""
    mean = total / count
    var = np.maximum(total_sq - count * mean * mean, 0.0) / (count - 1)
    return np.sqrt(var / count)


class TestWholeRun:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_statistic_equals_the_agent_last_formulas(self, n):
        cfg = ModelConfig(n=n, sigma0=2.0, sigma_m=0.7, sigma_d=0.4, horizon=4, seed=n)
        deviant = deviant_policy([0.9, 0.1, 0.5, 0.3], AlphaSchedule(cfg, cfg.horizon),
                                 agent=n - 1)
        others = [PolicySpec(kind="weighted", rho=0.3), PolicySpec(kind="matc"), deviant]
        reps = 37
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=reps,
                       record_traces=True, block_size=reps)
        for lane in run_lanes(plan, others):
            for t, stats in enumerate(lane.rounds):
                s = lane.stretch_traces[t]
                sq = np.einsum("ij,ij->i", s, s) / n
                ab = np.abs(s).sum(axis=-1) / n
                assert stats.var_stretch == sq.sum() / reps
                assert stats.var_std_error == se_of(sq.sum(), (sq * sq).sum(), reps)
                assert stats.mean_abs_stretch == ab.sum() / reps
                assert stats.std_error == se_of(ab.sum(), (ab * ab).sum(), reps)
                assert stats.center_of_mass == lane.com_traces[t].sum() / reps
                zero_sum = np.abs(s.sum(axis=-1)).max()
                assert lane.max_abs_stretch_sum[t] == zero_sum
                # each agent's column of replications, contiguous, reduced
                # as the engine reduces it
                rows = np.ascontiguousarray(s.T)[np.newaxis]
                agent_sq = np.einsum("lac,lac->la", rows, rows)[0]
                agent_abs = np.abs(rows).sum(axis=2)[0]
                assert_same_bits(lane.agent_var_stretch[t], agent_sq / reps)
                assert_same_bits(lane.agent_mean_abs_stretch[t], agent_abs / reps)
                assert_same_bits(lane.agent_std_error[t], se_of(agent_abs, agent_sq, reps))

    def test_per_agent_sums_add_blocks_in_order(self):
        # 37 replications in blocks of 10, 10, 10 and 7, on two threads
        cfg = ModelConfig(n=5, sigma0=2.0, sigma_m=0.7, sigma_d=0.4, horizon=4, seed=11)
        reps, block = 37, 10
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=reps,
                       record_traces=True, threads=2, block_size=block)
        for lane in run_lanes(plan, [PolicySpec(kind="matc")]):
            for t in range(cfg.horizon + 1):
                agent_sq, agent_abs = np.zeros(cfg.n), np.zeros(cfg.n)
                for start in range(0, reps, block):
                    s = lane.stretch_traces[t][start:start + block]
                    rows = np.ascontiguousarray(s.T)[np.newaxis]
                    agent_sq += np.einsum("lac,lac->la", rows, rows)[0]
                    agent_abs += np.abs(rows).sum(axis=2)[0]
                assert_same_bits(lane.agent_var_stretch[t], agent_sq / reps)
                assert_same_bits(lane.agent_mean_abs_stretch[t], agent_abs / reps)
                assert_same_bits(lane.agent_std_error[t], se_of(agent_abs, agent_sq, reps))


def old_stretch(positions):
    """stretch_values as four operations: sum, subtract, divide, subtract."""
    n = positions.shape[-1]
    out = np.subtract(positions.sum(axis=-1)[..., np.newaxis], positions)
    out /= n - 1
    out -= positions
    return out


class TestCallers:
    @derandomized(300)
    @given(rows(8).filter(lambda v: v.shape[-1] >= 2), st.booleans())
    def test_stretch_values_keeps_the_four_operation_bits(self, positions, as_view):
        # n = 2 skips the division by 1.0
        if as_view:
            positions = transposed(positions)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = old_stretch(positions)
            assert_same_bits(stretch_values(positions), expected)
            out = np.empty_like(positions)
            total = positions.sum(axis=-1)
            assert stretch_values(positions, out=out, total=total) is out
            assert_same_bits(out, expected)

    @derandomized(200)
    @given(rows(7).filter(lambda v: v.ndim >= 2 and v.shape[-1] >= 2))
    def test_stretches_of_a_transposed_view_equal_those_of_a_copy(self, positions):
        # up to 7 agents, the engine's agent-major layout keeps the bits
        # of contiguous agent rows
        with np.errstate(over="ignore", invalid="ignore"):
            expected = stretch_values(positions)
            got = stretch_values(transposed(positions))
        np.testing.assert_array_equal(got, expected)  # NaN matches NaN
        numbers = ~np.isnan(expected)
        assert_same_bits(got[numbers], expected[numbers])

    @derandomized(300)
    @given(rows(8), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.booleans())
    def test_apply_keeps_its_bits_and_returns_a_new_array(self, v, diag, off, as_view):
        # Gain.__call__ scales apply's result in place, so it must not be v
        if as_view:
            v = transposed(v)
        m = StructuredMatrix(v.shape[-1], diag, off)
        before = v.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            expected = off * v.sum(axis=-1)[..., np.newaxis] + (diag - off) * v
            got = apply(m, v)
        assert not np.shares_memory(got, v)
        assert_same_bits(v, before)
        np.testing.assert_array_equal(got, expected)  # NaN matches NaN
        numbers = ~np.isnan(expected)
        assert_same_bits(got[numbers], expected[numbers])
