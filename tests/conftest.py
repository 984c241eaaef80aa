"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from stochalign import sim


@pytest.fixture
def paired_shift(monkeypatch):
    """Run a single-block pair and measure the shift between its moves.

    Every compiled lane is wrapped in a plain callable, as the benchmark
    tracer wraps make_policy's gains, which logs the measurements it is
    given and the moves it returns.  A called lane gives the same bits
    as a stacked one (TestLanes), so these are the moves the engine
    applies.  Returns a function of (plan, policy_b, rhos) giving the
    PairedRunResult, the worst spread across agents of lane 0's moves
    minus lane 1's, and the worst deviation of that difference's agent
    mean, the common shift, from rhos[t] times lane 0's mean measurement.
    """
    compile_lanes = sim._compile

    def called(gain, log):
        def fn(y, t):
            moves = gain(y, t)
            log.append((t, y.copy(), moves.copy()))
            return moves
        return fn

    def run(plan, policy_b, rhos):
        assert plan.replications <= plan.block_size
        logs = ([], [])
        with monkeypatch.context() as m:
            m.setattr(sim, "_compile", lambda plan, policies: [
                called(g, log) for g, log in zip(compile_lanes(plan, policies), logs,
                                                 strict=True)])
            paired = sim.run_paired(plan, policy_b)
        for log in logs:
            assert [t for t, _, _ in log] == list(range(plan.cfg.horizon))
        # (lane, round, replication, agent)
        meas, moves = (np.array([[entry[k] for entry in log] for log in logs])
                       for k in (1, 2))
        diff = moves[0] - moves[1]
        common = diff.mean(axis=-1)
        spread = np.abs(diff - common[..., np.newaxis]).max()
        rule = np.asarray(rhos)[:plan.cfg.horizon, np.newaxis] * meas[0].mean(axis=-1)
        return paired, spread, np.abs(common - rule).max()

    return run
