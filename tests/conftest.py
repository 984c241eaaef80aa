"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from stochalign import sim, streams


@pytest.fixture
def dominance_margin():
    """The 3-SE margin by which a rival's mean |stretch| stays above the base's.

    Returns a function of (base, rival, rival_se), arrays of the base's
    and the rival's mean |stretch| and the rival's standard errors,
    giving rival + 3 rival_se - base entrywise: where it is >= 0, the
    rival does not beat the base by more than 3 standard errors.
    """
    return lambda base, rival, rival_se: rival + 3.0 * rival_se - base


@pytest.fixture
def tail_mean_se():
    """The exact relative standard error of a stationary tail mean of var_stretch.

    Returns a function of (n, a, replications, rounds) for a constant
    gain whose stretches contract by a = 1 - c rho a round.  One
    replication's (1/n) |s|^2 is a scaled chi-square with n - 1 degrees
    of freedom, of relative variance 2 / (n - 1), and at stationarity its
    lag-k autocorrelation is a^(2k); the mean over the given number of
    tail rounds therefore has relative standard error
    sqrt(2 (1 + a^2) / ((n - 1) R m (1 - a^2))), up to the terms of order
    1/m in the autocorrelation sum.
    """
    return lambda n, a, replications, rounds: np.sqrt(
        2.0 * (1.0 + a * a) / ((n - 1) * replications * rounds * (1.0 - a * a)))


@pytest.fixture
def paired_shift(monkeypatch):
    """Run a single-block pair and measure the shift between its moves.

    The run is observed, not changed.  An accumulator copies each round's
    (2, n, count) stretches as it records them, and the moves the engine
    applies as it records their shift, before the paired record reuses
    them as scratch.  The measurement stream logs its draws, so lane 0's
    measurements are its stretches plus the round's draw, the engine's
    own add.  Returns a function of (plan, policy_b, rhos) giving the
    PairedRunResult, the worst spread across agents of lane 0's moves
    minus lane 1's, and the worst deviation of that difference's agent
    mean, the common shift, from rhos[t] times lane 0's mean measurement.
    """
    stretches, moves, draws = [], [], []

    class Observed(sim._Accumulator):
        def record(self, t, lanes, st, total, work):
            stretches.append(st.copy())
            super().record(t, lanes, st, total, work)

        def record_moves(self, t, applied, row):
            moves.append(applied.copy())
            super().record_moves(t, applied, row)

    class Logged:
        def __init__(self, gen):
            self.gen = gen

        def normal(self, *args):
            draw = self.gen.normal(*args)
            draws.append(draw.copy())
            return draw

    substream = streams.substream

    def logged(seed, block, kind):
        gen = substream(seed, block, kind)
        return Logged(gen) if kind == streams.MEASURE else gen

    def run(plan, policy_b, rhos):
        assert plan.replications <= plan.block_size
        for log in (stretches, moves, draws):
            log.clear()
        with monkeypatch.context() as m:
            m.setattr(sim, "_Accumulator", Observed)
            m.setattr(streams, "substream", logged)
            paired = sim.run_paired(plan, policy_b)
        rounds = plan.cfg.horizon
        assert (len(stretches), len(moves), len(draws)) == (rounds + 1, rounds, rounds)
        # (round, agent, replication): lane 0's measurements, and the move
        # difference of the lanes
        meas = np.array([st[0] + draw.T for st, draw in zip(stretches, draws)])
        diff = np.array([applied[0] - applied[1] for applied in moves])
        common = diff.mean(axis=1)
        spread = np.abs(diff - common[:, np.newaxis]).max()
        rule = np.asarray(rhos)[:rounds, np.newaxis] * meas.mean(axis=1)
        return paired, spread, np.abs(common - rule).max()

    return run
