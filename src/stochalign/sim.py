"""Monte Carlo engine.

Replications are split into fixed-size blocks; each block derives its own
noise streams from (seed, block index, noise kind).  One block loop
simulates L policy lanes at once: the state has shape (L, block, n), and
the initial, measurement and drift normals are drawn once per block as
(block, n) arrays and broadcast to every lane.  All lanes therefore see
identical noise (common random numbers) for the price of one draw.
`run_lanes` returns one RunResult per lane; `run` is its single lane,
`run_paired` two lanes plus the diagnostics of their difference, and
`sweep_rho` runs its grid as lanes in chunks.

A sweep splits its grid into chunks of at most
max(1, block_size // max(replications, rounds + 1)) grid points, as few
chunks as that allows and of sizes that differ by at most one.  A chunk
never simulates more replications at once than one block of a single
run does, and never holds more lane-rounds of statistics than a block
holds replications.  The bound is there for peak memory: the state grows
with lanes times replications, every lane's accumulators with lanes
times rounds, and the whole grid in one pass would multiply a run's
footprint by the grid size.  The chunks run one after another, and the
threads share each chunk's blocks.  A sweep point is read straight from
its chunk's merged sums of squared stretches, the only statistic a sweep
accumulates.

Every lane moves by one update per round: the lanes' scales, stacked
once per run, times the measurements, the same products as the gains'
own calls.  A lane whose policy is called (a Gain with an operator, or a
plain callable such as the benchmark tracer's wrapper of make_policy)
first replaces its measurements with its moves and is stacked at 1.0.

Per-block partial statistics are merged in block order, and every lane is
reduced over its own contiguous slice, so results are bit-identical for
any thread count and any number of lanes.

Per-round statistics treat the replication as the sampling unit: the
reported variance / mean-absolute-stretch are means over replications of
the per-replication agent averages, and standard errors come from the
replication-level spread of those averages.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from . import streams
from .analysis import var_limit
from .model import ModelConfig, require_int, require_schedule, stretch_values
from .policies import Gain, PolicySpec, make_policy
from .structmat import along_rows, row_sum, row_sum_sq

DEFAULT_BLOCK_SIZE = 20_000
TRACE_LIMIT = 50_000_000  # cells of whole-run traces; traces suit small runs only


@dataclass(frozen=True)
class RunPlan:
    """One Monte Carlo job: a scenario, a policy, and replication count.

    The run lasts cfg.horizon rounds.  block_size is part of the result's
    identity (changing it reorders float reductions); threads is not.
    """

    cfg: ModelConfig
    policy: Union[PolicySpec, Gain]
    replications: int
    record_traces: bool = False
    stat_agent: Optional[int] = None
    threads: int = 1
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self):
        for name in ("replications", "threads", "block_size"):
            require_int(name, getattr(self, name), lo=1)
        if self.stat_agent is not None:
            require_int("stat_agent", self.stat_agent, lo=0, hi=self.cfg.n)


@dataclass(slots=True)
class RoundStats:
    """Cross-replication statistics of the stretch, and the mean centre of
    mass, at the start of a round."""

    round: int
    var_stretch: float
    mean_abs_stretch: float
    std_error: float
    var_std_error: float
    center_of_mass: float


@dataclass
class RunResult:
    rounds: List[RoundStats]
    # per-round max over replications of |sum of stretches|; zero in exact arithmetic
    max_abs_stretch_sum: np.ndarray = field(repr=False)
    com_traces: Optional[np.ndarray] = None  # (rounds+1, reps) when traced
    stretch_traces: Optional[np.ndarray] = None  # (rounds+1, reps, n) when traced


@dataclass
class PairedRunResult:
    """CRN-paired results of two policies under one plan.

    a and b are the two policies' own results.  max_stretch_diff is the
    per-round max over replications and agents of their stretch
    difference.  shift_* summarize the per-agent move difference (a minus
    b): its common value, its spread across agents, and, when a shift
    rule is supplied, the worst deviation from the shift it predicts
    (rho_t times each replication's mean measurement).
    """

    a: RunResult
    b: RunResult
    max_stretch_diff: np.ndarray
    shift_mean: np.ndarray
    shift_spread: np.ndarray
    shift_rule_dev: Optional[np.ndarray]


@dataclass(frozen=True)
class SweepPoint:
    rho: float
    var_empirical: float
    var_closed_form: float


def _blocks(replications: int, block_size: int):
    """Deterministic partition of the replications into (index, count) blocks."""
    return [(index, min(block_size, replications - start))
            for index, start in enumerate(range(0, replications, block_size))]


def _compile(plan: RunPlan, policies) -> List[Gain]:
    """Compile every lane's policy to a Gain before any block starts.

    make_policy compiles a spec for the plan's horizon.  A Gain passed in
    as it is needs one scale per round of the plan, a per-agent gain one
    scale per agent, and an operator one row per agent.
    """
    rounds = plan.cfg.horizon
    gains = []
    for policy in policies:
        if isinstance(policy, PolicySpec):
            gains.append(make_policy(policy, plan.cfg))
            continue
        if not isinstance(policy, Gain):
            raise ValueError(f"policy must be a PolicySpec or a Gain, got {policy!r}")
        if policy.scale.shape[1:] not in ((), (plan.cfg.n,)):
            raise ValueError(f"gain scale of shape {policy.scale.shape} does not fit "
                             f"{plan.cfg.n} agents")
        if len(policy.scale) < rounds:
            raise ValueError(f"policy has {len(policy.scale)} rhos but the run has "
                             f"{rounds} rounds")
        if policy.op is not None and policy.op.n != plan.cfg.n:
            raise ValueError(f"gain operator of dimension {policy.op.n} does not fit "
                             f"{plan.cfg.n} agents")
        gains.append(policy)
    return gains


class _Accumulator:
    """One block's sums of every lane's per-round statistics.

    Per-lane sums are (lanes, rounds+1) arrays.  A paired accumulator
    also keeps run_paired's diagnostics of lane 1 against lane 0.  Each
    lane is reduced over its own contiguous slice, so its sums carry the
    same bits whatever the number of lanes.  A full accumulator keeps
    every lane's centre of mass; a variance-only one (sweep_rho's) keeps
    sum_sq alone and records nothing else.
    """

    SUMS = ("sum_sq", "sum_sq2", "sum_abs", "sum_abs2", "com_sum", "shift_sum")
    MAXES = ("max_zero_sum", "max_diff", "shift_spread", "rule_dev")

    def __init__(self, plan: RunPlan, lanes: int, paired: bool, shift_rule=None,
                 variance_only: bool = False):
        rounds = plan.cfg.horizon
        shape = (lanes, rounds + 1)
        self.sum_sq = np.zeros(shape)
        full = not variance_only
        for name in ("sum_sq2", "sum_abs", "sum_abs2", "com_sum", "max_zero_sum"):
            setattr(self, name, np.zeros(shape) if full else None)
        for name in ("max_diff", "shift_sum", "shift_spread"):
            setattr(self, name, np.zeros(rounds + 1) if paired else None)
        self.rule_dev = np.zeros(rounds + 1) if shift_rule is not None else None
        self.shift_rule = shift_rule
        # the agents whose stretches the per-round statistics average
        a = plan.stat_agent
        self.agents = slice(None) if a is None else slice(a, a + 1)

    def record(self, t: int, st: np.ndarray, total: np.ndarray, work: np.ndarray):
        """Add round t.  total holds each replication's sum of positions and
        is scratch once read; work is (lanes, count) scratch."""
        if self.com_sum is not None:
            self.com_sum[:, t] = np.divide(total, st.shape[-1], out=work).sum(axis=1)
        stat = st[:, :, self.agents]
        k = stat.shape[-1]
        row_sum_sq(stat, work, tmp=total)
        work /= k
        self.sum_sq[:, t] = work.sum(axis=1)
        if self.sum_sq2 is None:
            return
        self.sum_sq2[:, t] = np.multiply(work, work, out=work).sum(axis=1)
        ab = row_sum(np.abs(stat), out=work)
        ab /= k
        self.sum_abs[:, t] = ab.sum(axis=1)
        if self.max_diff is not None:
            diff = st[0] - st[1]
            self.max_diff[t] = np.abs(diff, out=diff).max()
        self.sum_abs2[:, t] = np.multiply(ab, ab, out=ab).sum(axis=1)
        zero_sum = np.abs(row_sum(st, out=work), out=work)
        self.max_zero_sum[:, t] = zero_sum.max(axis=1)

    def record_moves(self, t: int, moves: np.ndarray, mean_y0: Optional[np.ndarray]):
        """Paired only: lane 0's per-agent moves minus lane 1's; mean_y0 is
        lane 0's mean measurement per replication when a shift rule is set."""
        move_diff = moves[0] - moves[1]
        common = row_sum(move_diff) / move_diff.shape[-1]
        self.shift_sum[t] = common.sum()
        # |common - d| is |d - common| bit for bit
        spread = along_rows(np.subtract, common, move_diff, out=move_diff)
        self.shift_spread[t] = np.abs(spread, out=spread).max()
        if self.rule_dev is not None:
            self.rule_dev[t] = np.abs(common - self.shift_rule[t] * mean_y0).max()

    def merge(self, other: "_Accumulator"):
        for name in self.SUMS:
            mine = getattr(self, name)
            if mine is not None:
                mine += getattr(other, name)
        for name in self.MAXES:
            mine = getattr(self, name)
            if mine is not None:
                np.maximum(mine, getattr(other, name), out=mine)


def _mean_and_se(total: np.ndarray, total_sq: np.ndarray, count: int):
    mean = total / count
    if count < 2:
        return mean, np.zeros_like(mean)
    var = np.maximum(total_sq - count * mean * mean, 0.0) / (count - 1)
    return mean, np.sqrt(var / count)


def _finalize(acc: _Accumulator, lane: int, count: int) -> List[RoundStats]:
    var, var_se = _mean_and_se(acc.sum_sq[lane], acc.sum_sq2[lane], count)
    mabs, mabs_se = _mean_and_se(acc.sum_abs[lane], acc.sum_abs2[lane], count)
    rounds = []
    for t in range(len(var)):
        rounds.append(RoundStats(
            round=t, var_stretch=float(var[t]), mean_abs_stretch=float(mabs[t]),
            std_error=float(mabs_se[t]), var_std_error=float(var_se[t]),
            center_of_mass=float(acc.com_sum[lane, t] / count)))
    return rounds


def _stack(plan: RunPlan, fns):
    """The lanes' per-round scales as one (rounds, lanes, 1, width) array,
    and the called lanes: Gains with an operator and callables that are
    not Gains, which scale their own moves and are stacked at 1.0.  width
    is n when any other lane is per-agent and 1 otherwise, so that
    stack[t] broadcasts against the (lanes, count, n) measurements.
    """
    rounds = plan.cfg.horizon
    called = [i for i, fn in enumerate(fns) if not isinstance(fn, Gain) or fn.op is not None]
    scales = {i: fn.scale[:rounds] for i, fn in enumerate(fns) if i not in called}
    width = plan.cfg.n if any(s.ndim == 2 for s in scales.values()) else 1
    stack = np.ones((rounds, len(fns), 1, width))
    for lane, s in scales.items():
        stack[:, lane, 0] = s if s.ndim == 2 else s[:, np.newaxis]
    return stack, called


def _run_block(plan: RunPlan, fns, stack: np.ndarray, called: List[int], acc: _Accumulator,
               traces, index: int, count: int) -> _Accumulator:
    """Simulate one block of replications for every policy lane.

    The state is (lanes, count, n); each noise draw is (count, n) and is
    broadcast to every lane.  Only the positions and the stretches are
    held for all lanes: the measurements overwrite the stretches, each
    called lane's moves overwrite its slice, and one multiply by the
    stacked scales (see _stack) turns every slice into its lane's moves.
    The block's statistics go into acc.  traces, when recorded, are the
    run's (stretch, com) arrays; the block writes its replications' slice.
    Each round's row sums of the positions feed the stretches, the centre
    of mass and its trace, and then serve acc as scratch.
    """
    cfg = plan.cfg
    rounds = cfg.horizon
    shape = (count, cfg.n)
    gen_init = streams.substream(cfg.seed, index, streams.INIT)
    gen_meas = streams.substream(cfg.seed, index, streams.MEASURE)
    gen_drift = streams.substream(cfg.seed, index, streams.DRIFT)

    reps = slice(index * plan.block_size, index * plan.block_size + count)
    pos = np.empty((len(fns),) + shape)
    pos[...] = gen_init.normal(0.0, cfg.sigma0, shape)
    st = np.empty_like(pos)
    total = np.empty((len(fns), count))
    work = np.empty_like(total)
    for t in range(rounds + 1):
        row_sum(pos, out=total)
        stretch_values(pos, out=st, total=total)
        if traces is not None:
            traces[0][:, t, reps] = st
            traces[1][:, t, reps] = total / cfg.n
        acc.record(t, st, total, work)
        if t == rounds:
            break
        y = st
        y += gen_meas.normal(0.0, cfg.sigma_m, shape)
        mean_y0 = row_sum(y[0]) / cfg.n if acc.shift_rule is not None else None
        for lane in called:
            y[lane] = fns[lane](y[lane], t)
        y *= stack[t]
        if acc.shift_sum is not None:
            acc.record_moves(t, y, mean_y0)
        pos += y
        pos += gen_drift.normal(0.0, cfg.sigma_d, shape)
    return acc


def _accumulate(plan: RunPlan, fns, paired: bool = False, shift_rule=None,
                traces=None, variance_only: bool = False) -> _Accumulator:
    """Run every block of the plan for the compiled lanes; merge in block order."""
    stack, called = _stack(plan, fns)

    def worker(block):
        acc = _Accumulator(plan, len(fns), paired, shift_rule, variance_only)
        return _run_block(plan, fns, stack, called, acc, traces, *block)

    blocks = _blocks(plan.replications, plan.block_size)
    if plan.threads == 1 or len(blocks) == 1:
        parts = [worker(block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=plan.threads) as pool:
            parts = list(pool.map(worker, blocks))
    acc = parts[0]
    for other in parts[1:]:
        acc.merge(other)
    return acc


def _simulate(plan: RunPlan, policies, paired: bool = False, shift_rule=None):
    """Simulate every lane of the plan.

    Returns one RunResult per lane and the merged accumulator, which
    also holds the paired diagnostics when asked for.
    """
    cfg = plan.cfg
    lanes = len(policies)
    shape = (lanes, cfg.horizon + 1, plan.replications)
    if plan.record_traces:
        cells = lanes * (cfg.horizon + 1) * plan.replications * cfg.n
        if cells > TRACE_LIMIT:
            raise ValueError(f"trace recording would allocate {cells} cells "
                             f"(limit {TRACE_LIMIT}); reduce replications or horizon")
    fns = _compile(plan, policies)
    traces = (np.empty(shape + (cfg.n,)), np.empty(shape)) if plan.record_traces else None
    acc = _accumulate(plan, fns, paired, shift_rule, traces)
    results = []
    for lane in range(lanes):
        result = RunResult(rounds=_finalize(acc, lane, plan.replications),
                           max_abs_stretch_sum=acc.max_zero_sum[lane])
        if traces is not None:
            result.stretch_traces, result.com_traces = (trace[lane] for trace in traces)
        results.append(result)
    return results, acc


def run_lanes(plan: RunPlan, others: Sequence[Union[PolicySpec, Gain]]) -> List[RunResult]:
    """Simulate plan.policy and every policy in others on the plan's noise.

    Lane 0 is plan.policy and lane i is others[i-1]; each lane's result
    is bit-identical to a run of its policy alone.
    """
    return _simulate(plan, [plan.policy, *others])[0]


def run(plan: RunPlan) -> RunResult:
    """Simulate the plan and return per-round statistics."""
    return run_lanes(plan, ())[0]


def run_paired(plan: RunPlan, policy_b: Union[PolicySpec, Gain],
               shift_rule=None) -> PairedRunResult:
    """Simulate plan.policy and policy_b under identical noise.

    shift_rule, when given, holds one finite scale rho_t per round of the plan:
    it predicts that the move difference in round t is the common shift
    rho_t times each replication's mean measurement, and the result
    reports the worst per-round deviation of the observed shift from it.
    """
    if shift_rule is not None:
        shift_rule = require_schedule("shift_rule", shift_rule, plan.cfg.horizon)
    (a, b), acc = _simulate(plan, [plan.policy, policy_b], paired=True, shift_rule=shift_rule)
    return PairedRunResult(a=a, b=b, max_stretch_diff=acc.max_diff,
                           shift_mean=acc.shift_sum / plan.replications,
                           shift_spread=acc.shift_spread, shift_rule_dev=acc.rule_dev)


def _tail_mean(values) -> float:
    """Average of the final 10% of a per-round sequence, at least its last entry."""
    if not len(values):
        raise ValueError("need at least one round to average")
    tail = max(1, len(values) // 10)
    return float(np.mean(values[-tail:]))


def steady_state_variance(rounds: Sequence[RoundStats]) -> float:
    """Average per-round variance over the final 10% of rounds."""
    return _tail_mean([r.var_stretch for r in rounds])


def sweep_rho(cfg: ModelConfig, grid: Sequence[float], replications: int,
              threads: int = 1, block_size: int = DEFAULT_BLOCK_SIZE) -> List[SweepPoint]:
    """Steady-state stretch variance under W(rho) for each grid value.

    All grid points share the scenario seed, so their noise realizations
    are common random numbers and the empirical curve inherits the shape
    of the true one far below the single-point noise level.  Points whose
    closed form is infinite (rho = 0) are still simulated; their tail
    estimate is a horizon artifact, not a steady state.
    """
    specs = [PolicySpec(kind="weighted", rho=float(rho)) for rho in grid]
    if not specs:
        return []
    plan = RunPlan(cfg=cfg, policy=specs[0], replications=replications, threads=threads,
                   block_size=block_size)
    # a chunk holds no more replications, and no more lane-rounds, than
    # one block holds replications
    bound = max(1, block_size // max(replications, cfg.horizon + 1))
    # as few chunks as the bound allows, of sizes that differ by at most one
    chunks = -(-len(specs) // bound)
    edges = [i * len(specs) // chunks for i in range(chunks + 1)]

    points = []
    for chunk in range(chunks):
        lanes = specs[edges[chunk]:edges[chunk + 1]]
        # the variance a RoundStats would hold, without building one per lane-round
        var = _accumulate(plan, _compile(plan, lanes), variance_only=True).sum_sq / replications
        points += [SweepPoint(rho=spec.rho, var_empirical=_tail_mean(var[lane]),
                              var_closed_form=var_limit(spec.rho, cfg))
                   for lane, spec in enumerate(lanes)]
    return points
