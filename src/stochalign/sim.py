"""Monte Carlo engine.

Replications are split into fixed-size blocks; each block derives its own
noise streams from (seed, block index, noise kind).  One block loop
simulates L policy lanes at once: the state is agent-major, (L, n,
block), so each agent is one contiguous row of replications and every
reduction over agents is a sum of whole rows.  The initial, measurement
and drift normals are drawn once per block as (block, n) arrays and
added through their transpose to every lane.  All lanes therefore see
identical noise (common random numbers) for the price of one draw.
`run_lanes` returns one RunResult per lane; `run` is its single lane,
`run_paired` two lanes that record only what pairing adds (each lane's
centre of mass, the traces and the diagnostics of their difference),
and `sweep_rho` runs its grid as lanes in chunks.

A block keeps every lane's positions from its first round to its last,
but does each round's per-lane work (stretches, statistics, moves) over
groups of lanes that share one scratch.  Each round's measurement and
drift normals are drawn once for all its groups, so every lane of a
block shares one draw per round.  `run_lanes` and `run_paired` run all
their lanes as one group.  A sweep bounds two things, each for peak
memory:

- a group holds at most max(1, block_size // count) lanes, where count
  is min(replications, block_size), so a round's scratch is never larger
  than that of one block of a single run;
- a chunk holds at most max(1, CELL_BUDGET // max(n * count, rounds + 1))
  lanes, so what a block keeps across rounds (positions, per-lane sums
  and the stacked scales) stays within about CELL_BUDGET cells.

The grid is split into as few chunks as that allows, of sizes that
differ by at most one.  The chunks run one after another, and the
threads share each chunk's blocks, so with T threads up to T blocks hold
their positions at once.  A sweep point is read straight from its
chunk's merged sums of squared stretches, the only statistic a sweep
accumulates.  Noise is keyed by (seed, block, kind) and every lane is
reduced over its own slice, so neither the groups nor the chunks change
a point's bits.

Every lane moves by one update per round: the lanes' scales, stacked
once per run, times the measurements, the same products as the gains'
own calls.  A Gain with an operator first has it applied to its
measurements in place.  Only a plain callable, such as the benchmark
tracer's wrapper of make_policy, is called: it replaces its measurements
with its moves and is stacked at 1.0.

Beyond what it keeps for the whole block (every lane's positions, its
scratch and two rows of sums), a block holds at most one array of a
noise draw's size at a time: the draw itself, or a statistic's per-lane
temporary freed before the next draw.  With T threads up to T blocks
run at once.

Per-block partial statistics are merged in block order, and every lane is
reduced over its own contiguous slice, so results are bit-identical for
any thread count, any number of lanes and any grouping of them.

Per-round statistics treat the replication as the sampling unit: the
reported variance / mean-absolute-stretch are means over replications of
the per-replication agent averages, and standard errors come from the
replication-level spread of those averages.  A full run also sums every
agent's s_i^2 and |s_i| over replications, so each agent's variance and
mean |stretch|, with its standard error, is a column of the result, and
the worst agent (the paper's maximal objective) is a max over columns.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from . import streams
from .analysis import var_limit
from .model import ModelConfig, require_int, require_schedule, stretch_values
from .policies import Gain, PolicySpec, make_policy
from .structmat import apply

DEFAULT_BLOCK_SIZE = 20_000
TRACE_LIMIT = 50_000_000  # cells of whole-run traces; traces suit small runs only
CELL_BUDGET = 2 ** 22  # cells a sweep chunk keeps across rounds, per block


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
    threads: int = 1
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self):
        for name in ("replications", "threads", "block_size"):
            require_int(name, getattr(self, name), lo=1)


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
    """One lane's per-round statistics.

    rounds average the n agents.  The agent_* arrays are (rounds+1, n),
    one column per agent, over the same replications: the variance of
    agent i's stretch, the mean of its |stretch| and that mean's standard
    error.  agent_mean_abs_stretch.max(axis=1) is the worst agent's mean
    |stretch| per round.
    """

    rounds: List[RoundStats]
    # per-round max over replications of |sum of stretches|; zero in exact arithmetic
    max_abs_stretch_sum: np.ndarray = field(repr=False)
    agent_var_stretch: np.ndarray = field(repr=False)
    agent_mean_abs_stretch: np.ndarray = field(repr=False)
    agent_std_error: np.ndarray = field(repr=False)
    com_traces: Optional[np.ndarray] = None  # (rounds+1, reps) when traced
    stretch_traces: Optional[np.ndarray] = None  # (rounds+1, reps, n) when traced


@dataclass
class PairedRunResult:
    """What pairing two policies, a and b, on common noise adds.

    center_of_mass is (2, rounds+1): each lane's per-round mean centre of
    mass, row 0 for a and row 1 for b.  max_stretch_diff is the per-round
    max over replications and agents of their stretch difference.
    shift_* summarize the per-agent move difference (a minus b): its
    common value, its spread across agents, and, when a shift rule is
    supplied, the worst deviation from the shift it predicts (rho_t times
    each replication's mean measurement).  The traces, when recorded, are
    indexed by lane first.  A paired run computes no other per-lane
    statistic: run_lanes(plan, [policy_b]) gives both lanes' RunResults
    on the same noise, bit-identical to the paired lanes.
    """

    center_of_mass: np.ndarray
    max_stretch_diff: np.ndarray
    shift_mean: np.ndarray
    shift_spread: np.ndarray
    shift_rule_dev: Optional[np.ndarray]
    com_traces: Optional[np.ndarray] = None  # (2, rounds+1, reps) when traced
    stretch_traces: Optional[np.ndarray] = None  # (2, rounds+1, reps, n) when traced


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

    Per-lane sums are (lanes, rounds+1) arrays, per-agent sums (lanes,
    rounds+1, n).  kind picks what is kept: "lanes" (run_lanes') keeps
    every lane's RoundStats sums, its per-agent sums of s_i^2 and |s_i|
    (agent_sq, agent_abs), centre of mass and zero-sum check; "paired"
    (run_paired's) keeps each lane's centre of mass and the diagnostics
    of lane 1 against lane 0; "variance" (sweep_rho's) keeps sum_sq
    alone.  Each lane is reduced over its own contiguous slice, so its
    sums carry the same bits whatever the number of lanes and whatever
    else is kept.
    """

    SUMS = ("sum_sq", "sum_sq2", "sum_abs", "sum_abs2", "agent_sq", "agent_abs", "com_sum",
            "shift_sum")
    MAXES = ("max_zero_sum", "max_diff", "shift_spread", "rule_dev")

    def __init__(self, plan: RunPlan, lanes: int, kind: str, shift_rule=None):
        rounds = plan.cfg.horizon
        shape = (lanes, rounds + 1)
        self.sum_sq = np.zeros(shape) if kind != "paired" else None
        for name in ("sum_sq2", "sum_abs", "sum_abs2", "max_zero_sum"):
            setattr(self, name, np.zeros(shape) if kind == "lanes" else None)
        for name in ("agent_sq", "agent_abs"):
            setattr(self, name, np.zeros(shape + (plan.cfg.n,)) if kind == "lanes" else None)
        self.com_sum = np.zeros(shape) if kind != "variance" else None
        for name in ("max_diff", "shift_sum", "shift_spread"):
            setattr(self, name, np.zeros(rounds + 1) if kind == "paired" else None)
        self.rule_dev = np.zeros(rounds + 1) if shift_rule is not None else None
        self.shift_rule = shift_rule

    def record(self, t: int, lanes: slice, st: np.ndarray, total: np.ndarray,
               work: np.ndarray):
        """Add round t of the (group, n, count) stretches st of the lanes in
        the slice lanes.  total holds each replication's sum of positions
        and is scratch once read; work is (group, count) scratch.  A paired
        accumulator, whose two lanes are one group, stops after the centre
        of mass and the stretch difference.  |s| is taken one lane at a
        time into one (n, count) temporary, which is no larger than a
        noise draw.

        Sums over agents add whole agent rows in order.  The sum of squares
        adds the even agents' squares and the odd agents' squares apart and
        then the two, which for up to 7 agents is the order of
        np.einsum("ij,ij->i") over agent-last rows.  Per-agent sums reduce
        each agent's contiguous row of replications.
        """
        if self.com_sum is not None:
            self.com_sum[lanes, t] = np.divide(total, st.shape[1], out=work).sum(axis=1)
        if self.max_diff is not None:
            diff = st[0] - st[1]
            self.max_diff[t] = np.abs(diff, out=diff).max()
            return
        n = st.shape[1]
        even, odd = st[:, 0::2], st[:, 1::2]
        np.einsum("lac,lac->lc", even, even, out=work)
        work += np.einsum("lac,lac->lc", odd, odd, out=total)
        work /= n
        self.sum_sq[lanes, t] = work.sum(axis=1)
        if self.sum_sq2 is None:
            return
        self.sum_sq2[lanes, t] = np.multiply(work, work, out=work).sum(axis=1)
        self.agent_sq[lanes, t] = np.einsum("lac,lac->la", st, st)
        agent_abs = self.agent_abs[lanes, t]
        abs_lane = None
        for i, lane in enumerate(st):
            abs_lane = np.abs(lane, out=abs_lane)
            abs_lane.sum(axis=1, out=agent_abs[i])
            abs_lane.sum(axis=0, out=work[i])
        work /= n
        self.sum_abs[lanes, t] = work.sum(axis=1)
        self.sum_abs2[lanes, t] = np.multiply(work, work, out=work).sum(axis=1)
        zero_sum = np.abs(st.sum(axis=1, out=work), out=work)
        self.max_zero_sum[lanes, t] = zero_sum.max(axis=1)

    def record_moves(self, t: int, moves: np.ndarray, rows: np.ndarray):
        """Paired only: lane 0's per-agent moves minus lane 1's.  moves, the
        (2, n, count) moves, is scratch once the positions have taken them;
        rows is (2, count) scratch whose row 0 holds lane 0's mean
        measurement per replication when a shift rule is set."""
        move_diff = np.subtract(moves[0], moves[1], out=moves[1])
        common = np.divide(move_diff.sum(axis=0, out=rows[1]), len(move_diff), out=rows[1])
        self.shift_sum[t] = common.sum()
        spread = np.subtract(common, move_diff, out=move_diff)
        self.shift_spread[t] = np.abs(spread, out=spread).max()
        if self.rule_dev is not None:
            dev = np.multiply(rows[0], self.shift_rule[t], out=rows[0])
            dev = np.subtract(common, dev, out=dev)
            self.rule_dev[t] = np.abs(dev, out=dev).max()

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


def _result(acc: _Accumulator, lane: int, count: int, traces) -> RunResult:
    """One lane's RunResult from the run's merged sums over count replications."""
    var, var_se = _mean_and_se(acc.sum_sq[lane], acc.sum_sq2[lane], count)
    mabs, mabs_se = _mean_and_se(acc.sum_abs[lane], acc.sum_abs2[lane], count)
    rounds = []
    for t in range(len(var)):
        rounds.append(RoundStats(
            round=t, var_stretch=float(var[t]), mean_abs_stretch=float(mabs[t]),
            std_error=float(mabs_se[t]), var_std_error=float(var_se[t]),
            center_of_mass=float(acc.com_sum[lane, t] / count)))
    agent_abs, agent_se = _mean_and_se(acc.agent_abs[lane], acc.agent_sq[lane], count)
    result = RunResult(rounds=rounds, max_abs_stretch_sum=acc.max_zero_sum[lane],
                       agent_var_stretch=acc.agent_sq[lane] / count,
                       agent_mean_abs_stretch=agent_abs, agent_std_error=agent_se)
    if traces is not None:
        result.stretch_traces, result.com_traces = (trace[lane] for trace in traces)
    return result


def _stack(plan: RunPlan, fns):
    """The lanes' per-round scales as one (rounds, lanes, width, 1) array,
    and the called lanes: callables that are not Gains, which scale their
    own moves and are stacked at 1.0.  Every Gain, with an operator or
    not, is stacked at its own scales.  width is n when any Gain is
    per-agent and 1 otherwise, so that a group's rows of stack[t]
    broadcast against its (group, n, count) measurements.
    """
    rounds = plan.cfg.horizon
    called = [i for i, fn in enumerate(fns) if not isinstance(fn, Gain)]
    scales = {i: fn.scale[:rounds] for i, fn in enumerate(fns) if i not in called}
    width = plan.cfg.n if any(s.ndim == 2 for s in scales.values()) else 1
    stack = np.ones((rounds, len(fns), width, 1))
    for lane, s in scales.items():
        stack[:, lane, :, 0] = s if s.ndim == 2 else s[:, np.newaxis]
    return stack, called


def _run_block(plan: RunPlan, fns, stack: np.ndarray, called: List[int], acc: _Accumulator,
               traces, group: int, index: int, count: int) -> _Accumulator:
    """Simulate one block of replications for every policy lane.

    The positions are (lanes, n, count) and live for the whole block.
    Each round draws its measurement and drift normals once, as (count,
    n) arrays, and adds them through their transpose to every lane.  The
    round's per-lane work runs over groups of at most group lanes, which
    reuse one scratch: their stretches and two (group, count) rows.  The
    measurements overwrite a group's stretches, an operator lane's
    operator is applied to its slice in place, each called lane's moves
    overwrite its slice, and one multiply by the group's stacked scales
    (see _stack) turns every slice into its lane's moves.  Operators,
    called lanes, stretch_values and the traces see the agent-last
    (count, n) views.  The block's statistics go into acc.  traces, when
    recorded, are the run's (stretch, com) arrays; the block writes its
    replications' slice.  Each round's sums of a group's positions over
    agents feed the stretches, the centre of mass and its trace, and then
    serve acc as scratch, as do the moves once the positions have taken
    them.
    """
    cfg = plan.cfg
    rounds = cfg.horizon
    lanes = len(fns)
    shape = (count, cfg.n)
    gen_init = streams.substream(cfg.seed, index, streams.INIT)
    gen_meas = streams.substream(cfg.seed, index, streams.MEASURE)
    gen_drift = streams.substream(cfg.seed, index, streams.DRIFT)

    # the Gains whose operator is applied in place before the multiply
    ops = [(lane, fn.op) for lane, fn in enumerate(fns)
           if isinstance(fn, Gain) and fn.op is not None]
    reps = slice(index * plan.block_size, index * plan.block_size + count)
    pos = np.empty((lanes, cfg.n, count))
    pos[...] = gen_init.normal(0.0, cfg.sigma0, shape).T
    group = min(group, lanes)
    scratch = np.empty((group, cfg.n, count))
    sums = np.empty((group, count))
    rows = np.empty_like(sums)
    meas = None
    for t in range(rounds + 1):
        for lo in range(0, lanes, group):
            part = slice(lo, min(lo + group, lanes))
            gpos = pos[part]
            st, total, work = scratch[:len(gpos)], sums[:len(gpos)], rows[:len(gpos)]
            gpos.sum(axis=1, out=total)
            # the agent-last views that stretch_values and the traces take
            st_t = st.transpose(0, 2, 1)
            stretch_values(gpos.transpose(0, 2, 1), out=st_t, total=total)
            if traces is not None:
                traces[0][part, t, reps] = st_t
                traces[1][part, t, reps] = total / cfg.n
            acc.record(t, part, st, total, work)
            if t == rounds:
                continue
            # the round's one draw, made after the first group's statistics
            # and freed after the last group's add: with one group it adds to
            # no temporary of the statistics, the moves or the drift draw
            if meas is None:
                meas = gen_meas.normal(0.0, cfg.sigma_m, shape).T
            y = st
            y += meas
            if part.stop == lanes:
                meas = None
            if acc.shift_rule is not None:
                # lane 0's mean measurement, for record_moves
                np.divide(y[0].sum(axis=0, out=total[0]), cfg.n, out=total[0])
            for lane in called:
                if part.start <= lane < part.stop:
                    y[lane - lo] = fns[lane](y[lane - lo].T, t).T
            for lane, op in ops:
                if part.start <= lane < part.stop:
                    y_lane = y[lane - lo].T
                    apply(op, y_lane, out=y_lane)
            y *= stack[t, part]
            gpos += y
            if acc.shift_sum is not None:
                acc.record_moves(t, y, total)
        if t == rounds:
            break
        pos += gen_drift.normal(0.0, cfg.sigma_d, shape).T
    return acc


def _accumulate(plan: RunPlan, fns, group: int, kind: str = "lanes", shift_rule=None,
                traces=None) -> _Accumulator:
    """Run every block of the plan for the compiled lanes, group lanes at a
    time within each round; merge in block order."""
    stack, called = _stack(plan, fns)

    def worker(block):
        acc = _Accumulator(plan, len(fns), kind, shift_rule)
        return _run_block(plan, fns, stack, called, acc, traces, group, *block)

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


def _simulate(plan: RunPlan, policies, kind: str = "lanes", shift_rule=None):
    """Simulate every lane of the plan.

    Returns the merged accumulator and, when recorded, the run's
    (stretch, com) traces, each indexed by lane first.
    """
    cfg = plan.cfg
    shape = (len(policies), cfg.horizon + 1, plan.replications)
    if plan.record_traces:
        # per lane, round and replication: n stretch cells and one centre of mass
        cells = len(policies) * (cfg.horizon + 1) * plan.replications * (cfg.n + 1)
        if cells > TRACE_LIMIT:
            raise ValueError(f"trace recording would allocate {cells} cells "
                             f"(limit {TRACE_LIMIT}); reduce replications or horizon")
    fns = _compile(plan, policies)
    traces = (np.empty(shape + (cfg.n,)), np.empty(shape)) if plan.record_traces else None
    return _accumulate(plan, fns, len(fns), kind, shift_rule, traces), traces


def run_lanes(plan: RunPlan, others: Iterable[Union[PolicySpec, Gain]]) -> List[RunResult]:
    """Simulate plan.policy and every policy in others on the plan's noise.

    Lane 0 is plan.policy and lane i is others[i-1]; each lane's result
    is bit-identical to a run of its policy alone.
    """
    policies = [plan.policy, *others]
    acc, traces = _simulate(plan, policies)
    return [_result(acc, lane, plan.replications, traces) for lane in range(len(policies))]


def run(plan: RunPlan) -> RunResult:
    """Simulate the plan and return per-round statistics."""
    return run_lanes(plan, ())[0]


def run_paired(plan: RunPlan, policy_b: Union[PolicySpec, Gain],
               shift_rule=None) -> PairedRunResult:
    """Simulate plan.policy and policy_b under identical noise.

    Records only what pairing adds (see PairedRunResult); the two lanes'
    per-round statistics come from run_lanes(plan, [policy_b]).

    shift_rule, when given, holds one finite scale rho_t per round of the plan:
    it predicts that the move difference in round t is the common shift
    rho_t times each replication's mean measurement, and the result
    reports the worst per-round deviation of the observed shift from it.
    """
    if shift_rule is not None:
        shift_rule = require_schedule("shift_rule", shift_rule, plan.cfg.horizon)
    acc, traces = _simulate(plan, [plan.policy, policy_b], "paired", shift_rule)
    stretch_traces, com_traces = traces if traces is not None else (None, None)
    return PairedRunResult(center_of_mass=acc.com_sum / plan.replications,
                           max_stretch_diff=acc.max_diff,
                           shift_mean=acc.shift_sum / plan.replications,
                           shift_spread=acc.shift_spread, shift_rule_dev=acc.rule_dev,
                           com_traces=com_traces, stretch_traces=stretch_traces)


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
    # the plan checks the counts, on any grid; the grid's lanes are compiled apart
    plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=replications,
                   threads=threads, block_size=block_size)
    specs = [PolicySpec(kind="weighted", rho=float(rho)) for rho in grid]
    if not specs:
        return []
    count = min(replications, block_size)
    # a group's scratch holds no more replications than one block of a run
    group = max(1, block_size // count)
    # a chunk's positions, sums and stacked scales stay within the budget
    bound = max(1, CELL_BUDGET // max(cfg.n * count, cfg.horizon + 1))
    # as few chunks as the bound allows, of sizes that differ by at most one
    chunks = -(-len(specs) // bound)
    edges = [i * len(specs) // chunks for i in range(chunks + 1)]

    points = []
    for chunk in range(chunks):
        lanes = specs[edges[chunk]:edges[chunk + 1]]
        # the variance a RoundStats would hold, without building one per lane-round
        var = _accumulate(plan, _compile(plan, lanes), group, "variance").sum_sq / replications
        points += [SweepPoint(rho=spec.rho, var_empirical=_tail_mean(var[lane]),
                              var_closed_form=var_limit(spec.rho, cfg))
                   for lane, spec in enumerate(lanes)]
    return points
