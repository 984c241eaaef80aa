"""Monte Carlo engine.

Replications are split into fixed-size blocks; each block derives its own
noise streams from (seed, block index, noise kind).  One block loop
simulates L policy lanes at once: the state is agent-major, (L, n,
block), so each agent is one contiguous row of replications and every
reduction over agents is a sum of whole rows.  The initial, measurement
and drift normals are drawn once per block as (block, n) arrays and
added through their transpose to every lane.  All lanes therefore see
identical noise (common random numbers) for the price of one draw.
`run_lanes` returns one RunResult per lane, and is the one entry point
that records traces; `run` is its single lane, `run_paired` two lanes
that record only what `compare` writes (each lane's centre of mass,
their stretch difference and the common shift of their moves), and
`sweep_rho` runs its grid as lanes in chunks.

A block keeps every lane's positions from its first round to its last,
but does each round's per-lane work (stretches, statistics, moves) over
groups of lanes that share one scratch.  Each round's measurement and
drift normals are drawn once for all its groups, so every lane of a
block shares one draw per round.  One tile rule sizes the groups of
every run: a group holds at most max(1, block_size // count) lanes,
where count is min(replications, block_size), so a round's scratch is
never larger than that of one block of a single run.  The one exception
is a paired run, whose two lanes are one group because its rows compare
them within a round.  The tile is also a cache tile: a group's scratch
stays in cache while its lanes' per-round work runs, where one group of
every lane would stream through memory.  At n = 2 and 8,000
replications, 50 sweep lanes in one group took about two fifths longer
than in groups of 2, so the groups stay even where memory would allow
one.

A sweep also bounds what a block keeps across rounds to about
CELL_BUDGET cells: a chunk holds at most max(1, CELL_BUDGET // max(n *
count, rounds + 1)) lanes, where n * count bounds a lane's positions
and rounds + 1 its stacked scales.  The grid is split into as few chunks
as that allows, of sizes that differ by at most one.  The chunks run one
after another, and the threads share each chunk's blocks, so with T
threads up to T blocks hold their positions at once.  A sweep point is
steady_state_variance of its lane's var_stretch column, the mean of the
column's last tenth of rounds (at least one).  A sweep accumulates only
the sums of squared stretches of those tail rounds, the only statistic
it reads, and divides each lane's merged tail sums straight into its
point; every earlier round still computes the stretches and moves the
positions, but no statistic.  Noise is keyed by (seed, block, kind) and
every lane is reduced over its own slice, so neither the groups nor the
chunks change a point's bits.

Every lane moves by one update per round: the lanes' scales, stacked
once per run, times the measurements, the same products as the gains'
own calls.  A Gain with an operator first has it applied to its
measurements in place.  Only a plain callable, such as the benchmark
tracer's wrapper of make_policy, is called: it replaces its measurements
with its moves and is stacked at 1.0.

A block is derived from its index: block i holds min(block_size,
replications - i * block_size) replications, so a run keeps no list of
its blocks, only one result slot per block.

Beyond what it keeps for the whole block (every lane's positions, a
group's scratch and two rows of sums), a block with one lane group holds
at most one array of a noise draw's size at a time: the draw itself, or
a statistic's per-lane temporary freed before the next draw.  With more
groups it holds at most two, since the round's measurement draw is kept
while a later group's temporary exists.  With T threads up to T blocks
run at once: the calling thread runs blocks too, beside T - 1 helper
threads, and each thread takes the next block no thread has started.
A run on one thread, or of one block, starts no thread.

Per-block partial statistics, each one row of the STATS table, are merged
in block order by their rows' rules, and every lane is reduced over its
own contiguous slice, so results are bit-identical for any thread count,
any number of lanes and any grouping of them.

A RunResult holds (rounds+1,) columns that treat the replication as the
sampling unit: var_stretch / mean_abs_stretch are means over
replications of the per-replication agent averages, and standard errors
come from the replication-level spread of those averages.  Each agent's
variance and mean |stretch|, with its standard error, is a column of a
(rounds+1, n) array, and the worst agent (the paper's maximal
objective) is a max over columns.
"""

import errno
import threading
from dataclasses import dataclass, field, fields
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from . import streams
from .analysis import alpha_infty, var_limit
from .model import ModelConfig, require_int, stretch_values
from .policies import Gain, PolicySpec, make_policy
from .structmat import apply

DEFAULT_BLOCK_SIZE = 20_000
TRACE_LIMIT = 50_000_000  # cells of whole-run traces; traces suit small runs only
CELL_BUDGET = 2 ** 22  # cells a sweep chunk keeps across rounds, per block
# the largest sigma0 / sqrt(alpha_infty) whose stretches the engine resolves
SIGMA0_RATIO_LIMIT = 1e12


@dataclass(frozen=True)
class RunPlan:
    """One Monte Carlo job: a scenario, a policy, and replication count.

    The run lasts cfg.horizon rounds.  block_size is part of the result's
    identity (changing it reorders float reductions); threads is not.

    The engine keeps absolute positions and subtracts them to get the
    stretches, which settle at about sqrt(alpha_infty) while the centre
    of mass stays at about sigma0: the subtraction loses about
    log2(sigma0 / sqrt(alpha_infty)) bits.  A plan whose ratio exceeds
    SIGMA0_RATIO_LIMIT is rejected, since its stretches would be wrong.
    The closed forms take every sigma0 that ModelConfig accepts.
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
        limit = SIGMA0_RATIO_LIMIT * np.sqrt(alpha_infty(self.cfg))
        if self.cfg.sigma0 > limit:
            raise ValueError(f"sigma0 = {self.cfg.sigma0:g} exceeds {SIGMA0_RATIO_LIMIT:g} * sqrt("
                             f"alpha_infty) = {limit:g}, the most the engine resolves")


@dataclass(slots=True)
class RoundStats:
    """One round of a RunResult's averaged columns, as RunResult.rounds
    builds it."""

    round: int
    var_stretch: float
    mean_abs_stretch: float
    std_error: float
    var_std_error: float
    center_of_mass: float


@dataclass
class RunResult:
    """One lane's per-round statistics, as float64 columns indexed by round.

    The (rounds+1,) columns average the n agents: var_stretch,
    mean_abs_stretch, their standard errors and center_of_mass.  The
    agent_* arrays are (rounds+1, n), one column per agent: agent i's
    variance, mean |stretch| and that mean's standard error.
    agent_mean_abs_stretch.max(axis=1) is the worst agent's per round.
    """

    var_stretch: np.ndarray
    var_std_error: np.ndarray
    mean_abs_stretch: np.ndarray
    std_error: np.ndarray
    center_of_mass: np.ndarray
    # per-round max over replications of |sum of stretches|; zero in exact arithmetic
    max_abs_stretch_sum: np.ndarray = field(repr=False)
    agent_var_stretch: np.ndarray = field(repr=False)
    agent_mean_abs_stretch: np.ndarray = field(repr=False)
    agent_std_error: np.ndarray = field(repr=False)
    com_traces: Optional[np.ndarray] = None  # (rounds+1, reps) when traced
    stretch_traces: Optional[np.ndarray] = None  # (rounds+1, reps, n) when traced

    @property
    def rounds(self) -> List[RoundStats]:
        """The averaged columns as one RoundStats per round, built on each read."""
        columns = (getattr(self, f.name).tolist() for f in fields(RoundStats)[1:])
        return [RoundStats(t, *row) for t, row in enumerate(zip(*columns))]


@dataclass
class PairedRunResult:
    """What pairing two policies, a and b, on common noise adds.

    center_of_mass is (2, rounds+1): each lane's per-round mean centre of
    mass, row 0 for a and row 1 for b.  max_stretch_diff is the per-round
    max over replications and agents of their stretch difference, and
    shift_mean the per-round mean over replications of the common shift,
    the per-agent move difference (a minus b) averaged over agents.  These
    are what `compare` writes.  A paired run computes no other per-lane
    statistic and records no traces: run_lanes(plan, [policy_b]) gives
    both lanes' RunResults and traces on the same noise, bit-identical
    to the paired lanes.
    """

    center_of_mass: np.ndarray
    max_stretch_diff: np.ndarray
    shift_mean: np.ndarray


@dataclass(frozen=True)
class SweepPoint:
    rho: float
    var_empirical: float
    var_closed_form: float


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


# Every statistic a block accumulates, name: (shape, block merge).  A shape is
# per lane (lanes, rounds+1), per agent (lanes, rounds+1, n) or per run (rounds+1,)
STATS = {"sum_sq": ("lane", np.add), "sum_sq2": ("lane", np.add),
         "sum_abs": ("lane", np.add), "sum_abs2": ("lane", np.add),
         "agent_sq": ("agent", np.add), "agent_abs": ("agent", np.add),
         "com_sum": ("lane", np.add), "max_zero_sum": ("lane", np.maximum),
         "max_diff": ("run", np.maximum), "shift_sum": ("run", np.add)}
# the rows each kind of run keeps
KINDS = {"lanes": ("sum_sq", "sum_sq2", "sum_abs", "sum_abs2", "agent_sq", "agent_abs",
                   "com_sum", "max_zero_sum"),
         "paired": ("com_sum", "max_diff", "shift_sum"),
         "variance": ("sum_sq",)}


class _Accumulator:
    """One block's sums of every lane's per-round statistics.

    names lists the rows of STATS its kind keeps (KINDS), and each is an
    attribute in the shape its row states; the others do not exist.
    "lanes" (run_lanes') keeps the sums every RunResult column is made
    of; "paired" (run_paired's) each lane's centre of mass, the stretch
    difference of the two lanes and their moves' common shift; "variance"
    (sweep_rho's) sum_sq alone, and only for the rounds
    steady_state_variance reads: its rows are (lanes, k) for the last k =
    _tail_length(horizon + 1) rounds, from round first on.  Each lane is
    reduced over its own contiguous slice, so its sums carry the same bits
    whatever the number of lanes and whatever else is kept.
    """

    def __init__(self, plan: RunPlan, lanes: int, kind: str):
        rounds = plan.cfg.horizon + 1
        self.first = rounds - _tail_length(rounds) if kind == "variance" else 0
        columns = rounds - self.first
        shapes = {"lane": (lanes, columns), "agent": (lanes, columns, plan.cfg.n),
                  "run": (columns,)}
        self.kind, self.names = kind, KINDS[kind]
        for name in self.names:
            setattr(self, name, np.zeros(shapes[STATS[name][0]]))

    def record(self, t: int, lanes: slice, st: np.ndarray, total: np.ndarray,
               work: np.ndarray):
        """Add round t of the (group, n, count) stretches st of the lanes in
        the slice lanes.  total holds each replication's sum of positions
        and is scratch once read; work is (group, count) scratch.  A paired
        accumulator, whose two lanes are one group, stops after the centre
        of mass and the stretch difference.  A variance one returns at once
        for a round before first, and adds round t to column t - first of
        sum_sq, where it stops.
        |s| is taken one lane at a time into one (n, count) temporary,
        which is no larger than a noise draw.

        Sums over agents add whole agent rows in order.  The sum of squares
        adds the even agents' squares and the odd agents' squares apart and
        then the two, which for up to 7 agents is the order of
        np.einsum("ij,ij->i") over agent-last rows.  Per-agent sums reduce
        each agent's contiguous row of replications.
        """
        if t < self.first:
            return
        if self.kind != "variance":
            self.com_sum[lanes, t] = np.divide(total, st.shape[1], out=work).sum(axis=1)
        if self.kind == "paired":
            diff = st[0] - st[1]
            self.max_diff[t] = np.abs(diff, out=diff).max()
            return
        n = st.shape[1]
        even, odd = st[:, 0::2], st[:, 1::2]
        np.einsum("lac,lac->lc", even, even, out=work)
        work += np.einsum("lac,lac->lc", odd, odd, out=total)
        work /= n
        self.sum_sq[lanes, t - self.first] = work.sum(axis=1)
        if self.kind == "variance":
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

    def record_moves(self, t: int, moves: np.ndarray, row: np.ndarray):
        """Paired only: the common shift, lane 0's per-agent moves minus
        lane 1's averaged over agents, summed over replications.  moves,
        the (2, n, count) moves, is scratch once the positions have taken
        them; row is (count,) scratch."""
        move_diff = np.subtract(moves[0], moves[1], out=moves[1])
        common = np.divide(move_diff.sum(axis=0, out=row), len(move_diff), out=row)
        self.shift_sum[t] = common.sum()

    def merge(self, other: "_Accumulator"):
        """Merge other's block into this one, each row by its own rule."""
        for name in self.names:
            mine = getattr(self, name)
            STATS[name][1](mine, getattr(other, name), out=mine)


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
    agent_abs, agent_se = _mean_and_se(acc.agent_abs[lane], acc.agent_sq[lane], count)
    stretch, com = (None, None) if traces is None else (trace[lane] for trace in traces)
    return RunResult(var_stretch=var, var_std_error=var_se, mean_abs_stretch=mabs,
                     std_error=mabs_se, center_of_mass=acc.com_sum[lane] / count,
                     max_abs_stretch_sum=acc.max_zero_sum[lane],
                     agent_var_stretch=acc.agent_sq[lane] / count,
                     agent_mean_abs_stretch=agent_abs, agent_std_error=agent_se,
                     stretch_traces=stretch, com_traces=com)


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
               traces, group: int, index: int) -> _Accumulator:
    """Simulate block index of the replications for every policy lane.

    The block holds count = min(block_size, replications - index *
    block_size) replications.  The positions are (lanes, n, count) and
    live for the whole block.  Each round draws its measurement and
    drift normals once, as (count, n) arrays, and adds them through their
    transpose to every lane.  The round's per-lane work runs over groups
    of at most group lanes, which reuse one scratch: their stretches and
    two (group, count) rows.  Beyond that and the positions, a block
    holds at most two arrays of a draw's size at a time.  With one group
    it holds at most one: the draw, or a statistic's per-lane temporary
    freed before the draw is made.  With more groups the round's
    measurement draw is held while a later group's temporary exists.  The
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
    count = min(plan.block_size, plan.replications - index * plan.block_size)
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
        if t:
            pos += gen_drift.normal(0.0, cfg.sigma_d, shape).T
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
            for lane in called:
                if part.start <= lane < part.stop:
                    y[lane - lo] = fns[lane](y[lane - lo].T, t).T
            for lane, op in ops:
                if part.start <= lane < part.stop:
                    y_lane = y[lane - lo].T
                    apply(op, y_lane, out=y_lane)
            y *= stack[t, part]
            gpos += y
            if acc.kind == "paired":
                acc.record_moves(t, y, total[0])
    return acc


def _accumulate(plan: RunPlan, fns, kind: str = "lanes", traces=None) -> _Accumulator:
    """Run every block of the plan for the compiled lanes; merge in block
    order.

    This is the one place that sizes the lane groups: by the tile rule
    (see the module docstring) for every run, except that a paired run's
    two lanes are one group, since its rows compare them within a round.

    The calling thread and up to threads - 1 helper threads share the
    blocks.  Once a block raises, no thread starts a later block; every
    helper is joined and the exception of the first failed block in block
    order propagates, as from Executor.map.  A helper that cannot start
    stops the run the same way, as a failure before every block: its
    OSError(EAGAIN), chained from the RuntimeError, propagates once the
    helpers already started have finished their current block and joined.
    """
    stack, called = _stack(plan, fns)
    count = min(plan.replications, plan.block_size)
    group = len(fns) if kind == "paired" else max(1, plan.block_size // count)
    blocks = -(-plan.replications // plan.block_size)
    # a numpy array, so that too many blocks for memory fail here, and by name
    parts = np.empty(blocks, dtype=object)
    errors = {}
    # one shared iterator: each thread takes the next block no thread has started
    pending = iter(range(blocks))

    def work():
        for i in pending:
            if errors and i > min(errors):
                return
            try:
                acc = _Accumulator(plan, len(fns), kind)
                parts[i] = _run_block(plan, fns, stack, called, acc, traces, group, i)
            except BaseException as exc:
                errors[i] = exc
                return

    helpers = []
    try:
        for _ in range(min(plan.threads, blocks) - 1):
            helper = threading.Thread(target=work)
            try:
                helper.start()
            except RuntimeError as exc:  # out of threads: a resource error, as for memory
                errors[-1] = OSError(errno.EAGAIN, f"cannot start a helper thread: {exc}")
                errors[-1].__cause__ = exc
                break
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    acc = parts[0]
    for other in parts[1:]:
        acc.merge(other)
    return acc


def run_lanes(plan: RunPlan, others: Iterable[Union[PolicySpec, Gain]]) -> List[RunResult]:
    """Simulate plan.policy and every policy in others on the plan's noise.

    Lane 0 is plan.policy and lane i is others[i-1]; each lane's result
    is bit-identical to a run of its policy alone.  This is the one entry
    point that records traces: when the plan asks for them, the run's
    (stretch, com) arrays, each indexed by lane first, are allocated once
    the policies compile, and each lane's RunResult holds a view of its row.
    """
    policies = [plan.policy, *others]
    cfg = plan.cfg
    shape = (len(policies), cfg.horizon + 1, plan.replications)
    # per lane, round and replication: n stretch cells and one centre of mass
    cells = len(policies) * (cfg.horizon + 1) * plan.replications * (cfg.n + 1)
    if plan.record_traces and cells > TRACE_LIMIT:
        raise ValueError(f"trace recording would allocate {cells} cells "
                         f"(limit {TRACE_LIMIT}); reduce replications or horizon")
    fns = _compile(plan, policies)
    traces = (np.empty(shape + (cfg.n,)), np.empty(shape)) if plan.record_traces else None
    acc = _accumulate(plan, fns, traces=traces)
    return [_result(acc, lane, plan.replications, traces) for lane in range(len(policies))]


def run(plan: RunPlan) -> RunResult:
    """Simulate the plan and return per-round statistics."""
    return run_lanes(plan, ())[0]


def run_paired(plan: RunPlan, policy_b: Union[PolicySpec, Gain]) -> PairedRunResult:
    """Simulate plan.policy and policy_b under identical noise.

    Records only what pairing adds (see PairedRunResult).  The two lanes'
    per-round statistics, and their traces, come from
    run_lanes(plan, [policy_b]); a plan that records traces is rejected
    before any policy compiles.
    """
    if plan.record_traces:
        raise ValueError("a paired run records no traces; run_lanes(plan, [policy_b]) "
                         "gives both lanes' traces on the same noise")
    acc = _accumulate(plan, _compile(plan, [plan.policy, policy_b]), "paired")
    return PairedRunResult(center_of_mass=acc.com_sum / plan.replications,
                           max_stretch_diff=acc.max_diff,
                           shift_mean=acc.shift_sum / plan.replications)


def _tail_length(rounds: int) -> int:
    """How many of a column's rounds steady_state_variance averages: the last 10%, at least one."""
    return max(1, rounds // 10)


def steady_state_variance(var_stretch: Sequence[float]) -> float:
    """Mean of a per-round variance column over its last 10% of rounds, at least one.

    _tail_length states that rule; a sweep keeps only those rounds' sums.
    """
    if not len(var_stretch):
        raise ValueError("need at least one round to average")
    return float(np.mean(var_stretch[-_tail_length(len(var_stretch)):]))


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
    # a chunk's positions (n * count a lane) and stacked scales (at most
    # horizon + 1 a lane, as are its tail sums) stay within the budget
    bound = max(1, CELL_BUDGET // max(cfg.n * min(replications, block_size), cfg.horizon + 1))
    # as few chunks as the bound allows, of sizes that differ by at most one
    chunks = -(-len(specs) // bound)
    edges = [i * len(specs) // chunks for i in range(chunks + 1)]

    points = []
    for chunk in range(chunks):
        lanes = specs[edges[chunk]:edges[chunk + 1]]
        # the tail of each lane's var_stretch column, as a run of its policy computes it
        tail = _accumulate(plan, _compile(plan, lanes), "variance").sum_sq / replications
        points += [SweepPoint(rho=spec.rho, var_empirical=float(np.mean(tail[lane])),
                              var_closed_form=var_limit(spec.rho, cfg))
                   for lane, spec in enumerate(lanes)]
    return points
