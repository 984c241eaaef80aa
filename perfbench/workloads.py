"""The benchmark's workloads.

Each workload is a closed loop: one caller, and each call into
stochalign waits for the previous one.  A workload object is built from
the benchmark seed (that construction is the measured set-up: configs,
run plans and parsed command lines; the engine compiles policies inside
each run), runs one pass of calls, and turns a pass's result into output
bytes plus the headline claims those outputs must satisfy.  The program
sees only the generated inputs.

`tiny=True` selects the small sizes of the benchmark's own tests.  Every
pass of one workload object repeats the same inputs, so its outputs must
repeat byte for byte.
"""

import contextlib
import csv
import dataclasses
import io
import math
from time import perf_counter

import numpy as np

from stochalign import analysis, cli, sim
from stochalign.model import ModelConfig
from stochalign.policies import PolicySpec

# The engine's replication block size at the time the benchmark was
# defined.  The RNG floor keeps using it so that the floor stays fixed
# when the engine changes.
FLOOR_BLOCK_SIZE = 20_000
SEED_MASK = (1 << 64) - 1
NASH_TOL = 1e-12


def _fmt(x):
    return f"{float(x):.17g}"


def rho_star_const(n, sigma_m=1.0, sigma_d=1.0):
    """Variance-minimizing constant responsiveness, computed independently."""
    c = n / (n - 1)
    return (sigma_d * math.sqrt(4 * sigma_m ** 2 + (c * sigma_d) ** 2)
            - c * sigma_d ** 2) / (2 * sigma_m ** 2)


def blocks(replications, block_size):
    out, start = [], 0
    while start < replications:
        out.append((len(out), min(block_size, replications - start)))
        start += block_size
    return out


def rng_floor(seed, noise):
    """Seconds numpy alone takes, on this thread, to draw one policy's normals.

    `noise` is (blocks, n, rounds, (sigma0, sigma_m, sigma_d)); streams are
    keyed by SeedSequence((seed, block, kind)) with kinds 0/1/2 for the
    initial, measurement and drift draws, as the engine keys them.
    """
    block_list, n, rounds, scales = noise
    seed &= SEED_MASK
    start = perf_counter()
    for index, count in block_list:
        shape = (count, n)
        for kind, scale in enumerate(scales):
            gen = np.random.default_rng(np.random.SeedSequence((seed, index, kind)))
            for _ in range(1 if kind == 0 else rounds):
                gen.normal(0.0, scale, shape)
    return perf_counter() - start


def normals_per_policy(noise):
    block_list, n, rounds, _ = noise
    return sum(count for _, count in block_list) * n * (1 + 2 * rounds)


def run_cli(argv):
    """Call the CLI in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def read_outputs(names):
    out = {}
    for name in names:
        for path in (name, name + ".config.json"):
            with open(path, "rb") as fh:
                out[path] = fh.read()
    return out


class Dominance:
    """Library `run()`: wstar against constant weights, CRN across policies."""

    name = "mc-dominance"
    FULL, TINY = (40_000, 50), (400, 30)  # (replications, rounds)
    RIVALS = (0.25, 0.5, 0.75, 1.0)
    writes_files = False

    def __init__(self, seed, threads, tiny=False):
        self.reps, rounds = self.TINY if tiny else self.FULL
        self.block_size = self.reps // 2  # two blocks per run
        self.cfg = ModelConfig(n=5, horizon=rounds, seed=seed)
        rivals = self.RIVALS + (analysis.rho_star_const(self.cfg),)
        self.specs = [("wstar", PolicySpec(kind="wstar"))] + [
            (f"W({_fmt(rho)})", PolicySpec(kind="weighted", rho=rho)) for rho in rivals]
        self.plans = [sim.RunPlan(cfg=self.cfg, policy=spec, replications=self.reps,
                                  threads=threads, block_size=self.block_size)
                      for _, spec in self.specs]
        self.rep_rounds = self.reps * rounds * len(self.specs)
        self.noise = (blocks(self.reps, self.block_size), self.cfg.n, rounds,
                      (self.cfg.sigma0, self.cfg.sigma_m, self.cfg.sigma_d))

    def run_pass(self, threads):
        return [sim.run(dataclasses.replace(plan, threads=threads)) for plan in self.plans]

    def finish(self, results):
        lines = ["policy,round,mean_abs_stretch,std_error,var_stretch"]
        curves = []
        for (label, _), result in zip(self.specs, results):
            lines += [f"{label},{r.round},{_fmt(r.mean_abs_stretch)},{_fmt(r.std_error)},"
                      f"{_fmt(r.var_stretch)}" for r in result.rounds]
            curves.append((label, np.array([r.mean_abs_stretch for r in result.rounds]),
                           np.array([r.std_error for r in result.rounds])))
        _, base, _ = curves[0]
        claims = []
        for label, other, other_se in curves[1:]:
            margin = (other + 3.0 * other_se - base).min()
            claims.append((f"wstar dominates {label} at 3 SE (worst margin {margin:+.2e})",
                           bool(margin >= 0.0)))
        return {"dominance.csv": ("\n".join(lines) + "\n").encode()}, claims


class Sweep:
    """CLI `sweep` over the default 50-point grid; one block per grid point."""

    name = "sweep-small-blocks"
    FULL, TINY = (1_000, 300), (200, 300)  # (replications, rounds)
    GRID_POINTS = 50
    GRID_STEP = 0.02
    writes_files = True

    def __init__(self, seed, threads, tiny=False):
        self.reps, self.rounds = self.TINY if tiny else self.FULL
        self.seed = seed
        cli.build_parser().parse_args(self.argv(threads))
        self.rep_rounds = self.reps * self.rounds * self.GRID_POINTS
        self.noise = (blocks(self.reps, FLOOR_BLOCK_SIZE), 2, self.rounds, (1.0, 1.0, 1.0))

    def argv(self, threads):
        return ["sweep", "--n", "2", "--reps", str(self.reps), "--rounds", str(self.rounds),
                "--seed", str(self.seed), "--threads", str(threads), "--out", "sweep.csv"]

    def run_pass(self, threads):
        return run_cli(self.argv(threads))

    def finish(self, result):
        code, _ = result
        outputs = read_outputs(["sweep.csv"])
        rows = list(csv.DictReader(io.StringIO(outputs["sweep.csv"].decode())))
        finite = [r for r in rows if r["var_empirical"] != "divergent"]
        best = min(finite, key=lambda r: float(r["var_empirical"]))
        star = rho_star_const(2)
        dev = abs(float(best["rho"]) - star)
        return outputs, [
            ("sweep exits 0", code == 0),
            (f"sweep reports {self.GRID_POINTS} grid points", len(rows) == self.GRID_POINTS),
            (f"sweep argmin {best['rho']} within one grid step of rho* {star:.4f}",
             dev <= self.GRID_STEP + 1e-9),
        ]


class Compare:
    """CLI `compare` of wstar and matc: one noise draw feeds both policies."""

    name = "compare-paired"
    FULL, TINY = (200_000, 100), (2_000, 30)  # (replications, rounds)
    writes_files = True

    def __init__(self, seed, threads, tiny=False):
        self.reps, self.rounds = self.TINY if tiny else self.FULL
        self.seed = seed
        cli.build_parser().parse_args(self.argv(threads))
        self.rep_rounds = self.reps * self.rounds * 2
        self.noise = (blocks(self.reps, FLOOR_BLOCK_SIZE), 3, self.rounds, (1.0, 1.0, 1.0))

    def argv(self, threads):
        return ["compare", "--a", "wstar", "--b", "matc", "--n", "3",
                "--rounds", str(self.rounds), "--reps", str(self.reps),
                "--seed", str(self.seed), "--threads", str(threads), "--out", "compare.csv"]

    def run_pass(self, threads):
        return run_cli(self.argv(threads))

    def finish(self, result):
        code, stdout = result
        verdict = [line for line in stdout.splitlines() if line.startswith("shift equivalence")]
        return read_outputs(["compare.csv"]), [
            ("compare exits 0", code == 0),
            ("compare reports shift equivalence: pass",
             len(verdict) == 1 and verdict[0].endswith(": pass")),
        ]


class ClosedForms:
    """CLI `kalman-check` and `best-response`: closed forms only, no Monte Carlo."""

    name = "closed-forms"
    FULL, TINY = (256, 200, 5_000), (16, 20, 50)  # (n, kalman t_max, br t_max)
    writes_files = True

    def __init__(self, seed, threads, tiny=False):
        self.n, self.t_kalman, self.t_br = self.TINY if tiny else self.FULL
        self.seed = seed
        parser = cli.build_parser()
        for argv in self.calls(threads):
            parser.parse_args(argv)
        # each call advances one recursion per round; there is one replication
        self.rep_rounds = (self.t_kalman + 1) + 2 * (self.t_br + 1)
        self.noise = ([], 3, 0, (1.0, 1.0, 1.0))

    def calls(self, threads):
        common = ["--seed", str(self.seed), "--threads", str(threads)]
        return [
            ["kalman-check", "--n", str(self.n), "--t-max", str(self.t_kalman),
             "--out", "kalman.csv"] + common,
            ["best-response", "--opponents", "wstar", "--t-max", str(self.t_br),
             "--out", "br_wstar.csv"] + common,
            ["best-response", "--opponents", "constant", "--rho", "0.4",
             "--t-max", str(self.t_br), "--assert-nash", "--out", "br_constant.csv"] + common,
        ]

    def run_pass(self, threads):
        return [run_cli(argv)[0] for argv in self.calls(threads)]

    def finish(self, codes):
        outputs = read_outputs(["kalman.csv", "br_wstar.csv", "br_constant.csv"])
        rows = csv.DictReader(io.StringIO(outputs["br_constant.csv"].decode()))
        residual = max(float(r["residual"]) for r in rows)
        return outputs, [
            ("kalman-check exits 0 (dense filter matches the closed form)", codes[0] == 0),
            ("best-response to wstar exits 0 (wstar is its own best response)", codes[1] == 0),
            # a constant schedule is not a best-response fixed point, so the
            # requested Nash assertion must fail with exit code 1
            (f"best-response to constant 0.4 exits 1 (residual {residual:.3e})",
             codes[2] == 1 and residual > NASH_TOL),
        ]


WORKLOADS = {w.name: w for w in (Dominance, Sweep, Compare, ClosedForms)}
