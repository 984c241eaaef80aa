"""Command-line front end.

Five subcommands: simulate, compare, sweep, kalman-check, best-response;
only the first three, which run Monte Carlo, take --rounds and --reps.
Settings come from built-in defaults, then an optional flat JSON config
file (--config), then flags; later sources win.  compare's --a/--rho-a
are the policy/rho settings.  Every run writes its CSV plus a
<out>.config.json sidecar holding the resolved config keys, the thread
count and the command, but not the subcommand-only flags (compare's
--b/--rho-b, --t-max, --opponents and --assert-nash).  Every setting is
checked before any work starts, also one the command does not read, so
the sidecar is strict JSON (no NaN or Infinity), and compare checks
--rho-b whatever --b is.  The CSV and its sidecar are both written or
neither is.  Commands hand their rows to _write_outputs as plain numbers
and strings, and it alone formats a cell.  Threads come from --threads,
else all cores.

compare (of wstar and matc), kalman-check and best-response (against
wstar, or with --assert-nash) end in a check: the command computes its
inputs and writes its rows, a function of stochalign.checks turns them
into a Verdict (compare's check reads the two compiled gains its paired
run ran), and _report, the one place a verdict becomes an exit
code, prints its line.  Exit codes: 0 success / check passed, 1 check
failed (kalman-check also when its dense reference filter fails), 2
usage, configuration, I/O, out-of-memory or out-of-threads error.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .analysis import alpha_infty, cost_from_variance, rho_star_const, var_limit
from .checks import (Verdict, _fmt, _max_deviation, filter_agreement, filter_failure,
                     nash_fixed_point, shift_identity)
from .game import best_response
from .kalman import AlphaSchedule, closed_form_filter_state, dense_filter_path
from .model import ModelConfig, require_int
from .policies import POLICY_KINDS, PolicySpec, make_policy
from .sim import RunPlan, run, run_paired, sweep_rho

MAX_GRID_POINTS = 10_000  # every point is a simulated policy lane
MIN_GRID_STEP = 1e-12  # grid points are rounded to 12 decimals

DEFAULTS = {
    "n": 3,
    "sigma0": 1.0,
    "sigma_m": 1.0,
    "sigma_d": 1.0,
    "horizon": 100,
    "replications": 1000,
    "seed": 12345,
    "policy": "wstar",
    "rho": 0.5,
    "grid_start": 0.02,
    "grid_stop": 1.0,
    "grid_step": 0.02,
}

# keys accepted in a JSON config file, with the type of their values
CONFIG_KEYS = {**{key: type(value) for key, value in DEFAULTS.items()}, "out": str}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return {key: _config_value(key, value) for key, value in data.items()}


def _config_value(key: str, value):
    """A config-file value as its setting's type.

    A bool is not a number and a string not a float; an int is taken for
    a float setting and recorded as a float.
    """
    kind = CONFIG_KEYS[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"config key {key!r} must be of type {kind.__name__}, "
                         f"got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:  # an integer too large for a float
        raise ValueError(f"config key {key!r} has invalid value {value!r}") from exc


def _resolve(args: argparse.Namespace) -> dict:
    """defaults <- config file <- flags, later wins.

    Every setting the sidecar records is checked, whether the command
    reads it or not, by the rule of the command that does.
    """
    settings = dict(DEFAULTS, replications=args.default_reps,
                    out=f"{args.command.replace('-', '_')}.csv")
    if args.config is not None:
        settings.update(_load_config_file(args.config))
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    settings["threads"] = (os.cpu_count() or 1) if args.threads is None else args.threads
    require_int("threads", settings["threads"], lo=1)
    settings["command"] = args.command
    out = settings["out"]
    if not os.path.basename(out) or os.path.isdir(out):
        raise ValueError(f"output path {out!r} does not name a file")
    out_dir = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(out_dir):
        raise ValueError(f"output directory {out_dir} does not exist")
    _model_config(settings)
    _policy_spec(settings["policy"], settings["rho"])
    _rho_grid(settings["grid_start"], settings["grid_stop"], settings["grid_step"])
    require_int("replications", settings["replications"], lo=1)
    return settings


def _model_config(settings: dict) -> ModelConfig:
    return ModelConfig(**{f.name: settings[f.name] for f in dataclasses.fields(ModelConfig)})


def _policy_spec(name: str, rho: float) -> PolicySpec:
    """Only the weighted kind takes rho, but rho is checked by its rule
    whatever the kind, once PolicySpec has checked the kind."""
    spec = PolicySpec(kind=name, rho=rho if name == "weighted" else None)
    PolicySpec(kind="weighted", rho=rho)
    return spec


def _write_outputs(settings: dict, header: str, rows) -> None:
    """Write the CSV and its <out>.config.json sidecar, or neither.

    This is the one place a CSV cell is formatted.  Each row is a
    sequence of cells: a str cell is written as it is, and any other cell
    as _fmt formats it.  Both files are written to temp files beside their
    targets and moved into place only once both are complete, the sidecar
    first; if the CSV then cannot be moved, the new sidecar is removed
    again.  Only temp files this call created are ever removed.
    """
    out = settings["out"]
    sidecar = out + ".config.json"
    tmp_out, tmp_sidecar = (f"{path}.{os.getpid()}.tmp" for path in (out, sidecar))
    created = []
    try:
        with open(tmp_out, "x", newline="") as fh:
            created.append(tmp_out)
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(c if isinstance(c, str) else _fmt(c) for c in row) + "\n")
        with open(tmp_sidecar, "x") as fh:
            created.append(tmp_sidecar)
            json.dump(settings, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        os.replace(tmp_sidecar, sidecar)
        try:
            os.replace(tmp_out, out)
        except OSError:
            os.remove(sidecar)
            raise
    finally:
        for tmp in created:
            if os.path.exists(tmp):
                os.remove(tmp)


def _report(verdict: Verdict) -> int:
    """Print a check's verdict line; the exit code is 0 if it passed, else 1."""
    print(verdict.line)
    return 0 if verdict.ok else 1


def cmd_simulate(settings: dict, args: argparse.Namespace) -> int:
    cfg = _model_config(settings)
    spec = _policy_spec(settings["policy"], settings["rho"])
    plan = RunPlan(cfg=cfg, policy=spec, replications=settings["replications"],
                   threads=settings["threads"])
    weighted = spec.kind == "weighted"
    rho = spec.rho if weighted else rho_star_const(cfg)
    limit = var_limit(rho, cfg)
    label = f"W({_fmt(rho)})" if weighted else f"{spec.kind} (limiting responsiveness {_fmt(rho)})"
    cost = cost_from_variance(limit)

    result = run(plan)
    rows = zip(range(cfg.horizon + 1), result.var_stretch, result.mean_abs_stretch,
               result.std_error)
    _write_outputs(settings, "round,var_stretch,mean_abs_stretch,stderr", rows)

    print(f"policy {label}: predicted limiting variance {_fmt(limit)}, "
          f"cost {_fmt(cost)}")
    print(f"final-round empirical variance {_fmt(result.var_stretch[-1])} "
          f"over {settings['replications']} replications -> {settings['out']}")
    print(f"worst |sum of stretches| {_fmt(result.max_abs_stretch_sum.max())} "
          f"(zero in exact arithmetic)")
    return 0


def cmd_compare(settings: dict, args: argparse.Namespace) -> int:
    cfg = _model_config(settings)
    spec_a = _policy_spec(settings["policy"], settings["rho"])
    spec_b = _policy_spec(args.b, args.rho_b)
    plan = RunPlan(cfg=cfg, policy=spec_a, replications=settings["replications"],
                   threads=settings["threads"])
    # compiled once the plan has checked its settings; the paired run
    # runs, and the check reads, these gains
    gain_a, gain_b = make_policy(spec_a, cfg), make_policy(spec_b, cfg)

    paired = run_paired(dataclasses.replace(plan, policy=gain_a), gain_b)

    rows = zip(range(cfg.horizon + 1), *paired.center_of_mass, paired.max_stretch_diff,
               np.append(paired.shift_mean[:cfg.horizon], math.nan))
    _write_outputs(settings, "round,com_a,com_b,max_stretch_diff,move_shift", rows)

    stretch_diff = paired.max_stretch_diff.max()
    print(f"paired {spec_a.kind} vs {spec_b.kind}: max stretch difference "
          f"{_fmt(stretch_diff)} -> {settings['out']}")
    if (spec_a.kind, spec_b.kind) != ("wstar", "matc"):
        return 0
    # the two policies must be the same move up to a common per-round
    # shift, rho*(t) times the mean measurement
    rhos = AlphaSchedule(cfg, cfg.horizon).rhos()
    return _report(shift_identity(cfg, stretch_diff, gain_a, gain_b, rhos))


def _rho_grid(start: float, stop: float, step: float) -> list:
    """The points round(start + i*step, 12) <= stop + 1e-9 for i = 0, 1, ...

    The points increase with i, so the walk ends at the first point past
    stop, or at one point more than MAX_GRID_POINTS: a grid that is too
    fine is rejected after that many points, however fine it is.
    """
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(f"grid start, stop and step must be finite, got {start}, {stop}, {step}")
    if step < MIN_GRID_STEP:
        raise ValueError(f"grid_step must be >= {MIN_GRID_STEP}, got {step}")
    grid = []
    while len(grid) <= MAX_GRID_POINTS:
        point = round(start + len(grid) * step, 12)
        if point > stop + 1e-9:
            break
        grid.append(point)
    if not grid:
        raise ValueError("empty rho grid")
    if len(grid) > MAX_GRID_POINTS:
        raise ValueError(f"rho grid has more than {MAX_GRID_POINTS} points")
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise ValueError(f"rho grid runs from {grid[0]} to {grid[-1]}, outside [0, 1]")
    return grid


def cmd_sweep(settings: dict, args: argparse.Namespace) -> int:
    cfg = _model_config(settings)
    grid = _rho_grid(settings["grid_start"], settings["grid_stop"], settings["grid_step"])
    rho_star = rho_star_const(cfg)
    points = sweep_rho(cfg, grid, settings["replications"], threads=settings["threads"])
    rows = ((p.rho, "divergent" if math.isinf(p.var_closed_form) else p.var_empirical,
             p.var_closed_form) for p in points)
    _write_outputs(settings, "rho,var_empirical,var_closed_form", rows)

    finite = [p for p in points if not math.isinf(p.var_closed_form)]
    if not finite:
        print(f"no grid point has a finite long-run variance -> {settings['out']}")
        return 0
    best = min(finite, key=lambda p: p.var_empirical)
    print(f"empirical argmin rho = {_fmt(best.rho)} "
          f"(variance {_fmt(best.var_empirical)}); "
          f"closed-form optimum rho* = {_fmt(rho_star)}")
    return 0


def cmd_kalman_check(settings: dict, args: argparse.Namespace) -> int:
    cfg = _model_config(settings)
    t_max = args.t_max
    schedule = AlphaSchedule(cfg, t_max)
    residual = abs(schedule.alpha(t_max) - alpha_infty(cfg))
    cov_worst = gain_worst = 0.0
    rows = []
    path = dense_filter_path(cfg, t_max)
    try:
        for t in range(t_max + 1):
            # taken with next() and dropped at the end of the round, so that
            # no round's matrices stay alive while the path computes the next
            cov_dense, gain_dense = next(path)
            cov_cf, gain_cf = closed_form_filter_state(schedule, t)
            cov_dev = _max_deviation(cov_dense, cov_cf)
            gain_dev = _max_deviation(gain_dense, gain_cf)
            cov_worst, gain_worst = max(cov_worst, cov_dev), max(gain_worst, gain_dev)
            rows.append((t, schedule.alpha(t), schedule.rho(t), cov_dev, gain_dev))
            del cov_dense, gain_dense
    except np.linalg.LinAlgError as exc:
        # only the dense filter's solve raises this: a valid config can
        # still be singular to LAPACK, so the check cannot pass
        return _report(filter_failure(cfg, t_max, len(rows), exc))
    _write_outputs(settings, "t,alpha,rho_star,cov_dev,gain_dev", rows)

    code = _report(filter_agreement(cfg, t_max, cov_worst, gain_worst))
    print(f"alpha_infty residual |alpha_{t_max} - alpha_inf| = {_fmt(residual)}")
    return code


def cmd_best_response(settings: dict, args: argparse.Namespace) -> int:
    cfg = _model_config(settings)
    opponents, t_max = args.opponents, args.t_max
    if opponents == "wstar":
        opp = AlphaSchedule(cfg, t_max).rhos()
    else:  # constant opponents play W(rho), whose rho _resolve checked
        opp = np.full(t_max + 1, settings["rho"])

    br = best_response(opp, cfg, t_max)
    residual = np.abs(br.responsiveness - opp)
    rows = zip(range(t_max + 1), opp, br.responsiveness, residual)
    _write_outputs(settings, "t,opp_rho,best_response,residual", rows)

    worst = residual.max()
    print(f"best response vs {opponents} opponents: max residual {_fmt(worst)} "
          f"-> {settings['out']}")
    if opponents == "wstar" or args.assert_nash:
        return _report(nash_fixed_point(worst))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochalign",
        description="Simulate and analyze noisy multi-agent alignment on the line.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, monte_carlo=False, reps=DEFAULTS["replications"]):
        """Add a subcommand with the flags every one reads.

        Only a Monte Carlo subcommand takes --rounds and --reps.
        """
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, default_reps=reps)
        p.add_argument("--config", help="flat JSON config file; flags override it")
        p.add_argument("--n", type=int, help=f"number of agents (default {DEFAULTS['n']})")
        p.add_argument("--sigma0", type=float, help="initial-position noise scale")
        p.add_argument("--sigma-m", dest="sigma_m", type=float,
                       help="measurement noise scale")
        p.add_argument("--sigma-d", dest="sigma_d", type=float, help="drift noise scale")
        if monte_carlo:
            p.add_argument("--rounds", dest="horizon", type=int,
                           help=f"number of rounds (default {DEFAULTS['horizon']})")
            p.add_argument("--reps", dest="replications", type=int,
                           help=f"replications (default {reps})")
        p.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULTS['seed']})")
        p.add_argument("--threads", type=int,
                       help="worker threads (default all cores)")
        p.add_argument("--out", help="output CSV path (default <command>.csv)")
        return p

    p = command("simulate", cmd_simulate, "run one policy and write per-round statistics",
                monte_carlo=True)
    p.add_argument("--policy", choices=POLICY_KINDS,
                   help=f"policy to run (default {DEFAULTS['policy']})")
    p.add_argument("--rho", type=float,
                   help="responsiveness for --policy weighted (default "
                        f"{DEFAULTS['rho']})")

    p = command("compare", cmd_compare, "run two policies against identical noise",
                monte_carlo=True, reps=1)
    # the first policy is the policy/rho settings, which a config file can set
    p.add_argument("--a", dest="policy", choices=POLICY_KINDS,
                   help=f"first policy (default {DEFAULTS['policy']})")
    p.add_argument("--b", default="matc", choices=POLICY_KINDS, help="second policy")
    p.add_argument("--rho-a", dest="rho", type=float,
                   help=f"responsiveness when --a weighted (default {DEFAULTS['rho']})")
    p.add_argument("--rho-b", dest="rho_b", type=float, default=DEFAULTS["rho"],
                   help="responsiveness when --b weighted")

    p = command("sweep", cmd_sweep, "steady-state variance across a rho grid",
                monte_carlo=True)
    p.add_argument("--grid-start", dest="grid_start", type=float,
                   help=f"first rho (default {DEFAULTS['grid_start']})")
    p.add_argument("--grid-stop", dest="grid_stop", type=float,
                   help=f"last rho (default {DEFAULTS['grid_stop']})")
    p.add_argument("--grid-step", dest="grid_step", type=float,
                   help=f"grid step (default {DEFAULTS['grid_step']})")

    p = command("kalman-check", cmd_kalman_check,
                "dense filter vs closed form, plus the alpha schedule")
    p.add_argument("--t-max", dest="t_max", type=int, default=100,
                   help="last round to check (default 100)")

    p = command("best-response", cmd_best_response,
                "optimal deviation against a given opponent schedule")
    p.add_argument("--opponents", choices=("wstar", "constant"), default="wstar",
                   help="opponent schedule (default wstar)")
    p.add_argument("--rho", type=float,
                   help="opponent responsiveness for --opponents constant")
    p.add_argument("--t-max", dest="t_max", type=int, default=50,
                   help="last round to check (default 50)")
    p.add_argument("--assert-nash", dest="assert_nash", action="store_true",
                   help="exit 1 unless the schedule is a best-response fixed point")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(_resolve(args), args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
