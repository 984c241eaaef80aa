"""Command-line front end.

Five subcommands: simulate, compare, sweep, kalman-check, best-response;
only the first three, which run Monte Carlo, take --rounds and --reps.
Settings come from built-in defaults, then an optional flat JSON config
file (--config), then flags; later sources win.  compare's --a/--rho-a
are the policy/rho settings.  Every run writes its CSV plus a
<out>.config.json sidecar holding the resolved config keys, the thread
count and the command, but not the subcommand-only flags (compare's
--b/--rho-b, --t-max, --opponents and --assert-nash).  Every setting is
checked before any work starts, and the CSV and its sidecar are both
written or neither is.  Exit codes: 0 success / assertion
passed, 1 assertion failed (kalman-check also when its dense reference
filter fails), 2 usage, configuration, I/O or out-of-memory error.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .analysis import alpha_infty, cost_from_variance, rho_star_const, var_limit
from .game import best_response
from .kalman import AlphaSchedule, closed_form_filter_state, dense_filter_path
from .model import ModelConfig
from .policies import POLICY_KINDS, PolicySpec
from .sim import RunPlan, run, run_paired, sweep_rho

THREADS_ENV = "STOCH_ALIGN_THREADS"
KALMAN_TOL = 1e-9
NASH_TOL = 1e-12
SHIFT_TOL = 1e-12
STRETCH_EQ_TOL = 1e-9
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


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    """Fixed 17-significant-digit decimal form; round-trips doubles."""
    return f"{float(x):.17g}"


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return {key: _config_value(key, value) for key, value in data.items()}


def _config_value(key: str, value):
    """A config-file value as its setting's type.

    A bool is not a number and a string not a float; an int is taken for
    a float setting and recorded as a float.
    """
    kind = CONFIG_KEYS[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key {key!r} must be of type {kind.__name__}, "
                          f"got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:  # an integer too large for a float
        raise ConfigError(f"config key {key!r} has invalid value {value!r}") from exc


def _resolve(args: argparse.Namespace) -> dict:
    """defaults <- config file <- flags, later wins."""
    settings = dict(DEFAULTS, replications=args.default_reps,
                    out=f"{args.command.replace('-', '_')}.csv")
    if args.config is not None:
        settings.update(_load_config_file(args.config))
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    settings["threads"] = _resolve_threads(args.threads)
    settings["command"] = args.command
    out = settings["out"]
    if not os.path.basename(out) or os.path.isdir(out):
        raise ConfigError(f"output path {out!r} does not name a file")
    out_dir = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory {out_dir} does not exist")
    return settings


def _resolve_threads(flag: Optional[int]) -> int:
    if flag is None:
        env = os.environ.get(THREADS_ENV)
        try:
            flag = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
    if flag < 1:
        raise ConfigError(f"threads must be >= 1, got {flag}")
    return flag


def _model_config(settings: dict) -> ModelConfig:
    return ModelConfig(**{f.name: settings[f.name] for f in dataclasses.fields(ModelConfig)})


def _noise_scale(cfg: ModelConfig) -> float:
    """max(1, sigma0, sigma_m, sigma_d): the unit of the checks' absolute deviations."""
    return max(1.0, cfg.sigma0, cfg.sigma_m, cfg.sigma_d)


def _policy_spec(name: str, rho: float) -> PolicySpec:
    """Only the weighted kind takes rho; PolicySpec rejects an unknown kind."""
    return PolicySpec(kind=name, rho=rho if name == "weighted" else None)


def _write_outputs(settings: dict, header: str, rows) -> None:
    """Write the CSV and its <out>.config.json sidecar, or neither.

    Both are written to temp files beside their targets and moved into
    place only once both are complete, the sidecar first; if the CSV then
    cannot be moved, the new sidecar is removed again.  Only temp files
    this call created are ever removed.
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
                fh.write(",".join(row) + "\n")
        with open(tmp_sidecar, "x") as fh:
            created.append(tmp_sidecar)
            json.dump(settings, fh, indent=2, sort_keys=True)
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


def cmd_simulate(settings: dict, args: argparse.Namespace) -> int:
    cfg = _model_config(settings)
    spec = _policy_spec(settings["policy"], settings["rho"])
    plan = RunPlan(cfg=cfg, policy=spec, replications=settings["replications"],
                   threads=settings["threads"])
    if spec.kind == "weighted":
        limit = var_limit(spec.rho, cfg)
        label = f"W({_fmt(spec.rho)})"
    else:
        rho_star = rho_star_const(cfg)
        limit = var_limit(rho_star, cfg)
        label = f"{spec.kind} (limiting responsiveness {_fmt(rho_star)})"
    cost = cost_from_variance(limit)

    result = run(plan)
    rows = ([_fmt(r.round), _fmt(r.var_stretch), _fmt(r.mean_abs_stretch),
             _fmt(r.std_error)] for r in result.rounds)
    _write_outputs(settings, "round,var_stretch,mean_abs_stretch,stderr", rows)

    print(f"policy {label}: predicted limiting variance {_fmt(limit)}, "
          f"cost {_fmt(cost)}")
    print(f"final-round empirical variance {_fmt(result.rounds[-1].var_stretch)} "
          f"over {settings['replications']} replications -> {settings['out']}")
    return 0


def cmd_compare(settings: dict, args: argparse.Namespace) -> int:
    cfg = _model_config(settings)
    spec_a = _policy_spec(settings["policy"], settings["rho"])
    spec_b = _policy_spec(args.b, args.rho_b)
    plan = RunPlan(cfg=cfg, policy=spec_a, replications=settings["replications"],
                   threads=settings["threads"])

    shift_rule = None
    if (spec_a.kind, spec_b.kind) == ("wstar", "matc"):
        shift_rule = AlphaSchedule(cfg, cfg.horizon).rhos(cfg.horizon)
    paired = run_paired(plan, spec_b, shift_rule=shift_rule)

    rows = []
    for t, (com_a, com_b) in enumerate(paired.center_of_mass.T):
        shift = paired.shift_mean[t] if t < cfg.horizon else math.nan
        rows.append([_fmt(t), _fmt(com_a), _fmt(com_b),
                     _fmt(paired.max_stretch_diff[t]), _fmt(shift)])
    _write_outputs(settings, "round,com_a,com_b,max_stretch_diff,move_shift", rows)

    print(f"paired {spec_a.kind} vs {spec_b.kind}: max stretch difference "
          f"{_fmt(paired.max_stretch_diff.max())} -> {settings['out']}")
    if shift_rule is None:
        return 0
    # the two policies must be the same move up to a common per-round shift;
    # the unrecorded last round holds 0 and every value is >= 0.  Positions,
    # and with them both tolerances, grow with the noise scale
    scale = _noise_scale(cfg)
    stretch_tol, shift_tol = STRETCH_EQ_TOL * scale, SHIFT_TOL * scale
    worst_spread = paired.shift_spread.max()
    worst_rule = paired.shift_rule_dev.max()
    ok = (paired.max_stretch_diff.max() <= stretch_tol
          and worst_spread <= shift_tol and worst_rule <= shift_tol)
    print(f"shift equivalence: stretch diff <= {stretch_tol:g}, "
          f"shift spread {_fmt(worst_spread)}, rule deviation {_fmt(worst_rule)}: "
          f"{'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _rho_grid(start: float, stop: float, step: float) -> list:
    """The points round(start + i*step, 12) <= stop + 1e-9 for i = 0, 1, ...

    The points increase with i, so the walk ends at the first point past
    stop, or at one point more than MAX_GRID_POINTS: a grid that is too
    fine is rejected after that many points, however fine it is.
    """
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(f"grid start, stop and step must be finite, got {start}, {stop}, {step}")
    if step < MIN_GRID_STEP:
        raise ConfigError(f"grid_step must be >= {MIN_GRID_STEP}, got {step}")
    grid = []
    while len(grid) <= MAX_GRID_POINTS:
        point = round(start + len(grid) * step, 12)
        if point > stop + 1e-9:
            break
        grid.append(point)
    if not grid:
        raise ConfigError("empty rho grid")
    if len(grid) > MAX_GRID_POINTS:
        raise ConfigError(f"rho grid has more than {MAX_GRID_POINTS} points")
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise ConfigError(f"rho grid runs from {grid[0]} to {grid[-1]}, outside [0, 1]")
    return grid


def cmd_sweep(settings: dict, args: argparse.Namespace) -> int:
    cfg = _model_config(settings)
    grid = _rho_grid(settings["grid_start"], settings["grid_stop"], settings["grid_step"])
    rho_star = rho_star_const(cfg)
    points = sweep_rho(cfg, grid, settings["replications"], threads=settings["threads"])
    rows = []
    for p in points:
        empirical = "divergent" if math.isinf(p.var_closed_form) else _fmt(p.var_empirical)
        rows.append([_fmt(p.rho), empirical, _fmt(p.var_closed_form)])
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
    # covariances grow with the square of the noise scale; gains have no units
    cov_tol = KALMAN_TOL * _noise_scale(cfg) ** 2
    cov_worst = gain_worst = 0.0
    rows = []
    try:
        for t, (cov_dense, gain_dense) in enumerate(dense_filter_path(cfg, t_max)):
            cov_cf, gain_cf = closed_form_filter_state(cfg, t, schedule)
            cov_dev = np.abs(cov_dense - cov_cf.to_dense()).max()
            gain_dev = np.abs(gain_dense - gain_cf.to_dense()).max()
            cov_worst, gain_worst = max(cov_worst, cov_dev), max(gain_worst, gain_dev)
            rows.append([_fmt(t), _fmt(schedule.alpha(t)), _fmt(schedule.rho(t)),
                         _fmt(cov_dev), _fmt(gain_dev)])
    except np.linalg.LinAlgError as exc:
        # only the dense filter's solve raises this: a valid config can
        # still be singular to LAPACK, so the check cannot pass
        print(f"dense filter vs closed form, n={cfg.n}, t<= {t_max}: the dense "
              f"reference filter failed at round {len(rows)} ({exc}): FAIL")
        return 1
    _write_outputs(settings, "t,alpha,rho_star,cov_dev,gain_dev", rows)

    ok = cov_worst <= cov_tol and gain_worst <= KALMAN_TOL
    bound = (f"{KALMAN_TOL}" if cov_tol == KALMAN_TOL
             else f"{cov_tol:g} for covariances, {KALMAN_TOL} for gains")
    print(f"dense filter vs closed form, n={cfg.n}, t<= {t_max}: "
          f"max entrywise deviation {_fmt(max(cov_worst, gain_worst))} "
          f"({'pass' if ok else 'FAIL'} at {bound})")
    print(f"alpha_infty residual |alpha_{t_max} - alpha_inf| = {_fmt(residual)}")
    return 0 if ok else 1


def cmd_best_response(settings: dict, args: argparse.Namespace) -> int:
    cfg = _model_config(settings)
    opponents, t_max = args.opponents, args.t_max
    if opponents == "wstar":
        opp = AlphaSchedule(cfg, t_max).rhos(t_max)
    else:
        rho = settings["rho"]
        if not 0.0 <= rho <= 1.0:
            raise ConfigError(f"rho must be in [0, 1], got {rho}")
        opp = np.full(t_max + 1, rho)

    br = best_response(opp, cfg, t_max)
    residual = np.abs(br.responsiveness - opp)
    rows = ([_fmt(t), _fmt(opp[t]), _fmt(br.responsiveness[t]), _fmt(residual[t])]
            for t in range(t_max + 1))
    _write_outputs(settings, "t,opp_rho,best_response,residual", rows)

    worst = residual.max()
    print(f"best response vs {opponents} opponents: max residual {_fmt(worst)} "
          f"-> {settings['out']}")
    if opponents == "wstar" or args.assert_nash:
        ok = worst <= NASH_TOL
        print(f"nash fixed point at {NASH_TOL}: {'pass' if ok else 'FAIL'}")
        return 0 if ok else 1
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
                       help=f"worker threads (default ${THREADS_ENV} or all cores)")
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
