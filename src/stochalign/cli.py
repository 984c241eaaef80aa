"""Command-line front end.

Five subcommands: simulate, compare, sweep, kalman-check, best-response.
Settings come from built-in defaults, then an optional flat JSON config
file (--config), then flags; later sources win.  Every run writes its CSV
plus a <out>.config.json sidecar holding the fully resolved settings.
Every setting is checked before any work starts, and the CSV and its
sidecar are both written or neither is.  Exit codes: 0 success /
assertion passed, 1 assertion failed, 2 usage, configuration or I/O error.
"""

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .analysis import alpha_infty, cost_from_variance, rho_star_const, var_limit
from .game import best_response
from .kalman import AlphaSchedule, closed_form_filter_state, dense_filter_path
from .model import ModelConfig, require_int
from .policies import PolicySpec
from .sim import RunPlan, run, run_paired, sweep_rho

THREADS_ENV = "STOCH_ALIGN_THREADS"
KALMAN_TOL = 1e-9
NASH_TOL = 1e-12
SHIFT_TOL = 1e-12
STRETCH_EQ_TOL = 1e-9
MAX_GRID_POINTS = 10_000  # every point is a simulated policy lane
MIN_GRID_STEP = 1e-12  # grid points are rounded to 12 decimals

# keys accepted in a JSON config file, with their coercions
CONFIG_KEYS = {
    "n": int,
    "sigma0": float,
    "sigma_m": float,
    "sigma_d": float,
    "horizon": int,
    "replications": int,
    "seed": int,
    "policy": str,
    "rho": float,
    "grid_start": float,
    "grid_stop": float,
    "grid_step": float,
    "out": str,
}

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

CLI_POLICIES = ("weighted", "wstar", "matc")


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
    out = {}
    for key, value in data.items():
        try:
            if CONFIG_KEYS[key] is int:
                require_int(key, value)  # int() would truncate 2.5 to 2
            out[key] = CONFIG_KEYS[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r} has invalid value {value!r}") from exc
    return out


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """defaults <- config file <- flags, later wins."""
    settings = dict(DEFAULTS)
    settings["out"] = f"{command.replace('-', '_')}.csv"
    if command == "compare":
        settings["replications"] = 1
    if args.config is not None:
        settings.update(_load_config_file(args.config))
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    settings["threads"] = _resolve_threads(getattr(args, "threads", None))
    settings["command"] = command
    out_dir = os.path.dirname(os.path.abspath(settings["out"]))
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory {out_dir} does not exist")
    return settings


def _resolve_threads(flag: Optional[int]) -> int:
    if flag is None:
        env = os.environ.get(THREADS_ENV)
        flag = int(env) if env else (os.cpu_count() or 1)
    if flag < 1:
        raise ConfigError(f"threads must be >= 1, got {flag}")
    return flag


def _model_config(settings: dict) -> ModelConfig:
    return ModelConfig(
        n=settings["n"],
        sigma0=settings["sigma0"],
        sigma_m=settings["sigma_m"],
        sigma_d=settings["sigma_d"],
        horizon=settings["horizon"],
        seed=settings["seed"],
    )


def _policy_spec(name: str, rho: float) -> PolicySpec:
    if name not in CLI_POLICIES:
        raise ConfigError(f"unknown policy {name!r}; choose from {', '.join(CLI_POLICIES)}")
    if name == "weighted":
        return PolicySpec(kind="weighted", rho=rho)
    return PolicySpec(kind=name)


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


def cmd_simulate(settings: dict) -> int:
    cfg = _model_config(settings)
    spec = _policy_spec(settings["policy"], settings["rho"])
    plan = RunPlan(cfg=cfg, policy=spec, replications=settings["replications"],
                   threads=settings["threads"])
    result = run(plan)
    rows = ([_fmt(r.round), _fmt(r.var_stretch), _fmt(r.mean_abs_stretch),
             _fmt(r.std_error)] for r in result)
    _write_outputs(settings, "round,var_stretch,mean_abs_stretch,stderr", rows)

    if spec.kind == "weighted":
        limit = var_limit(spec.rho, cfg)
        label = f"W({_fmt(spec.rho)})"
    else:
        limit = var_limit(rho_star_const(cfg), cfg)
        label = f"{spec.kind} (limiting responsiveness {_fmt(rho_star_const(cfg))})"
    print(f"policy {label}: predicted limiting variance {_fmt(limit)}, "
          f"cost {_fmt(cost_from_variance(limit))}")
    print(f"final-round empirical variance {_fmt(result[-1].var_stretch)} "
          f"over {settings['replications']} replications -> {settings['out']}")
    return 0


def cmd_compare(settings: dict, a: str, b: str, rho_a: float, rho_b: float) -> int:
    cfg = _model_config(settings)
    spec_a = _policy_spec(a, rho_a)
    spec_b = _policy_spec(b, rho_b)
    plan = RunPlan(cfg=cfg, policy=spec_a, replications=settings["replications"],
                   threads=settings["threads"], record_com=True)

    shift_rule = None
    if (spec_a.kind, spec_b.kind) == ("wstar", "matc"):
        shift_rule = AlphaSchedule(cfg, cfg.horizon).rhos(cfg.horizon)
    paired = run_paired(plan, spec_b, shift_rule=shift_rule)

    rows = []
    for t, (sa, sb) in enumerate(zip(paired.a, paired.b)):
        shift = paired.shift_mean[t] if t < cfg.horizon else math.nan
        rows.append([_fmt(t), _fmt(sa.center_of_mass), _fmt(sb.center_of_mass),
                     _fmt(paired.max_stretch_diff[t]), _fmt(shift)])
    _write_outputs(settings, "round,com_a,com_b,max_stretch_diff,move_shift", rows)

    print(f"paired {a} vs {b}: max stretch difference "
          f"{_fmt(paired.max_stretch_diff.max())} -> {settings['out']}")
    if shift_rule is None:
        return 0
    # the two policies must be the same move up to a common per-round shift
    rounds = cfg.horizon
    worst_spread = paired.shift_spread[:rounds].max() if rounds else 0.0
    worst_rule = paired.shift_rule_dev[:rounds].max() if rounds else 0.0
    ok = (paired.max_stretch_diff.max() <= STRETCH_EQ_TOL
          and worst_spread <= SHIFT_TOL and worst_rule <= SHIFT_TOL)
    print(f"shift equivalence: stretch diff <= {STRETCH_EQ_TOL}, "
          f"shift spread {_fmt(worst_spread)}, rule deviation {_fmt(worst_rule)}: "
          f"{'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _rho_grid(start: float, stop: float, step: float) -> list:
    """The points round(start + i*step, 12) <= stop + 1e-9 for i = 0, 1, ...

    The point count is found from start, stop and step before the list is
    built, so a grid that is too fine is rejected without building it.
    """
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(f"grid start, stop and step must be finite, got {start}, {stop}, {step}")
    if step < MIN_GRID_STEP:
        raise ConfigError(f"grid_step must be >= {MIN_GRID_STEP}, got {step}")

    def point(i):
        return round(start + i * step, 12)

    def inside(i):
        return point(i) <= stop + 1e-9

    # the points increase with i, so the grid is i = 0..last: move an
    # estimate of last, capped one past the limit, onto the exact value
    last = math.floor(min(max((stop + 1e-9 - start) / step, -1.0), MAX_GRID_POINTS))
    while last >= 0 and not inside(last):
        last -= 1
    while last < MAX_GRID_POINTS and inside(last + 1):
        last += 1
    if last < 0:
        raise ConfigError("empty rho grid")
    if last >= MAX_GRID_POINTS:
        raise ConfigError(f"rho grid has more than {MAX_GRID_POINTS} points")
    if point(0) < 0.0 or point(last) > 1.0:
        raise ConfigError(f"rho grid runs from {point(0)} to {point(last)}, outside [0, 1]")
    return [point(i) for i in range(last + 1)]


def cmd_sweep(settings: dict) -> int:
    cfg = _model_config(settings)
    grid = _rho_grid(settings["grid_start"], settings["grid_stop"], settings["grid_step"])
    points = sweep_rho(cfg, grid, settings["replications"], threads=settings["threads"])
    rows = []
    for p in points:
        empirical = "divergent" if math.isinf(p.var_closed_form) else _fmt(p.var_empirical)
        rows.append([_fmt(p.rho), empirical, _fmt(p.var_closed_form)])
    _write_outputs(settings, "rho,var_empirical,var_closed_form", rows)

    finite = [p for p in points if not math.isinf(p.var_closed_form)]
    if finite:
        best = min(finite, key=lambda p: p.var_empirical)
        print(f"empirical argmin rho = {_fmt(best.rho)} "
              f"(variance {_fmt(best.var_empirical)}); "
              f"closed-form optimum rho* = {_fmt(rho_star_const(cfg))}")
    return 0


def cmd_kalman_check(settings: dict, t_max: int) -> int:
    cfg = _model_config(settings)
    schedule = AlphaSchedule(cfg, t_max)
    worst = 0.0
    rows = []
    for t, (cov_dense, gain_dense) in enumerate(dense_filter_path(cfg, t_max)):
        cov_cf, gain_cf = closed_form_filter_state(cfg, t, schedule)
        cov_dev = np.abs(cov_dense - cov_cf.to_dense()).max()
        gain_dev = np.abs(gain_dense - gain_cf.to_dense()).max()
        worst = max(worst, cov_dev, gain_dev)
        rows.append([_fmt(t), _fmt(schedule.alpha(t)), _fmt(schedule.rho(t)),
                     _fmt(cov_dev), _fmt(gain_dev)])
    _write_outputs(settings, "t,alpha,rho_star,cov_dev,gain_dev", rows)

    residual = abs(schedule.alpha(t_max) - alpha_infty(cfg))
    ok = worst <= KALMAN_TOL
    print(f"dense filter vs closed form, n={cfg.n}, t<= {t_max}: "
          f"max entrywise deviation {_fmt(worst)} "
          f"({'pass' if ok else 'FAIL'} at {KALMAN_TOL})")
    print(f"alpha_infty residual |alpha_{t_max} - alpha_inf| = {_fmt(residual)}")
    return 0 if ok else 1


def cmd_best_response(settings: dict, opponents: str, t_max: int,
                      assert_nash: bool) -> int:
    cfg = _model_config(settings)
    if opponents == "wstar":
        opp = AlphaSchedule(cfg, t_max).rhos(t_max)
    elif opponents == "constant":
        rho = settings["rho"]
        if not 0.0 <= rho <= 1.0:
            raise ConfigError(f"rho must be in [0, 1], got {rho}")
        opp = np.full(t_max + 1, rho)
    else:
        raise ConfigError(f"unknown opponents {opponents!r}; choose wstar or constant")

    br = best_response(opp, cfg, t_max)
    residual = np.abs(br.responsiveness - opp)
    rows = ([_fmt(t), _fmt(opp[t]), _fmt(br.responsiveness[t]), _fmt(residual[t])]
            for t in range(t_max + 1))
    _write_outputs(settings, "t,opp_rho,best_response,residual", rows)

    worst = residual.max()
    print(f"best response vs {opponents} opponents: max residual {_fmt(worst)} "
          f"-> {settings['out']}")
    if opponents == "wstar" or assert_nash:
        ok = worst <= NASH_TOL
        print(f"nash fixed point at {NASH_TOL}: {'pass' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochalign",
        description="Simulate and analyze noisy multi-agent alignment on the line.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, reps_default_doc):
        p.add_argument("--config", help="flat JSON config file; flags override it")
        p.add_argument("--n", type=int, help=f"number of agents (default {DEFAULTS['n']})")
        p.add_argument("--sigma0", type=float, help="initial-position noise scale")
        p.add_argument("--sigma-m", dest="sigma_m", type=float,
                       help="measurement noise scale")
        p.add_argument("--sigma-d", dest="sigma_d", type=float, help="drift noise scale")
        p.add_argument("--rounds", dest="horizon", type=int,
                       help=f"number of rounds (default {DEFAULTS['horizon']})")
        p.add_argument("--reps", dest="replications", type=int,
                       help=f"replications (default {reps_default_doc})")
        p.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULTS['seed']})")
        p.add_argument("--threads", type=int,
                       help=f"worker threads (default ${THREADS_ENV} or all cores)")
        p.add_argument("--out", help="output CSV path (default <command>.csv)")

    p = sub.add_parser("simulate", help="run one policy and write per-round statistics")
    add_common(p, DEFAULTS["replications"])
    p.add_argument("--policy", choices=CLI_POLICIES,
                   help=f"policy to run (default {DEFAULTS['policy']})")
    p.add_argument("--rho", type=float,
                   help="responsiveness for --policy weighted (default "
                        f"{DEFAULTS['rho']})")

    p = sub.add_parser("compare", help="run two policies against identical noise")
    add_common(p, 1)
    p.add_argument("--a", default="wstar", choices=CLI_POLICIES, help="first policy")
    p.add_argument("--b", default="matc", choices=CLI_POLICIES, help="second policy")
    p.add_argument("--rho-a", dest="rho_a", type=float, default=DEFAULTS["rho"],
                   help="responsiveness when --a weighted")
    p.add_argument("--rho-b", dest="rho_b", type=float, default=DEFAULTS["rho"],
                   help="responsiveness when --b weighted")

    p = sub.add_parser("sweep", help="steady-state variance across a rho grid")
    add_common(p, DEFAULTS["replications"])
    p.add_argument("--grid-start", dest="grid_start", type=float,
                   help=f"first rho (default {DEFAULTS['grid_start']})")
    p.add_argument("--grid-stop", dest="grid_stop", type=float,
                   help=f"last rho (default {DEFAULTS['grid_stop']})")
    p.add_argument("--grid-step", dest="grid_step", type=float,
                   help=f"grid step (default {DEFAULTS['grid_step']})")

    p = sub.add_parser("kalman-check",
                       help="dense filter vs closed form, plus the alpha schedule")
    add_common(p, "unused")
    p.add_argument("--t-max", dest="t_max", type=int, default=100,
                   help="last round to check (default 100)")

    p = sub.add_parser("best-response",
                       help="optimal deviation against a given opponent schedule")
    add_common(p, "unused")
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
        settings = _resolve(args, args.command)
        if args.command == "simulate":
            return cmd_simulate(settings)
        if args.command == "compare":
            return cmd_compare(settings, args.a, args.b, args.rho_a, args.rho_b)
        if args.command == "sweep":
            return cmd_sweep(settings)
        if args.command == "kalman-check":
            return cmd_kalman_check(settings, args.t_max)
        return cmd_best_response(settings, args.opponents, args.t_max, args.assert_nash)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
