"""Acceptance checks: every headline claim at desk scale, one summary line each.

Run `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines; plain
pytest reports the same outcomes through the test results.  The Monte Carlo
checks use fixed seeds, so outcomes are reproducible bit for bit.
"""

import math
import os
import time
from dataclasses import fields

import numpy as np

import stochalign as sa
from stochalign.checks import KALMAN_TOL, NASH_TOL, STRETCH_EQ_TOL
from stochalign.cli import main as cli_main
from stochalign.game import best_response
from stochalign.kalman import AlphaSchedule, closed_form_filter_state, dense_filter_path
from stochalign.model import ModelConfig
from stochalign.policies import PolicySpec
from stochalign.sim import RunPlan, run, run_lanes, sweep_rho

THREADS = min(4, os.cpu_count() or 1)


def _report(name, ok, detail=""):
    tail = f" — {detail}" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name} failed{tail}"


def test_limiting_variance_matches_closed_form():
    # W(rho) long-run stretch variance vs the closed form, within 2%
    cases = [  # (n, rho, sigma_m, sigma_d)
        (2, 0.5, 1.0, 1.0),
        (10, 0.3, 1.0, 2.0),
        (5, 0.8, 2.0, 1.0),
    ]
    t0 = time.time()
    worst = 0.0
    for n, rho, sm, sd in cases:
        cfg = ModelConfig(n=n, sigma0=1.0, sigma_m=sm, sigma_d=sd,
                          horizon=200, seed=1001)
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=rho),
                       replications=100_000, threads=THREADS)
        empirical = run(plan).var_stretch[-1]
        expect = sa.var_limit(rho, cfg)
        worst = max(worst, abs(empirical / expect - 1.0))
    elapsed = time.time() - t0
    _report(
        "limiting variance (3 scenarios, 1e5 replications, 200 rounds)",
        worst <= 0.02 and elapsed <= 120.0,
        f"worst relative error {worst:.2%} (tol 2%), {elapsed:.0f}s (budget 120s)",
    )


def test_sweep_recovers_optimal_responsiveness():
    grid = [round(0.02 + 0.02 * i, 12) for i in range(50)]
    details = []
    ok = True

    for n, reps, horizon in ((2, 8_000, 300), (10, 4_000, 250)):
        cfg = ModelConfig(n=n, sigma0=1.0, sigma_m=1.0, sigma_d=1.0,
                          horizon=horizon, seed=1)
        points = sweep_rho(cfg, grid, reps, threads=THREADS)
        best = min(points, key=lambda p: p.var_empirical)
        star = sa.rho_star_const(cfg)
        ok &= abs(best.rho - star) <= 0.02 + 1e-9
        details.append(f"n={n}: argmin {best.rho:.2f} vs rho* {star:.4f}")

    # the closed-form curve puts its minimum at rho* on a 1e-4 grid
    for n in (2, 10):
        cfg = ModelConfig(n=n)
        fine = np.arange(1e-4, 1.0 + 1e-9, 1e-4)
        values = [sa.var_limit(r, cfg) for r in fine]
        ok &= abs(fine[int(np.argmin(values))] - sa.rho_star_const(cfg)) <= 1e-4 + 1e-9

    # many-agent limit: rho* approaches the golden-ratio value
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    dev = abs(sa.rho_star_const(ModelConfig(n=1_000_000)) - golden)
    ok &= dev <= 1e-3
    details.append(f"large-n dev from (sqrt(5)-1)/2: {dev:.1e}")

    _report("empirical optimum of the responsiveness sweep", ok, "; ".join(details))


def test_closed_form_filter_matches_dense_filter():
    worst = 0.0
    for sigma0, sm, sd in ((1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (2.0, 1.0, 3.0)):
        for n in (2, 3, 10):
            cfg = ModelConfig(n=n, sigma0=sigma0, sigma_m=sm, sigma_d=sd)
            sched = AlphaSchedule(cfg, 100)
            for t, (cov_dense, gain_dense) in enumerate(dense_filter_path(cfg, 100)):
                cov_cf, gain_cf = closed_form_filter_state(sched, t)
                worst = max(worst, np.abs(cov_dense - cov_cf.to_dense()).max())
                worst = max(worst, np.abs(gain_dense - gain_cf.to_dense()).max())
    _report(
        "closed-form filter vs dense filter (n in {2,3,10}, t <= 100)",
        worst <= KALMAN_TOL,
        f"max entrywise deviation {worst:.2e} (tol {KALMAN_TOL:g})",
    )


def test_scheduled_and_center_seeking_policies_coincide(paired_shift):
    # the spread and the rule deviation are measured on the moves the
    # engine applies (see paired_shift)
    cfg = ModelConfig(n=3, horizon=100, seed=77)
    sched = AlphaSchedule(cfg, 100)
    plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=100)
    paired, spread, rule_dev = paired_shift(plan, PolicySpec(kind="matc"), sched.rhos())
    stretch_dev = paired.max_stretch_diff.max()
    _report(
        "scheduled vs center-seeking moves differ only by the predicted shift",
        stretch_dev <= STRETCH_EQ_TOL and spread <= 1e-12 and rule_dev <= 1e-12,
        f"stretch dev {stretch_dev:.1e} (tol {STRETCH_EQ_TOL:g}), shift spread {spread:.1e}, "
        f"rule dev {rule_dev:.1e} (tol 1e-12)",
    )


def test_uncertainty_schedule_converges_geometrically():
    ok = True
    details = []
    for n, sigma0, sm, sd in ((2, 1.0, 1.0, 1.0), (5, 2.0, 2.0, 1.0),
                              (10, 1.0, 1.0, 2.0)):
        cfg = ModelConfig(n=n, sigma0=sigma0, sigma_m=sm, sigma_d=sd)
        sched = AlphaSchedule(cfg, 200)
        limit = sa.alpha_infty(cfg)
        alpha_dev = abs(sched.alpha(200) - limit)
        rho_dev = abs(sched.rho(200) - sa.rho_star_const(cfg))
        ok &= alpha_dev <= 1e-9 and rho_dev <= 1e-9

        # per-round contraction factor bound k = a/(a + limit)
        a = cfg.sigma_m**2 * (n - 1) / n
        k = a / (a + limit)
        errs = np.abs(sched.alphas() - limit)
        for t in range(200):
            if errs[t] <= 1e-12:
                break
            ok &= errs[t + 1] <= (k + 1e-6) * errs[t]
        details.append(f"n={n}: |alpha_200-limit|={alpha_dev:.1e}, k={k:.3f}")
    _report("uncertainty schedule convergence", ok, "; ".join(details))


def test_schedule_is_best_response_fixed_point():
    worst_coeff = 0.0
    worst_var = 0.0
    for n, sigma0, sm, sd in ((2, 1.0, 1.0, 1.0), (5, 2.0, 2.0, 1.0),
                              (10, 1.0, 1.0, 2.0)):
        cfg = ModelConfig(n=n, sigma0=sigma0, sigma_m=sm, sigma_d=sd)
        sched = AlphaSchedule(cfg, 50)
        br = best_response(sched.rhos(), cfg, 50)
        worst_coeff = max(worst_coeff,
                          np.abs(br.responsiveness - sched.rhos()).max())
        worst_var = max(worst_var, np.abs(br.p_pre - sched.alphas()).max())
    _report(
        "per-round schedule is its own best response (t <= 50)",
        worst_coeff <= NASH_TOL and worst_var <= 1e-10,
        f"max coefficient gap {worst_coeff:.1e} (tol {NASH_TOL:g}), "
        f"max variance gap {worst_var:.1e} (tol 1e-10)",
    )


def test_scheduled_policy_dominates_constant_weights(dominance_margin):
    cfg = ModelConfig(n=5, sigma0=1.0, sigma_m=1.0, sigma_d=1.0,
                      horizon=200, seed=7)
    reps = 100_000
    rivals = [0.25, 0.5, 0.75, 1.0, sa.rho_star_const(cfg)]
    # one pass: wstar and every rival are lanes on the same noise
    plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=reps,
                   threads=THREADS)
    base, *others = run_lanes(plan, [PolicySpec(kind="weighted", rho=rho) for rho in rivals])
    base_abs = base.mean_abs_stretch
    # the maximal objective: each lane's worst agent, per round
    base_max = base.agent_mean_abs_stretch.max(axis=1)
    worst_margin = worst_max_margin = math.inf
    ok = True
    for result in others:
        margins = dominance_margin(base_abs, result.mean_abs_stretch, result.std_error)
        worst_margin = min(worst_margin, margins.min())
        ok &= bool(np.all(margins >= 0.0))
        mabs, se = result.agent_mean_abs_stretch, result.agent_std_error
        at = np.arange(len(mabs)), mabs.argmax(axis=1)
        max_margins = dominance_margin(base_max, mabs[at], se[at])
        worst_max_margin = min(worst_max_margin, max_margins.min())
        ok &= bool(np.all(max_margins >= 0.0))
    _report(
        "schedule dominates constant weights at every round (shared noise)",
        ok,
        f"n=5, 1e5 replications, t <= 200, rivals rho in "
        f"{{0.25, 0.5, 0.75, 1.0, rho*}}; worst margin {worst_margin:+.1e} "
        f"(mean|stretch| within 3 SE), worst agent's {worst_max_margin:+.1e} "
        "(its mean|stretch| within 3 SE)",
    )


def test_model_invariants(tmp_path, monkeypatch, capsys):
    ok = True
    details = []

    # stretches sum to zero in simulation
    cfg = ModelConfig(n=6, horizon=50, seed=31)
    result = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=0.7),
                         replications=20_000, threads=THREADS))
    zero_sum = result.max_abs_stretch_sum.max()
    ok &= zero_sum <= 1e-10
    details.append(f"stretch zero-sum {zero_sum:.1e} (tol 1e-10)")

    # the stretch distribution stays Gaussian (1e6 pooled round-30 stretches)
    cfg = ModelConfig(n=4, horizon=30, seed=404)
    result = run_lanes(RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=0.5),
                               replications=250_000, threads=THREADS), (), traces=True)[0]
    last = result.stretch_traces[-1].ravel()
    d = last - last.mean()
    m2 = np.mean(d * d)
    skew, kurt = np.mean(d**3) / m2**1.5, np.mean(d**4) / m2**2 - 3.0
    del result, last, d  # 0.3 GB of traces
    ok &= abs(skew) <= 0.02 and abs(kurt) <= 0.05
    details.append(f"skew {skew:+.3f} (tol 0.02), "
                   f"excess kurtosis {kurt:+.3f} (tol 0.05)")

    # same seed -> byte-identical CSV output
    monkeypatch.chdir(tmp_path)
    args = ["simulate", "--n", "3", "--rounds", "20", "--reps", "500",
            "--seed", "11", "--threads", "1"]
    cli_main(args + ["--out", "rep1.csv"])
    cli_main(args + ["--out", "rep2.csv"])
    capsys.readouterr()
    same_bytes = (tmp_path / "rep1.csv").read_bytes() == (tmp_path / "rep2.csv").read_bytes()
    ok &= same_bytes
    details.append(f"byte-identical reruns: {same_bytes}")

    # thread count never changes results
    def stats(threads):
        plan = RunPlan(cfg=ModelConfig(n=4, horizon=20, seed=66),
                       policy=PolicySpec(kind="wstar"), replications=10_000,
                       block_size=2_000, threads=threads)
        result = run(plan)
        return [getattr(result, f.name).tobytes() for f in fields(result)
                if getattr(result, f.name) is not None]

    invariant = stats(1) == stats(4)
    ok &= invariant
    details.append(f"4-thread == 1-thread: {invariant}")

    _report("invariant suite", ok, "; ".join(details))
