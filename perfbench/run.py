"""stochalign benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each workload runs in fresh
interpreters (perfbench/worker.py) with `src` on PYTHONPATH and BLAS
threads pinned to the same cap as the engine's `--threads` (the number of
cores, at most 2).

--trace 0 prints the end-to-end metrics: the median pass wall and CPU
time, rep-rounds per second, peak RSS of the workload process, and set-up
time (the fastest of several fresh interpreters importing stochalign and
building the workload, run one at a time between the passes).  --trace 1
runs the workload untraced and then traced, for half of S each, and
prints the per-layer metrics (see perfbench/README.md).

Every pass's outputs are checked: the headline claim of each call, byte
identity across passes, and, at the pinned seed and thread count, the
sha256 digests in perfbench/pinned.json.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 when every check passed, 1 when one failed and 2 when
the benchmark could not run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = HERE / "pinned.json"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 15
DEADLINE_S = 175.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    return env


def run_worker(args, cwd, env, deadline):
    cwd.mkdir(parents=True, exist_ok=True)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=cwd,
                              env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {remaining:.0f}s: {args}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {args}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def pinned_file(seed, threads):
    """The pinned digests when this run uses the inputs they were taken at."""
    if not PINNED.exists():
        return None
    with open(PINNED) as fh:
        pinned = json.load(fh)
    if (pinned["seed"], pinned["threads"]) != (seed, threads):
        return None
    return str(PINNED)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stochalign" / "__init__.py").is_file():
        print(f"error: no stochalign sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    threads = max(1, min(2, os.cpu_count() or 1))
    env = child_env(threads)
    work = WORK / args.workload
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--threads", str(threads)]
    leg_seconds = args.seconds if args.trace == 0 else args.seconds / 2
    run_args = common + ["--mode", "run", "--seconds", str(leg_seconds)]
    pinned = pinned_file(args.seed, threads)
    if pinned:
        run_args += ["--pinned", pinned]

    try:
        probes = ["--setup-probes", str(SETUP_PROBES)] if args.trace == 0 else []
        untraced = run_worker(run_args + probes, work / "untraced", env, deadline)
        attempted, failures = untraced["attempted"], list(untraced["failures"])
        wall = statistics.median(untraced["walls"])
        if args.trace == 0:
            metrics = {
                "wall_s": wall,
                "cpu_s": statistics.median(untraced["cpus"]),
                # host load only adds time; the fastest probe is the steadiest
                "setup_s": min(untraced["setup_probes_s"]),
                "peak_rss_mb": untraced["peak_rss_mb"],
                "rep_rounds_per_s": untraced["rep_rounds"] / wall,
            }
            spec = SPEC["end_to_end"]
        else:
            traced = run_worker(run_args + ["--trace"], work / "traced", env, deadline)
            attempted += traced["attempted"]
            failures += traced["failures"]
            for name, sha in untraced["digests"].items():
                attempted += 1
                if traced["digests"].get(name) != sha:
                    failures.append(f"{name} differs between traced and untraced runs")
            metrics = dict(traced["layers"])
            floor = traced["rng_floor_s"]
            metrics["trace.overhead_s"] = statistics.median(traced["walls"]) - wall
            metrics["rng_floor_s"] = floor
            metrics["x_rng_floor"] = wall / floor if floor else 0.0
            metrics["ops_failed_frac"] = len(failures) / attempted
            spec = SPEC["per_layer"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record = {
        "setup_probes_s": untraced["setup_probes_s"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": untraced["versions"]["numpy"],
        "openblas": untraced["versions"]["openblas"],
        "thread_env": {var: env[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "pass_walls_s": untraced["walls"],
        "pass_cpus_s": untraced["cpus"],
        "digests": untraced["digests"],
        "pinned_digests_checked": pinned is not None,
        "ops_failed_frac": len(failures) / attempted,
        "failures": failures,
        "metrics": metrics,
    }
    with open(work / f"record-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for failure in failures:
        print(f"check failed: {failure}")
    print(f"perfbench {args.workload}: seed {args.seed}, {threads} threads, "
          f"{len(untraced['walls'])} passes, {attempted - len(failures)}/{attempted} checks passed; "
          f"record in {work.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
