"""One workload in one fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --threads T \
        --seconds S --mode setup|run [--setup-probes K] [--trace]

`--mode setup` imports stochalign, builds the workload (configs, run
plans, parsed command lines) and reports how long that took.  `--mode
run` then repeats passes of the workload until they have taken S
seconds (at least one pass) and checks every pass's outputs.  With
`--setup-probes K` it runs K `--mode setup` interpreters one at a time,
spread between the passes, so that the set-up probes sample the same
stretch of time as the passes.  With `--trace` it records spans, runs
one extra pass on a single thread and probes the RNG floor.  The
last line of standard output is one JSON object.  Output files go to the
current directory, which the caller chooses.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time

FLOOR_REPEATS = 3


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def digests(outputs):
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())}


def check_pass(workload, checks, raw, reference, pinned):
    """Claims plus byte identity against the first pass and the pinned digests."""
    outputs, claims = workload.finish(raw)
    for label, ok in claims:
        checks.expect(label, ok)
    observed = digests(outputs)
    for name, sha in observed.items():
        if reference is not None:
            checks.expect(f"{name} repeats byte for byte", sha == reference[name])
        if pinned is not None:
            checks.expect(f"{name} matches its pinned sha256", sha == pinned.get(name))
    return outputs, observed


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--setup-probes", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--pinned", help="JSON file of sha256 digests per workload and file")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    from workloads import WORKLOADS, normals_per_policy, rng_floor
    workload = WORKLOADS[args.workload](args.seed, args.threads)
    setup_s = time.perf_counter() - start
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    pinned = None
    if args.pinned:
        with open(args.pinned) as fh:
            pinned = json.load(fh)["digests"][args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    checks = Checks()
    walls, cpus, reference = [], [], None
    setups, probing = [], 0.0
    bytes_written = 0
    single_wall = None
    try:
        begin = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.pass_index = len(walls)
            c0, t0 = time.process_time(), time.perf_counter()
            raw = workload.run_pass(args.threads)
            t1, c1 = time.perf_counter(), time.process_time()
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            outputs, observed = check_pass(workload, checks, raw, reference, pinned)
            reference = reference or observed
            if workload.writes_files:
                bytes_written = sum(len(data) for data in outputs.values())
            measured = t1 - begin - probing
            due = min(args.setup_probes,
                      math.ceil(args.setup_probes * measured / max(args.seconds, 1e-9)))
            p0 = time.perf_counter()
            while len(setups) < due:
                setups.append(setup_probe(args))
            probing += time.perf_counter() - p0
            if measured >= args.seconds:
                break
        if tracer is not None:
            # single-thread baseline; its sidecars record threads=1, so only
            # the result files are held to the multi-thread bytes
            tracer.pass_index = -1
            t0 = time.perf_counter()
            raw = workload.run_pass(1)
            single_wall = time.perf_counter() - t0
            outputs, _ = workload.finish(raw)
            for name, sha in digests(outputs).items():
                if not name.endswith(".config.json"):
                    checks.expect(f"{name} is identical on one thread", sha == reference[name])
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "setup_probes_s": setups,
        "walls": walls,
        "cpus": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rep_rounds": workload.rep_rounds,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "digests": reference,
        "bytes_written": bytes_written,
        "versions": versions(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, len(walls), args.threads, walls,
                                         single_wall, normals_per_policy(workload.noise))
        result["layers"]["cli.bytes_written"] = bytes_written
        result["rng_floor_s"] = 0.0
        if workload.noise[0]:
            result["rng_floor_s"] = statistics.median(
                rng_floor(args.seed, workload.noise) for _ in range(FLOOR_REPEATS))
        tracer.write("spans.csv")
    print(json.dumps(result))
    return 0


def setup_probe(args):
    """Set-up seconds of one fresh interpreter, from import to built workload."""
    proc = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                           "--seed", str(args.seed), "--threads", str(args.threads),
                           "--mode", "setup"],
                          stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def versions():
    import numpy as np
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = None
    return {"numpy": np.__version__, "openblas": openblas}


def layer_metrics(tracer, passes, threads, walls, single_wall, normals):
    from tracer import call_latencies, pass_metrics
    by_pass = [[] for _ in range(passes)]
    for span in tracer.spans:
        if span[2] >= 0:
            by_pass[span[2]].append(span)
    per_pass = [pass_metrics(spans, threads, normals) for spans in by_pass]
    out = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    out.update(call_latencies([s for spans in by_pass for s in spans]))
    out["sim.thread_speedup"] = single_wall / statistics.median(walls)
    return out


if __name__ == "__main__":
    sys.exit(main())
