"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

THREADS = 2
REDUNDANCY = {"mc-dominance": 6.0, "sweep-small-blocks": 50.0, "compare-paired": 1.0,
              "closed-forms": 0.0}


def one_pass(name, tracer=None):
    workload = workloads.WORKLOADS[name](7, THREADS, tiny=True)
    if tracer is not None:
        tracer.install()
    try:
        raw = workload.run_pass(THREADS)
    finally:
        if tracer is not None:
            tracer.uninstall()
    outputs, claims = workload.finish(raw)
    return workload, outputs, claims


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced_bytes_and_counts_exact_redundancy(name, tmp_path,
                                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, plain, claims = one_pass(name)
    assert all(ok for _, ok in claims), claims
    tracer = tracer_mod.Tracer()
    workload, traced, _ = one_pass(name, tracer)
    assert traced == plain
    metrics = tracer_mod.pass_metrics(tracer.spans, THREADS,
                                      workloads.normals_per_policy(workload.noise))
    assert metrics["streams.draw_redundancy"] == REDUNDANCY[name]


def test_tracer_restores_every_original(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tracer = tracer_mod.Tracer()
    tracer.install()
    patched = tracer.patched()
    try:
        assert patched and all(getattr(owner, attr) is not original
                               for owner, attr, original in patched)
        workloads.WORKLOADS["compare-paired"](7, THREADS, tiny=True).run_pass(THREADS)
    finally:
        tracer.uninstall()
    assert tracer.patched() == []
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_corrupted_pinned_digest_counts_as_failed_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.WORKLOADS["sweep-small-blocks"](7, THREADS, tiny=True)
    raw = workload.run_pass(THREADS)
    pinned = worker.digests(workload.finish(raw)[0])

    checks = worker.Checks()
    worker.check_pass(workload, checks, raw, None, pinned)
    assert checks.attempted > 0 and checks.failures == []

    pinned["sweep.csv"] = "0" * 64
    checks = worker.Checks()
    worker.check_pass(workload, checks, raw, None, pinned)
    assert checks.failures == ["sweep.csv matches its pinned sha256"]
    assert len(checks.failures) / checks.attempted > 0


def test_traced_passes_give_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.WORKLOADS["sweep-small-blocks"](7, THREADS, tiny=True)
    tracer = tracer_mod.Tracer()
    tracer.install()
    walls = []
    try:
        for index in range(2):
            tracer.pass_index = index
            t0 = time.perf_counter()
            workload.run_pass(THREADS)
            walls.append(time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    metrics = worker.layer_metrics(tracer, len(walls), THREADS, walls, walls[0],
                                   workloads.normals_per_policy(workload.noise))
    # the remaining metrics come from the whole run, not from the spans
    from_run = {"cli.bytes_written", "trace.overhead_s", "rng_floor_s", "x_rng_floor",
                "ops_failed_frac"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) | from_run == {m["name"] for m in spec["per_layer"]}
    assert metrics["streams.draw_redundancy"] == 50.0
    assert metrics["sim.blocks"] == 50
    assert metrics["model.stretch_s"] > 0 and metrics["cli.write_s"] > 0


def checkout_copy(tmp_path):
    """A stand-alone checkout holding only the benchmark."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    return tmp_path


def test_refuses_to_run_without_sources(tmp_path):
    root = checkout_copy(tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "closed-forms",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
