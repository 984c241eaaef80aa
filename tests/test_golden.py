"""Golden digests of the CLI's CSV output.

Each case runs one subcommand at a small size and a fixed seed, once on
one thread and once on two, and compares the sha256 of the CSV it writes
with a pinned value.  The engine's results are defined to be
bit-identical for any thread count, so one digest covers both.  A change
that moves any output byte fails here; a change meant to move numbers
must re-pin these values and say why.

The digests were taken with numpy 2.4.6.
"""

import hashlib

import pytest

from stochalign import sim
from stochalign.cli import THREADS_ENV, main

COMMON = ["--seed", "20210201"]

CASES = {
    # two 20k-replication blocks, so the thread count matters for scheduling
    "simulate-wstar": (
        ["simulate", "--policy", "wstar", "--n", "3", "--rounds", "12",
         "--reps", "25000"],
        "54c3213b669f9ff070998a38690204ceea445d7d63809f7bf79d9529b15c08ab"),
    "simulate-weighted": (
        ["simulate", "--policy", "weighted", "--rho", "0.35", "--n", "5",
         "--rounds", "30", "--reps", "700"],
        "ec15fb0420569e00746ca963c240856a1880b0e670be665b795209cbfcad54af"),
    "compare-wstar-matc": (
        ["compare", "--a", "wstar", "--b", "matc", "--n", "3", "--rounds", "25",
         "--reps", "1500"],
        "e071e3d588619665f09c0d72c07fd415d994a82d79800bac5c88526abaa019de"),
    "compare-weighted": (
        ["compare", "--a", "weighted", "--rho-a", "0.2", "--b", "weighted",
         "--rho-b", "0.7", "--n", "4", "--rounds", "15", "--reps", "21000"],
        "bfe82598fb1d0caae271f7dd7e84d8833c27b19f2a7e05c586c44faaea1b3551"),
    # every grid point in one lane chunk and one lane group
    "sweep-one-chunk": (
        ["sweep", "--n", "2", "--rounds", "60", "--reps", "300"],
        "61d865e214da91421cc82e45901e640a836dc2a8ad501490b27b7f874e017cb5"),
    # 8000 replications give lane groups of two grid points, 2 + 2 + 1, all
    # in one chunk at the default budget (see test_multi_chunk_sweep_...)
    "sweep-chunked": (
        ["sweep", "--n", "3", "--rounds", "40", "--reps", "8000",
         "--grid-start", "0.3", "--grid-stop", "0.7", "--grid-step", "0.1"],
        "fcf551818478301125e3907d3a514af8e0fa9c0cf892275497e77f93d68d6ca3"),
    # more replications than one block: one grid point per lane group, two
    # blocks, one chunk at the default budget
    "sweep-multi-block": (
        ["sweep", "--n", "2", "--rounds", "10", "--reps", "20001",
         "--grid-start", "0.0", "--grid-stop", "0.5", "--grid-step", "0.25"],
        "a126766e4a7eda78241a23d61b9f71ea1934c2a98cdb307be62f47715b7c75c6"),
    "kalman-check": (
        ["kalman-check", "--n", "6", "--t-max", "40"],
        "9938fbb335cd1653ef6c1c44f323f316af86951fee4701b2e995889498f0ba14"),
    "best-response-wstar": (
        ["best-response", "--opponents", "wstar", "--n", "4", "--t-max", "40"],
        "eb56372cd3306703ba5f152126327acec0760890faba2b710d2854ee22c08ae8"),
    "best-response-constant": (
        ["best-response", "--opponents", "constant", "--rho", "0.4", "--n", "3",
         "--t-max", "40"],
        "371914022958fb65f8587671d2179f91a13ff1d7120acbcc1811bb55b92b9805"),
}


def csv_digest(argv, threads, out):
    code = main(argv + COMMON + ["--threads", str(threads), "--out", str(out)])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_matches_pinned_digest(case, threads, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    argv, pinned = CASES[case]
    assert csv_digest(argv, threads, tmp_path / "out.csv") == pinned


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", ["sweep-chunked", "sweep-multi-block"])
def test_multi_chunk_sweep_matches_pinned_digest(case, threads, tmp_path, monkeypatch, capsys):
    # a budget of one cell puts every grid point in a chunk of its own;
    # how a sweep's grid is chunked must not move a byte
    monkeypatch.delenv(THREADS_ENV, raising=False)
    monkeypatch.setattr(sim, "CELL_BUDGET", 1)
    chunks = []
    accumulate = sim._accumulate

    def counting(plan, fns, *args, **kwargs):
        chunks.append(len(fns))
        return accumulate(plan, fns, *args, **kwargs)

    monkeypatch.setattr(sim, "_accumulate", counting)
    argv, pinned = CASES[case]
    assert csv_digest(argv, threads, tmp_path / "out.csv") == pinned
    assert len(chunks) >= 3 and set(chunks) == {1}
