"""What importing the package and running its commands loads.

The closed forms (kalman-check, best-response) do not need numpy's
random stack; only the Monte Carlo engine loads it, on first use.  No
command loads concurrent.futures: the engine runs its blocks on plain
threads.  Each check runs in a fresh interpreter, since this one may
have loaded both already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import stochalign

SRC = str(Path(stochalign.__file__).resolve().parent.parent)
WATCHED = ("numpy.random", "concurrent.futures")

SCRIPT = """
import json, sys
import stochalign, stochalign.cli
codes = [stochalign.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "loaded": [m for m in %r if m in sys.modules]}))
""" % (WATCHED,)


def loaded_after(tmp_path, *commands):
    """The exit codes of the commands, run in-process in a fresh
    interpreter, and which of WATCHED it has loaded after them."""
    argvs = [[*command, "--out", str(tmp_path / f"{i}.csv")]
             for i, command in enumerate(commands)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)], env=env,
                          cwd=tmp_path, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=120)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["codes"], result["loaded"]


def test_import_and_closed_forms_load_no_random_stack_and_no_pool(tmp_path):
    codes, loaded = loaded_after(
        tmp_path,
        ["kalman-check", "--n", "4", "--t-max", "5", "--threads", "2"],
        ["best-response", "--t-max", "5", "--threads", "2"])
    assert codes == [0, 0]
    assert loaded == []


def test_two_block_simulation_on_two_threads_loads_only_the_random_stack(tmp_path):
    # the default block holds 20,000 replications
    codes, loaded = loaded_after(
        tmp_path,
        ["simulate", "--n", "2", "--rounds", "1", "--reps", "20001", "--threads", "2"])
    assert codes == [0]
    assert loaded == ["numpy.random"]
