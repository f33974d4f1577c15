"""Importing trdre loads numpy and no scipy module, and starts no thread.

scipy costs several tenths of a second at import, more than a paper-scale
1-D experiment spends fitting, so only the generators that need it
(Gaussian MN samples, truncated normals) import it, on first use. A fit
starts a worker thread only for feature matrices far larger than these
runs use, and stops it before returning; concurrent.futures, which that
worker is built on, is loaded only by a fit that starts one.
estimator.fit_many forks with os alone, and multiprocessing, about 7 ms
to import, is not loaded. The outlier1d run below forks no child, since
its fits have one column each, and none is left behind. Each check runs
in a fresh interpreter, since this test process has scipy loaded
already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import os
import sys
import threading

def loaded():
    scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    pools = [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules]
    return sorted(scipy), pools, threading.active_count()

import trdre, trdre.cli, trdre.experiments
print("import", *loaded())

import numpy as np
from trdre.cli import main
from trdre.storage import write_csv

out = sys.argv[1]
rng = np.random.default_rng(0)
write_csv(out + "/xp.csv", rng.standard_normal((60, 3)) + 0.3)
write_csv(out + "/xq.csv", rng.standard_normal((70, 3)))
assert main(["fit", "--xp", out + "/xp.csv", "--xq", out + "/xq.csv", "--features", "rbf",
             "--max-iter", "50", "--out", out + "/fit"]) == 0
assert main(["experiment", "outlier1d", "--n-good", "80", "--n-out", "20", "--n-q", "100",
             "--b-grid", "3", "--out", out + "/o1"]) == 0
print("run", *loaded())
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no children left")
"""


def test_import_and_cli_runs_load_no_scipy(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [ln for ln in done.stdout.splitlines() if ln.startswith(("import ", "run "))]
    assert lines == ["import [] [] 1", "run [] [] 1"]
    assert "no children left" in done.stdout
