import json
import os
import subprocess
import sys
from pathlib import Path

import kdm

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh interpreter, so that no module another test imported counts;
# scipy is blocked, so that any import of it fails loudly, and the script
# prints, after each stage, the scipy modules loaded so far
_SCRIPT = r"""
import sys

sys.modules["scipy"] = None

import json

import numpy as np

from kdm import _entry, bench, cli, conditional, estimator, hypothesis, kernels, lowrank, metrics, simulate

loaded = {}


def stage(name):
    loaded[name] = sorted(m for m, mod in sys.modules.items() if mod is not None and m.split(".")[0] == "scipy")


def csv(path, rows):
    np.savetxt(path, rows, delimiter=",", header=",".join(f"c{j}" for j in range(rows.shape[1])), comments="")


def run(*argv):
    if cli.main(list(argv)) != 0:
        raise SystemExit(f"kdm {argv[0]} failed")


stage("import")
rng = np.random.default_rng(3)
csv("p.csv", rng.normal(0.0, 1.0, (150, 2)))
csv("q.csv", rng.normal(0.3, 1.0, (150, 2)))
run("fit", "--p", "p.csv", "--q", "q.csv", "--lambda", "1e-3", "--out", "m.kdm")
run("test", "--model", "m.kdm", "--eta", "0.1")
joint = simulate.sample_distribution("circle", 200, 4)
csv("joint.csv", np.hstack([joint.x, joint.y]))
csv("query.csv", joint.x[:5])
run("condexp", "--joint", "joint.csv", "--xcols", "0", "--ycols", "1", "--lambda", "1e-3",
    "--seed", "1", "--query", "query.csv", "--out", "moments.csv")
realized = rng.normal(0.0, 1.0, (20, 2))
pred = np.hstack([realized + 0.1, np.tile([1.0, 0.2, 0.2, 1.0], (20, 1))])
csv("realized.csv", realized)
csv("pred.csv", pred)
csv("base.csv", pred + [0.3, 0.0, 0.0, 0.0, 0.0, 0.0])
run("score", "--metric", "ds", "--pred", "pred.csv", "--baseline", "base.csv", "--realized", "realized.csv")
stage("cli")
model = estimator.fit(rng.normal(0.0, 1.0, (1500, 3)), rng.normal(0.2, 1.0, (1500, 3)),
                      kernels.KernelSpec("gaussian", rho=1.0), 1e-3, max_rank=150)
assert model.rank == 150
bench.independence_test(simulate.sample_distribution("independent_clouds", 300, 5))
bench.mixture_energy_study(1, 0, n_train=60, n_test=10, grid_cap=30, max_rank=30)
stage("library")
estimator.cross_validate(rng.normal(0.0, 1.0, (60, 2)), rng.normal(0.3, 1.0, (60, 2)),
                         [kernels.KernelSpec("gaussian")], [1e-3, 1e-2], 3, seed=0)
stage("cross_validate")
print(json.dumps(loaded))
"""


def test_no_entry_point_loads_scipy(tmp_path):
    # every command and library call starts without scipy's import cost: the
    # factorization, the ridge solves, the lambda path of cross-validation
    # and the chi-square tail run on numpy and the standard library, and the
    # fit at 1,500 + 1,500 points reaches the listed blocks of the greedy loop
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert loaded == {"import": [], "cli": [], "library": [], "cross_validate": []}


def test_every_exported_name_resolves():
    # the lazy table maps each name to its module; a stale entry fails only when read
    missing = [name for name in kdm.__all__ if not hasattr(kdm, name)]
    assert missing == []
    assert sorted(dir(kdm)) == sorted(kdm.__all__)
    for name in ("eval_kernel", "validation_loss"):  # validation-only: tests/reference.py
        assert name not in kdm.__all__ and not hasattr(kdm, name)
