"""The benchmark's four workloads: inputs made from a seed, one job, output checks.

Every job goes through a user-facing entry point only: ``kdm.cli.main`` in
process for ``fit``, ``test`` and ``cv``, and ``kdm.bench.independence_test``
and ``kdm.bench.mixture_energy_study`` for the studies.  No inner function is
called, so a later change that restructures kdm's internals is measured
without touching this file.

Each workload makes a pool of inputs during set-up and its jobs cycle through
the pool.  A job returns a summary of its outputs; ``check`` tests invariants
that hold for any input, and the runner also compares summaries against
recorded reference values and against the first summary of the same input.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from typing import Optional

import numpy as np

# Tolerance for float outputs against reference values.  Scaling every input
# by 1 +- 2**-45 (about 150 times machine epsilon) moved test statistics by at
# most 7e-9 relative and p-values by at most 8e-10 absolute on these
# workloads, so this admits roundoff from a reordered computation with a
# margin of about 100 while still catching a changed result.
RTOL = 1e-6
ATOL = 1e-9


class JobError(RuntimeError):
    """A job that returned a nonzero exit code or raised inside kdm."""


def _sub_seeds(seed: int, stream: int, count: int) -> list[int]:
    """Integer seeds for a workload's inputs, distinct across workloads."""
    return [int(s) for s in np.random.default_rng([seed, stream]).integers(0, 2**31 - 1, count)]


def _write_csv(path: str, points: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(f"z{i + 1}" for i in range(points.shape[1])) + "\n")
        for row in points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _cli(argv: list[str]) -> dict:
    """Run one kdm command in this process and return its JSON report."""
    from kdm import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise JobError(f"kdm {argv[0]} exited with {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _test_problems(s: dict, cap: int) -> list[str]:
    problems = []
    if not 0.0 <= s["p_value"] <= 1.0:
        problems.append(f"p-value {s['p_value']} outside [0, 1]")
    if not 0 <= s["ell"] <= s["rank"] <= cap:
        problems.append(f"need ell <= rank <= cap, got {s['ell']}, {s['rank']}, {cap}")
    if not (_finite(s["statistic"]) and s["statistic"] >= 0):
        problems.append(f"statistic {s['statistic']} is not finite and nonnegative")
    return problems


class _Workload:
    """Sizes ``full`` or ``toy``; summary keys compared exactly or not at all."""

    full: dict = {}
    toy: dict = {}
    exact: tuple = ()
    unreferenced: tuple = ()

    def __init__(self, toy: bool = False):
        self.size = dict(self.toy if toy else self.full)


class RatioLarge(_Workload):
    """``kdm fit`` then ``kdm test`` on large CSVs, alternating a null and a shifted pair."""

    name = "ratio_large"
    stream = 1
    full = {"rows": 10_000, "d": 4, "rho": 2.0, "lam": 1e-3, "max_rank": 400, "shift": 0.25, "eta": 0.1}
    toy = {"rows": 300, "d": 4, "rho": 2.0, "lam": 1e-3, "max_rank": 40, "shift": 0.25, "eta": 0.1}
    exact = ("rank", "ell", "hit_rank_cap")
    # a new bundle format or a corrected norm bound is not a wrong result
    unreferenced = ("bundle_bytes", "norm_bound")

    def setup(self, seed: int, workdir: str) -> list:
        sz = self.size
        rng = np.random.default_rng(_sub_seeds(seed, self.stream, 1)[0])
        shape = (sz["rows"], sz["d"])
        p = rng.standard_normal(shape)
        q_null = rng.standard_normal(shape)
        q_shift = rng.standard_normal(shape)
        q_shift[:, 0] += sz["shift"]
        paths = {}
        for label, pts in (("p", p), ("q_null", q_null), ("q_shift", q_shift)):
            paths[label] = os.path.join(workdir, f"{label}.csv")
            _write_csv(paths[label], pts)
        bundle = os.path.join(workdir, "model.kdm")
        return [(paths["p"], paths["q_null"], bundle), (paths["p"], paths["q_shift"], bundle)]

    def run(self, item) -> dict:
        p, q, bundle = item
        sz = self.size
        fitted = _cli([
            "fit", "--p", p, "--q", q, "--rho", repr(sz["rho"]), "--lambda", repr(sz["lam"]),
            "--max-rank", str(sz["max_rank"]), "--out", bundle, "--force",
        ])
        tested = _cli(["test", "--model", bundle, "--eta", repr(sz["eta"])])
        return {
            "rank": fitted["rank"],
            "hit_rank_cap": fitted["hit_rank_cap"],
            "residual_trace": fitted["residual_trace"],
            "h_norm": fitted["h_norm"],
            "test_rank": tested["rank"],
            "ell": tested["ell"],
            "statistic": tested["statistic"],
            "p_value": tested["p_value"],
            "test_h_norm": tested["h_norm"],
            "norm_bound": tested["norm_bound"],
            "bundle_bytes": os.path.getsize(bundle),
        }

    def check(self, s: dict) -> list[str]:
        problems = _test_problems(s, self.size["max_rank"])
        if s["test_rank"] != s["rank"]:
            problems.append(f"test read rank {s['test_rank']}, fit wrote {s['rank']}")
        if not (_finite(s["h_norm"], s["residual_trace"], s["norm_bound"]) and s["residual_trace"] >= 0):
            problems.append("fit reported a non-finite norm, bound or residual trace")
        if s["bundle_bytes"] <= 0:
            problems.append("empty model bundle")
        return problems


class IndependenceReps(_Workload):
    """``bench.independence_test`` on three_split joints, alternating an independent and a dependent law."""

    name = "independence_reps"
    stream = 2
    # max_rank is the library default, named here for the rank check only
    full = {"n": 1500, "per_law": 32, "max_rank": 256}
    toy = {"n": 100, "per_law": 2, "max_rank": 256}
    laws = ("independent_clouds", "circle")
    exact = ("rank", "ell")

    def setup(self, seed: int, workdir: str) -> list:
        from kdm.simulate import sample_distribution

        per_law = self.size["per_law"]
        seeds = _sub_seeds(seed, self.stream, 2 * per_law)
        return [
            sample_distribution(self.laws[i % 2], 3 * self.size["n"], s)
            for i, s in enumerate(seeds)
        ]

    def run(self, joint) -> dict:
        from kdm import bench

        res = bench.independence_test(joint)
        return {"rank": res.rank, "ell": res.ell, "statistic": res.statistic, "p_value": res.p_value}

    def check(self, s: dict) -> list[str]:
        return _test_problems(s, self.size["max_rank"])


class MixtureForecast(_Workload):
    """``bench.mixture_energy_study`` with one run per job, over a pool of study seeds."""

    name = "mixture_forecast"
    stream = 3
    full = {"pool": 8, "study": {}}
    toy = {"pool": 2, "study": {"n_train": 60, "n_test": 10, "grid_cap": 30, "max_rank": 30}}
    exact = ("clusters",)

    def setup(self, seed: int, workdir: str) -> list:
        return _sub_seeds(seed, self.stream, self.size["pool"])

    def run(self, study_seed: int) -> dict:
        from kdm import bench

        study = bench.mixture_energy_study(1, study_seed, **self.size["study"])
        return {"differential": float(study.differentials[0]), "clusters": int(study.clusters[0])}

    def check(self, s: dict) -> list[str]:
        return [] if _finite(s["differential"]) else [f"differential {s['differential']} is not finite"]


class CvLambdaPath(_Workload):
    """``kdm cv`` over one length scale and a dense lambda path."""

    name = "cv_lambda_path"
    stream = 4
    full = {"rows": 3000, "d": 4, "rho": 2.0, "lambdas": 25, "folds": 5, "max_rank": 400, "shift": 0.25}
    toy = {"rows": 300, "d": 4, "rho": 2.0, "lambdas": 5, "folds": 3, "max_rank": 40, "shift": 0.25}
    exact = ("rho", "lambda")

    def __init__(self, toy: bool = False):
        super().__init__(toy)
        self.lambdas = [float(v) for v in np.logspace(-6.0, 0.0, self.size["lambdas"])]

    def setup(self, seed: int, workdir: str) -> list:
        sz = self.size
        data_seed, fold_seed = _sub_seeds(seed, self.stream, 2)
        rng = np.random.default_rng(data_seed)
        p = rng.standard_normal((sz["rows"], sz["d"]))
        q = rng.standard_normal((sz["rows"], sz["d"]))
        q[:, 0] += sz["shift"]
        p_path, q_path = os.path.join(workdir, "cv_p.csv"), os.path.join(workdir, "cv_q.csv")
        _write_csv(p_path, p)
        _write_csv(q_path, q)
        return [(p_path, q_path, fold_seed)]

    def run(self, item) -> dict:
        p, q, fold_seed = item
        sz = self.size
        out = _cli([
            "cv", "--p", p, "--q", q, "--rhos", repr(sz["rho"]),
            "--lambdas", ",".join(repr(v) for v in self.lambdas), "--folds", str(sz["folds"]),
            "--max-rank", str(sz["max_rank"]), "--seed", str(fold_seed),
        ])
        return {"rho": out["kernel"]["rho"], "lambda": out["lambda"], "mean_losses": out["mean_losses"]}

    def check(self, s: dict) -> list[str]:
        losses = s["mean_losses"]
        problems = []
        if len(losses) != len(self.lambdas) or not _finite(*losses):
            problems.append("cv losses are missing or not finite")
        elif s["lambda"] != self.lambdas[int(np.argmin(losses))]:
            problems.append(f"chosen lambda {s['lambda']} is not the first minimizer of the losses")
        if s["rho"] != self.size["rho"]:
            problems.append(f"chosen rho {s['rho']} is not on the grid")
        return problems


WORKLOADS = {w.name: w for w in (RatioLarge, IndependenceReps, MixtureForecast, CvLambdaPath)}


def compare(workload, got: dict, want: dict) -> list[str]:
    """Differences of a summary from its reference: exact keys, floats to RTOL/ATOL."""
    problems = []
    for key, ref in want.items():
        val = got.get(key)
        if key in workload.exact or not isinstance(ref, (float, list)):
            if val != ref:
                problems.append(f"{key}: got {val!r}, reference {ref!r}")
            continue
        pairs = zip(val, ref) if isinstance(ref, list) and len(val) == len(ref) else [(val, ref)]
        for a, b in pairs:
            if not (isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)):
                problems.append(f"{key}: got {val!r}, reference {ref!r} (rtol {RTOL}, atol {ATOL})")
                break
    return problems


class Checker:
    """Output checks of one run: invariants, references, and repeatability per input."""

    def __init__(self, workload, references: Optional[list]):
        self.workload = workload
        self.references = references
        self.first: dict[int, dict] = {}
        self.problems: list[str] = []

    def check(self, index: int, summary: dict) -> bool:
        found = list(self.workload.check(summary))
        if self.references is not None:
            if index < len(self.references):
                found += compare(self.workload, summary, self.references[index])
            else:
                found.append("no reference recorded for this input")
        if index not in self.first:
            self.first[index] = summary
        elif summary != self.first[index]:
            found.append(f"gave {summary}, earlier {self.first[index]}")
        if len(self.problems) < 20:
            self.problems += [f"input {index}: {p}" for p in found]
        return not found
