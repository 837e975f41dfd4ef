"""End-to-end verification suite.

Each test checks one published behavior of the package at realistic scale and
prints a single pass/fail line with the measured quantity, so a full run
doubles as a verification report (run with ``pytest -s`` to see every line).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import kdm
from kdm.bench import (
    ks_to_uniform,
    median_heuristic_rho,
    mixture_energy_study,
    null_bound_study,
    rejection_study,
)
from kdm.conditional import (
    JointDataset,
    conditional_moments,
    fit_conditional,
    split_joint_sample,
)
from kdm.estimator import (
    cross_validate,
    eval_density_ratio,
    eval_h,
    fit,
)
from kdm.kernels import KernelSpec, cross_kernel_matrix
from kdm.lowrank import pivoted_cholesky
from reference import MatrixOracle, eval_h_full, fit_full, rkhs_gap, verify_factors

SEED = 2024


def report(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    return line


def random_psd_matrix(rng, size):
    # kernel Gram or Wishart shapes with a diagonal boost that keeps the
    # condition number moderate, then a random overall scale
    kind = int(rng.integers(0, 3))
    if kind == 0:
        pts = rng.normal(0, 1, (size, int(rng.integers(1, 4))))
        k = cross_kernel_matrix(KernelSpec("gaussian", rho=float(rng.uniform(0.5, 2.0))), pts, pts)
    elif kind == 1:
        pts = rng.normal(0, 1, (size, 2))
        k = cross_kernel_matrix(KernelSpec("laplace", rho=float(rng.uniform(0.5, 2.0))), pts, pts)
    else:
        a = rng.normal(0, 1, (size, size))
        k = a @ a.T / size
    k = k + 0.5 * (np.trace(k) / size) * np.eye(size)
    return 10.0 ** rng.uniform(-2, 2) * k


def test_criterion_1_cholesky_identities():
    rng = np.random.default_rng(SEED)
    worst_exact, worst_trace, worst_eig = 0.0, 0.0, 0.0
    for _ in range(50):
        k = random_psd_matrix(rng, int(rng.integers(20, 201)))
        size = k.shape[0]
        trace = float(np.trace(k))

        complete = pivoted_cholesky(MatrixOracle(k), epsilon=0.0)
        check = verify_factors(k, complete)
        m = len(complete.pivots)
        kpp_inv = np.linalg.inv(k[np.ix_(complete.pivots, complete.pivots)])
        nystrom = k[:, complete.pivots] @ kpp_inv @ k[complete.pivots, :]
        rels = (
            check.col_identity / (1.0 + np.linalg.norm(complete.Lt.T)),
            check.biorthogonality / np.sqrt(m),
            check.pivot_inverse / (1.0 + np.linalg.norm(kpp_inv)),
            check.nystrom / (1.0 + np.linalg.norm(nystrom)),
        )
        worst_exact = max(worst_exact, *rels)

        partial = pivoted_cholesky(MatrixOracle(k), epsilon=0.01 * trace)
        pcheck = verify_factors(k, partial)
        worst_trace = max(worst_trace, pcheck.residual_trace / trace - 0.01)
        worst_eig = max(worst_eig, -pcheck.residual_min_eig / trace)
    ok = worst_exact <= 1e-8 and worst_trace <= 1e-12 and worst_eig <= 1e-8
    report(
        1,
        "cholesky identities",
        ok,
        f"worst relative identity error {worst_exact:.2e}, "
        f"trace excess {worst_trace:.2e}, min eig {-worst_eig:.2e} of trace",
    )
    assert ok


def test_criterion_2_lowrank_matches_dense_solver():
    rng = np.random.default_rng(SEED)
    worst_eval, worst_margin = 0.0, -np.inf
    for trial in range(20):
        n = int(rng.integers(60, 301))
        d = int(rng.integers(1, 4))
        p = rng.normal(0, 1, (n, d))
        q = rng.normal(0.3, 1.1, (n, d))
        lam = 10.0 ** rng.uniform(-3, 0)
        spec = KernelSpec("gaussian", rho=float(rng.uniform(0.5, 2.0)))
        full = fit_full(p, q, spec, lam)

        complete = fit(p, q, spec, lam, epsilon=0.0)
        zs = rng.normal(0, 1.2, (100, d))
        gap = np.max(np.abs(eval_h_full(full, zs) - eval_h(complete, zs)))
        worst_eval = max(worst_eval, gap / (1.0 + np.max(np.abs(eval_h_full(full, zs)))))

        eps = float(rng.choice([0.01, 0.05])) * 2 * n  # unit-diagonal kernel trace is 2n
        low = fit(p, q, spec, lam, epsilon=eps)
        bound = np.sqrt(eps) * (1.0 + np.sqrt(1.0 / lam)) * 2.0 / (lam * np.sqrt(n))
        worst_margin = max(worst_margin, rkhs_gap(full, low) - bound)
    ok = worst_eval <= 1e-6 and worst_margin <= 0.0
    report(
        2,
        "low-rank vs dense fit",
        ok,
        f"worst relative evaluation gap {worst_eval:.2e}, "
        f"worst bound margin {worst_margin:.2e}",
    )
    assert ok


def test_criterion_3_discrete_ratio_recovery():
    kernels = [KernelSpec("gaussian", rho=r) for r in (0.25, 0.5, 1.0)]
    lambdas = [1e-6, 1e-4, 1e-2, 1.0]
    g0s, g1s = [], []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        p = (rng.uniform(0, 1, 2000) < 0.5).astype(float)[:, None]
        q = (rng.uniform(0, 1, 2000) < 0.7).astype(float)[:, None]
        best = cross_validate(p, q, kernels, lambdas, folds=5, seed=seed)
        model = fit(p, q, best.kernel, best.lam)
        g0s.append(eval_density_ratio(model, np.array([0.0])))
        g1s.append(eval_density_ratio(model, np.array([1.0])))
    g0, g1 = float(np.median(g0s)), float(np.median(g1s))
    ok = abs(g0 - 0.6) <= 0.15 and abs(g1 - 1.4) <= 0.15
    report(3, "discrete ratio recovery", ok, f"median g(0) {g0:.3f} vs 0.6, g(1) {g1:.3f} vs 1.4")
    assert ok


@pytest.fixture(scope="module")
def clouds_study():
    return rejection_study("independent_clouds", 1500, 500, SEED)


def test_criterion_4_null_calibration(clouds_study):
    rate = clouds_study.rejection_rate
    ks = ks_to_uniform(clouds_study.p_values)
    ok = 0.02 <= rate <= 0.08 and ks <= 0.08
    report(4, "null calibration", ok, f"rejection rate {rate:.3f} at 5%, p-value KS {ks:.4f}")
    assert ok


def test_criterion_5_power_direction(clouds_study):
    null_rate = clouds_study.rejection_rate
    details, ok = [], True
    for dist in ("circle", "variance", "log"):
        small = rejection_study(dist, 500, 200, SEED)
        large = rejection_study(dist, 1500, 200, SEED)
        se = np.sqrt(small.mc_stderr**2 + large.mc_stderr**2)
        beats_null = large.rejection_rate >= null_rate + 0.3
        nondecreasing = large.rejection_rate >= small.rejection_rate - 2.0 * se
        ok = ok and beats_null and nondecreasing
        details.append(f"{dist} {small.rejection_rate:.2f}->{large.rejection_rate:.2f}")
    report(5, "power direction", ok, f"null {null_rate:.3f}; " + ", ".join(details))
    assert ok


def test_criterion_6_finite_sample_bound():
    holds = null_bound_study(500, 200, SEED)
    frac = float(np.mean(holds))
    ok = frac >= 0.85
    report(6, "finite-sample norm bound", ok, f"bound held in {frac:.3f} of 200 null replications")
    assert ok


def test_criterion_7_conditional_mean_oracle():
    rng = np.random.default_rng(SEED)
    n = 3000
    x = rng.standard_normal(n)
    y = 0.8 * x + 0.6 * rng.standard_normal(n)
    joint = JointDataset(x, y)
    sample_p, sample_q = split_joint_sample(joint, "shifted")
    rho = median_heuristic_rho(np.vstack([sample_p.points, sample_q.points]))
    cmodel = fit_conditional(joint, KernelSpec("gaussian", rho=rho), 1e-4, scheme="shifted", seed=0)
    grid = np.linspace(-1.0, 1.0, 21)
    moments = [conditional_moments(cmodel, np.array([xv])) for xv in grid]
    mae = float(np.mean([abs(m[0] - 0.8 * xv) for (m, _), xv in zip(moments, grid)]))
    mean_var = float(np.mean([c[0, 0] for _, c in moments]))
    ok = mae <= 0.1 and abs(mean_var - 0.36) <= 0.15
    report(7, "conditional mean oracle", ok, f"MAE {mae:.4f} vs 0.1, mean variance {mean_var:.3f} vs 0.36+-0.15")
    assert ok


def test_criterion_8_mixture_energy_direction():
    study = mixture_energy_study(100, SEED)
    med = study.median_differential
    ok = med > 0.0
    report(8, "mixture energy direction", ok, f"median differential {med:.4f} over 100 runs")
    assert ok


# The console script only calls kdm._entry:main, so run that function directly:
# a `kdm` on PATH may belong to another install than the one under test.
CLI_COMMAND = [sys.executable, "-c", "import sys; from kdm._entry import main; sys.exit(main())"]


def _child_pythonpath():
    # Put the directory holding the imported kdm package first, as an absolute
    # path, so the CLI subprocesses run this code whatever their working
    # directory and whether or not the package is installed.
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(kdm.__file__)))
    existing = os.environ.get("PYTHONPATH")
    return source_root + os.pathsep + existing if existing else source_root


def _run_cli_session(workdir, threads):
    env = dict(os.environ)
    for var in (
        "KDM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "OMP_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env.pop(var, None)
    env["KDM_THREADS"] = str(threads)
    env["PYTHONPATH"] = _child_pythonpath()
    commands = [
        ["simulate", "--dist", "mixture", "--n", "64", "--clusters", "2", "--seed", "5", "--out", "sim.csv"],
        ["fit", "--p", "sim.csv", "--p-cols", "0,1", "--q", "sim.csv", "--q-cols", "2,3",
         "--rho", "1.5", "--lambda", "1e-3", "--out", "model.kdm"],
        ["test", "--model", "model.kdm", "--eta", "0.1", "--out", "test.json"],
        ["bench", "independence", "--dist", "circle", "--n", "45", "--reps", "3", "--seed", "7",
         "--out", "bench.json"],
    ]
    stdouts = []
    for args in commands:
        proc = subprocess.run(CLI_COMMAND + args, cwd=workdir, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{args}: {proc.stderr}"
        stdouts.append(proc.stdout)
    artifacts = {
        name: open(os.path.join(workdir, name), "rb").read()
        for name in ("sim.csv", "model.kdm", "test.json", "bench.json")
    }
    return stdouts, artifacts


def test_criterion_9_byte_identical_artifacts(tmp_path):
    runs = []
    for label, threads in (("a", 1), ("b", 1), ("c", 2)):
        workdir = tmp_path / label
        workdir.mkdir()
        runs.append(_run_cli_session(str(workdir), threads))
    (out_a, art_a), (out_b, art_b), (out_c, art_c) = runs
    ok = out_a == out_b == out_c and art_a == art_b == art_c
    report(9, "deterministic artifacts", ok, "4 commands x 3 runs (thread counts 1, 1, 2) byte-identical")
    assert ok
