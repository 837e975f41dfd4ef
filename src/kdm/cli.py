"""Command-line interface.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure.  Every
output artifact (CSV, model bundle, JSON) is written deterministically: fixed
field order, shortest round-trip float formatting, no timestamps.  Wall-clock
timing goes to stderr only, so reruns of a seeded command produce identical
bytes.  The KDM_THREADS environment variable caps the BLAS thread pools when
the tool starts (see the console entry point); computations are sequential,
so results do not depend on it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import time
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .bench import (
    ks_to_uniform,
    median_heuristic_rho,
    mixture_energy_study,
    rejection_study,
)
from .conditional import JointDataset, conditional_moments, fit_conditional
from .estimator import (
    PriorSpec,
    cross_validate,
    fit,
    grid_product,
    h_norm,
    load_model,
    save_model,
)
from .hypothesis import run_test
from .kernels import Dataset, KernelSpec
from .lowrank import NumericsError
from .metrics import (
    ForecastRecord,
    energy_score_differential,
    excess_scoring_loss,
    r2_oos,
    r2_second_moment,
)
from .simulate import DISTRIBUTIONS, MixtureConfig, sample_distribution, sample_gaussian_mixture


class UsageError(Exception):
    """Bad flags or malformed input files; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through exit code 1
        raise UsageError(message)


ColumnSelection = Union[None, Sequence[int], Sequence[str]]


def parse_columns(text: Optional[str]) -> ColumnSelection:
    """Parse a --cols style selector: "2..5" (inclusive), "0,3", or "a,b"."""
    if text is None:
        return None
    rng = re.fullmatch(r"(\d+)\.\.(\d+)", text.strip())
    if rng:
        lo, hi = int(rng.group(1)), int(rng.group(2))
        if hi < lo:
            raise UsageError(f"empty column range {text!r}")
        return list(range(lo, hi + 1))
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise UsageError(f"empty column selection {text!r}")
    if all(re.fullmatch(r"\d+", p) for p in parts):
        return [int(p) for p in parts]
    return parts


def ingest_csv(path: str, columns: ColumnSelection = None) -> Dataset:
    """Read a headered CSV into a Dataset, rejecting non-numeric cells.

    ``columns`` selects by index or by header name; omitted keeps all
    columns.  Errors name the first offending 1-based data row and the
    column: a row with more fields than the header, one without a selected
    field, or a cell that is not a finite number.  A blank first row, or one
    of finite numbers only, is rejected: it names no columns.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise UsageError(f"{path}: empty file")
            header = [h.strip() for h in header]
            if header in ([], [""]):
                raise UsageError(f"{path}: row 1 is empty, but row 1 must name the columns")
            if all(_is_finite_number(h) for h in header):
                raise UsageError(f"{path}: row 1 holds only numbers, but row 1 must name the columns")
            if columns is None:
                idx = list(range(len(header)))
            elif all(isinstance(c, int) for c in columns):
                idx = list(columns)
                for i in idx:
                    if i < 0 or i >= len(header):
                        raise UsageError(f"{path}: column index {i} out of range (file has {len(header)})")
            else:
                idx = []
                for name in columns:
                    if name not in header:
                        raise UsageError(f"{path}: no column named {name!r}")
                    idx.append(header.index(name))
            rows = list(reader)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    if not rows:
        raise UsageError(f"{path}: no data rows")
    # convert in bulk (numpy parses each str with float(), so the grammar is
    # Python's).  When every column is selected the rows go in as they are,
    # and numpy rejects rows of unequal length; otherwise one pass over the
    # row lengths finds a row longer than the header.  Only when a check
    # fails is the offending row looked for
    every = idx == list(range(len(header)))
    try:
        data = np.array(rows if every else [[row[i] for i in idx] for row in rows], dtype=np.float64)
    except (IndexError, ValueError):
        data = None
    if (
        data is None
        or data.shape[1] != len(idx)
        or (not every and max(map(len, rows)) > len(header))
        or not np.all(np.isfinite(data))
    ):
        _raise_first_bad_row(path, header, idx, rows)
    return Dataset(data)


def _is_finite_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _raise_first_bad_row(path: str, header: Sequence[str], idx: Sequence[int], rows) -> None:
    for rownum, row in enumerate(rows, start=1):
        if len(row) > len(header):
            raise UsageError(f"{path}: row {rownum} has {len(row)} fields, but the header names {len(header)}")
        for i in idx:
            if i >= len(row):
                raise UsageError(f"{path}: row {rownum} has only {len(row)} fields")
            cell = row[i].strip()
            try:
                v = float(cell)
            except ValueError:
                raise UsageError(f"{path}: cannot parse {cell!r} at row {rownum}, column {header[i]!r}")
            if not np.isfinite(v):
                raise UsageError(f"{path}: non-finite value {cell!r} at row {rownum}, column {header[i]!r}")
    raise AssertionError(f"{path}: bulk conversion failed but every row and cell is valid")


def _fmt(v) -> str:
    return repr(float(v))


def _check_out(path: str, force: bool) -> None:
    """Reject an output path before any work: an existing file without --force, or a missing directory."""
    if os.path.exists(path) and not force:
        raise UsageError(f"refusing to overwrite {path} (pass --force)")
    directory = os.path.dirname(path)
    if directory and not os.path.isdir(directory):
        raise UsageError(f"cannot write {path}: directory {directory} does not exist")


def _write_csv(path: str, header: Sequence[str], rows: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.atleast_2d(rows):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _kernel_from_args(args) -> KernelSpec:
    if args.kernel == "polynomial":
        return KernelSpec("polynomial", c=args.c, q=args.degree)
    return KernelSpec(args.kernel, rho=args.rho)


def _prior_from_args(args) -> PriorSpec:
    return PriorSpec.one() if args.prior == "one" else PriorSpec.zero()


def _size_cap(text: str) -> int:
    """argparse type of the size caps: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _add_kernel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", choices=["gaussian", "laplace", "polynomial"], default="gaussian")
    p.add_argument("--rho", type=float, default=1.0, help="gaussian/laplace length-scale parameter")
    p.add_argument("--c", type=float, default=1.0, help="polynomial offset")
    p.add_argument("--degree", type=int, default=2, help="polynomial degree")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="ridge parameter > 0")
    p.add_argument("--epsilon", type=float, default=None, help="absolute decomposition tolerance")
    p.add_argument("--epsilon-rel", type=float, default=1e-6, help="tolerance relative to the kernel trace")
    p.add_argument("--prior", choices=["one", "zero"], default="one")
    p.add_argument("--max-rank", type=_size_cap, default=None)
    p.add_argument("--standardize", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="kdm", description="kernel density machines")
    parser.add_argument("--version", action="version", version=f"kdm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a synthetic joint sample to CSV")
    p.add_argument("--dist", required=True, choices=list(DISTRIBUTIONS) + ["mixture"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, default=None, help="dependence strength (distribution default if omitted)")
    p.add_argument("--clusters", type=int, default=2, help="mixture only")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("fit", help="fit the density-ratio model from two CSV samples")
    p.add_argument("--p", required=True, help="denominator sample CSV")
    p.add_argument("--q", required=True, help="numerator sample CSV")
    p.add_argument("--p-cols", default=None)
    p.add_argument("--q-cols", default=None)
    _add_kernel_flags(p)
    _add_fit_flags(p)
    p.add_argument("--strategy", choices=["greedy", "omp"], default="greedy")
    p.add_argument("--omp-target", default=None, help="CSV with one target value per stacked point")
    p.add_argument("--out", required=True, help="model bundle path")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("test", help="chi-square test of the prior ratio on a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--truncation", choices=["relative", "explained"], default="relative")
    p.add_argument("--t", type=float, default=1e-9)
    p.add_argument("--eta", type=float, default=None, help="also report the norm bound at this level")
    p.add_argument("--out", default=None, help="write the result JSON here as well")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("condexp", help="conditional moments of y given x from a joint CSV")
    p.add_argument("--joint", required=True)
    p.add_argument("--xcols", required=True)
    p.add_argument("--ycols", required=True)
    p.add_argument("--scheme", choices=["shifted", "three_split"], default="shifted")
    _add_kernel_flags(p)
    _add_fit_flags(p)
    p.add_argument("--grid-cap", type=_size_cap, default=2000)
    p.add_argument("--seed", type=int, required=True, help="grid subsampling stream")
    p.add_argument("--query", required=True, help="CSV of x rows to condition on")
    p.add_argument("--out", required=True, help="moments CSV")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("cv", help="cross-validate (rho, lambda) on two CSV samples")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--kernel", choices=["gaussian", "laplace"], default="gaussian")
    p.add_argument("--rhos", required=True, help="comma-separated length scales")
    p.add_argument("--lambdas", required=True, help="comma-separated ridge values")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--epsilon-rel", type=float, default=1e-6)
    p.add_argument("--prior", choices=["one", "zero"], default="one")
    p.add_argument("--max-rank", type=_size_cap, default=None)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--seed", type=int, required=True, help="fold assignment stream")
    p.add_argument("--out", default=None)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("score", help="compare forecast files under a scoring metric")
    p.add_argument("--metric", required=True, choices=["energy", "r2", "r2-2", "ds"])
    p.add_argument("--pred", required=True, help="method forecasts CSV")
    p.add_argument("--baseline", required=True, help="baseline forecasts CSV")
    p.add_argument("--realized", default=None, help="realized outcomes CSV (not used by energy)")
    p.add_argument("--out", default=None)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("bench", help="Monte Carlo studies")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser("independence", help="calibration/power of the independence test")
    b.add_argument("--dist", required=True, choices=list(DISTRIBUTIONS))
    b.add_argument("--n", type=int, required=True, help="per-sample size")
    b.add_argument("--reps", type=int, required=True)
    b.add_argument("--level", type=float, default=0.05)
    b.add_argument("--c", type=float, default=None)
    b.add_argument("--rho", type=float, default=None, help="fixed Gaussian length scale (median heuristic if omitted)")
    b.add_argument("--lambda", dest="lam", type=float, default=1e-3)
    b.add_argument("--epsilon-rel", type=float, default=1e-5)
    b.add_argument("--max-rank", type=_size_cap, default=256)
    b.add_argument("--scheme", choices=["three_split", "shifted"], default="three_split")
    b.add_argument("--t", type=float, default=1e-9)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--out", default=None)
    b.add_argument("--force", action="store_true")

    b = bench_sub.add_parser("mixture", help="energy-score study on random Gaussian mixtures")
    b.add_argument("--runs", type=int, required=True)
    b.add_argument("--n-train", type=int, default=1000)
    b.add_argument("--n-test", type=int, default=200)
    b.add_argument("--grid-cap", type=_size_cap, default=500)
    b.add_argument("--lambda", dest="lam", type=float, default=1e-3)
    b.add_argument("--epsilon-rel", type=float, default=1e-5)
    b.add_argument("--max-rank", type=_size_cap, default=400)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--out", default=None)
    b.add_argument("--force", action="store_true")

    return parser


def _cmd_simulate(args) -> dict:
    _check_out(args.out, args.force)
    if args.dist == "mixture":
        joint = sample_gaussian_mixture(MixtureConfig(n_clusters=args.clusters), args.n, args.seed)
    else:
        joint = sample_distribution(args.dist, args.n, args.seed, c=args.c)
    if joint.d_x == 1 and joint.d_y == 1:
        header = ["x", "y"]
    else:
        header = [f"x{i + 1}" for i in range(joint.d_x)] + [f"y{i + 1}" for i in range(joint.d_y)]
    _write_csv(args.out, header, np.hstack([joint.x, joint.y]))
    return {
        "dist": args.dist,
        "n": args.n,
        "c": args.c,
        "clusters": args.clusters if args.dist == "mixture" else None,
        "rows": joint.rows,
        "out": args.out,
    }


def _omp_target_from_args(args) -> Optional[np.ndarray]:
    if args.omp_target is None:
        return None
    return ingest_csv(args.omp_target).points[:, 0]


def _cmd_fit(args) -> dict:
    _check_out(args.out, args.force)
    ds_p = ingest_csv(args.p, parse_columns(args.p_cols))
    ds_q = ingest_csv(args.q, parse_columns(args.q_cols))
    model = fit(
        ds_p,
        ds_q,
        _kernel_from_args(args),
        args.lam,
        epsilon=args.epsilon,
        epsilon_rel=args.epsilon_rel,
        prior=_prior_from_args(args),
        strategy=args.strategy,
        omp_target=_omp_target_from_args(args),
        max_rank=args.max_rank,
        standardize=args.standardize,
    )
    save_model(model, args.out)
    return {
        "kernel": model.kernel.to_dict(),
        "lambda": model.lam,
        "prior": args.prior,
        "n": model.n,
        "rank": model.rank,
        "epsilon": model.epsilon,
        "residual_trace": model.residual_trace,
        "kappa_inf": model.kappa_inf,
        "kappa_empirical": model.kappa_empirical,
        "hit_rank_cap": model.hit_rank_cap,
        "h_norm": h_norm(model),
        "standardize": args.standardize,
        "out": args.out,
    }


def _cmd_test(args) -> dict:
    if args.out:
        _check_out(args.out, args.force)
    model = load_model(args.model)
    result = run_test(model, args.truncation, args.t, eta=args.eta)
    payload = result.to_dict()
    payload.update({"model": args.model, "kernel": model.kernel.to_dict(), "lambda": model.lam})
    if args.out:
        _write_json(args.out, {**payload, "seed": None, "version": __version__})
    return payload


def _cmd_condexp(args) -> dict:
    _check_out(args.out, args.force)
    xcols, ycols = parse_columns(args.xcols), parse_columns(args.ycols)
    ds_x = ingest_csv(args.joint, xcols)
    ds_y = ingest_csv(args.joint, ycols)
    joint = JointDataset(x=ds_x.points, y=ds_y.points)
    cmodel = fit_conditional(
        joint,
        _kernel_from_args(args),
        args.lam,
        scheme=args.scheme,
        prior=_prior_from_args(args),
        epsilon=args.epsilon,
        epsilon_rel=args.epsilon_rel,
        max_rank=args.max_rank,
        standardize=args.standardize,
        grid_cap=args.grid_cap,
        seed=args.seed,
    )
    queries = ingest_csv(args.query).points
    if queries.shape[1] != joint.d_x:
        raise UsageError(f"query rows have {queries.shape[1]} columns, expected {joint.d_x}")
    d_y = joint.d_y
    header = (
        [f"mean{i + 1}" for i in range(d_y)]
        + [f"cov{i + 1}_{j + 1}" for i in range(d_y) for j in range(d_y)]
        + ["degenerate"]
    )
    mean, cov, degenerate = conditional_moments(cmodel, queries, return_degenerate=True)
    rows = np.hstack([mean, cov.reshape(queries.shape[0], -1), degenerate[:, None]])
    _write_csv(args.out, header, rows)
    return {
        "joint": args.joint,
        "scheme": args.scheme,
        "kernel": cmodel.base.kernel.to_dict(),
        "lambda": args.lam,
        "rank": cmodel.base.rank,
        "grid_size": int(cmodel.y_grid.shape[0]),
        "queries": int(queries.shape[0]),
        "degenerate_queries": int(degenerate.sum()),
        "out": args.out,
    }


def _cmd_cv(args) -> dict:
    if args.out:
        _check_out(args.out, args.force)
    rhos = [float(v) for v in args.rhos.split(",") if v.strip()]
    lambdas = [float(v) for v in args.lambdas.split(",") if v.strip()]
    if not rhos or not lambdas:
        raise UsageError("empty --rhos or --lambdas")
    grid = grid_product([KernelSpec(args.kernel, rho=r) for r in rhos], lambdas)
    result = cross_validate(
        ingest_csv(args.p),
        ingest_csv(args.q),
        grid,
        args.folds,
        epsilon_rel=args.epsilon_rel,
        prior=_prior_from_args(args),
        max_rank=args.max_rank,
        standardize=args.standardize,
        seed=args.seed,
    )
    payload = {
        "kernel": result.kernel.to_dict(),
        "lambda": result.lam,
        "folds": args.folds,
        "grid": [{"kernel": k.to_dict(), "lambda": l} for k, l in grid],
        "mean_losses": result.mean_losses.tolist(),
    }
    if args.out:
        _write_json(args.out, {**payload, "seed": args.seed, "version": __version__})
    return payload


def _records_from_points(points: np.ndarray, realized: np.ndarray, d: int) -> list:
    if points.shape[1] != d + d * d:
        raise UsageError(f"forecast rows need {d + d * d} columns (mean then covariance), got {points.shape[1]}")
    return [
        ForecastRecord(mean=row[:d], cov=row[d:].reshape(d, d), realized=y)
        for row, y in zip(points, realized)
    ]


def _cmd_score(args) -> dict:
    if args.out:
        _check_out(args.out, args.force)
    pred = ingest_csv(args.pred).points
    base = ingest_csv(args.baseline).points
    if pred.shape[0] != base.shape[0]:
        raise UsageError("pred and baseline have different row counts")
    payload: dict = {"metric": args.metric, "rows": int(pred.shape[0])}
    if args.metric == "energy":
        if pred.shape[1] != 1 or base.shape[1] != 1:
            raise UsageError("energy metric expects single-column per-point score files")
        payload["differential"] = energy_score_differential(base[:, 0], pred[:, 0])
    else:
        if args.realized is None:
            raise UsageError(f"--realized is required for metric {args.metric}")
        realized = ingest_csv(args.realized).points
        if realized.shape[0] != pred.shape[0]:
            raise UsageError("realized row count differs from forecasts")
        d = realized.shape[1]
        if args.metric == "r2":
            if pred.shape[1] != d or base.shape[1] != d:
                raise UsageError(f"r2 expects {d}-column mean forecasts")
            records = [
                ForecastRecord(mean=m, cov=np.zeros((d, d)), realized=y) for m, y in zip(pred, realized)
            ]
            payload["r2_oos"] = r2_oos(records, list(base))
        elif args.metric == "r2-2":
            payload["r2_second_moment"] = r2_second_moment(
                _records_from_points(pred, realized, d), _records_from_points(base, realized, d)
            )
        else:  # ds
            records = _records_from_points(pred, realized, d)
            baseline = _records_from_points(base, realized, d)
            payload["excess_scoring_loss"] = excess_scoring_loss(records, baseline)
    if args.out:
        _write_json(args.out, {**payload, "seed": None, "version": __version__})
    return payload


def _cmd_bench(args) -> dict:
    if args.out:
        _check_out(args.out, args.force)
    if args.bench_command == "independence":
        kernel = None if args.rho is None else KernelSpec("gaussian", rho=args.rho)
        study = rejection_study(
            args.dist,
            args.n,
            args.reps,
            args.seed,
            level=args.level,
            c=args.c,
            kernel=kernel,
            lam=args.lam,
            epsilon_rel=args.epsilon_rel,
            max_rank=args.max_rank,
            scheme=args.scheme,
            t=args.t,
        )
        payload = {
            "dist": study.distribution,
            "n": study.n,
            "reps": study.reps,
            "level": study.level,
            "rejection_rate": study.rejection_rate,
            "mc_stderr": study.mc_stderr,
            "ks_to_uniform": ks_to_uniform(study.p_values),
            "p_values": study.p_values.tolist(),
        }
    else:
        study = mixture_energy_study(
            args.runs,
            args.seed,
            n_train=args.n_train,
            n_test=args.n_test,
            grid_cap=args.grid_cap,
            lam=args.lam,
            epsilon_rel=args.epsilon_rel,
            max_rank=args.max_rank,
        )
        payload = {
            "runs": len(study.differentials),
            "median_differential": study.median_differential,
            "differentials": study.differentials.tolist(),
            "clusters": study.clusters.tolist(),
        }
    if args.out:
        _write_json(args.out, {**payload, "seed": args.seed, "version": __version__})
    return payload


_HANDLERS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "test": _cmd_test,
    "condexp": _cmd_condexp,
    "cv": _cmd_cv,
    "score": _cmd_score,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        payload = _HANDLERS[args.command](args)
        report = {
            "command": args.command,
            "version": __version__,
            "seed": getattr(args, "seed", None),
            **payload,
        }
        print(json.dumps(report, sort_keys=True, indent=2))
        print(f"[kdm] {args.command} finished in {time.perf_counter() - started:.3f}s", file=sys.stderr)
        return 0
    except (UsageError, ValueError, OSError) as exc:
        print(f"kdm: error: {exc}", file=sys.stderr)
        return 1
    except (NumericsError, np.linalg.LinAlgError) as exc:
        print(f"kdm: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
