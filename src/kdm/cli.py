"""Command-line interface.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure.  Every
output artifact (CSV, model bundle, JSON) is written deterministically: fixed
field order, shortest round-trip float formatting, no timestamps.  Wall-clock
timing goes to stderr only, so reruns of a seeded command produce identical
bytes.  Every subcommand takes ``--out`` and ``--force``: an existing ``--out``
file is refused unless ``--force`` is given, before any work starts.
``simulate``, ``fit`` and ``condexp`` write their artifact there; the other
commands optionally copy their JSON report there, without its ``command``
field.  The KDM_THREADS environment variable sets how many workers form the
parts of a large decomposition panel side by side (default: two, or one on a
single CPU); a value that is not an integer >= 1 exits 1.  The parts are
fixed by the data's size, so results do not depend on it.  The console entry
point pins BLAS to one thread.
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
import warnings
from array import array
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__, bench
from .bench import ks_to_uniform, mixture_energy_study, rejection_study
from .conditional import DEFAULT_GRID_CAP, SCHEMES, JointDataset, conditional_moments, fit_conditional
from .estimator import (
    DEFAULT_EPSILON_REL,
    PriorSpec,
    cross_validate,
    fit,
    h_norm,
    load_model,
    save_model,
)
from .hypothesis import DEFAULT_TRUNCATION_T, run_test
from .kernels import FAMILIES, Dataset, KernelSpec
from .lowrank import NumericsError, worker_count
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
    column: a row with more or fewer fields than the header, or a cell that
    is not a finite number.  A blank first row, or one of finite numbers
    only, is rejected: it names no columns.

    The file is read as UTF-8; a leading byte-order mark, as spreadsheet
    exports write it, is dropped.  The csv module reads the header, and
    numpy's C reader (``np.loadtxt``) the data rows, all columns of them,
    into one float64 array without a Python object per cell.  That array is
    taken when it holds one row per data line, as many columns as the
    header and finite values only; the selected columns are then taken from
    it.  Any other file, such as one with a quoted cell, a cell of the form
    ``1_000``, a blank line or a bad row, is parsed again with the csv
    module, in one pass over the rows that takes each selected cell through
    Python's ``float``, which accepts its whole grammar, and names the first
    bad row.  Both give the same values.
    """
    return _ingest_csv(path, [columns])[0]


def _ingest_csv(path: str, selections: Sequence[ColumnSelection]) -> list:
    """One Dataset per column selection, as :func:`ingest_csv` reads it, from one read of the file.

    The selections are checked in order, and a bad cell is looked for in the
    columns of each selection in turn.  A file that is not UTF-8 text is
    refused with a UsageError naming it.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
            idxs = [_column_indices(path, header, columns) for columns in selections]
            data = _numeric_rows(fh, len(header))
            if data is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                rows = list(reader)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc})")
    if data is not None:
        # take() keeps the selection in row-major order, as the csv parse makes it
        return [Dataset(data if idx == list(range(len(header))) else data.take(idx, axis=1)) for idx in idxs]
    if not rows:
        raise UsageError(f"{path}: no data rows")
    return [_convert_rows(path, header, idx, rows) for idx in idxs]


def _column_indices(path: str, header: Sequence[str], columns: ColumnSelection) -> list:
    """The indices of the header's columns that ``columns`` selects by index or by name."""
    if columns is None:
        return list(range(len(header)))
    if all(isinstance(c, int) for c in columns):
        for i in columns:
            if i < 0 or i >= len(header):
                raise UsageError(f"{path}: column index {i} out of range (file has {len(header)})")
        return list(columns)
    idx = []
    for name in columns:
        if name not in header:
            raise UsageError(f"{path}: no column named {name!r}")
        idx.append(header.index(name))
    return idx


def _numeric_rows(fh, width: int) -> Optional[np.ndarray]:
    """The data rows after the header through numpy's C reader, or None when the csv module must parse them.

    ``fh`` is the file, opened as text without newline translation and read
    up to the end of the header, which names ``width`` columns.  numpy
    skips blank lines, which the csv parse rejects, so the array is taken
    only with one row per line that numpy was handed, split as the csv
    module splits them, and at least one.
    """
    lines = 0

    def data_lines():
        nonlocal lines
        for line in fh:
            lines += 1
            yield line

    try:
        with warnings.catch_warnings():
            # numpy warns of an input with no data; the row count refuses it
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(data_lines(), delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    if not lines or data.shape != (lines, width) or not np.isfinite(data).all():
        return None
    return data


def _convert_rows(path: str, header: Sequence[str], idx: Sequence[int], rows: list) -> Dataset:
    """The selected columns ``idx`` of the csv module's ``rows``, each cell through Python's ``float``.

    The rows are checked in order, and the first one longer or shorter than
    the header, or with a selected cell that is not a finite number, is
    named.
    """
    values = array("d")
    for rownum, row in enumerate(rows, start=1):
        if len(row) > len(header):
            raise UsageError(f"{path}: row {rownum} has {len(row)} fields, but the header names {len(header)}")
        if len(row) < len(header):
            raise UsageError(f"{path}: row {rownum} has only {len(row)} fields")
        for i in idx:
            cell = row[i].strip()
            try:
                v = float(cell)
            except ValueError:
                raise UsageError(f"{path}: cannot parse {cell!r} at row {rownum}, column {header[i]!r}")
            if not math.isfinite(v):
                raise UsageError(f"{path}: non-finite value {cell!r} at row {rownum}, column {header[i]!r}")
            values.append(v)
    return Dataset(np.frombuffer(values).reshape(len(rows), len(idx)))


def _is_finite_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


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
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _kernel_from_args(args) -> KernelSpec:
    if args.kernel == "polynomial":
        return KernelSpec("polynomial", c=args.c, q=args.degree)
    return KernelSpec(args.kernel, rho=args.rho)


def _prior_from_args(args) -> PriorSpec:
    return PriorSpec.one() if args.prior == "one" else PriorSpec.zero()


def _integer(text: str, low: int) -> int:
    """An integer >= ``low``, else an argparse error."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return value


def _size_cap(text: str) -> int:
    """argparse type of the size caps: an integer >= 1."""
    return _integer(text, 1)


def _seed(text: str) -> int:
    """argparse type of --seed: an integer >= 0, as numpy's generators take."""
    return _integer(text, 0)


def _finite(text: str, strict: bool) -> float:
    """A finite number > 0 (``strict``) or >= 0, else an argparse error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 0 if strict else value >= 0)):
        raise argparse.ArgumentTypeError(f"must be a finite number {'>' if strict else '>='} 0, got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type of a ridge parameter, a length scale or ``--t``: a finite number > 0."""
    return _finite(text, strict=True)


def _nonnegative(text: str) -> float:
    """argparse type of a tolerance or the polynomial offset: a finite number >= 0."""
    return _finite(text, strict=False)


def _positives(text: str) -> list:
    """argparse type of --lambdas and --rhos: comma-separated finite numbers > 0, possibly none."""
    return [_positive(v) for v in text.split(",") if v.strip()]


def _add_out(p: argparse.ArgumentParser, artifact: Optional[str] = None) -> None:
    """--out and --force: the path of the ``artifact`` a command writes, or else of a copy of its JSON report."""
    if artifact is None:
        p.add_argument("--out", default=None, help="write the report JSON here as well")
    else:
        p.add_argument("--out", required=True, help=artifact)
    p.add_argument("--force", action="store_true", help="overwrite an existing --out file")
    p.set_defaults(copy_report=artifact is None)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    """The kernel, ridge parameter and absolute tolerance of the single fit of `fit` and `condexp`."""
    p.add_argument("--kernel", choices=FAMILIES, default="gaussian")
    p.add_argument("--rho", type=_positive, default=1.0, help="gaussian/laplace length-scale parameter")
    p.add_argument("--c", type=_nonnegative, default=1.0, help="polynomial offset")
    p.add_argument("--degree", type=int, default=2, help="polynomial degree")
    p.add_argument("--lambda", dest="lam", type=_positive, required=True, help="ridge parameter > 0")
    p.add_argument("--epsilon", type=_nonnegative, default=None, help="absolute decomposition tolerance")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    """The decomposition and prior flags of `fit`, `condexp` and `cv`."""
    p.add_argument(
        "--epsilon-rel", type=_nonnegative, default=DEFAULT_EPSILON_REL, help="tolerance relative to the kernel trace"
    )
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
    p.add_argument("--seed", type=_seed, required=True)
    _add_out(p, "joint sample CSV")

    p = sub.add_parser("fit", help="fit the density-ratio model from two CSV samples")
    p.add_argument("--p", required=True, help="denominator sample CSV")
    p.add_argument("--q", required=True, help="numerator sample CSV")
    p.add_argument("--p-cols", default=None)
    p.add_argument("--q-cols", default=None)
    _add_model_flags(p)
    _add_fit_flags(p)
    p.add_argument("--strategy", choices=["greedy", "omp"], default="greedy")
    p.add_argument("--omp-target", default=None, help="CSV with one target value per P row, then per Q row")
    _add_out(p, "model bundle path")

    p = sub.add_parser("test", help="chi-square test of the prior ratio on a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--truncation", choices=["relative", "explained"], default="relative")
    p.add_argument("--t", type=_positive, default=DEFAULT_TRUNCATION_T)
    p.add_argument("--eta", type=float, default=None, help="also report the norm bound at this level")
    _add_out(p)

    p = sub.add_parser("condexp", help="conditional moments of y given x from a joint CSV")
    p.add_argument("--joint", required=True)
    p.add_argument("--xcols", required=True)
    p.add_argument("--ycols", required=True)
    p.add_argument("--scheme", choices=SCHEMES, default="shifted")
    _add_model_flags(p)
    _add_fit_flags(p)
    p.add_argument("--grid-cap", type=_size_cap, default=DEFAULT_GRID_CAP)
    p.add_argument("--seed", type=_seed, required=True, help="grid subsampling stream")
    p.add_argument("--query", required=True, help="CSV of x rows to condition on")
    _add_out(p, "moments CSV")

    p = sub.add_parser("cv", help="cross-validate (rho, lambda) on two CSV samples")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--kernel", choices=["gaussian", "laplace"], default="gaussian")
    p.add_argument("--rhos", type=_positives, required=True, help="comma-separated length scales > 0")
    p.add_argument("--lambdas", type=_positives, required=True, help="comma-separated ridge values > 0")
    p.add_argument("--folds", type=int, default=5)
    _add_fit_flags(p)
    p.add_argument("--seed", type=_seed, required=True, help="fold assignment stream")
    _add_out(p)

    p = sub.add_parser("score", help="compare forecast files under a scoring metric")
    p.add_argument("--metric", required=True, choices=["energy", "r2", "r2-2", "ds"])
    p.add_argument("--pred", required=True, help="method forecasts CSV")
    p.add_argument("--baseline", required=True, help="baseline forecasts CSV")
    p.add_argument("--realized", default=None, help="realized outcomes CSV (not used by energy)")
    _add_out(p)

    p = sub.add_parser("bench", help="Monte Carlo studies")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser("independence", help="calibration/power of the independence test")
    b.add_argument("--dist", required=True, choices=list(DISTRIBUTIONS))
    b.add_argument("--n", type=int, required=True, help="per-sample size")
    b.add_argument("--reps", type=int, required=True)
    b.add_argument("--level", type=float, default=0.05)
    b.add_argument("--c", type=float, default=None)
    b.add_argument(
        "--rho", type=_positive, default=None, help="fixed Gaussian length scale (median heuristic if omitted)"
    )
    b.add_argument("--epsilon-rel", type=_nonnegative, default=bench.DEFAULT_EPS_REL)
    b.add_argument("--max-rank", type=_size_cap, default=bench.DEFAULT_MAX_RANK)
    b.add_argument("--scheme", choices=SCHEMES, default="three_split")
    b.add_argument("--t", type=_positive, default=DEFAULT_TRUNCATION_T)
    b.add_argument("--seed", type=_seed, required=True)
    _add_out(b)

    b = bench_sub.add_parser("mixture", help="energy-score study on random Gaussian mixtures")
    b.add_argument("--runs", type=int, required=True)
    b.add_argument("--n-train", type=int, default=1000)
    b.add_argument("--n-test", type=int, default=200)
    b.add_argument("--grid-cap", type=_size_cap, default=500)
    b.add_argument("--lambda", dest="lam", type=_positive, default=1e-3)
    b.add_argument("--epsilon-rel", type=_nonnegative, default=bench.DEFAULT_EPS_REL)
    b.add_argument("--max-rank", type=_size_cap, default=400)
    b.add_argument("--seed", type=_seed, required=True)
    _add_out(b)

    return parser


def _cmd_simulate(args) -> dict:
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


def _cmd_fit(args) -> dict:
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
        omp_target=None if args.omp_target is None else ingest_csv(args.omp_target).points[:, 0],
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
    model = load_model(args.model)
    result = run_test(model, args.truncation, args.t, eta=args.eta)
    return {**result.to_dict(), "model": args.model, "kernel": model.kernel.to_dict(), "lambda": model.lam}


def _cmd_condexp(args) -> dict:
    xcols, ycols = parse_columns(args.xcols), parse_columns(args.ycols)
    ds_x, ds_y = _ingest_csv(args.joint, [xcols, ycols])
    joint = JointDataset(x=ds_x.points, y=ds_y.points)
    # the query file is read and checked first, so a bad one costs no fit
    queries = ingest_csv(args.query).points
    if queries.shape[1] != joint.d_x:
        raise UsageError(f"query rows have {queries.shape[1]} columns, expected {joint.d_x}")
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
    if not args.rhos or not args.lambdas:
        raise UsageError("empty --rhos or --lambdas")
    kernels = [KernelSpec(args.kernel, rho=r) for r in args.rhos]
    result = cross_validate(
        ingest_csv(args.p),
        ingest_csv(args.q),
        kernels,
        args.lambdas,
        args.folds,
        epsilon_rel=args.epsilon_rel,
        prior=_prior_from_args(args),
        max_rank=args.max_rank,
        standardize=args.standardize,
        seed=args.seed,
    )
    return {
        "kernel": result.kernel.to_dict(),
        "lambda": result.lam,
        "folds": args.folds,
        "grid": [{"kernel": k.to_dict(), "lambda": lam} for k in kernels for lam in args.lambdas],
        "mean_losses": result.mean_losses.ravel().tolist(),
    }


def _records_from_points(points: np.ndarray, realized: np.ndarray, d: int) -> list:
    if points.shape[1] != d + d * d:
        raise UsageError(f"forecast rows need {d + d * d} columns (mean then covariance), got {points.shape[1]}")
    return [
        ForecastRecord(mean=row[:d], cov=row[d:].reshape(d, d), realized=y)
        for row, y in zip(points, realized)
    ]


def _cmd_score(args) -> dict:
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
    return payload


def _cmd_bench(args) -> dict:
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
            epsilon_rel=args.epsilon_rel,
            max_rank=args.max_rank,
            scheme=args.scheme,
            t=args.t,
        )
        return {
            "dist": study.distribution,
            "n": study.n,
            "reps": study.reps,
            "level": study.level,
            "rejection_rate": study.rejection_rate,
            "mc_stderr": study.mc_stderr,
            "ks_to_uniform": ks_to_uniform(study.p_values),
            "p_values": study.p_values.tolist(),
        }
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
    return {
        "runs": len(study.differentials),
        "median_differential": study.median_differential,
        "differentials": study.differentials.tolist(),
        "clusters": study.clusters.tolist(),
    }


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
        worker_count()  # a bad KDM_THREADS fails every command, before any work
        if args.out:
            _check_out(args.out, args.force)
        report = {**_HANDLERS[args.command](args), "seed": getattr(args, "seed", None), "version": __version__}
        if args.out and args.copy_report:
            with open(args.out, "w") as fh:
                fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        print(json.dumps({"command": args.command, **report}, sort_keys=True, indent=2))
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
