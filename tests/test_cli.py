import json
import struct

import numpy as np
import pytest

from kdm.cli import UsageError, ingest_csv, main, parse_columns
from kdm.estimator import fit, load_model
from kdm.kernels import KernelSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if code == 0 and captured.out else None
    return code, payload, captured.err


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return str(path)


def test_parse_columns_forms():
    assert parse_columns(None) is None
    assert parse_columns("2..5") == [2, 3, 4, 5]
    assert parse_columns("0,3") == [0, 3]
    assert parse_columns("a, b") == ["a", "b"]
    with pytest.raises(UsageError):
        parse_columns("5..2")
    with pytest.raises(UsageError):
        parse_columns(",")


def test_ingest_csv_selection_and_standardize(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["a", "b", "c"], [[1, 10, 5], [3, 30, 5]])
    assert ingest_csv(path).points.shape == (2, 3)
    np.testing.assert_array_equal(ingest_csv(path, ["b"]).points, [[10.0], [30.0]])
    np.testing.assert_array_equal(ingest_csv(path, [0, 2]).points, [[1.0, 5.0], [3.0, 5.0]])


def test_ingest_csv_diagnostics(tmp_path):
    path = write_csv(tmp_path / "bad.csv", ["a", "b"], [[1, 2], ["oops", 4]])
    with pytest.raises(UsageError, match=r"row 2, column 'a'"):
        ingest_csv(path)
    with pytest.raises(UsageError, match="out of range"):
        ingest_csv(path, [7])
    with pytest.raises(UsageError, match="no column named"):
        ingest_csv(path, ["z"])
    short = write_csv(tmp_path / "short.csv", ["a", "b"], [[1]])
    with pytest.raises(UsageError, match="only 1 fields"):
        ingest_csv(short)
    inf = write_csv(tmp_path / "inf.csv", ["a"], [["inf"]])
    with pytest.raises(UsageError, match="non-finite"):
        ingest_csv(inf)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(UsageError, match="empty file"):
        ingest_csv(str(empty))
    headeronly = tmp_path / "h.csv"
    headeronly.write_text("a,b\n")
    with pytest.raises(UsageError, match="no data rows"):
        ingest_csv(str(headeronly))
    with pytest.raises(UsageError, match="cannot read"):
        ingest_csv(str(tmp_path / "missing.csv"))


def test_fit_rejects_a_headerless_csv_exit_1(capsys, tmp_path):
    # a first row of numbers would become the header and lose a data row
    p = write_csv(tmp_path / "p.csv", ["0.5", "1e-3"], [[0.1 * i, 0.2] for i in range(10)])
    q = write_csv(tmp_path / "q.csv", ["a", "b"], [[0.2 * i, 0.1] for i in range(10)])
    model = tmp_path / "model.kdm"
    code, _, err = run_cli(capsys, "fit", "--p", p, "--q", q, "--lambda", "1e-3", "--out", str(model))
    assert code == 1
    assert f"{p}: row 1 holds only numbers, but row 1 must name the columns" in err
    assert not model.exists()
    # a header with one name, or with a non-finite number, still names columns
    for header in (["a", "2"], ["nan", "inf"]):
        path = write_csv(tmp_path / "ok.csv", header, [[1, 2], [3, 4]])
        assert ingest_csv(path).n == 2


def test_ingest_csv_accepts_the_float_grammar(tmp_path):
    # cells go through float() in bulk: the values are bitwise those of
    # float(), and the first bad cell is still the one named
    cells = [" 1 ", "+1.", ".5e-3", "1_000", "-0", "4.9e-324", "\u20072.5\xa0", "0.1"]
    path = write_csv(tmp_path / "odd.csv", ["a"], [[c] for c in cells])
    assert ingest_csv(path).points[:, 0].tobytes() == np.array([float(c) for c in cells]).tobytes()
    for cell, message in [("1e400", "non-finite value '1e400' at row 2"), ("nan", "non-finite value 'nan' at row 2"),
                          ("1__0", "cannot parse '1__0' at row 2"), (" 0x10 ", "cannot parse '0x10' at row 2")]:
        bad = write_csv(tmp_path / "bad.csv", ["a", "b"], [[1, 2], [cell, 3], ["oops", 4], [5]])
        with pytest.raises(UsageError, match=f"{message}, column 'a'$"):
            ingest_csv(bad)
    later = write_csv(tmp_path / "later.csv", ["a", "b"], [[1, 2], [5], ["oops", 4]])
    with pytest.raises(UsageError, match="row 2 has only 1 fields$"):
        ingest_csv(later)


def test_fit_rejects_a_row_longer_than_the_header_exit_1(capsys, tmp_path):
    # extra cells were dropped: "a,b" then "1,2,3" read as [[1, 2]]
    p = write_csv(tmp_path / "p.csv", ["a", "b"], [[0.1 * i, 0.2] for i in range(9)] + [[1, 2, 3]])
    q = write_csv(tmp_path / "q.csv", ["a", "b"], [[0.2 * i, 0.1] for i in range(10)])
    model = tmp_path / "model.kdm"
    code, _, err = run_cli(capsys, "fit", "--p", p, "--q", q, "--lambda", "1e-3", "--out", str(model))
    assert code == 1
    assert f"{p}: row 10 has 3 fields, but the header names 2" in err
    assert not model.exists()
    # with some columns selected, and whatever comes first: the first
    # offending row is named, be it too long, too short or holding a bad cell
    for cols in (None, [0], ["b"]):
        for rows, message in [
            ([[1, 2], [3, 4, 5], [6], ["oops", 7]], "row 2 has 3 fields, but the header names 2$"),
            ([[1, 2], ["oops", 7], [3, 4, 5]], "cannot parse 'oops' at row 2, column 'a'$"),
            ([[1, 2], [], [3, 4, 5]], "row 2 has only 0 fields$"),
            ([[1, 2, ""], [3, 4]], "row 1 has 3 fields, but the header names 2$"),
        ]:
            if cols == ["b"] and "oops" in message:
                message = "row 3 has 3 fields, but the header names 2$"
            path = write_csv(tmp_path / "long.csv", ["a", "b"], rows)
            with pytest.raises(UsageError, match=message):
                ingest_csv(path, cols)
    # every row one field longer than the header is rejected too
    path = write_csv(tmp_path / "wide.csv", ["a", "b"], [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(UsageError, match="row 1 has 3 fields, but the header names 2$"):
        ingest_csv(path)


def test_fit_rejects_a_blank_first_row_exit_1(capsys, tmp_path):
    # the blank header selected no columns and failed later, in Dataset,
    # with a message naming neither the file nor the row
    q = write_csv(tmp_path / "q.csv", ["a", "b"], [[0.2 * i, 0.1] for i in range(10)])
    model = tmp_path / "model.kdm"
    for first in ("", "   "):
        p = tmp_path / "blank.csv"
        p.write_text(first + "\n" + "".join(f"{0.1 * i},0.2\n" for i in range(10)))
        code, _, err = run_cli(capsys, "fit", "--p", str(p), "--q", q, "--lambda", "1e-3", "--out", str(model))
        assert code == 1
        assert f"{p}: row 1 is empty, but row 1 must name the columns" in err
    assert not model.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "kdm" in capsys.readouterr().out


def test_usage_errors_exit_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--dist", "w", "--n", "5", "--out", str(tmp_path / "w.csv"))
    assert code == 1 and "--seed" in err
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1
    code, _, err = run_cli(capsys, "simulate", "--dist", "nope", "--n", "5", "--seed", "0", "--out", "x")
    assert code == 1


def test_simulate_deterministic_and_overwrite_guard(capsys, tmp_path):
    out = str(tmp_path / "sim.csv")
    code, payload, _ = run_cli(capsys, "simulate", "--dist", "circle", "--n", "50", "--seed", "9", "--out", out)
    assert code == 0 and payload["rows"] == 50
    first = open(out, "rb").read()
    assert first.startswith(b"x,y\n")

    code, _, err = run_cli(capsys, "simulate", "--dist", "circle", "--n", "50", "--seed", "9", "--out", out)
    assert code == 1 and "refusing to overwrite" in err

    code, _, _ = run_cli(capsys, "simulate", "--dist", "circle", "--n", "50", "--seed", "9", "--out", out, "--force")
    assert code == 0
    assert open(out, "rb").read() == first


def test_simulate_mixture_header(capsys, tmp_path):
    out = str(tmp_path / "mix.csv")
    code, payload, _ = run_cli(
        capsys, "simulate", "--dist", "mixture", "--n", "8", "--clusters", "3", "--seed", "1", "--out", out
    )
    assert code == 0 and payload["clusters"] == 3
    assert open(out).readline().strip() == "x1,x2,y1,y2"


def fit_two_samples(capsys, tmp_path, *extra):
    p = str(tmp_path / "p.csv")
    q = str(tmp_path / "q.csv")
    run_cli(capsys, "simulate", "--dist", "independent_clouds", "--n", "150", "--seed", "3", "--out", p)
    run_cli(capsys, "simulate", "--dist", "circle", "--n", "150", "--seed", "4", "--out", q)
    model = str(tmp_path / "model.kdm")
    code, payload, _ = run_cli(
        capsys, "fit", "--p", p, "--q", q, "--rho", "2.0", "--lambda", "1e-3", "--out", model, *extra
    )
    return code, payload, model


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_fit_bad_max_rank_exits_1(capsys, tmp_path, cap):
    p = write_csv(tmp_path / "p.csv", ["a"], [[0.1 * i] for i in range(10)])
    q = write_csv(tmp_path / "q.csv", ["a"], [[0.2 * i] for i in range(10)])
    model = tmp_path / "model.kdm"
    code, _, err = run_cli(
        capsys, "fit", "--p", p, "--q", q, "--lambda", "1e-3", f"--max-rank={cap}", "--out", str(model)
    )
    assert code == 1
    assert f"argument --max-rank: must be an integer >= 1, got '{cap}'" in err
    assert not model.exists()


def test_fit_then_test_flow(capsys, tmp_path):
    code, payload, model = fit_two_samples(capsys, tmp_path)
    assert code == 0
    assert payload["n"] == 150 and payload["rank"] >= 1
    assert payload["h_norm"] > 0

    code, result, _ = run_cli(capsys, "test", "--model", model, "--eta", "0.1")
    assert code == 0
    assert 0.0 <= result["p_value"] <= 1.0
    assert result["p_value"] < 0.01  # the samples really differ
    assert {"statistic", "ell", "h_norm", "bound_holds", "residual_trace", "hit_rank_cap"} <= set(result)
    assert result["residual_trace"] == payload["residual_trace"]
    assert result["hit_rank_cap"] == payload["hit_rank_cap"]

    out = str(tmp_path / "test.json")
    code, _, _ = run_cli(capsys, "test", "--model", model, "--out", out)
    assert code == 0
    first = open(out, "rb").read()
    code, _, _ = run_cli(capsys, "test", "--model", model, "--out", out, "--force")
    assert open(out, "rb").read() == first


def test_test_rejects_damaged_bundle_exit_1(capsys, tmp_path):
    code, _, model = fit_two_samples(capsys, tmp_path)
    assert code == 0
    raw = open(model, "rb").read()
    with open(model, "wb") as fh:
        fh.write(raw[:-3])
    code, _, err = run_cli(capsys, "test", "--model", model)
    assert code == 1
    assert model in err and "truncated bundle" in err


def test_test_rejects_format_1_bundle_exit_1(capsys, tmp_path):
    code, _, model = fit_two_samples(capsys, tmp_path)
    assert code == 0
    raw = open(model, "rb").read()
    (hlen,) = struct.unpack("<Q", raw[4:12])
    header = json.loads(raw[12 : 12 + hlen])
    assert header["format"] == 2
    head = json.dumps({**header, "format": 1}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(model, "wb") as fh:
        fh.write(raw[:4] + struct.pack("<Q", len(head)) + head + raw[12 + hlen :])
    code, _, err = run_cli(capsys, "test", "--model", model)
    assert code == 1
    assert model in err and "field 'format' is 1" in err and "refit" in err


def test_missing_input_or_output_directory_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "test", "--model", str(tmp_path / "missing.kdm"))
    assert code == 1 and "missing.kdm" in err
    p = write_csv(tmp_path / "p.csv", ["a"], [[0.1 * i] for i in range(10)])
    q = write_csv(tmp_path / "q.csv", ["a"], [[0.2 * i] for i in range(10)])
    nodir = tmp_path / "nodir"
    code, _, err = run_cli(capsys, "fit", "--p", p, "--q", q, "--lambda", "1e-3", "--out", str(nodir / "m.kdm"))
    assert code == 1 and f"directory {nodir} does not exist" in err
    code, _, err = run_cli(
        capsys, "cv", "--p", p, "--q", q, "--rhos", "1", "--lambdas", "1e-3", "--folds", "2", "--seed", "0",
        "--out", str(nodir / "x.json"),
    )
    assert code == 1 and f"directory {nodir} does not exist" in err
    assert not nodir.exists()


def test_fit_omp_strategy(capsys, tmp_path):
    target = np.sin(0.1 * np.arange(300))
    t_csv = write_csv(tmp_path / "t.csv", ["t"], [[v] for v in target])
    code, payload, model = fit_two_samples(capsys, tmp_path, "--strategy", "omp", "--omp-target", t_csv)
    assert code == 0 and payload["n"] == 150
    ds_p, ds_q = ingest_csv(str(tmp_path / "p.csv")), ingest_csv(str(tmp_path / "q.csv"))
    spec = KernelSpec("gaussian", rho=2.0)
    omp = fit(ds_p, ds_q, spec, 1e-3, strategy="omp", omp_target=target)
    np.testing.assert_array_equal(load_model(model).pivots, omp.pivots)
    assert not np.array_equal(omp.pivots, fit(ds_p, ds_q, spec, 1e-3).pivots)
    code, _, err = run_cli(
        capsys, "fit", "--p", str(tmp_path / "p.csv"), "--q", str(tmp_path / "q.csv"), "--lambda", "1e-3",
        "--strategy", "omp", "--out", str(tmp_path / "no_target.kdm"),
    )
    assert code == 1 and "omp strategy requires omp_target" in err


def test_fit_artifacts_are_deterministic(capsys, tmp_path):
    _, _, model_a = fit_two_samples(capsys, tmp_path)
    b = str(tmp_path / "model_b.kdm")
    p, q = str(tmp_path / "p.csv"), str(tmp_path / "q.csv")
    code, _, _ = run_cli(
        capsys, "fit", "--p", p, "--q", q, "--rho", "2.0", "--lambda", "1e-3", "--out", b
    )
    assert code == 0
    assert open(model_a, "rb").read() == open(b, "rb").read()


def test_condexp_flow(capsys, tmp_path):
    joint = str(tmp_path / "joint.csv")
    run_cli(capsys, "simulate", "--dist", "variance", "--n", "240", "--seed", "5", "--out", joint)
    query = write_csv(tmp_path / "query.csv", ["x"], [[-1.0], [0.0], [1.0]])
    out = str(tmp_path / "cond.csv")
    code, payload, _ = run_cli(
        capsys,
        "condexp",
        "--joint", joint, "--xcols", "x", "--ycols", "y",
        "--rho", "1.0", "--lambda", "1e-3", "--seed", "0",
        "--query", query, "--out", out,
    )
    assert code == 0
    assert payload["queries"] == 3 and payload["grid_size"] == 240
    lines = open(out).read().splitlines()
    assert lines[0] == "mean1,cov1_1,degenerate"
    assert len(lines) == 4

    bad = write_csv(tmp_path / "bad_query.csv", ["a", "b"], [[0.0, 1.0]])
    code, _, err = run_cli(
        capsys,
        "condexp",
        "--joint", joint, "--xcols", "x", "--ycols", "y",
        "--rho", "1.0", "--lambda", "1e-3", "--seed", "0",
        "--query", bad, "--out", str(tmp_path / "c2.csv"),
    )
    assert code == 1 and "expected 1" in err


@pytest.mark.parametrize("flag", [["--strategy", "omp"], ["--omp-target", "t.csv"]])
def test_condexp_has_no_pivot_strategy(capsys, tmp_path, flag):
    # the conditional fit is greedy only
    joint = write_csv(tmp_path / "joint.csv", ["x", "y"], [[0.1 * i, 0.2 * i] for i in range(12)])
    query = write_csv(tmp_path / "query.csv", ["x"], [[0.0]])
    code, _, err = run_cli(
        capsys,
        "condexp",
        "--joint", joint, "--xcols", "x", "--ycols", "y",
        "--lambda", "1e-3", "--seed", "0", *flag,
        "--query", query, "--out", str(tmp_path / "cond.csv"),
    )
    assert code == 1 and f"unrecognized arguments: {flag[0]}" in err


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_condexp_bad_grid_cap_exits_1(capsys, tmp_path, cap):
    joint = write_csv(tmp_path / "joint.csv", ["x", "y"], [[0.1 * i, 0.2 * i] for i in range(12)])
    query = write_csv(tmp_path / "query.csv", ["x"], [[0.0]])
    code, _, err = run_cli(
        capsys,
        "condexp",
        "--joint", joint, "--xcols", "x", "--ycols", "y",
        "--lambda", "1e-3", "--seed", "0", f"--grid-cap={cap}",
        "--query", query, "--out", str(tmp_path / "cond.csv"),
    )
    assert code == 1
    assert f"argument --grid-cap: must be an integer >= 1, got '{cap}'" in err
    assert "Traceback" not in err


def test_cv_flow(capsys, tmp_path):
    p = str(tmp_path / "p.csv")
    q = str(tmp_path / "q.csv")
    run_cli(capsys, "simulate", "--dist", "independent_clouds", "--n", "120", "--seed", "6", "--out", p)
    run_cli(capsys, "simulate", "--dist", "independent_clouds", "--n", "120", "--seed", "7", "--out", q)
    out = str(tmp_path / "cv.json")
    args = (
        "cv", "--p", p, "--q", q, "--rhos", "0.5,2.0", "--lambdas", "1e-3,1e-1",
        "--folds", "3", "--seed", "1", "--out", out,
    )
    code, payload, _ = run_cli(capsys, *args)
    assert code == 0
    assert len(payload["mean_losses"]) == 4
    assert payload["lambda"] in (1e-3, 1e-1)
    first = open(out, "rb").read()
    code, _, _ = run_cli(capsys, *args, "--force")
    assert open(out, "rb").read() == first

    code, _, err = run_cli(capsys, "cv", "--p", p, "--q", q, "--rhos", "", "--lambdas", "1", "--seed", "1")
    assert code == 1 and "empty" in err


def test_score_energy_and_r2(capsys, tmp_path):
    base = write_csv(tmp_path / "base.csv", ["s"], [[1.0], [2.0]])
    pred = write_csv(tmp_path / "pred.csv", ["s"], [[0.0], [1.0]])
    code, payload, _ = run_cli(capsys, "score", "--metric", "energy", "--pred", pred, "--baseline", base)
    assert code == 0 and payload["differential"] == pytest.approx(1.0)

    realized = write_csv(tmp_path / "y.csv", ["y"], [[1.0], [2.0]])
    mean_pred = write_csv(tmp_path / "mp.csv", ["m"], [[1.0], [2.0]])
    mean_base = write_csv(tmp_path / "mb.csv", ["m"], [[0.0], [0.0]])
    code, payload, _ = run_cli(
        capsys, "score", "--metric", "r2", "--pred", mean_pred, "--baseline", mean_base, "--realized", realized
    )
    assert code == 0 and payload["r2_oos"] == pytest.approx(1.0)

    code, _, err = run_cli(capsys, "score", "--metric", "r2", "--pred", mean_pred, "--baseline", mean_base)
    assert code == 1 and "--realized" in err


def test_score_ds_indefinite_cov_exits_2(capsys, tmp_path):
    realized = write_csv(tmp_path / "y.csv", ["y"], [[0.5]])
    good = write_csv(tmp_path / "good.csv", ["m", "v"], [[0.0, 1.0]])
    bad = write_csv(tmp_path / "bad.csv", ["m", "v"], [[0.0, -1.0]])
    code, _, err = run_cli(
        capsys, "score", "--metric", "ds", "--pred", bad, "--baseline", good, "--realized", realized
    )
    assert code == 2 and "numerical failure" in err


def test_bench_independence_smoke(capsys, tmp_path):
    out = str(tmp_path / "bench.json")
    code, payload, _ = run_cli(
        capsys,
        "bench", "independence", "--dist", "circle", "--n", "60", "--reps", "3",
        "--seed", "11", "--out", out,
    )
    assert code == 0
    assert payload["reps"] == 3 and len(payload["p_values"]) == 3
    assert 0.0 <= payload["rejection_rate"] <= 1.0
    saved = json.load(open(out))
    assert saved["seed"] == 11
    assert saved["rejection_rate"] == payload["rejection_rate"]


def test_bench_mixture_smoke(capsys):
    code, payload, _ = run_cli(
        capsys,
        "bench", "mixture", "--runs", "1", "--n-train", "100", "--n-test", "10",
        "--grid-cap", "60", "--max-rank", "100", "--seed", "12",
    )
    assert code == 0
    assert payload["runs"] == 1 and len(payload["differentials"]) == 1
