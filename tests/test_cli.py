import json
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdm import cli
from kdm._entry import pin_blas_threads
from kdm.cli import UsageError, ingest_csv, main, parse_columns
from kdm.conditional import JointDataset, conditional_moments, fit_conditional
from kdm.estimator import fit, load_model
from kdm.kernels import KernelSpec
from reference import ingest_csv_reference


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


def test_ingest_csv_drops_a_utf8_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports begin with one; it made the first
    # header cell read '\ufeffx', so that column could not be named
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfx,y\r\n1.5,2\r\n3,4\r\n")
    np.testing.assert_array_equal(ingest_csv(str(path), ["x"]).points, [[1.5], [3.0]])
    np.testing.assert_array_equal(ingest_csv(str(path), ["y", "x"]).points, [[2.0, 1.5], [4.0, 3.0]])
    quoted = tmp_path / "bom_quoted.csv"
    quoted.write_bytes(b'\xef\xbb\xbf"x","y"\n"1_000",2\n')
    np.testing.assert_array_equal(ingest_csv(str(quoted), ["x"]).points, [[1000.0]])


@pytest.mark.parametrize("late", [False, True], ids=["first_line", "past_the_first_read"])
def test_csv_that_is_not_utf8_names_the_file_exit_1(capsys, tmp_path, late):
    # the decode error named no file: "kdm: error: 'utf-8' codec can't decode byte 0xff ..."
    rows = [[0.1 * i, 0.2 * i] for i in range(2000 if late else 1)]
    bad = write_csv(tmp_path / "bad.csv", ["a", "b"], rows)
    with open(bad, "ab") as fh:
        fh.write(b"3,\xff4\n")
    ok = write_csv(tmp_path / "ok.csv", ["a", "b"], rows)
    with pytest.raises(UsageError, match=r"bad\.csv: not UTF-8 text \("):
        ingest_csv(bad)
    code, _, err = run_cli(
        capsys, "fit", "--p", bad, "--q", ok, "--rho", "1.0", "--lambda", "1e-3", "--out", str(tmp_path / "m.kdm")
    )
    assert code == 1 and f"kdm: error: {bad}: not UTF-8 text" in err
    assert not os.path.exists(tmp_path / "m.kdm")


_SPACE = st.sampled_from(["", "", " ", "\t", "\xa0", "\u2007", "\u3000"])
# cells numpy's reader parses as Python's float() does, padded or not
_PLAIN_CELL = st.tuples(
    _SPACE,
    st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers(-(10**6), 10**6).map(str)),
    _SPACE,
).map("".join)
# the rest of Python's float grammar, quoted cells, and cells that are not finite numbers
_ODD_CELL = st.one_of(
    st.integers(0, 10**7).map(lambda i: f"{i:_}"),
    st.tuples(
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(["0", "7", "12", "1_0", ""]),
        st.sampled_from(["", ".", ".5", ".25_0"]),
        st.sampled_from(["", "e3", "E-2", "e+1", "e400", "e-400"]),
    ).map("".join),
    _PLAIN_CELL.map(lambda c: f'"{c}"'),
    st.sampled_from(["", " ", "x", "1__0", "0x10", "nan", "-inf", "Infinity", "1e400", '"1,5"']),
)


@st.composite
def _csv_files(draw):
    """The text of a CSV file and a column selection for it.

    Half the files hold full rows of plain cells, which numpy's reader
    takes, with at most one odd line: a blank or whitespace-only line, a
    ragged row or a row with an odd cell.  The other half mix every kind of
    cell and line.
    """
    width = draw(st.integers(1, 3))
    names = ["a", "b", "c"][:width]
    header = draw(st.sampled_from([",".join(names)] * 5 + [",".join(f'"{n}"' for n in names), " a ,2", "1,2"]))
    full = st.lists(_PLAIN_CELL, min_size=width, max_size=width).map(",".join)
    cell = st.one_of(_PLAIN_CELL, _ODD_CELL)
    odd = st.one_of(
        st.sampled_from(["", " ", "\t "]),
        st.lists(cell, min_size=1, max_size=width + 1).map(",".join),
        st.lists(cell, min_size=width, max_size=width).map(",".join),
    )
    if draw(st.booleans()):
        lines = draw(st.lists(full, max_size=8))
        if lines and draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), draw(odd))
    else:
        lines = draw(st.lists(st.one_of(full, odd), max_size=6))
    lines.insert(0, header)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    ends = draw(st.lists(st.sampled_from([end, end, end, "\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + e for line, e in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    columns = draw(st.sampled_from([None] * 4 + [[0], [width - 1, 0], ["a"], ["b"], [3]]))
    return text, columns


@settings(max_examples=400, deadline=None)
@given(_csv_files())
def test_ingest_csv_matches_the_csv_module_parse(tmp_path_factory, drawn):
    # numpy's reader or the csv module's parse: the points are bitwise those
    # of Python's float() cell by cell, in row-major order (the layout the
    # products downstream round by), and every refusal has the same text
    text, columns = drawn
    path = str(tmp_path_factory.mktemp("parity") / "d.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)

    def outcome(read):
        try:
            points = read(path, columns)
        except UsageError as exc:
            return str(exc)
        return points.shape, points.flags.c_contiguous, points.tobytes()

    assert outcome(lambda p, c: ingest_csv(p, c).points) == outcome(ingest_csv_reference)


def test_ingest_csv_holds_no_python_object_per_cell(tmp_path):
    # 50,000 x 4 cells: a str per cell in a list per row took about 108
    # traced bytes a cell; numpy's reader keeps to the array and its growth
    pts = np.random.default_rng(4).standard_normal((50_000, 4))
    path = tmp_path / "big.csv"
    path.write_text("a,b,c,d\n" + "".join(",".join(map(repr, row)) + "\n" for row in pts.tolist()))
    tracemalloc.start()
    try:
        ds = ingest_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.points.tobytes() == pts.tobytes()
    assert peak < 24 * pts.size


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
    # a short row is rejected also when only unselected fields are missing
    path = write_csv(tmp_path / "short.csv", ["a", "b", "c"], [[1, 2, 3], [4, 5]])
    for cols in (["a"], [0, 1]):
        with pytest.raises(UsageError, match=f"{path}: row 2 has only 2 fields$"):
            ingest_csv(path, cols)


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


def test_test_rejects_a_bundle_whose_lambda_is_a_string_exit_1(capsys, tmp_path):
    code, _, model = fit_two_samples(capsys, tmp_path)
    assert code == 0
    raw = open(model, "rb").read()
    (hlen,) = struct.unpack("<Q", raw[4:12])
    header = json.loads(raw[12 : 12 + hlen])
    head = json.dumps({**header, "lam": str(header["lam"])}, sort_keys=True, separators=(",", ":"))
    with open(model, "wb") as fh:
        fh.write(raw[:4] + struct.pack("<Q", len(head)) + head.encode("utf-8") + raw[12 + hlen :])
    code, _, err = run_cli(capsys, "test", "--model", model)
    assert code == 1
    assert model in err and "field 'lam' is '" in err and "expected a number" in err


@pytest.mark.parametrize("name, bad, token", [("lam", math.nan, "NaN"), ("kappa_inf", math.inf, "Infinity")])
def test_test_rejects_a_bundle_with_a_non_finite_header_number_exit_1(capsys, tmp_path, name, bad, token):
    # loaded, a NaN lam gave "norm_bound": NaN and an infinite kappa_inf
    # "bound_holds": true, both with exit 0
    code, _, model = fit_two_samples(capsys, tmp_path)
    assert code == 0
    raw = open(model, "rb").read()
    (hlen,) = struct.unpack("<Q", raw[4:12])
    header = json.loads(raw[12 : 12 + hlen])
    head = json.dumps({**header, name: bad}, sort_keys=True, separators=(",", ":"))
    assert f'"{name}":{token}' in head
    with open(model, "wb") as fh:
        fh.write(raw[:4] + struct.pack("<Q", len(head)) + head.encode("utf-8") + raw[12 + hlen :])
    code, _, err = run_cli(capsys, "test", "--model", model, "--eta", "0.1")
    assert code == 1
    assert model in err and f"field '{name}' is" in err and "expected a finite number" in err


@pytest.mark.parametrize("bad", ["gaussian", [1, 2]], ids=["string", "list"])
def test_test_rejects_a_bundle_whose_kernel_is_not_an_object_exit_1(capsys, tmp_path, bad):
    # KernelSpec.from_dict called .get on it: an AttributeError traceback
    code, _, model = fit_two_samples(capsys, tmp_path)
    assert code == 0
    raw = open(model, "rb").read()
    (hlen,) = struct.unpack("<Q", raw[4:12])
    header = json.loads(raw[12 : 12 + hlen])
    head = json.dumps({**header, "kernel": bad}, sort_keys=True, separators=(",", ":"))
    with open(model, "wb") as fh:
        fh.write(raw[:4] + struct.pack("<Q", len(head)) + head.encode("utf-8") + raw[12 + hlen :])
    code, _, err = run_cli(capsys, "test", "--model", model)
    assert code == 1
    assert f"kdm: error: {model}: field 'kernel' is" in err and "expected a JSON object" in err


def test_test_reports_the_terms_of_the_norm_bound(capsys, tmp_path):
    code, _, model = fit_two_samples(capsys, tmp_path)
    assert code == 0
    code, result, _ = run_cli(capsys, "test", "--model", model, "--eta", "0.1")
    assert code == 0
    assert result["c_fs"] > 0 and result["c_ae"] >= 0
    # norm_bound = (c_fs + c_ae) / (lam sqrt(n))
    assert result["norm_bound"] == pytest.approx(
        (result["c_fs"] + result["c_ae"]) / (result["lambda"] * np.sqrt(result["n"])), rel=1e-12
    )
    code, result, _ = run_cli(capsys, "test", "--model", model)
    assert code == 0 and {"norm_bound", "c_fs", "c_ae"}.isdisjoint(result)


def test_test_rejects_a_bundle_of_unknown_prior_exit_1(capsys, tmp_path):
    # read as the prior zero, it would bound the norm with pi_inf 0
    code, _, model = fit_two_samples(capsys, tmp_path)
    assert code == 0
    raw = open(model, "rb").read()
    (hlen,) = struct.unpack("<Q", raw[4:12])
    header = json.loads(raw[12 : 12 + hlen])
    assert header["prior"]["kind"] == "one"
    head = json.dumps({**header, "prior": {"kind": "custom", "pi_inf": 3.0}}, sort_keys=True, separators=(",", ":"))
    with open(model, "wb") as fh:
        fh.write(raw[:4] + struct.pack("<Q", len(head)) + head.encode("utf-8") + raw[12 + hlen :])
    code, _, err = run_cli(capsys, "test", "--model", model, "--eta", "0.1")
    assert code == 1
    assert model in err and "field 'prior'" in err


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
    # a target without the omp strategy is refused, not read and ignored
    code, _, err = run_cli(
        capsys, "fit", "--p", str(tmp_path / "p.csv"), "--q", str(tmp_path / "q.csv"), "--lambda", "1e-3",
        "--omp-target", t_csv, "--out", str(tmp_path / "greedy.kdm"),
    )
    assert code == 1 and "omp_target is read only by the omp strategy, not by 'greedy'" in err
    assert not (tmp_path / "greedy.kdm").exists()


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


def test_condexp_checks_the_query_file_before_the_fit(capsys, tmp_path, monkeypatch):
    # a query file of the wrong width exits 1 without a fit
    joint = str(tmp_path / "joint.csv")
    run_cli(capsys, "simulate", "--dist", "variance", "--n", "240", "--seed", "5", "--out", joint)
    bad = write_csv(tmp_path / "bad_query.csv", ["a", "b"], [[0.0, 1.0]])

    def no_fit(*args, **kwargs):
        pytest.fail("condexp fitted before it checked the query file")

    monkeypatch.setattr(cli, "fit_conditional", no_fit)
    code, _, err = run_cli(
        capsys,
        "condexp",
        "--joint", joint, "--xcols", "x", "--ycols", "y",
        "--rho", "1.0", "--lambda", "1e-3", "--seed", "0",
        "--query", bad, "--out", str(tmp_path / "c.csv"),
    )
    assert code == 1 and "query rows have 2 columns, expected 1" in err
    assert not os.path.exists(tmp_path / "c.csv")


def test_condexp_reads_the_joint_csv_once(capsys, tmp_path, monkeypatch):
    # the x and the y columns come from one read of the joint file, and the
    # moments are bitwise those of reading each selection on its own
    joint = str(tmp_path / "joint.csv")
    run_cli(capsys, "simulate", "--dist", "variance", "--n", "240", "--seed", "5", "--out", joint)
    query = write_csv(tmp_path / "query.csv", ["x"], [[-1.0], [0.0], [1.0]])
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    out = str(tmp_path / "cond.csv")
    code, _, _ = run_cli(
        capsys,
        "condexp",
        "--joint", joint, "--xcols", "x", "--ycols", "y",
        "--rho", "1.0", "--lambda", "1e-3", "--seed", "0",
        "--query", query, "--out", out,
    )
    assert code == 0 and opened.count(joint) == 1
    monkeypatch.undo()
    x, y = ingest_csv(joint, ["x"]).points, ingest_csv(joint, ["y"]).points
    cmodel = fit_conditional(JointDataset(x=x, y=y), KernelSpec("gaussian", rho=1.0), 1e-3, seed=0)
    mean, cov, degenerate = conditional_moments(cmodel, ingest_csv(query).points, return_degenerate=True)
    written = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert written.tobytes() == np.hstack([mean, cov.reshape(3, -1), degenerate[:, None]]).tobytes()


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
    code, _, err = run_cli(capsys, "cv", "--p", p, "--q", q, "--rhos", "1", "--lambdas", "1", "--folds", "1000",
                           "--seed", "1")
    assert code == 1 and "folds must lie in [2, 120], got 1000" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--dist", "circle", "--n", "10"],
        ["condexp", "--joint", "j.csv", "--xcols", "0", "--ycols", "1", "--lambda", "1e-3", "--query", "x.csv"],
        ["cv", "--p", "p.csv", "--q", "q.csv", "--rhos", "1", "--lambdas", "1e-3"],
        ["bench", "independence", "--dist", "circle", "--n", "50", "--reps", "2"],
        ["bench", "mixture", "--runs", "1"],
    ],
    ids=lambda argv: " ".join(argv[:2] if argv[0] == "bench" else argv[:1]),
)
def test_negative_seed_names_its_flag_exit_1(capsys, tmp_path, argv):
    # before: numpy's "expected non-negative integer", which names no flag
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, *argv, "--seed", "-1", "--out", str(out))
    assert code == 1
    assert "argument --seed: must be an integer >= 0, got '-1'" in err
    assert not out.exists()


def test_lambda_flags_must_be_finite_and_positive_exit_1(capsys, tmp_path):
    # a ridge parameter is checked when the flags are parsed, so the message
    # names the flag and no output is written
    p = write_csv(tmp_path / "p.csv", ["a"], [[0.1 * i] for i in range(12)])
    q = write_csv(tmp_path / "q.csv", ["a"], [[0.2 * i] for i in range(12)])
    out = tmp_path / "out.json"
    for lambdas in ("1e-3,inf", "nan", "1e-3,-1", "0", "abc"):
        code, _, err = run_cli(
            capsys, "cv", "--p", p, "--q", q, "--rhos", "1", "--lambdas", lambdas, "--seed", "0", "--out", str(out)
        )
        assert code == 1 and "argument --lambdas:" in err, (lambdas, err)
    for lam in ("inf", "nan", "-1e-3", "abc"):
        code, _, err = run_cli(capsys, "fit", "--p", p, "--q", q, "--lambda", lam, "--out", str(out))
        assert code == 1 and "argument --lambda:" in err, (lam, err)
    assert not out.exists()


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


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Small inputs for every subcommand: two samples, a fitted model, a joint sample, a query, score files."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(30)
    files = {
        "p": write_csv(root / "p.csv", ["a", "b"], rng.normal(0, 1, (60, 2))),
        "q": write_csv(root / "q.csv", ["a", "b"], rng.normal(0.5, 1, (60, 2))),
        "joint": write_csv(root / "joint.csv", ["x", "y"], rng.normal(0, 1, (60, 2))),
        "query": write_csv(root / "query.csv", ["x"], [[-1.0], [1.0]]),
        "base": write_csv(root / "base.csv", ["s"], [[1.0], [2.0]]),
        "pred": write_csv(root / "pred.csv", ["s"], [[0.0], [1.0]]),
        "model": str(root / "model.kdm"),
    }
    assert main(["fit", "--p", files["p"], "--q", files["q"], "--lambda", "1e-3", "--out", files["model"]]) == 0
    return files


def command(name, f):
    """The arguments of one subcommand on the ``cli_inputs`` files, without --out."""
    return {
        "simulate": ["simulate", "--dist", "circle", "--n", "30", "--seed", "1"],
        "fit": ["fit", "--p", f["p"], "--q", f["q"], "--rho", "2.0", "--lambda", "1e-3"],
        "test": ["test", "--model", f["model"], "--eta", "0.1"],
        "condexp": [
            "condexp", "--joint", f["joint"], "--xcols", "x", "--ycols", "y", "--lambda", "1e-3", "--seed", "0",
            "--query", f["query"],
        ],
        "cv": [
            "cv", "--p", f["p"], "--q", f["q"], "--rhos", "1.0", "--lambdas", "1e-3,1e-1", "--folds", "2",
            "--seed", "1",
        ],
        "score": ["score", "--metric", "energy", "--pred", f["pred"], "--baseline", f["base"]],
        "bench independence": ["bench", "independence", "--dist", "circle", "--n", "30", "--reps", "2", "--seed", "3"],
        "bench mixture": [
            "bench", "mixture", "--runs", "1", "--n-train", "60", "--n-test", "5", "--grid-cap", "20",
            "--max-rank", "30", "--seed", "4",
        ],
    }[name]


REPORT_COMMANDS = ["test", "cv", "score", "bench independence", "bench mixture"]


@pytest.mark.parametrize("name", REPORT_COMMANDS)
def test_out_file_is_the_report_without_command(capsys, tmp_path, cli_inputs, name):
    out = tmp_path / "report.json"
    code, report, _ = run_cli(capsys, *command(name, cli_inputs), "--out", str(out))
    assert code == 0 and report.pop("command") == name.split()[0]
    assert out.read_text() == json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", ["simulate", "fit", "condexp", *REPORT_COMMANDS])
def test_every_command_refuses_an_existing_out_without_force(capsys, tmp_path, cli_inputs, name):
    out = tmp_path / "taken"
    out.write_bytes(b"keep me\n")
    code, _, err = run_cli(capsys, *command(name, cli_inputs), "--out", str(out))
    assert code == 1 and f"refusing to overwrite {out} (pass --force)" in err
    assert out.read_bytes() == b"keep me\n"


@pytest.mark.parametrize(
    "name, flag, value",
    [
        ("cv", "--rhos", "1.0,inf"),
        ("cv", "--rhos", "abc"),
        ("cv", "--rhos", "1.0,0"),
        ("cv", "--epsilon-rel", "nan"),
        ("fit", "--rho", "inf"),
        ("fit", "--c", "nan"),
        ("fit", "--epsilon", "nan"),
        ("fit", "--epsilon", "inf"),
        ("fit", "--epsilon-rel", "inf"),
        ("fit", "--epsilon-rel", "-1e-6"),
        ("condexp", "--epsilon-rel", "nan"),
        ("bench independence", "--rho", "inf"),
        ("test", "--t", "nan"),
        ("test", "--t", "inf"),
        ("test", "--t", "0"),
        ("bench independence", "--t", "nan"),
    ],
)
def test_length_scales_and_tolerances_must_be_finite_exit_1(capsys, tmp_path, cli_inputs, name, flag, value):
    # before: --rhos 1,inf chose rho = Infinity and exit 0, --rhos abc named
    # no flag, a NaN offset or tolerance ended in a numerical failure, and
    # --t nan or inf reported ell 0 and p-value 1 with exit 0
    argv = command(name, cli_inputs)
    if flag in argv:
        del argv[argv.index(flag) : argv.index(flag) + 2]
    argv.append(f"{flag}={value}")  # a negative value would read as a flag
    if flag == "--c":
        argv += ["--kernel", "polynomial"]
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1 and f"argument {flag}: must be a finite number" in err, err
    assert not out.exists()


def test_bench_independence_has_no_ridge_flag(capsys, cli_inputs):
    # the independence test reads no ridge solution, so --lambda changed nothing
    code, _, err = run_cli(capsys, *command("bench independence", cli_inputs), "--lambda", "1e-2")
    assert code == 1 and "unrecognized arguments: --lambda" in err


@pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
def test_kdm_threads_that_is_not_a_count_exits_1(capsys, monkeypatch, tmp_path, value):
    # a command that runs no decomposition refuses it too, before any work
    monkeypatch.setenv("KDM_THREADS", value)
    out = tmp_path / "s.csv"
    code, _, err = run_cli(capsys, "simulate", "--dist", "circle", "--n", "20", "--seed", "1", "--out", str(out))
    assert code == 1 and "KDM_THREADS" in err and not out.exists()


def test_console_entry_pins_blas_to_one_thread_whatever_kdm_threads_says(monkeypatch):
    monkeypatch.setenv("KDM_THREADS", "2")
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(var, "0")  # recorded, so the teardown restores it
        monkeypatch.delenv(var)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")  # a pool the environment sets stays as it is
    pin_blas_threads()
    assert os.environ["OPENBLAS_NUM_THREADS"] == os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["MKL_NUM_THREADS"] == "3"
