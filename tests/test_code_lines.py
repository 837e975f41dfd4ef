import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _counter():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_blanks_comments_and_docstrings(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        '"""Module docstring,\n'
        'on two lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self, a,\n"
        "          b):\n"
        "        '''Function docstring.'''\n"
        '        s = """a string\n'
        'on two lines"""\n'
        "        return (\n"
        "            s\n"
        "        )\n"
    )
    # X, class, def over two lines, the string over two, and return over three
    assert _counter().code_lines(src) == 9


def test_code_lines_count_the_package(capsys):
    counter = _counter()
    assert counter.main([str(ROOT / "src" / "kdm")]) == 0
    rows = capsys.readouterr().out.splitlines()
    counts = [int(row.split()[0]) for row in rows]
    assert rows[-1].endswith("total") and counts[-1] == sum(counts[:-1]) > 0
