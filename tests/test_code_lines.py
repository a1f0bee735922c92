"""``benchmarks/code_lines.py`` counts code lines: neither comments, docstrings nor blank
lines count, and every line of a statement spread over several lines does."""

import importlib.util
import os

import pytest

_CODE_LINES_PY = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                              "code_lines.py")

#: 7 code lines: the import, the def, the two lines of its return, the class line and
#: the two lines of a string that is not a docstring.
FIXTURE = '''"""Module docstring
over two lines."""

# A comment.
import os  # a comment after code


def f(x):
    """Docstring."""
    # A comment inside.

    return (x +
            1)


class C:
    """Class docstring."""

    value = """not a docstring,
    two lines"""
'''


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", _CODE_LINES_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_counts_only_code(code_lines):
    assert code_lines.code_lines(FIXTURE) == 7


def test_source_without_code_counts_zero(code_lines):
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_prints_each_file_and_the_total(code_lines, tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(FIXTURE, encoding="utf-8")
    (package / "b.py").write_text("x = 1\n", encoding="utf-8")
    (package / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert code_lines.main([str(package)]) == 8
    assert capsys.readouterr().out.splitlines() == [
        f"      7  {package / 'a.py'}",
        f"      1  {package / 'b.py'}",
        "      8  total",
    ]
