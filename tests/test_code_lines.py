"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import os  # code with a trailing comment


class A:
    """Class docstring."""

    x = """a string value
spanning two lines"""

    def f(self):
        """Function docstring."""
        return (1 +
                2)
'''


def test_counts_code_not_comments_blanks_or_docstrings():
    # import, class, x = (two lines), def, return (two lines)
    assert code_lines.code_lines(SAMPLE) == 7


def test_counts_every_module_of_the_package(capsys):
    package = Path(__file__).resolve().parents[1] / "src" / "ebx"
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for _, name in rows[:-1]] == sorted(p.name for p in package.glob("*.py"))
    assert rows[-1] == [str(sum(int(n) for n, _ in rows[:-1])), "total"]
