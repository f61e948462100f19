"""tools/code_lines.py: which lines of a Python file count as code."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import math  # counts


def f(x):
    """Function docstring."""

    s = """a string
in an expression"""
    return (x +
            math.pi)
'''


@pytest.fixture
def sample(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n')
    return tmp_path / "pkg"


def test_counts_code_lines_and_skips_docstrings_comments_and_blanks(sample):
    out = subprocess.run([sys.executable, str(TOOL), str(sample)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    # import, def, the two lines of the string, and the two of the return
    assert out == [f"     6 {sample / 'a.py'}", f"     0 {sample / 'b.py'}", "     6 total"]
