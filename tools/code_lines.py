"""Count the code lines of the Python files under a directory.

A line counts if it holds a token other than a comment, a line break
(NL/NEWLINE), an INDENT/DEDENT or the ENDMARKER. A string that stands alone
as a statement (a docstring) does not count. A token that spans lines, such
as a triple-quoted string inside an expression, counts on every line it
spans.

Usage: python3 tools/code_lines.py [DIR]   (DIR defaults to src)

Prints one "<lines> <path>" row per file, in path order, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# ENCODING is tokenize's own first token, not a line of the file
_SKIPPED = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every string that stands alone as a statement."""
    return [((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
            for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)]


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    spans = _docstring_spans(ast.parse(source, str(path)))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _SKIPPED:
                continue
            if any(start <= tok.start < end for start, end in spans):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
