"""Count the code lines of a Python package: the lines that hold a token
after tokenizing, leaving out docstrings (a string that is a whole
statement), comments and blank lines.  A token that spans lines, such as a
multi-line string that is not a docstring, holds each line it spans.

    python tools/code_lines.py [DIR]

prints one `module count` line per module of DIR (default: `src/pinchsim`
beside this script's directory), then `total count`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token, other than a
    comment or a docstring."""
    docstrings = [(node.lineno, node.col_offset,
                   node.end_lineno, node.end_col_offset)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str)]
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP or any(
                (l0, c0) <= tok.start and tok.end <= (l1, c1)
                for l0, c0, l1, c1 in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else (
        Path(__file__).resolve().parent.parent / "src" / "pinchsim")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main(sys.argv[1:])
