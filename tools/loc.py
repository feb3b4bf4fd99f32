#!/usr/bin/env python3
"""Logical lines of code in ``src/stmgraph/*.py``: the lines that hold a
token other than a comment, a docstring or the line breaks and indents
around them.  A statement spread over several lines counts each line that
holds one of its tokens.

    python3 tools/loc.py
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stmgraph"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each module, class or function docstring
    starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def logical_lines(path: Path) -> int:
    text = path.read_text()
    docs = docstring_starts(ast.parse(text))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docs):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


if __name__ == "__main__":
    print(sum(map(logical_lines, SRC.glob("*.py"))))
