"""Count the code, docstring, comment and blank lines of a Python package.

    python3 scripts/src_lines.py [DIRECTORY]

DIRECTORY defaults to src/knotsig beside this script's parent.  Each
physical line of each .py file counts once: as docstring when it lies in
the docstring of the module, a class or a function (by `ast`), else as
blank when it holds only whitespace, as comment when its only token is a
comment (by `tokenize`), else as code.  Prints one row per file and the
total; when stdout is closed before the rows are written
(``... | head -1``), exits 141, as a shell reports SIGPIPE, with nothing
on stderr.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    docs = docstring_lines(ast.parse(source))
    comment_only, code = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment_only.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        if number in docs:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif number in comment_only and number not in code:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "knotsig"
    total = dict.fromkeys(KINDS, 0)
    rows = [f"{'file':<20}" + "".join(f"{k:>10}" for k in KINDS) + f"{'total':>10}"]
    for path in sorted(root.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        rows.append(f"{path.name:<20}" + "".join(f"{counts[k]:>10}" for k in KINDS)
                    + f"{sum(counts.values()):>10}")
    rows.append(f"{'total':<20}" + "".join(f"{total[k]:>10}" for k in KINDS) + f"{sum(total.values()):>10}")
    try:
        print("\n".join(rows))
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader is gone (``... | head -1``): exit as a shell reports SIGPIPE, silently;
        # `knotsig.cli.write_lines` does the same, but this script imports no package
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main(sys.argv))
