"""Count the code and docstring lines of a package's modules.

A code line holds a token other than a comment or a docstring; a docstring
line is a line of a module, class or function docstring.  Blank lines and
comment-only lines count as neither.  Only the standard library is used
(tokenize and ast).

    python tools/code_lines.py [DIRECTORY]    (default: src/pachain)
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(path: Path) -> tuple[int, int]:
    """(code lines, docstring lines) of one Python source file."""
    source = path.read_bytes()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _NOT_CODE:
                code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstring), len(docstring)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/pachain")
    total_code = total_doc = 0
    print(f"{'module':<24} {'code':>6} {'docstring':>10}")
    for path in sorted(root.glob("*.py")):
        code, doc = count_lines(path)
        total_code, total_doc = total_code + code, total_doc + doc
        print(f"{path.name:<24} {code:>6} {doc:>10}")
    print(f"{'total':<24} {total_code:>6} {total_doc:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
