"""Count the lines of a checkout's library, by `wc -l` and as code lines.

Usage: python3 tools/src_lines.py [CHECKOUT]

Prints one JSON object for ``CHECKOUT/src/sparserec/*.py`` (CHECKOUT
defaults to the repository holding this script): per module and in total,
``wc_lines`` (newline characters, as ``wc -l`` counts them) and
``code_lines``.  A code line holds a token that is not a comment, and lies
outside every docstring: blank lines, comment-only lines and the lines of
module, class and function docstrings are not code.  Every line a
multi-line token (a string, say) covers counts.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of the module's, classes' and functions' docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(checkout: Path) -> dict:
    """{"modules": {name: {"wc_lines", "code_lines"}}, "total": {...}}."""
    modules = {}
    for path in sorted((checkout / "src" / "sparserec").glob("*.py")):
        source = path.read_text()
        modules[path.name] = {"wc_lines": source.count("\n"), "code_lines": code_lines(source)}
    total = {key: sum(m[key] for m in modules.values()) for key in ("wc_lines", "code_lines")}
    return {"modules": modules, "total": total}


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkout = Path(argv[1]) if len(argv) == 2 else Path(__file__).resolve().parents[1]
    print(json.dumps(count(checkout), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
