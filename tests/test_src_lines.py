import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

FIXTURE = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps the line

# a comment-only line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        "a bare string after the docstring is code"
        return os.path.join(x,
                            "y")


async def g():
    """Async docstring."""
    return """a string
over two lines"""
'''
CODE = {4, 9, 12, 15, 16, 17, 20, 22, 23}  # the fixture's code line numbers


def test_code_lines_skip_blanks_comments_and_docstrings():
    assert src_lines.code_lines(FIXTURE) == len(CODE)
    assert src_lines.code_lines("x = 1\n\n\n# note\n") == 1
    assert src_lines.code_lines('"""only a docstring"""\n') == 0
    assert src_lines.code_lines('x = 1\n"""not a docstring"""\n') == 2


def test_count_totals_wc_and_code_lines_per_module(tmp_path, capsys):
    package = tmp_path / "src" / "sparserec"
    package.mkdir(parents=True)
    (package / "a.py").write_text(FIXTURE)
    (package / "b.py").write_text("x = 1\n\n# note\ny = [1,\n     2]")  # no final newline
    got = src_lines.count(tmp_path)
    assert got["modules"] == {"a.py": {"wc_lines": FIXTURE.count("\n"), "code_lines": len(CODE)},
                              "b.py": {"wc_lines": 4, "code_lines": 3}}
    assert got["total"] == {"wc_lines": FIXTURE.count("\n") + 4, "code_lines": len(CODE) + 3}
    assert src_lines.main(["src_lines.py", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == got
