"""The README's "Library" example runs as written.

The first python block under "## Library" is executed one statement at a
time.  A bare expression, or an assignment to one name, whose line ends in
a comment that is itself a Python expression shows its value's repr there,
and must have exactly that repr; a prose comment is only run past.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    match = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert match, "README has no python block under ## Library"
    return match.group(1)


def _shown_values(source: str) -> dict[int, str]:
    """Line number -> the comment on it, for comments that parse as an expression."""
    shown = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment = tok.string[1:].strip()
            try:
                ast.parse(comment, mode="eval")
            except SyntaxError:
                continue
            shown[tok.start[0]] = comment
    return shown


def test_readme_library_block_runs_as_written():
    source = _library_block()
    shown = _shown_values(source)
    assert shown, "the Library block shows no value to check"
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            if stmt.lineno in shown:
                (target,) = stmt.targets
                value = namespace[target.id]
        if stmt.lineno in shown:
            assert repr(value) == shown[stmt.lineno], ast.get_source_segment(source, stmt)
            checked += 1
    assert checked == len(shown)
