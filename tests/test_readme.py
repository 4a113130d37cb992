"""The README's library tour runs as printed and gives the results its
comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_statements():
    """Each top-level statement of the library tour's code block, with
    the comment that ends its last line ('' if none)."""
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = source.splitlines()
    for statement in ast.parse(source).body:
        tail = lines[statement.end_lineno - 1][statement.end_col_offset:]
        yield statement, tail.strip().removeprefix("#").strip()


def test_library_tour_gives_its_commented_results():
    namespace = {}
    checked, candidate = [], None
    for statement, comment in tour_statements():
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        if ast.unparse(statement) == "result.candidate":
            candidate = value
            continue
        # The comment opens with the result, up to the first comma.
        expected = ast.literal_eval(comment.split(",")[0])
        assert value == expected, (ast.unparse(statement), comment)
        checked.append((ast.unparse(statement), expected))
    assert [expected for _, expected in checked] == [1, 1, 1, True, 9, 9]
    assert checked[-1][0] == "len(linalg.nullspace(result.rows, len(result.unknowns)))"
    # "f with entries 1, -1, its transform: 1 at 1"
    f, g = candidate
    assert (dict(f.items()), dict(g.items())) == ({1: 1, 2: -1}, {1: 1})
