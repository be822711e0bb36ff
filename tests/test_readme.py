"""The README's python blocks run, and each expression whose line ends in a
comment opening with a list literal returns that list.

Run as a script (``python tests/test_readme.py README.md``) it checks the
README against whichever ``exactntt`` the interpreter imports, such as an
installed package.
"""

import ast
import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def run_python_blocks(text: str) -> list:
    """Execute every python block in ``text``; return the commented results checked."""
    checked = []
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        lines = block.splitlines()
        namespace: dict = {}
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            result = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = re.search(r"#\s*(\[[^\]]*\])", lines[stmt.end_lineno - 1])
            if comment:
                expected = ast.literal_eval(comment.group(1))
                assert result == expected, f"{ast.unparse(stmt)} gave {result}, README says {expected}"
                checked.append(result)
    return checked


def test_readme_quick_tour_runs_and_matches_its_comments():
    assert run_python_blocks(README.read_text()) == [[2, 1, 1], [3, 1, 4, 1], [11, 17]]


if __name__ == "__main__":
    import exactntt

    checked = run_python_blocks(Path(sys.argv[1]).read_text())
    assert checked, "no commented result was checked"
    print(f"README python blocks ran against {exactntt.__file__}; checked {checked}")
