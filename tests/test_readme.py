"""The README's library quick tour runs, and its comments state what it returns.

Every comment in the tour's Python block follows an expression and starts
with the ``repr`` of that expression's value, so an API change that the
tour does not follow fails here.
"""

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    section = README.read_text().split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_comments_state_the_values():
    source = quick_tour()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    comments = {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}
    namespace = {}
    checked = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
        for line in range(node.lineno, node.end_lineno + 1):
            if line in comments:
                comment = comments[line]
                assert isinstance(node, ast.Expr), f"comment on a statement: {comment}"
                want = repr(value)
                assert comment == want or comment.startswith((want + " ", want + ":")), (
                    f"line {line}: {ast.unparse(node)} is {want}, the comment says {comment!r}"
                )
                checked[line] = comment
    assert checked == comments
    assert len(checked) >= 8
