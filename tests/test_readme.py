"""README's Library example runs against the package root and gives the
results its comments state."""
import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first fenced python block after the ``## Library`` heading."""
    text = README.read_text().split("## Library", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_gives_its_stated_results():
    # run the block statement by statement and pair the value of each
    # expression with the Python literal its trailing comment states
    src = library_example()
    lines = src.splitlines()
    ns, stated = {}, []
    for node in ast.parse(src).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), ns)
            continue
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"), ns)
        comment = lines[node.end_lineno - 1][node.end_col_offset:].strip().lstrip("#")
        try:
            stated.append((got, ast.literal_eval(comment.strip())))
        except (ValueError, SyntaxError):
            pass    # no comment, or one in words
    assert stated == [(True, True), ("Hyperbolic (genuine)", "Hyperbolic (genuine)")]
