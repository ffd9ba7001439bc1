"""README's Library examples run against the package root and give the
results their comments state."""
import ast
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list:
    """The first two fenced python blocks after the ``## Library`` heading:
    the example and the model protocol."""
    text = README.read_text().split("## Library", 1)[1]
    return [block.split("```", 1)[0] for block in text.split("```python\n")[1:3]]


def run_stated(src: str, ns: dict) -> list:
    """Run ``src`` statement by statement in ``ns`` and pair the value of
    each expression with the Python literal its trailing comment states."""
    lines = src.splitlines()
    stated = []
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
    return stated


@pytest.fixture(scope="module")
def example():
    """The example's namespace and its stated results."""
    ns = {}
    return ns, run_stated(library_blocks()[0], ns)


def test_library_example_gives_its_stated_results(example):
    _, stated = example
    assert stated == [(True, True), ("Hyperbolic (genuine)", "Hyperbolic (genuine)")]


def test_protocol_example_gives_its_stated_shapes(example):
    # with ``s`` and ``lie`` from the example, every line states its shape
    ns, _ = example
    stated = run_stated(library_blocks()[1], dict(ns))
    assert stated == [((5, 3, 4),) * 2, ((1, 1, 4),) * 2, ((5, 3, 4),) * 2,
                      ((1000, 4),) * 2, ((1, 3, 4),) * 2, ((1, 4),) * 2]
