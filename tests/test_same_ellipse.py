"""Whether two parameters name the same ellipse is decided in one place,
``book._same``.  Any other comparison with PARAM_TOL would be a second
definition of the book's ellipses, which a change to the tolerance could
miss."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "billiard_books"


def _loads_outside_same(tree, module="book"):
    """Line of each load of PARAM_TOL outside f-strings and, in ``book``,
    outside ``_same``."""
    found = []

    def visit(node, allowed):
        if isinstance(node, ast.FunctionDef) and node.name == "_same" and module == "book":
            allowed = True
        elif isinstance(node, ast.JoinedStr):
            allowed = True  # a message may print the tolerance
        is_load = isinstance(getattr(node, "ctx", None), ast.Load)
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if is_load and name == "PARAM_TOL" and not allowed:
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(tree, False)
    return found


def test_param_tol_is_compared_only_in_same():
    loads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loads += [f"{path.name}:{line}" for line in _loads_outside_same(tree, path.stem)]
    assert loads == []


def test_the_guard_sees_a_comparison():
    tree = ast.parse("def f(x, y):\n    return abs(x - y) <= PARAM_TOL\n")
    assert _loads_outside_same(tree) == [2]
    tree = ast.parse("def _same(x, y):\n    return abs(x - y) <= book.PARAM_TOL\n"
                     "msg = f'within {PARAM_TOL}'\n")
    assert _loads_outside_same(tree) == []
    assert _loads_outside_same(tree, "games") == [2]
