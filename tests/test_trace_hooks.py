"""The benchmark's traced run (perfbench/spans.py) replaces library functions
by the module or class attribute their callers look up.  A hooked name that
is renamed or removed must fail here, in tier-1, and not only in the slow
``pytest perfbench`` run.  The same reading of the sources finds imports and
module-level definitions that nothing reads, and counts the public names."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _ in spans.WRAPS if attr not in owner.__dict__
    ]
    assert missing == []


def _imports_and_uses(tree):
    """(name bound by each import, all names the module reads)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported, used


def test_every_import_is_used_or_hooked():
    """An import no code of its module reads must be one the traced run
    hooks there; any other is dead and goes."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    package = ROOT / "src" / "billiard_books"
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        hooked = {attr for owner, attr, _ in spans.WRAPS
                  if getattr(owner, "__name__", "") == f"billiard_books.{path.stem}"}
        imported, used = _imports_and_uses(ast.parse(path.read_text(encoding="utf-8")))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used and name not in hooked]
    assert unused == []


def _reads(tree):
    """Every name the module loads, as a name, an attribute or a string
    (``getattr``, ``monkeypatch.setattr`` and the hook table use strings)."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def _definitions(body):
    """(line, name) of each function, class or constant a module body defines,
    and of each method or property of its class bodies."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
            if isinstance(node, ast.ClassDef):
                yield from ((item.lineno, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))


def test_every_definition_is_read():
    """A module-level function, class or constant of the package, or a method
    or property of one of its classes, that no code in src, tests, demos or
    perfbench reads is dead and goes: a cached table left behind fails here."""
    sources = [path for folder in ("src", "tests", "demos", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    reads = set()
    for path in sources:
        reads |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    unread = [
        f"{path.name}:{line} {name}"
        for path in sorted((ROOT / "src" / "billiard_books").glob("*.py"))
        for line, name in _definitions(ast.parse(path.read_text(encoding="utf-8")).body)
        if name not in reads and not name.startswith("__")
    ]
    assert unread == []


def test_only_book_reads_a_gluing():
    """A gluing is read (its map, an image under it, or the book's lookup of
    it) in ``book`` alone; every other module asks ``book`` for the leaf a
    wall leads to."""
    gluing_reads = {"mapping", "image", "gluing_for", "gluings"}
    readers = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in sorted((ROOT / "src" / "billiard_books").glob("*.py"))
        if path.name != "book.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr in gluing_reads
    ]
    assert readers == []


def test_public_names_do_not_grow():
    """The package's public names are the ones ``__init__`` imports.  A change
    that adds one must raise this bound and say why in CHANGES.md; one that
    removes names should lower it."""
    tree = ast.parse((ROOT / "src" / "billiard_books" / "__init__.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert len(names) <= 64, (
        f"__init__ imports {len(names)} names, more than 64: a change that adds a public "
        "name raises this bound and says why in CHANGES.md; one that removes names lowers it")
