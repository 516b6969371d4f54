"""Every public name of the package has a production caller.

An AST scan: each name in a ``longvq.<module>.__all__`` must be read by
code in ``src/`` outside its own definition, in ``demos/`` or in
``perfbench/``. Tests do not count, so a name that only tests reach
fails here; so does one whose only caller is itself. A read is a bare
name, an attribute of that name, or (outside ``src/``, where the
benchmark's span table names its targets as strings) a string constant
equal to it. There are no exceptions: a reference implementation that
only tests compare against lives in the tests.

The methods and properties of each exported class pass the same scan,
outside their own definition. Dunders are exempt: the language calls
them. A read is matched by name alone, whatever the object, so the scan
can miss an unread method that shares its name with a read attribute.

Every import in ``src/``, ``demos/`` and ``tests/`` is read by code in
its own file; a name listed in that file's ``__all__`` counts as read
(a re-export), and ``from __future__`` imports are exempt.

No line in ``src/``, ``demos/`` or ``tests/`` is wider than 79 columns,
PEP 8's limit; the check is the standard library's, so it needs no
linter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "longvq"
CALLERS = ("demos", "perfbench")
# the trees whose every import must be read in its own file
IMPORTERS = ("src", "demos", "tests")


def _all_names(tree):
    """The module's __all__; a list the scan cannot read raises."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _reads(tree, strings, skip=()):
    """Names read anywhere in tree, outside the subtrees in skip."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _definitions(tree, name):
    """The top-level statements of tree that define name: its def, its
    class or its assignment."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name == name:
            out.add(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == name
                   for t in targets):
                out.add(node)
    return out


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _outside_reads():
    """Every name read in demos/ and perfbench/, strings included."""
    return {name for sub in CALLERS
            for p in sorted((ROOT / sub).rglob("*.py"))
            for name in _reads(_parse(p), strings=True)}


def test_every_exported_name_has_a_production_caller():
    modules = {p: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    outside = _outside_reads()
    unreached = []
    for path, tree in modules.items():
        try:
            names = _all_names(tree)
        except ValueError:
            unreached.append(f"{path.stem}.__all__ (not a literal list)")
            continue
        for name in names:
            if name in outside:
                continue
            if any(name in _reads(t, strings=False,
                                  skip=_definitions(t, name) if p == path
                                  else ())
                   for p, t in modules.items()):
                continue
            unreached.append(f"{path.stem}.{name}")
    assert not unreached, (
        f"exported names that only tests reach: {unreached}; delete them, "
        "or move each into the tests that use it")


def _methods(tree, names):
    """(class, method) and its def for each non-dunder method or property
    defined in the body of a top-level class whose name is in names."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in names:
            out += [((node.name, f.name), f) for f in node.body
                    if isinstance(f, ast.FunctionDef)
                    and not (f.name.startswith("__")
                             and f.name.endswith("__"))]
    return out


def test_every_method_of_an_exported_class_has_a_production_caller():
    modules = {p: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    outside = _outside_reads()
    unreached = []
    for path, tree in modules.items():
        for (cls, name), node in _methods(tree, _all_names(tree)):
            if name in outside or any(
                    name in _reads(t, strings=False,
                                   skip={node} if p == path else ())
                    for p, t in modules.items()):
                continue
            unreached.append(f"{path.stem}.{cls}.{name}")
    assert not unreached, (
        f"methods that only tests reach: {unreached}; delete them")


def _imports(tree):
    """(name, line) for each name an import statement binds in tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], node.lineno)
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def test_every_import_is_read_in_its_file():
    unread = []
    for sub in IMPORTERS:
        for path in sorted((ROOT / sub).rglob("*.py")):
            tree = _parse(path)
            read = {n.id for n in ast.walk(tree)
                    if isinstance(n, ast.Name)} | set(_all_names(tree))
            unread += [f"{path.relative_to(ROOT)}:{line} {name}"
                       for name, line in _imports(tree) if name not in read]
    assert not unread, f"imports that nothing reads: {unread}"


def test_no_line_exceeds_79_columns():
    wide = [f"{path.relative_to(ROOT)}:{i}"
            for sub in IMPORTERS
            for path in sorted((ROOT / sub).rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 79]
    assert not wide, f"lines over 79 columns: {wide}"
