"""Every public name of the package has a production caller.

An AST scan: each name in a ``longvq.<module>.__all__`` must be read by
code in ``src/`` outside its own definition, in ``demos/`` or in
``perfbench/``. Tests do not count, so a name that only tests reach
fails here; so does one whose only caller is itself. A read is a bare
name, an attribute of that name, or (outside ``src/``, where the
benchmark's span table names its targets as strings) a string constant
equal to it. The kept references below are the deliberate exceptions,
each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "longvq"
CALLERS = ("demos", "perfbench")

# reference implementations that tests compare the program against
KEPT = {
    "sigmoid": "the reference that gate_mix and silu are tested against",
}


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


def test_every_exported_name_has_a_production_caller():
    modules = {p: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    outside = set()
    for sub in CALLERS:
        for p in sorted((ROOT / sub).rglob("*.py")):
            outside |= _reads(_parse(p), strings=True)
    unreached = []
    for path, tree in modules.items():
        try:
            names = _all_names(tree)
        except ValueError:
            unreached.append(f"{path.stem}.__all__ (not a literal list)")
            continue
        for name in names:
            if name in KEPT or name in outside:
                continue
            if any(name in _reads(t, strings=False,
                                  skip=_definitions(t, name) if p == path
                                  else ())
                   for p, t in modules.items()):
                continue
            unreached.append(f"{path.stem}.{name}")
    assert not unreached, (
        f"exported names that only tests reach: {unreached}; delete them, "
        "or add each to KEPT with its reason")


def test_kept_names_are_still_exported():
    exported = {n for p in PACKAGE.glob("*.py")
                for n in _all_names(_parse(p))}
    assert set(KEPT) <= exported, sorted(set(KEPT) - exported)
