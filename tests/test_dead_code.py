"""Source scans for dead code: every private module-level name and every
method or property of the package is used somewhere."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaugeflow"
USERS = ("src", "scripts", "tests", "perfbench")

MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def names_read(node) -> Counter:
    """Every identifier read below node: loaded names and attribute names."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def private_definitions(tree):
    """(name, node) of each module-level definition whose name starts with _."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def methods(tree):
    """Name of each method or property of each class the module defines."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def attributes_read(roots) -> set:
    found = set()
    for root in roots:
        for path in sorted((ROOT / root).rglob("*.py")):
            found.update(sub.attr for sub in ast.walk(ast.parse(path.read_text()))
                         if isinstance(sub, ast.Attribute))
    return found


@pytest.mark.parametrize("module", sorted(MODULES))
def test_private_names_are_referenced(module):
    package_reads = sum((names_read(tree) for tree in MODULES.values()), Counter())
    unused = [name for name, node in private_definitions(MODULES[module])
              if package_reads[name] <= names_read(node)[name]]
    assert not unused


@pytest.mark.parametrize("module", sorted(MODULES))
def test_methods_are_used(module):
    used = attributes_read(USERS)
    unused = [qualified for qualified, name in methods(MODULES[module]) if name not in used]
    assert not unused
