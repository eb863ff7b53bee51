"""Source scans for dead code: every private module-level name and every
method or property of the package is used somewhere, and every public name
is read by the package or a script, or is a named oracle."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaugeflow"
USERS = ("src", "scripts", "tests", "perfbench")
READERS = ("src", "scripts")

# Public names that no stage or script reads, and why each stays: a test
# checks the construction against it, or it reads what the stages wrote.
# A name that src/ or scripts/ comes to read, or that leaves __all__, must
# leave this list too.
ORACLES = {
    "forms.inner": "the L2 pairing behind the d / d* adjointness tests",
    "fieldio.read_field": "reads the written fields back for the I/O, CLI "
                          "and determinism tests",
    "gauge.extract_xi": "completes a gauge pair for any rotation; the gauge "
                        "tests check minimize_gauge's pair and energy with it",
    "solver.pair_residual": "dA - A Omega + d*B from the fields alone; the "
                            "solver tests check the report's residual with it",
    "verify.bound_ratios": "the bound table from the written fields; the CLI "
                           "and verify tests check the solver's sizes with it",
    "connection.sphere_frame": "the sphere's normal frame, which "
                               "omega_from_frame contracts",
    "connection.omega_from_frame": "the frame construction of the connection, "
                                   "the reference for omega_sphere",
    "connection.connection_residual": "certifies -lap(u) = Omega . grad(u) "
                                      "for a map and its connection",
}

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


def definitions(tree):
    """(name, node) of each module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node


def private_definitions(tree):
    """(name, node) of each module-level definition whose name starts with _."""
    return [(name, node) for name, node in definitions(tree)
            if name.startswith("_") and not name.startswith("__")]


def public_definitions(tree):
    """(name, node) of each entry of the module's __all__."""
    defined = dict(definitions(tree))
    if "__all__" not in defined:
        return []
    return [(entry.value, defined[entry.value]) for entry in defined["__all__"].value.elts]


def methods(tree):
    """Name of each method or property of each class the module defines."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def reads_in(roots) -> Counter:
    found = Counter()
    for root in roots:
        for path in sorted((ROOT / root).rglob("*.py")):
            found += names_read(ast.parse(path.read_text()))
    return found


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


def test_public_names_are_read():
    reads = reads_in(READERS)
    unread = [f"{module}.{name}" for module, tree in sorted(MODULES.items())
              for name, node in public_definitions(tree)
              if reads[name] <= names_read(node)[name]]
    assert sorted(unread) == sorted(ORACLES)
