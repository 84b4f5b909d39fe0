"""Every library definition is reached from the library or the benchmark.

A function, method or class defined in ``src/shadowlab`` must be named, by a
``Name`` or an ``Attribute`` node, somewhere in ``src/shadowlab`` outside
every definition of the same name, or anywhere in ``bench/*.py``. Tests do
not keep code alive, and neither do the package ``__init__`` re-exports.
Dunder methods are reached by the language and are not checked. Matching is
by name only, so a method counts as reached when any object's attribute of
that name is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shadowlab"

# Test-only definitions kept on purpose, each with its reason.
ALLOWED = {
    "diameter_certificate": "acceptance criterion 2 checks measured diameters against it",
    "uniqueness_certificate": "acceptance criterion 2 checks the uniqueness decay against it",
    "validate_tube": "the solver tests hold every pullback chain to the eps-tube with it",
    "equicontinuity_modulus": "kept until a certified modulus replaces the empirical one",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names():
    """Names read outside every enclosing definition of the same name."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    names = set()
    for path in paths:
        stack = [(ast.parse(path.read_text()), frozenset())]
        while stack:
            node, enclosing = stack.pop()
            if isinstance(node, _DEFS):
                enclosing = enclosing | {node.name}
            if isinstance(node, ast.Name) and node.id not in enclosing:
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
                names.add(node.attr)
            stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return names


def _unreached():
    referenced = _referenced_names()
    unreached = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, _DEFS) or node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in referenced:
                unreached.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
    return unreached


def test_every_definition_is_reached_outside_the_tests():
    unreached = _unreached()
    stray = {name: sites for name, sites in unreached.items() if name not in ALLOWED}
    assert not stray, "reached only from tests (delete, or allowlist with a reason): " + ", ".join(
        f"{name} ({' '.join(sites)})" for name, sites in sorted(stray.items())
    )
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, f"allowlisted but reached or gone, drop from ALLOWED: {stale}"
