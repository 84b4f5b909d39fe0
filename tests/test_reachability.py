"""Every library definition and option is reached from the library or the benchmark.

A function, method or class defined in ``src/shadowlab`` must be named, by a
``Name`` or an ``Attribute`` node, somewhere in ``src/shadowlab`` outside
every definition of the same name, or anywhere in ``bench/*.py``. Tests do
not keep code alive, and neither do the package ``__init__`` re-exports.
Dunder methods are reached by the language and are not checked. Matching is
by name only, so a method counts as reached when any object's attribute of
that name is read.

Likewise every parameter with a default, and every dataclass field with a
default, must be set by some call of its callable's name (the class name for
``__init__`` and fields, ``cls`` inside a class) in the same files: by
keyword, by position, or through ``*`` or ``**``. A call that forwards the
caller's own defaulted parameter unchanged sets the option only when that
parameter is set in turn.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shadowlab"

# Test-only definitions kept on purpose, each with its reason.
ALLOWED = {
    "equicontinuity_modulus": "the paper's strong-equicontinuity hypothesis, now exact; item 10 puts it on the limit route",
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


# Options only tests set, kept on purpose, each with its reason.
ALLOWED_OPTIONS = {
    "inject_defects(signs)": "tests draw defects with random signs; removing it would move its loop into them",
    "VariantBudget(enumeration_limit)": "tests pin the node count at which a walk raises BudgetExceeded",
    "VariantBudget(lipschitz_bound)": "tests pin the Lipschitz checker's boundary with it",
    "rotation_family(alpha)": "scenario descriptors set it through BUILTIN_FAMILIES[kind](**params)",
    "finite_cycle_family(n)": "scenario descriptors set it through BUILTIN_FAMILIES[kind](**params)",
    "main(argv)": "the console entry point reads sys.argv; tests pass argv",
    "ShadowlabError(witness)": "every subclass is raised with a witness under its own name",
}


def _decorator_names(node):
    return {
        getattr(d, "id", None) or getattr(d, "attr", None)
        for d in (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    }


def _walk(tree):
    """(node, enclosing class name, innermost enclosing (class name, function)) per node."""
    stack = [(tree, None, None)]
    while stack:
        node, cls, fn = stack.pop()
        yield node, cls, fn
        if isinstance(node, ast.ClassDef):
            inner = (node.name, fn)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (None, (cls, node))
        else:
            inner = (cls, fn)
        stack.extend((child, *inner) for child in ast.iter_child_nodes(node))


def _callable_name(cls, fn):
    return cls if cls and fn.name == "__init__" else fn.name


def _defaulted(cls, fn):
    """{parameter: call position, None if keyword-only} over fn's defaulted parameters."""
    a = fn.args
    positional = a.posonlyargs + a.args
    bound = 1 if cls and "staticmethod" not in _decorator_names(fn) else 0
    first = len(positional) - len(a.defaults)
    params = {arg.arg: i - bound for i, arg in enumerate(positional) if i >= first}
    params.update({arg.arg: None for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None})
    return params


def _options():
    """{callable name: {parameter: (call position or None, site)}} over src/shadowlab."""
    options = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node, cls, _ in _walk(ast.parse(path.read_text())):
            site = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = {p: (pos, site) for p, pos in _defaulted(cls, node).items()}
                options.setdefault(_callable_name(cls, node), {}).update(params)
            elif isinstance(node, ast.ClassDef) and "dataclass" in _decorator_names(node):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                params = {s.target.id: (i, site) for i, s in enumerate(fields) if s.value is not None}
                options.setdefault(node.name, {}).update(params)
    return options


def _unset_options():
    options = _options()
    passed, forwarded = set(), {}
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    for path in paths:
        for node, _, fn in _walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "cls" and fn is not None and fn[0] is not None:
                name = fn[0]
            if name not in options:
                continue
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
            keywords = {k.arg: k.value for k in node.keywords}
            own = _defaulted(*fn) if fn is not None else {}
            for param, (pos, _) in options[name].items():
                if param in keywords:
                    value = keywords[param]
                elif spread or (pos is not None and pos < len(node.args)):
                    value = None if spread else node.args[pos]
                else:
                    continue
                if isinstance(value, ast.Name) and value.id in own:
                    forwarded.setdefault((name, param), set()).add((_callable_name(*fn), value.id))
                else:
                    passed.add((name, param))
    while True:
        newly = {key for key, sources in forwarded.items() if key not in passed and sources & passed}
        if not newly:
            break
        passed |= newly
    return {
        f"{name}({param})": site
        for name, params in options.items()
        for param, (_, site) in params.items()
        if (name, param) not in passed
    }


def test_every_option_is_set_outside_the_tests():
    unset = _unset_options()
    stray = {key: site for key, site in unset.items() if key not in ALLOWED_OPTIONS}
    assert not stray, "options only tests set (delete, or allowlist with a reason): " + ", ".join(
        f"{key} ({site})" for key, site in sorted(stray.items())
    )
    stale = sorted(set(ALLOWED_OPTIONS) - set(unset))
    assert not stale, f"allowlisted but set or gone, drop from ALLOWED_OPTIONS: {stale}"
