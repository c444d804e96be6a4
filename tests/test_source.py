"""Source checks that need no linter: the stdlib `ast` reads the package."""

import ast
from pathlib import Path
from types import ModuleType

import goodsets

PACKAGE = Path(goodsets.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; `__future__` imports are directives."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: names
        for p in modules
        if (names := _unused_imports(ast.parse(p.read_text(), str(p))))
    }
    assert unused == {}


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from functools import cached_property\nimport math\nmath.gcd(2, 4)\n")
    assert _unused_imports(tree) == ["cached_property (line 1)"]


def test_every_exported_callable_is_fuzzed_or_exempt():
    # A new public entry must join the library contract's fuzz test, or say why not.
    import test_api_fuzz

    exported = {
        name
        for name, value in vars(goodsets).items()
        if not name.startswith("_") and callable(value)
    }
    fuzzed = {name for name, _, _ in test_api_fuzz.ENTRIES}
    exempt = set(test_api_fuzz.EXEMPT)
    assert fuzzed & exempt == set()
    assert exported - fuzzed - exempt == set()
    assert (fuzzed | exempt) - exported == set()


def test_the_package_exports_exactly_its_modules_public_names():
    # Each module's `__all__` is the one list; the package republishes it, binding the same objects.
    from goodsets import goodness, linalg, measures, model, solve, structure

    modules = (goodness, linalg, measures, model, solve, structure)
    declared = {name: module for module in modules for name in module.__all__}
    exported = {
        name
        for name, value in vars(goodsets).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == declared.keys()
    assert all(getattr(goodsets, name) is getattr(m, name) for name, m in declared.items())
