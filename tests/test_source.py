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


def _field_writes(tree: ast.Module) -> list[str]:
    """`object.__setattr__` calls outside `_Frozen.__init__` that set anything but a `_` cache."""
    setter = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "_Frozen"
        for init in cls.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        for node in ast.walk(init)
    }
    writes = []
    for node in ast.walk(tree):
        if (
            id(node) not in setter
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        ):
            name = node.args[1]
            if not (isinstance(name, ast.Constant) and str(name.value).startswith("_")):
                writes.append(f"{ast.unparse(name)} (line {node.lineno})")
    return writes


def test_fields_are_set_only_by_the_base_constructor():
    # `model._Frozen.__init__` is the one field setter; elsewhere `object.__setattr__` sets caches.
    modules = sorted(PACKAGE.glob("*.py"))
    writes = {
        p.name: found for p in modules if (found := _field_writes(ast.parse(p.read_text(), str(p))))
    }
    assert writes == {}


def test_the_check_sees_a_field_set_by_hand():
    tree = ast.parse(
        "class _Frozen:\n"
        "    def __init__(self, name, value):\n"
        "        object.__setattr__(self, name, value)\n"
        "class PointSet(_Frozen):\n"
        "    def __init__(self, name, value):\n"
        "        object.__setattr__(self, '_members', frozenset())\n"
        "        object.__setattr__(self, 'points', ())\n"
        "        object.__setattr__(self, name, value)\n"
        "        setattr(self, 'points', ())\n"
    )
    assert _field_writes(tree) == ["'points' (line 7)", "name (line 8)"]


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
