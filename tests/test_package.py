"""The package namespace is assembled from the layer modules' ``__all__``.

Each public name is declared once, in the ``__all__`` of the module that
defines it; ``framekit`` re-exports the union and adds ``__version__``."""

import ast
import importlib
import inspect
from pathlib import Path

import framekit

LAYERS = ("errors", "operators", "frames", "kframes", "controlled", "solvers",
          "instances", "bench", "serialize")
MODULES = {layer: importlib.import_module(f"framekit.{layer}") for layer in LAYERS}


def test_package_all_has_no_duplicates():
    assert len(framekit.__all__) == len(set(framekit.__all__))


def test_package_all_is_the_union_of_the_layer_lists_plus_the_version():
    union = {name for module in MODULES.values() for name in module.__all__}
    assert set(framekit.__all__) == union | {"__version__"}


def test_every_package_name_is_the_layer_object():
    owners = {name: module for module in MODULES.values() for name in module.__all__}
    for name in framekit.__all__:
        if name != "__version__":
            assert getattr(framekit, name) is getattr(owners[name], name), name


def test_no_name_is_declared_by_two_layers():
    seen = {}
    for layer, module in MODULES.items():
        for name in module.__all__:
            assert name not in seen, f"{name} is in both {seen[name]}.__all__ and {layer}.__all__"
            seen[name] = layer


def test_every_public_function_and_class_a_layer_defines_is_declared():
    for layer, module in MODULES.items():
        defined = {
            name for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
        assert defined <= set(module.__all__), f"{layer}: {sorted(defined - set(module.__all__))}"


def test_public_attributes_are_the_declared_names_and_the_layer_modules():
    public = {name for name in dir(framekit) if not name.startswith("_")}
    public.discard("cli")  # an attribute only once something imports framekit.cli
    assert public == (set(framekit.__all__) - {"__version__"}) | set(LAYERS)


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each name ``source`` imports but neither uses nor
    lists in ``__all__``; ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported, used, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported += [(node.lineno, (alias.asname or alias.name).split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used | exported]


def test_no_module_imports_a_name_it_does_not_use():
    unused = [
        f"{path.name}:{line} {name}"
        for path in sorted(Path(framekit.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_no_verdict_or_solver_calls_frame_operator():
    # The verdicts, the solvers and the bench read the frame's
    # power-of-two-scaled S~, never the unscaled S, which leaves the float
    # range with the family.
    calls = [
        f"{name}:{node.lineno}"
        for name in ("kframes.py", "controlled.py", "solvers.py", "bench.py")
        for node in ast.walk(ast.parse((Path(framekit.__file__).parent / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and "frame_operator" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert calls == []


SCALE_RULES = ("2.0**-128", "2.0**128", "np.finfo(")


def test_the_scale_window_and_the_normal_float_test_are_written_in_operators_only():
    # The [2^-128, 2^128) window and the normal-float test are decided once,
    # in operators; every other module calls its helpers.
    package = Path(framekit.__file__).parent
    written = [
        f"{path.name}:{number} {rule}"
        for path in sorted(package.glob("*.py"))
        if path.name != "operators.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for rule in SCALE_RULES
        if rule in line
    ]
    assert written == []
    operators = (package / "operators.py").read_text(encoding="utf-8")
    assert all(rule in operators for rule in SCALE_RULES)
