"""The package's modules import one way: each only from lower layers.

    signals < simulator < backend < {protocol, sweep, receiver}
            < scenario < fileio < plots < cli

Modules of one layer do not import each other. The package root re-exports
every layer and is not itself a layer; ``from . import __version__`` (the
root's version string) is the one import any module may make of it.
"""

import ast
from pathlib import Path

import adcradio

LAYERS = [
    {"signals"},
    {"simulator"},
    {"backend"},
    {"protocol", "sweep", "receiver"},
    {"scenario"},
    {"fileio"},
    {"plots"},
    {"cli"},
]
LAYER = {name: rank for rank, names in enumerate(LAYERS) for name in names}
PACKAGE = Path(adcradio.__file__).parent


def package_imports(tree: ast.Module) -> list[str]:
    """The package modules that ``tree`` imports, anywhere in it (function
    bodies included), relative or absolute; "" for the package root."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "adcradio":
                continue
            if node.level == 0:
                module = node.module.partition(".")[2]
            else:
                module = node.module or ""
            if module:
                out.append(module.split(".")[0])
            else:  # from . import name: a module, or a name of the package root
                out.extend(
                    alias.name if alias.name in LAYER else ""
                    for alias in node.names
                    if alias.name != "__version__"
                )
        elif isinstance(node, ast.Import):
            out.extend(
                alias.name.split(".")[1] if "." in alias.name else ""
                for alias in node.names
                if alias.name.split(".")[0] == "adcradio"
            )
    return out


def layer_violations() -> list[str]:
    """Every ``importer -> imported`` pair that does not go down a layer."""
    violations = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = path.stem
        if name == "__init__":
            continue
        for imported in package_imports(ast.parse(path.read_text(), str(path))):
            if imported == "" or LAYER.get(imported, len(LAYERS)) >= LAYER.get(name, -1):
                violations.append(f"{name} -> {imported or 'adcradio'}")
    return sorted(set(violations))


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)


def test_imports_go_down_the_layers():
    assert layer_violations() == []


def test_sweep_imports_only_the_capture_layers():
    tree = ast.parse((PACKAGE / "sweep.py").read_text())
    assert set(package_imports(tree)) == {"backend", "simulator"}


def test_the_checker_sees_sideways_upward_and_local_imports():
    tree = ast.parse(
        "from .protocol import ProtocolError\n"
        "from . import signals, __version__\n"
        "def f():\n"
        "    from .cli import main\n"
        "    import adcradio.fileio\n"
        "    from adcradio import BackendError\n"
    )
    assert package_imports(tree) == ["protocol", "signals", "cli", "fileio", ""]
