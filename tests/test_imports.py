"""Import rules, read from the source: the modules of hallmhd import only the
standard library, NumPy and hallmhd itself, only spectral.py imports SciPy
(its pocketfft binding), and every name a module imports is used there or
listed in its __all__."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hallmhd"


def _imported(source: str) -> set:
    """The top-level names of the packages a module's imports reach, a
    relative import counting as hallmhd."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("hallmhd" if node.level else node.module.split(".")[0])
    return names


def test_imports_reach_only_the_standard_library_numpy_and_hallmhd():
    assert _imported("import os.path\nfrom scipy.fft import rfft\nfrom .spectral import Grid") == {
        "os", "scipy", "hallmhd"
    }
    modules = sorted(SRC.rglob("*.py"))
    assert "spectral.py" in [path.name for path in modules]
    foreign = {}
    for path in modules:
        allowed = set(sys.stdlib_module_names) | {"numpy", "hallmhd"}
        if path.name == "spectral.py":
            allowed.add("scipy")
        extra = _imported(path.read_text()) - allowed
        if extra:
            foreign[path.name] = sorted(extra)
    assert foreign == {}


def _unused(source: str) -> list:
    """The names a module's imports bind that it neither uses nor lists in
    its __all__; a __future__ import binds none."""
    tree = ast.parse(source)
    bound, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(bound - used)


def test_every_imported_name_is_used_or_exported():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .spectral import Grid, lp_norm\nfrom .solver import run\n"
        "__all__ = ['run']\nnp.pi\ndef f(g: Grid): ...\n"
    )
    assert _unused(source) == ["lp_norm", "os"]
    unused = {}
    for path in sorted(SRC.rglob("*.py")):
        names = _unused(path.read_text())
        if names:
            unused[path.name] = names
    assert unused == {}
