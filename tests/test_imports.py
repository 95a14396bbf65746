"""The dependency rule, read from the source: the modules of hallmhd import
only the standard library, NumPy and hallmhd itself, and only spectral.py
imports SciPy (its pocketfft binding)."""

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
