"""Demo smoke test: the quick demos run to completion without a warning.

Demos 04 (solver, Beltrami flow) and 06 (uniqueness runs) take several
seconds each and are left to be run by hand.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ["01_spectral_basics", "02_dyadic_decomposition", "03_paraproducts_commutators", "05_energy_diagnostics"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_clean(name):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
