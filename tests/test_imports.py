"""What importing qdiff loads.

The check runs in a fresh interpreter: this suite's own conftest imports
``scipy.stats``, so ``sys.modules`` here says nothing about qdiff.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The scipy subpackages qdiff reaches as attributes of ``scipy``, so that
# each loads on its first use rather than on import.
SUBPACKAGES = ("scipy.linalg", "scipy.special", "scipy.optimize", "scipy.fft", "scipy.ndimage")


def loaded_after(code: str, modules, cwd=None) -> list:
    """Which of ``modules`` are in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_loads_neither_scipy_signal_nor_scipy_stats():
    code = ("import json, sys, qdiff.cli; "
            "print(json.dumps([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_import_loads_no_scipy_subpackage():
    assert loaded_after("import qdiff", SUBPACKAGES) == []
    assert loaded_after("import qdiff.cli", SUBPACKAGES) == []


def test_synth_loads_no_scipy_subpackage(tmp_path):
    code = ("from qdiff.cli import main\n"
            "assert main(['synth', '--out', 's', '--q', '1.71', '--alpha', '1.79', '--d-coef',"
            " '0.1118', '--max-lag', '10', '--points-per-decade', '1', '--n-per-lag', '1000']) == 0")
    assert loaded_after(code, SUBPACKAGES, cwd=tmp_path) == []


def test_verify_pme_loads_scipy_linalg_alone(tmp_path):
    code = ("from qdiff.cli import main\n"
            "assert main(['verify-pme', '--m', '1.5', '--grid-points', '129',"
            " '--refinements', '1']) == 0")
    assert loaded_after(code, SUBPACKAGES, cwd=tmp_path) == ["scipy.linalg"]
