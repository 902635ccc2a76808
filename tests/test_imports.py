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


def test_cli_loads_neither_scipy_signal_nor_scipy_stats():
    code = ("import json, sys, qdiff.cli; "
            "print(json.dumps([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []
