import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ["benchmarks", "cli", "control", "dataio", "errors", "linear_id", "models",
           "nets", "stability", "training"]


@pytest.mark.parametrize("first", MODULES)
def test_every_module_imports_first_in_a_fresh_interpreter(first):
    # an import cycle shows only for some orders (linear_id takes LinearSS
    # and the step engine from models), so each module goes first once,
    # then every other module follows
    rest = "; ".join(f"import alssnn.{name}" for name in MODULES if name != first)
    run = subprocess.run([sys.executable, "-c", f"import alssnn.{first}; {rest}"],
                         env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
