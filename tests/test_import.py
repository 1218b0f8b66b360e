"""`import zetaphase` loads no scipy; the counter oracles import it when called."""

import json
import os
import subprocess
import sys
from pathlib import Path

from zetaphase import airy_neg_zeros, bessel_j0_zeros

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    """Stdout of `code` run in a fresh interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def test_import_loads_no_scipy():
    out = run_fresh("import sys, zetaphase\n"
                    "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    assert out.strip() == "[]"


def test_oracles_after_fresh_import():
    out = run_fresh("import json, zetaphase as zp\n"
                    "print(json.dumps(zp.bessel_j0_zeros(80).tolist()))\n"
                    "print(json.dumps(zp.airy_neg_zeros(700).tolist()))")
    j0, ai = (json.loads(line) for line in out.splitlines())
    assert j0 == bessel_j0_zeros(80).tolist()
    assert ai == airy_neg_zeros(700).tolist()
    assert len(j0) == 80 and len(ai) == 700
