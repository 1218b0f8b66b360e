"""`import zetaphase` loads numpy alone of the heavy modules.

The counter oracles import scipy when called, and the functions that compute
in extended precision import mpmath.
"""

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


LAZY = "[m for m in ('mpmath', 'fractions', 'decimal', 'scipy') if m in sys.modules]"


def test_import_and_scan_commands_load_no_mpmath(tmp_path):
    cache, image = tmp_path / "zeros.txt", tmp_path / "counts.pgm"
    commands = [["zeros", "--max", "200", "--out", str(cache)], ["counts", "--max", "200"],
                ["counts", "--cache", str(cache), "--n-max", "100"],
                ["render", "--max", "200", "--n-max", "20", "--out", str(image)]]
    out = run_fresh("import contextlib, io, sys, zetaphase\n"
                    f"print({LAZY})\n"
                    "from zetaphase import cli\n"
                    "results = []\n"
                    f"for argv in {commands!r}:\n"
                    "    with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"        results.append((cli.main(argv), {LAZY}))\n"
                    "print(results)\n"
                    "from zetaphase.special import smooth_main\n"
                    "smooth_main(5.0)\n"
                    "print('mpmath' in sys.modules)")
    assert out.splitlines() == ["[]", str([(0, [])] * len(commands)), "True"]


def test_oracles_after_fresh_import():
    out = run_fresh("import json, zetaphase as zp\n"
                    "print(json.dumps(zp.bessel_j0_zeros(80).tolist()))\n"
                    "print(json.dumps(zp.airy_neg_zeros(700).tolist()))")
    j0, ai = (json.loads(line) for line in out.splitlines())
    assert j0 == bessel_j0_zeros(80).tolist()
    assert ai == airy_neg_zeros(700).tolist()
    assert len(j0) == 80 and len(ai) == 700
