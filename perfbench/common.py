"""Paths, process settings and reference loading shared by the benchmark scripts."""

from __future__ import annotations

import json
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "zetaphase" / "__init__.py"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("census", "local_scans", "phase_points", "symbolic_table")

CENSUS_FILE = "census_0_6501.txt"
META_FILE = "reference.json"

# One process at a time on a 2-core box: pin every native thread pool to one
# thread so a pass measures the package, not the scheduler.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def worker_env() -> dict[str, str]:
    """Environment of a pass: the checkout's sources first, single-threaded pools."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_reference(directory: Path = REFERENCE_DIR):
    """Frozen census ordinates (ascending numpy array) and the metadata record.

    Parsed here, not through the package's own cache reader, so that a
    defect in the reader cannot corrupt the yardstick.
    """
    import numpy as np

    ordinates = np.loadtxt(directory / CENSUS_FILE, comments="#", dtype=np.float64)
    with open(directory / META_FILE, encoding="utf-8") as fh:
        meta = json.load(fh)
    return ordinates, meta
