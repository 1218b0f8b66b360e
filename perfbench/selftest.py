"""Self-test of the benchmark's checks: a perturbed reference must fail.

    python3 perfbench/selftest.py

Writes a copy of the frozen reference to .bench_build/perfbench/perturbed/
with every 50th census ordinate moved by 1e-6 and the staircase mismatch
set changed, then runs one pass of census, local_scans and symbolic_table
against the true reference and one against the copy.  Every true pass must
report no failed operation and every perturbed pass at least one.
phase_points is checked against mpmath, not against this reference, so it
is not part of the test.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import (CENSUS_FILE, HERE, META_FILE, OUT_DIR, REFERENCE_DIR, ROOT, WORKLOADS,
                    worker_env)

CHECKED = tuple(w for w in WORKLOADS if w != "phase_points")
SHIFT = 1e-6
EVERY = 50


def perturbed_reference():
    target = OUT_DIR / "perturbed"
    target.mkdir(parents=True, exist_ok=True)
    lines, k = [], 0
    for line in (REFERENCE_DIR / CENSUS_FILE).read_text(encoding="ascii").splitlines():
        if not line.startswith("#"):
            if k % EVERY == 0:
                line = f"{float(line) + SHIFT:.12f}"
            k += 1
        lines.append(line)
    (target / CENSUS_FILE).write_text("\n".join(lines) + "\n", encoding="ascii")
    meta = json.loads((REFERENCE_DIR / META_FILE).read_text(encoding="utf-8"))
    meta["staircase"]["mismatches"] = meta["staircase"]["mismatches"][:-1]
    (target / META_FILE).write_text(json.dumps(meta), encoding="utf-8")
    return target


def one_pass(workload: str, reference) -> dict:
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "1",
           "--reference", str(reference), "--scratch", str(scratch)]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          text=True, check=True, timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    perturbed = perturbed_reference()
    ok = True
    try:
        for workload in CHECKED:
            for label, reference, want_failures in (("true", REFERENCE_DIR, False),
                                                    ("perturbed", perturbed, True)):
                res = one_pass(workload, reference)
                frac = res["failed"] / res["attempted"]
                good = (res["failed"] > 0) == want_failures
                ok = ok and good
                print(f"{'ok  ' if good else 'FAIL'} {workload:15s} {label:9s} "
                      f"fail_frac {frac:.4f} ({res['failed']}/{res['attempted']})")
    finally:
        shutil.rmtree(perturbed, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
