"""Regenerate the frozen reference data in perfbench/reference/.

    python3 perfbench/make_reference.py

Scans the full census [0, 6501] with the package (about 50 s on a 2-core
Xeon), writes its ordinates in the package's cache format (12 decimals) and
a JSON record holding the render digests, the census landmarks, the
staircase mismatch set, the pinned sequence prefixes, an mpmath zetazero
spot check and the provenance.  The committed files were made from the
commit named in reference.json; rerun only to move the yardstick on
purpose.
"""

import datetime
import hashlib
import json
import os
import platform
import sys
import time

from common import CENSUS_FILE, META_FILE, REFERENCE_DIR, SRC, THREAD_ENV, git_commit

os.environ.update(THREAD_ENV)
sys.path.insert(0, str(SRC))

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import zetaphase as zp  # noqa: E402
from zetaphase import verify  # noqa: E402

from workloads import (CENSUS_N_MAX, CENSUS_T_HI, RENDER_WIDTH, STAIRCASE_N,  # noqa: E402
                       census_landmarks)

FULL_T_HI = 6501.0
FULL_N_MAX = 6500
SPOT_CHECK_N = (1, 1000, 1519, 3000, 6148)


def landmarks(zl, t_hi: float, n_max: int) -> dict:
    counts = zp.unit_interval_counts(zl, n_max)
    pgm = zp.render_counts(counts, RENDER_WIDTH).to_pgm_bytes()
    return {
        "t_hi": t_hi,
        "n_max": n_max,
        "count": int(np.sum(np.asarray(zl.ordinates) <= t_hi)),
        "render_width": RENDER_WIDTH,
        "render_sha256": hashlib.sha256(pgm).hexdigest(),
        **census_landmarks(counts),
    }


def main() -> int:
    t0 = time.perf_counter()
    zl = zp.scan_zeros(zp.ScanConfig(0.0, FULL_T_HI))
    scan_s = time.perf_counter() - t0
    if zl.suspect_intervals:
        raise SystemExit(f"census has suspect intervals {zl.suspect_intervals}")
    ys = np.asarray(zl.ordinates)

    full = landmarks(zl, FULL_T_HI, FULL_N_MAX)
    full["suspects"] = list(zl.suspect_intervals)
    census = landmarks(zl, CENSUS_T_HI, CENSUS_N_MAX)
    if (full["first_interval"], tuple(full["doubles_below_300"]), tuple(full["triples"])) != (
            14, verify.DOUBLE_INTERVALS_300, verify.TRIPLE_INTERVALS_6500):
        raise SystemExit(f"census landmarks disagree with the package's verify module: {full}")

    jumps = zp.staircase_jumps(STAIRCASE_N)
    f = np.bincount(np.floor(ys[ys < STAIRCASE_N + 1]).astype(np.int64), minlength=STAIRCASE_N + 1)
    mismatches = [n for n in range(1, STAIRCASE_N) if jumps[n - 1] != f[n]]

    prefixes = {
        "coeff_2": zp.coeff_sequence(2, 8),
        "coeff_3": zp.coeff_sequence(3, 9),
        "ruler_2": [zp.ruler_normalized(2, k) for k in range(1, 9)],
        "ruler_3": [zp.ruler_normalized(3, k) for k in range(1, 10)],
    }
    pinned = {"coeff_2": verify.LN2_COEFF_PREFIX, "coeff_3": verify.LN3_COEFF_PREFIX,
              "ruler_2": verify.RULER2_PREFIX, "ruler_3": verify.RULER3_PREFIX}
    if any(tuple(prefixes[k]) != v for k, v in pinned.items()):
        raise SystemExit("sequence prefixes disagree with the package's verify module")

    spot = []
    for n in SPOT_CHECK_N:
        oracle = float(mp.zetazero(n).imag)
        spot.append({"n": n, "ordinate": round(float(ys[n - 1]), 12), "zetazero": oracle,
                     "abs_diff": abs(float(ys[n - 1]) - oracle)})
    if max(s["abs_diff"] for s in spot) > 1e-9:
        raise SystemExit(f"ordinates disagree with mpmath.zetazero: {spot}")

    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    zp.write_zero_cache(zl, REFERENCE_DIR / CENSUS_FILE)
    meta = {
        "provenance": {
            "commit": git_commit(),
            "command": "python3 perfbench/make_reference.py",
            "generated_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "scan_seconds": round(scan_s, 1),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "mpmath": mp.__version__,
        },
        "census_full": full,
        "census": census,
        "min_distance_to_integer": float(np.min(np.abs(ys - np.round(ys)))),
        "staircase": {"n_max": STAIRCASE_N, "mismatches": mismatches},
        "sequence_prefixes": prefixes,
        "zetazero_spot_check": spot,
    }
    with open(REFERENCE_DIR / META_FILE, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    print(json.dumps(meta, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
