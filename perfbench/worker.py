"""One benchmark pass in a fresh interpreter.

Times `import zetaphase` (which brings numpy, scipy and mpmath) and one
workload's timed section, both with the speed probe of speed.py running,
checks every output and prints one JSON object on its last stdout line.
run.py starts it with the checkout's sources on PYTHONPATH and every
thread pool pinned to one thread.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path, required=True)
    ap.add_argument("--scratch", type=Path, required=True)
    args = ap.parse_args()

    from speed import SpeedProbe

    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import zetaphase  # noqa: F401
        t1 = time.perf_counter()

    import mpmath
    import numpy
    import scipy

    from tracing import Tracer
    from workloads import run_pass

    tracer = Tracer(f"{args.workload}-{args.seed}-{args.pass_index}", bool(args.trace))
    result = run_pass(args.workload, args.seed, args.pass_index, tracer,
                      args.reference, args.scratch)
    result.update(
        import_s=probe.rescale(t0, t1),
        import_raw_s=t1 - t0,
        traced=bool(args.trace),
        versions={"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "mpmath": mpmath.__version__},
        spans=tracer.records(),
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
