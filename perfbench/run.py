"""zetaphase benchmark: one workload, one seed, checked outputs.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  A run is a sequence of passes, one at a
time.  Each pass is a fresh single-threaded interpreter (worker.py) that
imports the package from src/, builds the workload's inputs from the seed,
times one fixed section and checks every output.  There is no warm-up: a
fresh process with cold LRU caches is what a command-line user pays for
each call, so that is what is measured.  Passes repeat until --seconds is
used (at least three, four when traced).

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json:
setup_s and wall_s are medians over passes, op_p50_ms and op_p90_ms come
from every operation of every pass, peak_rss_mb is the median peak
resident set of a pass.  Timings are rescaled to a reference CPU speed by
the probe in speed.py; the record keeps the raw medians.  With --trace 1
the passes alternate between untraced and traced; the run reports the
per-layer metrics (self times rescaled like the timings) as medians over
the traced passes, and trace.overhead_frac compares the two kinds.

The last stdout line is the result object; the line before it is the
machine and provenance record.  Both, with every pass and its spans, are
also written to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from common import (HERE, OUT_DIR, PACKAGE_INIT, REFERENCE_DIR, ROOT, THREAD_ENV, WORKLOADS,
                    git_commit, worker_env)

RUN_LIMIT_S = 170.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_pass(args, index: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--pass-index", str(index), "--trace", str(int(traced)),
           "--reference", str(REFERENCE_DIR), "--scratch", str(OUT_DIR / "tmp")]
    timeout = max(1.0, deadline - time.monotonic())
    # subprocess.run kills the pass and waits for it if the timeout expires.
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"pass {index} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(passes: list[dict], raw: bool = False) -> dict[str, float]:
    """The end-to-end metrics, in reference-speed seconds unless raw."""
    suffix = "_raw" if raw else ""
    op_ms = [ms for p in passes for ms in p[f"op{suffix}_ms"]]
    return {
        "setup_s": statistics.median(p[f"import{suffix}_s"] for p in passes),
        "wall_s": statistics.median(p[f"wall{suffix}_s"] for p in passes),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": p90(op_ms),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    values = {name: statistics.median(p["layer"][name] for p in traced)
              for name in traced[0]["layer"]}
    values["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                     / statistics.median(p["wall_s"] for p in plain) - 1.0)
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    spec_path = ROOT / "BENCHMARK.json"
    if not PACKAGE_INIT.is_file() or not spec_path.is_file():
        print(f"run.py: no package sources at {PACKAGE_INIT.relative_to(ROOT)} "
              "or no BENCHMARK.json; run from the root of a zetaphase checkout",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)

    traced_run = bool(args.trace)
    min_passes = 4 if traced_run else 3
    deadline = time.monotonic() + RUN_LIMIT_S
    start = time.monotonic()
    passes, durations = [], []
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(args, len(passes), traced_run and len(passes) % 2 == 1, deadline))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(passes) >= min_passes and elapsed + statistics.median(durations) > args.seconds:
            break

    values = per_layer(passes) if traced_run else end_to_end(passes)
    declared = spec["per_layer"] if traced_run else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"run.py: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "fail_frac": failed / attempted,
        "failures": [note for p in passes for note in p["notes"]][:10],
        "raw": {**end_to_end(passes, raw=True),
                "probe_ms": statistics.median(p["probe_ms"] for p in passes)},
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            **passes[0]["versions"],
            "commit": git_commit(),
            "threads": THREAD_ENV,
        },
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result, "passes": passes}, fh)
    for metric, entry in metrics.items():
        print(f"{metric:36s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
