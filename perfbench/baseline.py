"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/results/seed_baseline.json

Runs run.py once per (workload, seed), one run at a time, with the run
length of BENCHMARK.json, then with --trace 1 on the first three seeds.
For each metric it reports the median and the quartiles (as
statistics.quantiles(values, n=4) gives them); for end-to-end metrics
also the spread, the quartile distance as a share of the median, next to
a third of the metric's bound.  Each workload also keeps the raw
(unrescaled) medians of its untraced runs and the median probe time of
each run (see speed.py), so the rescaling can be checked against them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import HERE, ROOT, WORKLOADS, git_commit

TRACED_RUNS = 3


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values),
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"commit": git_commit(), "seeds": seeds, "run_seconds": spec["run_seconds"],
               "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        runs = [one_run(workload, s, spec["run_seconds"], 0) for s in seeds]
        entry = {"machine": runs[0]["record"]["machine"],
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "end_to_end": {}}
        print(f"{workload}: {len(runs)} runs, {entry['failed']} of {entry['attempted']} operations failed")
        for name, bound in bounds.items():
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = stats
            flag = "" if name == "setup_s" or stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:14s} median {stats['median']:12.6g}  q1 {stats['q1']:12.6g}  "
                  f"q3 {stats['q3']:12.6g}  spread {stats['spread']:.4f} (bound/3 {bound / 3:.4f}){flag}")
        entry["raw"] = {name: summarise([r["record"]["raw"][name] for r in runs])
                        for name in runs[0]["record"]["raw"] if name != "peak_rss_mb"}
        for name in ("wall_s", "probe_ms"):
            stats = entry["raw"][name]
            print(f"  raw {name:10s} median {stats['median']:12.6g}  spread {stats['spread']:.4f}")
        traced = [one_run(workload, s, spec["run_seconds"], 1) for s in seeds[:TRACED_RUNS]]
        entry["per_layer"] = {m["name"]: summarise([r["result"]["metrics"][m["name"]]["value"]
                                                    for r in traced])
                              for m in spec["per_layer"]}
        entry["attempted"] += sum(r["result"]["attempted"] for r in traced)
        entry["failed"] += sum(r["result"]["failed"] for r in traced)
        ok = ok and entry["failed"] == 0
        summary["workloads"][workload] = entry
        sys.stdout.flush()

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
