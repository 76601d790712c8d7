"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 bench/trajectory.py --out bench/trajectory/<commit>.json

Runs ``run.py --trace 0`` for seeds 1 to 10 on every workload of
``BENCHMARK.json`` for its ``run_seconds`` (round robin, so slow drift of
the host spreads over all workloads), then one traced run of seed 1 per
workload. For each end-to-end metric it prints the median and the
quartile spread (q3 - q1) / median next to the metric's bound from
``BENCHMARK.json``, and the failed share over all runs. ``--out`` writes
the runs and the summary as one point of the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, environment

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for metric in BENCH["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {
            "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": metric["bound"], "unit": metric["unit"], "values": values,
        }
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the runs and the summary here")
    args = parser.parse_args()

    workloads = [w["name"] for w in BENCH["workloads"]]
    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            runs[w].append(run_once(w, seed, 0))
            print(f"{w} seed {seed}: " + json.dumps(runs[w][-1]["metrics"]), flush=True)

    point = {"env": environment(seed=None), "seconds": BENCH["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for w in workloads:
        attempted = sum(r["attempted"] for r in runs[w])
        failed = sum(r["failed"] for r in runs[w])
        summary = summarise(runs[w])
        print(f"\n{w}: failed_share {failed / attempted:.6g} ({failed} of {attempted} ops)")
        for name, s in summary.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread above bound/3"
            print(f"  {name:14s} median {s['median']:12.6g} {s['unit']:4s} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){flag}")
        point["workloads"][w] = {
            "runs": runs[w], "summary": summary, "failed_share": failed / attempted,
            "traced": run_once(w, SEEDS[0], 1),
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n")


if __name__ == "__main__":
    main()
