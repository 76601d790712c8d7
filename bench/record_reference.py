"""Record the library's current outputs as the benchmark's reference data.

    python3 bench/record_reference.py

Writes ``bench/reference/cli-default/`` (the CSVs and standard output of
the ``decoyqkd`` command with default arguments, which ``cli-default``
compares every run against) and ``bench/reference/recorded.json`` (rates
and cutoffs of the first ops of the shipped seeds, which the self-tests
use to pin ``reference.py`` and the library to the recorded commit).
Rerun it only when an output change is intended.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from workloads import CLI_COMMAND, CLI_PROTOCOLS, REFERENCE_DIR, CurveFamily, CutoffScan
from run import ROOT, OUT_DIR, environment, fresh_env

SHIPPED_SEEDS = (1, 2, 3)
CURVE_OPS = 2
CUTOFF_OPS = 25
#: every 10th point of each 251-point curve
CURVE_STRIDE = 10


def record_cli() -> None:
    target = REFERENCE_DIR / "cli-default"
    work = OUT_DIR / "record-cli"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = subprocess.run(
            [sys.executable, "-c", CLI_COMMAND], cwd=work, env=fresh_env(),
            capture_output=True, text=True, check=True,
        )
        target.mkdir(parents=True, exist_ok=True)
        (target / "stdout.txt").write_text(run.stdout)
        for protocol in CLI_PROTOCOLS:
            shutil.copyfile(work / f"{protocol}.csv", target / f"{protocol}.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record_seeds() -> dict:
    seeds = {}
    for seed in SHIPPED_SEEDS:
        curves = CurveFamily(ROOT, seed)
        curves.prepare()
        family = []
        for _ in range(CURVE_OPS):
            inp = curves.next_input()
            for (protocol, mu, channel, _), points in zip(inp, curves.op(inp)):
                family.append({
                    "protocol": protocol, "mu": mu, "channel": channel,
                    "distance_km": [p.distance_km for p in points[::CURVE_STRIDE]],
                    "mu_out": [p.mu for p in points[::CURVE_STRIDE]],
                    "rate": [p.rate for p in points[::CURVE_STRIDE]],
                })
        scan = CutoffScan(ROOT, seed)
        scan.prepare()
        cutoffs = []
        for _ in range(CUTOFF_OPS):
            inp = scan.next_input()
            protocol, mu, channel, _ = inp
            cutoffs.append({"protocol": protocol, "mu": mu, "channel": channel, "cutoff_km": scan.op(inp)})
        seeds[str(seed)] = {"curve-family": family, "cutoff-scan": cutoffs}
    return seeds


def main() -> None:
    record_cli()
    recorded = {"env": environment(seed=None), "seeds": record_seeds()}
    (REFERENCE_DIR / "recorded.json").write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main()
