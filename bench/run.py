"""Benchmark of the decoyqkd package, run from the root of a checkout.

    python3 bench/run.py --workload curve-family --seed 1 --seconds 37 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of one workload:
set-up time, per-op latency (p50, p90), ops per second of timed time
and the peak resident memory of a set-up probe after a fixed number of
ops. Times are taken at the reference host speed
of ``control.py``: each is scaled by a control's reference time over its
time measured around it, on the same CPU. The raw wall times are printed
beside them.

With ``--trace 1`` it reruns a fixed set of ops with the layer wrappers
of ``tracing.py`` on and reports the per-layer metrics, plus the
interpreter start and import times of fresh interpreters.

Every op is checked for correctness outside its timed window, and an op
that raises, exits non-zero or fails its check counts as failed.

Readable lines go first; the last line of standard output is the JSON
result. The full result, the environment and, for a traced run, the
spans are also written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import traceback
from hashlib import sha256
from pathlib import Path
from time import perf_counter

import tracing
from control import CHILD_PROCESS, CONTROL_REF_S, IN_PROCESS, SPAWN_REF_S, control_time, spawn_time
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
#: fresh interpreters per start-up measurement; the median is reported
FRESH_SAMPLES = 7
MAX_LISTED_FAILURES = 5
#: fewest timed ops in a run, so that at least ten samples lie beyond p90
MIN_OPS = 110


def environment(seed: int) -> dict:
    """What a result depends on besides the code: for comparing trajectory points."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info if l.startswith("model name")), cpu)
    except OSError:
        pass
    digest = sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_commit() -> str:
    """HEAD of the checkout; "unknown" outside a git clone."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fresh_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def time_setup(workload: str, seed: int) -> tuple[list[float], list[float], list[int]]:
    """Seconds from starting a fresh interpreter until it is ready for its first
    timed op, the spawn control around each start, and each probe's peak
    memory (kB) after its fixed number of ops."""
    samples, controls, peaks = [], [], []
    before = spawn_time()
    for _ in range(FRESH_SAMPLES):
        command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                   "--workload", workload, "--seed", str(seed)]
        start = perf_counter()
        with subprocess.Popen(command, cwd=ROOT, env=fresh_env(), stdout=subprocess.PIPE, text=True) as probe:
            ready = probe.stdout.readline().strip()
            samples.append(perf_counter() - start)
            peak = probe.stdout.read().strip()
        after = spawn_time()
        controls.append(0.5 * (before + after))
        before = after
        if ready != "ready" or not peak.isdigit() or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode}, said {ready!r} {peak!r})")
        peaks.append(int(peak))
    return samples, controls, peaks


def setup_probe(workload: str, seed: int) -> None:
    """Say "ready" once set up and warmed up, then run ``rss_ops`` more ops
    and print the peak memory (kB) of the process doing the work."""
    wl = WORKLOADS[workload](ROOT, seed)
    try:
        wl.prepare()
        guarded(wl.op, wl.next_input())
        print("ready", flush=True)
        for _ in range(wl.rss_ops):
            guarded(wl.op, wl.next_input())
        print(wl.peak_rss_kb(), flush=True)
    finally:
        wl.close()


def startup_split() -> dict:
    """python.start_ms, decoyqkd.import_ms and exact.import_ms from fresh interpreters.

    The bare start is the spawn control itself, so it is reported as
    measured; the import times are scaled by it.
    """
    start, package, exact = [], [], []
    for _ in range(FRESH_SAMPLES):
        spawn = spawn_time()
        probe = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import decoyqkd, decoyqkd.exact"],
            env=fresh_env(), capture_output=True, text=True, check=True,
        )
        start.append(1e3 * spawn)
        # "import time: self [us] | cumulative | imported package"
        cumulative = {}
        for line in probe.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", line)
            if match:
                cumulative[match.group(2)] = 1e-3 * int(match.group(1)) * SPAWN_REF_S / spawn
        package.append(cumulative["decoyqkd"])
        exact.append(cumulative["decoyqkd.exact"])
    base = f"median of {FRESH_SAMPLES} fresh interpreters"
    return {
        "python.start_ms": (statistics.median(start), "ms", base + " running `pass`, wall", ""),
        "decoyqkd.import_ms": (statistics.median(package), "ms", base + ", -X importtime cumulative", ""),
        "exact.import_ms": (statistics.median(exact), "ms", base + ", -X importtime cumulative", ""),
    }


def guarded(op, inp):
    """(output, None) or (None, traceback text) for an op that raised."""
    try:
        return op(inp), None
    except Exception:  # any exception is a failed op, which the result reports
        return None, traceback.format_exc(limit=3)


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, wl, inp, out, error) -> None:
        self.attempted += 1
        problems = [error] if error else wl.check(inp, out)
        if problems:
            self.failed += 1
            if len(self.reasons) < MAX_LISTED_FAILURES:
                self.reasons.append(f"op {self.attempted - 1}: " + "; ".join(problems))


def measure(wl, seconds: float, tally: Tally, min_ops: int) -> dict[str, list[float]]:
    """Timed closed loop for ``seconds``, and for at least ``min_ops`` ops.

    Returns each op's start (s into the loop), latency (s) and control
    time (s): the mean of the controls measured before and after it.
    """
    control, _, every_s = CHILD_PROCESS if wl.child_process else IN_PROCESS
    starts, latencies, interval = [], [], []
    controls = []
    begin = perf_counter()
    next_control = begin
    while len(latencies) < min_ops or perf_counter() - begin < seconds:
        if perf_counter() >= next_control:
            controls.append(control())
            next_control = perf_counter() + every_s
        inp = wl.next_input()
        start = perf_counter()
        out, error = guarded(wl.op, inp)
        latencies.append(perf_counter() - start)
        starts.append(start - begin)
        interval.append(len(controls) - 1)
        tally.record(wl, inp, out, error)
    controls.append(control())
    return {
        "op_start_s": starts,
        "op_latency_s": latencies,
        "control_s": [0.5 * (controls[k] + controls[k + 1]) for k in interval],
    }


def at_reference_speed(times, controls, reference):
    return [t * reference / c for t, c in zip(times, controls)]


def end_to_end(wl, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    wl.prepare()
    setup, setup_controls, peaks_kb = time_setup(wl.name, seed)
    guarded(wl.op, wl.next_input())  # warm-up, as in the set-up probes
    samples = measure(wl, seconds, tally, MIN_OPS)
    wall = samples["op_latency_s"]
    _, reference, _ = CHILD_PROCESS if wl.child_process else IN_PROCESS
    latencies = at_reference_speed(wall, samples["control_s"], reference)
    deciles = statistics.quantiles(latencies, n=10)
    beyond_p90 = sum(1 for x in latencies if x > deciles[8])
    n = len(latencies)
    control = f"control median {1e3 * statistics.median(samples['control_s']):.3f} ms"
    metrics = {
        "setup_s": (
            statistics.median(at_reference_speed(setup, setup_controls, SPAWN_REF_S)), "s",
            f"median of {len(setup)} fresh interpreters: import, inputs, one warm-up op; "
            f"wall {statistics.median(setup):.4f} s", "",
        ),
        "op_ms.p50": (1e3 * statistics.median(latencies), "ms",
                      f"{n} ops; wall {1e3 * statistics.median(wall):.4g} ms, {control}", ""),
        "op_ms.p90": (1e3 * deciles[8], "ms",
                      f"{n} ops, {beyond_p90} beyond p90; wall {1e3 * statistics.quantiles(wall, n=10)[8]:.4g} ms", ""),
        "ops_per_s": (n / sum(latencies), "1/s", f"{n} ops of {wl.unit_of_work}; wall {n / sum(wall):.4g} /s", ""),
        "peak_rss_mb": (
            statistics.median(peaks_kb) / 1024.0, "MB",
            f"median of {len(peaks_kb)} set-up probes after {1 + wl.rss_ops} ops, "
            + ("their child process" if wl.child_process else "the probe process"), "",
        ),
    }
    samples["setup_s"] = setup
    samples["setup_control_s"] = setup_controls
    return metrics, samples


def traced(wl, seconds: float, tally: Tally) -> tuple[dict, list]:
    """Alternate untraced and traced passes over the same ops for ``seconds``."""
    metrics = startup_split()
    wl.prepare()
    guarded(wl.trace_op, wl.next_input())
    inputs = [wl.next_input() for _ in range(wl.trace_ops)]
    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    passes, spans = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not passes:
        for is_traced in (False, True):
            if is_traced:
                tracer.reset()
            before = control_time()
            wall = 0.0
            for op_id, inp in enumerate(inputs):
                tracer.op_id = op_id
                if is_traced:
                    tracer.install()
                try:
                    start = perf_counter()
                    if is_traced:
                        out, error = guarded(lambda x: tracer.span("op", wl.trace_op, x), inp)
                    else:
                        out, error = guarded(wl.trace_op, inp)
                    wall += perf_counter() - start
                finally:
                    tracer.uninstall()
                # checked untraced, so the check's own library calls stay out of the spans
                tally.record(wl, inp, out, error)
            scale = CONTROL_REF_S / (0.5 * (before + control_time()))
            walls[is_traced].append(wall * scale)
            if is_traced:
                passes.append(tracing.PassStats(tracer, scale))
                if not spans:
                    spans = tracer.spans()
    metrics.update(tracing.layer_metrics(passes, tracer.absent))
    untraced_wall = statistics.median(walls[False])
    metrics["trace.overhead_share"] = (
        statistics.median(walls[True]) / untraced_wall - 1.0,
        "ratio",
        f"median traced / untraced time of {len(passes)} pass pairs of {len(inputs)} ops",
        "",
    )
    return metrics, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=37.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # ops, their child processes and the control share one CPU: the host's
    # slow spells differ between CPUs, so a control elsewhere would miss them
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "decoyqkd" / "__init__.py").is_file():
        print(f"error: no decoyqkd sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    wl = WORKLOADS[args.workload](ROOT, args.seed)
    tally = Tally()
    try:
        if args.trace:
            metrics, raw = traced(wl, args.seconds, tally)
        else:
            metrics, raw = end_to_end(wl, args.seed, args.seconds, tally)
    finally:
        wl.close()

    env = environment(args.seed)
    failed_share = tally.failed / tally.attempted
    print(f"# {wl.name} (seed {args.seed}, trace {args.trace}): {wl.why}")
    print(f"# input size: {wl.unit_of_work}; closed loop, one caller")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, base, note) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:6s} ({base}){' - ' + note if note else ''}")
    print(f"{'failed_share':40s} {failed_share:14.6g} {'ratio':6s} ({tally.failed} of {tally.attempted} ops)")
    for reason in tally.reasons:
        print(f"# FAILED {reason}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _, _) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    detail = {name: {"value": v, "unit": u, "base": b, "note": n} for name, (v, u, b, n) in metrics.items()}
    detail["failed_share"] = {"value": failed_share, "unit": "ratio", "base": f"{tally.attempted} ops", "note": ""}
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"env": env, "workload": wl.name, "trace": args.trace, "result": result,
                    "detail": detail, "failures": tally.reasons}, indent=1) + "\n"
    )
    if args.trace:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as out:
            out.writelines(json.dumps(span) + "\n" for span in raw)
    else:
        (OUT_DIR / f"{stem}.samples.json").write_text(json.dumps(raw) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
