"""Self-tests of the benchmark.

    python3 -m pytest bench

They cover a tiny run of each workload, traced and untraced; that an
injected wrong result counts as a failed op; that a seed always yields
the same inputs; that the reference oracle and the library agree with
the outputs recorded in ``reference/recorded.json``; and that the
command refuses to run without the library's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from record_reference import CURVE_STRIDE  # noqa: E402
from workloads import WORKLOADS, CurveFamily, CutoffScan, Library  # noqa: E402

ROOT = run.ROOT
RECORDED = json.loads((BENCH_DIR / "reference" / "recorded.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload_is_correct(name):
    wl = WORKLOADS[name](ROOT, seed=7)
    tally = run.Tally()
    try:
        wl.prepare()
        latencies = run.measure(wl, 0.05, tally, min_ops=2)["op_latency_s"]
    finally:
        wl.close()
    assert tally.attempted == len(latencies) >= 1
    assert tally.failed == 0, tally.reasons


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_per_layer_metric(name):
    wl = WORKLOADS[name](ROOT, seed=7)
    tally = run.Tally()
    try:
        metrics, spans = run.traced(wl, 0.05, tally)
    finally:
        wl.close()
    assert tally.failed == 0, tally.reasons
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert spans and {"name", "start", "end", "parent", "op"} <= set(spans[0])
    for value, unit, base, note in metrics.values():
        assert base
        assert value != 0 or note, "a zero metric must say why"


def test_cli_child_reports_its_own_peak_memory():
    wl = WORKLOADS["cli-default"](ROOT, seed=1)
    try:
        wl.prepare()
        assert wl.op(None) == (0, None)
        # more than a bare interpreter: the child imports numpy
        assert 15 * 1024 < wl.peak_rss_kb() < 500 * 1024
    finally:
        wl.close()


class WrongRate(CurveFamily):
    def op(self, inp):
        curves = super().op(inp)
        points = curves[0]
        i = max(range(len(points)), key=lambda k: abs(points[k].rate))
        points[i] = dataclasses.replace(points[i], rate=points[i].rate * (1 + 1e-9))
        return curves


class WrongCutoff(CutoffScan):
    def op(self, inp):
        cutoff = super().op(inp)
        return None if cutoff is None else cutoff + 1.0


@pytest.mark.parametrize("workload", [WrongRate, WrongCutoff])
def test_injected_wrong_result_counts_as_failed(workload):
    wl = workload(ROOT, seed=3)
    wl.prepare()
    tally = run.Tally()
    never_secure = 0
    for _ in range(20):
        inp = wl.next_input()
        out, error = run.guarded(wl.op, inp)
        tally.record(wl, inp, out, error)
        never_secure += out is None  # a NeverSecureError outcome carries no cutoff to corrupt
    assert never_secure < 20
    assert tally.failed == tally.attempted - never_secure


def test_injected_wrong_cli_output_is_a_problem():
    wl = WORKLOADS["cli-default"](ROOT, seed=1)
    stdout, csvs = wl.recorded_stdout, dict(wl.recorded_csvs)
    assert reference.check_cli_output(0, stdout, csvs, stdout, wl.recorded_csvs) == []

    lines = csvs["bb84-decoy.csv"].split("\n")
    distance, mu, rate = lines[1].split(",")
    lines[1] = f"{distance},{mu},{float(rate) * (1 + 1e-9):.11e}"
    wrong_rate = dict(csvs, **{"bb84-decoy.csv": "\n".join(lines)})
    assert reference.check_cli_output(0, stdout, wrong_rate, stdout, wl.recorded_csvs)

    wrong_cutoff = stdout.replace("138.2 km", "139.2 km")
    assert wrong_cutoff != stdout
    assert reference.check_cli_output(0, wrong_cutoff, csvs, stdout, wl.recorded_csvs)
    assert reference.check_cli_output(1, stdout, csvs, stdout, wl.recorded_csvs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_seed_always_generates_the_same_inputs(name):
    def inputs(seed):
        wl = WORKLOADS[name](ROOT, seed)
        return [wl.next_input() for _ in range(20)]

    assert inputs(5) == inputs(5)
    if name != "cli-default":  # the default command takes no seeded input
        assert inputs(5) != inputs(6)


def recorded_curves():
    for seed, ops in RECORDED["seeds"].items():
        for curve in ops["curve-family"]:
            yield int(seed), curve


def test_recorded_inputs_are_regenerated_from_their_seeds():
    for seed, ops in RECORDED["seeds"].items():
        family = CurveFamily(ROOT, int(seed))
        curves = [c[:3] for _ in range(len(ops["curve-family"]) // 4) for c in family.next_input()]
        assert curves == [(c["protocol"], c["mu"], tuple(c["channel"])) for c in ops["curve-family"]]
        scan = CutoffScan(ROOT, int(seed))
        cutoffs = [scan.next_input()[:3] for _ in ops["cutoff-scan"]]
        assert cutoffs == [(c["protocol"], c["mu"], tuple(c["channel"])) for c in ops["cutoff-scan"]]


def test_reference_agrees_with_the_recorded_outputs():
    for seed, c in recorded_curves():
        assert reference.check_sweep(
            f"seed {seed} {c['protocol']}", c["protocol"], c["mu"], c["channel"],
            c["distance_km"], c["distance_km"], c["mu_out"], c["rate"],
        ) == []
    for seed, ops in RECORDED["seeds"].items():
        for c in ops["cutoff-scan"]:
            label = f"seed {seed} {c['protocol']}"
            assert reference.check_cutoff(label, c["protocol"], c["mu"], c["channel"], c["cutoff_km"]) == []


def test_library_agrees_with_the_recorded_outputs():
    lib = Library(ROOT)
    for seed, c in recorded_curves():
        channel = lib.channel.ChannelParams(c["channel"][0], 0.0, *c["channel"][1:])
        points = lib.sweeps.sweep(lib.sweeps.SweepSpec(c["protocol"], 0.0, 250.0, 1.0, c["mu"], channel))
        sampled = points[::CURVE_STRIDE]
        tol = reference.OPTIMAL_MU_TOL if c["mu"] == "optimal" else 0.0
        assert reference.check_curve(
            f"seed {seed} {c['protocol']}",
            [p.distance_km for p in sampled], [p.mu for p in sampled], [p.rate for p in sampled],
            c["distance_km"], c["mu_out"], c["rate"], tol,
        ) == []


def test_tracer_counts_one_sweep_and_restores_the_library():
    lib = Library(ROOT)
    original = lib.sweeps.rate_at
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spec = lib.sweeps.SweepSpec("bb84-decoy", 0.0, 10.0, 1.0, 0.48, lib.channel.GYS)
        tracer.span("op", lib.sweeps.sweep, spec)
    finally:
        tracer.uninstall()
    assert lib.sweeps.rate_at is original
    stats = tracing.PassStats(tracer)
    assert stats.calls["sweeps.sweep"] == 1
    assert stats.calls["sweeps.rate_at"] == 11
    assert stats.calls["bounds.validate_intensities"] == 22
    assert stats.distinct_validated == 1
    assert all(stats.self_s[name] >= 0 for name in stats.calls)


def test_command_prints_the_contract_result_line():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cutoff-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_command_fails_without_the_library_sources():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "curve-family", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""
