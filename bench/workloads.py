"""The benchmark's three workloads.

Each workload draws its inputs from ``random.Random(seed)`` and hands the
library only those inputs. ``op`` is the timed call; ``check`` runs
outside the timed window and returns the problems it finds (an empty list
means the output is correct). The load is a closed loop with one caller:
the next op starts when the previous one has returned.

- ``cli-default`` runs the ``decoyqkd`` command with default arguments as
  a child process, the way users reproduce the figures. Interpreter start
  and imports dominate it.
- ``curve-family`` sweeps four 251-point curves in-process, one of each
  protocol kind, so per-point work dominates and start-up is absent.
- ``cutoff-scan`` searches one maximal secure distance per op: a few
  dependent rate evaluations rather than a wide grid.

``reference`` (and numpy with it) is imported only where outputs are
checked, so that the benchmark's own imports stay out of ``setup_s``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

DISTANCES = [float(d) for d in range(251)]
CLI_PROTOCOLS = ("bb84-decoy", "sarg04-no-decoy", "nonorthogonal-decoy")
#: the default command, which also writes its own peak memory to stderr on exit
CLI_COMMAND = (
    "import sys\n"
    "from decoyqkd.cli import main\n"
    "try:\n"
    "    sys.exit(main())\n"
    "finally:\n"
    "    sys.stderr.write(next(l for l in open('/proc/self/status') if l.startswith('VmHWM:')))\n"
)
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class Library:
    """The ``decoyqkd`` modules of one checkout, imported from its ``src``."""

    MODULES = ("channel", "bounds", "rates", "roots", "exact", "sweeps", "cli")

    def __init__(self, root: Path):
        src = root / "src"
        if not (src / "decoyqkd" / "__init__.py").is_file():
            raise FileNotFoundError(f"no decoyqkd package under {src}")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"decoyqkd.{name}"))
        loaded = Path(self.sweeps.__file__).resolve()
        if src.resolve() not in loaded.parents:
            raise ImportError(f"decoyqkd loaded from {loaded}, not from {src}")


def random_channel(rng: random.Random) -> tuple[float, float, float, float, float]:
    """(alpha dB/km, eta_bob, y0, e_det, f_ec) over the ranges of a realistic link."""
    return (
        rng.uniform(0.16, 0.35),
        math.exp(rng.uniform(math.log(0.01), math.log(0.5))),
        math.exp(rng.uniform(math.log(1e-7), math.log(1e-4))),
        rng.uniform(0.005, 0.05),
        rng.uniform(1.0, 1.4),
    )


def random_curve(rng: random.Random, kind: int):
    """(protocol, mu, channel) for protocol kind 0..3.

    The kinds are bb84-decoy and nonorthogonal-decoy at a decoy-friendly
    mu, sarg04-no-decoy at a small fixed mu, and sarg04-no-decoy at the
    per-distance optimal mu.
    """
    channel = random_channel(rng)
    if kind == 0:
        return "bb84-decoy", rng.uniform(0.1, 0.6), channel
    if kind == 1:
        return "nonorthogonal-decoy", rng.uniform(0.1, 0.6), channel
    if kind == 2:
        return "sarg04-no-decoy", math.exp(rng.uniform(math.log(0.02), math.log(0.3))), channel
    return "sarg04-no-decoy", "optimal", channel


def vm_hwm_kb(status: str) -> int:
    """The VmHWM (peak resident memory, kB) line of a /proc status text."""
    return int(next(l for l in status.splitlines() if l.startswith("VmHWM:")).split()[1])


class Workload:
    """Inputs, the timed op and its correctness check for one workload."""

    name = ""
    why = ""
    unit_of_work = ""
    #: ops in one traced pass; fixed, so traced call counts repeat exactly
    trace_ops = 1
    #: ops a set-up probe runs after its warm-up op before it reads its peak
    #: memory; fixed, so peak_rss_mb does not depend on how many ops fit in a run
    rss_ops = 0
    #: whether the timed op runs in a child process rather than in this one
    child_process = False

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.rng = random.Random(seed)
        self.lib = None

    def prepare(self) -> None:
        self.lib = Library(self.root)

    def close(self) -> None:
        """Release what ``prepare`` created."""

    def next_input(self):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def trace_op(self, inp):
        """The op run in the traced pass, where the layer wrappers can see it."""
        return self.op(inp)

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the process doing the work.

        This is VmHWM rather than ru_maxrss: a spawned process's ru_maxrss
        also counts the peak of the parent it was spawned from.
        """
        return vm_hwm_kb(Path("/proc/self/status").read_text())

    def _channel(self, values):
        alpha, eta_bob, y0, e_det, f_ec = values
        return self.lib.channel.ChannelParams(alpha, 0.0, eta_bob, y0, e_det, f_ec)

    def _check_bounds(self, label, mu, channel, distance):
        """Photon bounds at one distance of the channel against the exact statistics."""
        import reference

        lib = self.lib
        params = self._channel(channel).at_distance(distance)
        intensities = lib.sweeps.construct_intensity_set(mu)
        bounds = lib.bounds.estimate_photon_bounds(
            lib.channel.synthesize_tallies(intensities, params), intensities
        )
        return reference.check_bounds(
            f"{label} at {distance:.3f} km",
            bounds,
            lib.exact.exact_stats(1, mu, params),
            lib.exact.exact_stats(2, mu, params),
        )


class CurveFamily(Workload):
    name = "curve-family"
    why = (
        "four 251-point in-process sweeps per op, one per protocol kind; per-point "
        "channel, bounds, rate and root work dominate, start-up is absent"
    )
    unit_of_work = "4 x 251-point curves per op"
    trace_ops = 4
    rss_ops = 4

    def next_input(self):
        # one curve per protocol kind, plus two distances per curve at which
        # the photon bounds are checked against the exact statistics
        return [
            (*random_curve(self.rng, kind), (self.rng.uniform(0, 250), self.rng.uniform(0, 250)))
            for kind in range(4)
        ]

    def op(self, inp):
        sweeps = self.lib.sweeps
        return [
            sweeps.sweep(sweeps.SweepSpec(protocol, 0.0, 250.0, 1.0, mu, self._channel(channel)))
            for protocol, mu, channel, _ in inp
        ]

    def check(self, inp, out):
        import reference

        problems = []
        for (protocol, mu, channel, sample_km), points in zip(inp, out):
            label = f"{protocol} mu={mu}"
            problems += reference.check_sweep(
                label,
                protocol,
                mu,
                channel,
                DISTANCES,
                [p.distance_km for p in points],
                [p.mu for p in points],
                [p.rate for p in points],
            )
            if protocol != "sarg04-no-decoy":
                for d in sample_km:
                    problems += self._check_bounds(label, mu, channel, d)
        return problems


class CutoffScan(Workload):
    name = "cutoff-scan"
    why = (
        "one max_secure_distance per op on a random channel and protocol: a few "
        "dependent rate evaluations, where per-call cost shows and grid width does not"
    )
    unit_of_work = "1 cutoff search per op"
    trace_ops = 100
    rss_ops = 100

    def next_input(self):
        protocol, mu, channel = random_curve(self.rng, self.rng.randrange(4))
        return protocol, mu, channel, self.rng.random()

    def op(self, inp):
        protocol, mu, channel, _ = inp
        sweeps = self.lib.sweeps
        try:
            return sweeps.max_secure_distance(protocol, mu, self._channel(channel))
        except sweeps.NeverSecureError:
            return None

    def check(self, inp, out):
        import reference

        protocol, mu, channel, fraction = inp
        label = f"{protocol} mu={mu}"
        problems = reference.check_cutoff(label, protocol, mu, channel, out)
        if protocol != "sarg04-no-decoy":
            span = out if out is not None else 250.0
            problems += self._check_bounds(label, mu, channel, fraction * span)
        return problems


class CliDefault(Workload):
    name = "cli-default"
    why = (
        "the decoyqkd command with default arguments as a child process, as users "
        "reproduce the figures; interpreter start and imports dominate"
    )
    unit_of_work = "1 run (3 protocols, 0:250:1, 3 CSVs, 3 cutoffs) per op"
    trace_ops = 2
    rss_ops = 0  # every child runs the same command: the warm-up child is measured
    child_process = True

    def __init__(self, root: Path, seed: int):
        # the command takes no seeded input: every op is the same default run
        super().__init__(root, seed)
        self.workdir = root / ".bench_out" / f"cli-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.recorded_stdout = (REFERENCE_DIR / "cli-default" / "stdout.txt").read_text()
        self.recorded_csvs = {
            f"{p}.csv": (REFERENCE_DIR / "cli-default" / f"{p}.csv").read_text()
            for p in CLI_PROTOCOLS
        }

    def prepare(self):
        if not (self.root / "src" / "decoyqkd" / "cli.py").is_file():
            raise FileNotFoundError(f"no decoyqkd CLI under {self.root / 'src'}")
        self.workdir.mkdir(parents=True, exist_ok=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def next_input(self):
        return None

    def op(self, inp):
        with open(self.workdir / "stdout.txt", "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            child = subprocess.Popen(
                [sys.executable, "-c", CLI_COMMAND],
                cwd=self.workdir,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
            )
            return child.wait(), None

    def trace_op(self, inp):
        if self.lib is None:
            self.lib = Library(self.root)
        stdout = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(stdout):
                code = self.lib.cli.main([])
        finally:
            os.chdir(cwd)
        return code, stdout.getvalue()

    def check(self, inp, out):
        import reference

        code, stdout = out
        if stdout is None:
            stdout = (self.workdir / "stdout.txt").read_text()
        csv_texts = {}
        for name in self.recorded_csvs:
            path = self.workdir / name
            if path.is_file():
                csv_texts[name] = path.read_text()
                path.unlink()
        return reference.check_cli_output(
            code, stdout, csv_texts, self.recorded_stdout, self.recorded_csvs
        )

    def peak_rss_kb(self):
        """The peak the last child wrote to its stderr."""
        return vm_hwm_kb((self.workdir / "stderr.txt").read_text())


WORKLOADS = {w.name: w for w in (CliDefault, CurveFamily, CutoffScan)}
