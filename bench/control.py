"""Controls that measure how fast the shared host is running right now.

On a shared host the same code can run 1.4-2.3x slower for stretches of
seconds to minutes while a neighbour loads the CPU the benchmark is on.
Wall times then say more about the neighbour than about the program.
The benchmark therefore times a fixed control next to its ops, on the
same CPU, and reports each op's time at the reference speed:

    time x reference / control time.

Two controls are used, because work inside a running interpreter and
the start of a new process slow down by different amounts:

- ``control_time`` is for in-process work. It is frozen benchmark code
  shaped like the library's work: a scalar per-distance chain of small
  frozen dataclasses, ``math`` calls and a float-equality lookup, plus
  the numpy reference model on a 251-point grid. Garbage collection is
  paused while it runs, so the library's heap cannot change its time.
- ``spawn_time`` is for child processes. It is the start of a bare
  interpreter (``python -c pass``), which no change to the library can
  move.

An op that slows down relative to its control is a real slowdown.
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
from dataclasses import dataclass, replace
from time import perf_counter

#: Each control's time on an idle vCPU of the 2-vCPU Intel Xeon VM the benchmark
#: was defined on; they set the unit of the reported times.
CONTROL_REF_S = 0.95e-3
SPAWN_REF_S = 50e-3
REPEATS = 3


@dataclass(frozen=True)
class _Link:
    alpha: float
    distance: float
    eta_bob: float
    y0: float
    e_det: float


@dataclass(frozen=True)
class _Tally:
    intensity: float
    gain: float
    qber: float


def _entropy(x):
    return 0.0 if x <= 0.0 or x >= 1.0 else -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _point(link, mu):
    eta = link.eta_bob * 10.0 ** (-link.alpha * link.distance / 10.0)
    tallies = []
    for nu in (0.0, 0.01, 0.385 * mu, 0.75 * mu, mu):
        gain = min(link.y0 - math.expm1(-eta * nu), 1.0)
        tallies.append(_Tally(nu, gain, (0.5 * link.y0 + link.e_det * (1.0 - math.exp(-eta * nu))) / gain))
    signal = next(t for t in tallies if math.isclose(t.intensity, mu, rel_tol=1e-12))
    weak, mid = tallies[1], tallies[2]
    y1 = max((mid.gain * math.exp(mid.intensity) - weak.gain * math.exp(weak.intensity)) / (mid.intensity - 0.01), 0.0)
    return 0.5 * (y1 * mu * math.exp(-mu) * (1.0 - _entropy(0.03)) - signal.gain * 1.2 * _entropy(signal.qber))


def _task():
    # numpy comes in with the first control, not at import: set-up probes
    # import this module and must not pay for numpy on the library's behalf
    import reference

    link = _Link(0.21, 0.0, 0.045, 1.7e-6, 0.033)
    total = sum(_point(replace(link, distance=float(d)), 0.48) for d in range(60))
    grid = [float(d) for d in range(251)]
    for _ in range(2):
        total += float(reference.reference_rates("nonorthogonal-decoy", 0.3, 0.21, 0.045, 1.7e-6, 0.033, 1.22, grid)[1][0])
    return total


def control_time() -> float:
    """Seconds the control task takes now: the fastest of a few back-to-back runs."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(REPEATS):
            start = perf_counter()
            _task()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()


def spawn_time() -> float:
    """Seconds a bare interpreter takes to start and exit now."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - start


#: (control, its reference time, most seconds of ops between two controls)
#: for work in the benchmark's process and for work in child processes
IN_PROCESS = (control_time, CONTROL_REF_S, 0.025)
CHILD_PROCESS = (spawn_time, SPAWN_REF_S, 1.0)
