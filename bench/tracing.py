"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces each public function of a layer, under every
name a ``decoyqkd`` module imports it as, with a wrapper that records a
span (name, start, end, parent span, op id). ``uninstall`` puts the
originals back, so untraced passes run the library untouched. Spans stay
in memory; ``PassStats`` reduces one traced pass to call counts and self
times (a span's duration minus that of its child spans).

A name missing from the library is skipped, and its metrics read zero
with a note saying so.
"""

from __future__ import annotations

import os
import statistics
import sys
from collections import Counter
from time import perf_counter

#: (span name, defining module, function, also wrap the defining module's
#: own global). The home global matters where the module calls its own
#: function, as ``sweep`` calls ``rate_at``. It is left alone for
#: ``honest_gain`` and ``honest_qber``, so that only the direct calls on the
#: sarg04 path are timed, not the ones inside ``synthesize_tallies``.
LAYERS = (
    ("cli.main", "cli", "main", True),
    ("cli.resolve_config", "cli", "resolve_config", True),
    ("cli.write_csv", "cli", "write_csv", True),
    ("sweeps.sweep", "sweeps", "sweep", True),
    ("sweeps.max_secure_distance", "sweeps", "max_secure_distance", True),
    ("sweeps.rate_at", "sweeps", "rate_at", True),
    ("channel.synthesize_tallies", "channel", "synthesize_tallies", False),
    ("channel.honest_signal", "channel", "honest_gain", False),
    ("channel.honest_signal", "channel", "honest_qber", False),
    ("bounds.estimate_photon_bounds", "bounds", "estimate_photon_bounds", False),
    ("bounds.validate_intensities", "bounds", "validate_intensities", True),
    ("rates.rate_formula", "rates", "rate_bb84_decoy", False),
    ("rates.rate_formula", "rates", "rate_nonorthogonal_decoy", False),
    ("rates.rate_formula", "rates", "rate_sarg04_worst", False),
    ("rates.optimal_mu_sarg04", "rates", "optimal_mu_sarg04", False),
    ("roots.bisect_root", "roots", "bisect_root", False),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.bisect_evals = 0
        self.validated: list[str] = []
        self.csv_bytes = 0
        self.absent: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for seq in (self.names, self.starts, self.ends, self.parents, self.ops, self.stack):
            seq.clear()
        self.validated.clear()
        self.bisect_evals = 0
        self.csv_bytes = 0

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op_id)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = perf_counter()
            self.starts[index] = start
            self.stack.pop()

    def _wrapper(self, name, fn):
        if name == "roots.bisect_root":

            def wrapper(f, *args, **kwargs):
                def counted(x):
                    self.bisect_evals += 1
                    return f(x)

                return self.span(name, fn, counted, *args, **kwargs)

        elif name == "bounds.validate_intensities":

            def wrapper(intensities, *args, **kwargs):
                self.validated.append(repr(intensities))
                return self.span(name, fn, intensities, *args, **kwargs)

        elif name == "cli.write_csv":

            def wrapper(path, *args, **kwargs):
                result = self.span(name, fn, path, *args, **kwargs)
                self.csv_bytes += os.path.getsize(path)
                return result

        else:

            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "decoyqkd" or n.startswith("decoyqkd.")]
        for name, module_name, func_name, wrap_home in LAYERS:
            home = sys.modules.get(f"decoyqkd.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                self.absent.add(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrapper(name, original)
            for module in modules:
                if module is home and not wrap_home:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def spans(self):
        """The recorded spans as dicts, for the span file."""
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in zip(self.names, self.starts, self.ends, self.parents, self.ops)
        ]


class PassStats:
    """Counts and self times of one traced pass; ``scale`` converts its times
    to the reference host speed of ``control.py``."""

    def __init__(self, tracer: Tracer, scale: float = 1.0):
        n = len(tracer.names)
        child = [0.0] * n
        for i, parent in enumerate(tracer.parents):
            if parent >= 0:
                child[parent] += tracer.ends[i] - tracer.starts[i]
        self.calls = Counter(tracer.names)
        self.self_s = Counter()
        self.rate_at_in_cutoff = 0
        for i, name in enumerate(tracer.names):
            self.self_s[name] += (tracer.ends[i] - tracer.starts[i] - child[i]) * scale
            parent = tracer.parents[i]
            if name == "sweeps.rate_at" and parent >= 0 and tracer.names[parent] == "sweeps.max_secure_distance":
                self.rate_at_in_cutoff += 1
        self.bisect_evals = tracer.bisect_evals
        self.validations = len(tracer.validated)
        self.distinct_validated = len(set(tracer.validated))
        self.csv_bytes = tracer.csv_bytes

    def self_ms_per_call(self, name):
        calls = self.calls[name]
        return 1e3 * self.self_s[name] / calls if calls else 0.0


def layer_metrics(passes: list[PassStats], absent: set[str]):
    """Per-layer metrics from the traced passes: name -> (value, unit, base, note).

    Counts come from the first pass (every pass runs the same ops); self
    times are the median over passes of the mean self time per call.
    """
    first = passes[0]

    def why_zero(layer):
        missing = sorted(a for a in absent if any(l[0] == layer and f"{l[1]}.{l[2]}" == a for l in LAYERS))
        if missing:
            return f"{', '.join(missing)} absent from the library"
        return f"{layer} not called on this workload"

    out = {}

    def count(metric, layer):
        calls = first.calls[layer]
        out[metric] = (calls, "count", "calls per traced pass", "" if calls else why_zero(layer))

    def self_ms(metric, layer):
        calls = first.calls[layer]
        value = statistics.median(p.self_ms_per_call(layer) for p in passes)
        out[metric] = (value, "ms", f"{calls} calls per pass, {len(passes)} passes", "" if calls else why_zero(layer))

    def ratio(metric, numerator, denominator, unit, base, layer):
        value = numerator / denominator if denominator else 0.0
        out[metric] = (value, unit, f"{base} {denominator}", "" if denominator else why_zero(layer))

    out_cli = first.calls["cli.main"]
    self_ms("cli.resolve_config_ms", "cli.resolve_config")
    self_ms("cli.write_csv_ms", "cli.write_csv")
    ratio("cli.csv_bytes", first.csv_bytes, out_cli, "bytes", "per cli.main call; calls", "cli.main")
    for layer in ("sweeps.sweep", "sweeps.rate_at", "sweeps.max_secure_distance"):
        count(f"{layer}_calls", layer)
        self_ms(f"{layer}_self_ms", layer)
    ratio(
        "sweeps.rate_evals_per_cutoff",
        first.rate_at_in_cutoff,
        first.calls["sweeps.max_secure_distance"],
        "count",
        "rate_at calls under max_secure_distance per search; searches",
        "sweeps.max_secure_distance",
    )
    count("channel.synthesize_tallies_calls", "channel.synthesize_tallies")
    self_ms("channel.synthesize_tallies_self_ms", "channel.synthesize_tallies")
    self_ms("channel.honest_signal_self_ms", "channel.honest_signal")
    count("bounds.estimate_photon_bounds_calls", "bounds.estimate_photon_bounds")
    self_ms("bounds.estimate_photon_bounds_self_ms", "bounds.estimate_photon_bounds")
    count("bounds.validate_intensities_calls", "bounds.validate_intensities")
    ratio(
        "bounds.validate_useful_ratio",
        first.distinct_validated,
        first.validations,
        "ratio",
        "distinct intensity sets per validation; validations",
        "bounds.validate_intensities",
    )
    count("rates.rate_formula_calls", "rates.rate_formula")
    self_ms("rates.rate_formula_self_ms", "rates.rate_formula")
    count("rates.optimal_mu_sarg04_calls", "rates.optimal_mu_sarg04")
    self_ms("rates.optimal_mu_sarg04_self_ms", "rates.optimal_mu_sarg04")
    count("roots.bisect_root_calls", "roots.bisect_root")
    ratio(
        "roots.bisect_root_evals_per_call",
        first.bisect_evals,
        first.calls["roots.bisect_root"],
        "count",
        "evaluations of the bracketed function per call; calls",
        "roots.bisect_root",
    )
    self_ms("roots.bisect_root_self_ms", "roots.bisect_root")
    return out
