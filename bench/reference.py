"""Correctness oracle for the benchmark, independent of the library code.

``reference_rates`` re-derives the key rate of one protocol over an array
of distances with numpy, from the formulas the library documents: the
honest fiber channel, the vacuum + three-decoy photon bounds with their
clamps, the three rate formulas, and the SARG04 optimal-intensity
equation solved by the same bisection. It is a frozen copy of the model
as it stands when the benchmark was defined, written once as array code,
so that a later change to the library is judged against it rather than
against itself. ``bench/reference/recorded.json`` pins it to outputs
recorded from the library at that point (see ``test_bench.py``).

The checks below return a list of problems; an empty list means the
output is correct. Tolerances:

- rates agree within 1e-15 absolute or 1e-12 relative;
- a per-distance optimal mu agrees within twice the 1e-12 resolution of
  its root finder, and its rate is compared with the reference formula
  evaluated at the library's mu;
- a CSV value may also differ by one unit of its 12th significant digit,
  the resolution the CLI prints;
- a cutoff is correct when the reference rate is positive 0.1 km (the
  search resolution) before it and non-positive 0.1 km after it;
- the photon bounds bracket ``exact.exact_stats``: Y1L <= Y1, e1U >= e1,
  Y2L <= Y2, e2U >= e2, up to round-off.
"""

from __future__ import annotations

import math

import numpy as np

RATE_ABS_TOL = 1e-15
RATE_REL_TOL = 1e-12
#: The optimal SARG04 mu is a bisection root to within 1e-12; two root
#: finders that each meet that resolution may differ by twice as much.
OPTIMAL_MU_TOL = 2e-12
CUTOFF_TOL_KM = 0.1
#: Slack for float round-off in the bound inequalities; the bounds are
#: exact inequalities, so any real violation is many orders larger.
BOUND_REL_TOL = 1e-12

NU3 = 0.01
E_VACUUM = 0.5
SIFTING = {"bb84-decoy": 0.5, "sarg04-no-decoy": 0.25, "nonorthogonal-decoy": 0.25}


def _entropy(x):
    """Binary entropy in bits, elementwise, with H2(0) = H2(1) = 0."""
    x = np.asarray(x, dtype=float)
    inner = (x > 0.0) & (x < 1.0)
    safe = np.where(inner, x, 0.5)
    h = -safe * np.log2(safe) - (1.0 - safe) * np.log2(1.0 - safe)
    return np.where(inner, h, 0.0)


def _gain_qber(intensity, eta, y0, e_det):
    gain = np.minimum(y0 - np.expm1(-eta * intensity), 1.0)
    errors = E_VACUUM * y0 + e_det * (1.0 - np.exp(-eta * intensity))
    return gain, errors / gain


def optimal_mu(eta, xtol=1e-12, max_iter=200):
    """Root of eta e^(-eta mu) = mu^2 e^(-mu) / 2 on (1e-15, 2), elementwise bisection."""
    eta = np.asarray(eta, dtype=float)

    def residual(mu):
        return eta * np.exp(-eta * mu) - 0.5 * mu**2 * np.exp(-mu)

    lo = np.full_like(eta, 1e-15)
    hi = np.full_like(eta, 2.0)
    f_lo = residual(lo)
    found = np.where(f_lo == 0, lo, np.nan)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = residual(mid)
        found = np.where(np.isnan(found) & (f_mid == 0), mid, found)
        same = (f_mid > 0) == (f_lo > 0)
        lo, f_lo = np.where(same, mid, lo), np.where(same, f_mid, f_lo)
        hi = np.where(same, hi, mid)
        # every element starts on the same interval, so all widths match
        if hi[0] - lo[0] <= xtol:
            break
    return np.where(np.isnan(found), 0.5 * (lo + hi), found)


def reference_rates(protocol, mu, alpha, eta_bob, y0, e_det, f_ec, distances):
    """Signal intensity and key rate of ``protocol`` at each distance (km).

    ``mu`` is a number, ``"optimal"`` (sarg04-no-decoy only) or, for
    sarg04-no-decoy, an array with one intensity per distance.
    """
    d = np.asarray(distances, dtype=float)
    eta = eta_bob * 10.0 ** (-alpha * d / 10.0)
    if protocol == "sarg04-no-decoy":
        if isinstance(mu, str):
            mus = optimal_mu(eta)
        else:
            mus = np.broadcast_to(np.asarray(mu, dtype=float), d.shape)
        q, e = _gain_qber(mus, eta, y0, e_det)
        q0 = y0 * np.exp(-mus)
        omega = 1.0 - (1.0 - (1.0 + mus + mus**2 / 2.0) * np.exp(-mus)) / q
        positive = omega > 0
        safe_omega = np.where(positive, omega, 1.0)
        untagged = np.where(
            positive, omega * q * (1.0 - _entropy(np.minimum(e / safe_omega, 0.5))), 0.0
        )
        return mus, SIFTING[protocol] * (q0 + untagged - q * _entropy(e))

    nu1 = 0.75 * mu
    nu2 = 0.5 * (-nu1 + math.sqrt(4.0 * mu**2 - 3.0 * nu1**2))
    nu3 = NU3
    q_mu, e_mu = _gain_qber(mu, eta, y0, e_det)
    q1, _ = _gain_qber(nu1, eta, y0, e_det)
    q2, _ = _gain_qber(nu2, eta, y0, e_det)
    q3, e3 = _gain_qber(nu3, eta, y0, e_det)
    # the vacuum class measures Y0 directly, with error rate 1/2
    e0 = E_VACUUM

    y1 = (
        mu**2 * (q2 * math.exp(nu2) - q3 * math.exp(nu3))
        - (nu2**2 - nu3**2) * (q_mu * math.exp(mu) - y0)
    ) / (mu * (nu2 - nu3) * (mu - nu2 - nu3))
    y1_pos = y1 > 0
    y1 = np.where(y1_pos, np.minimum(y1, 1.0), 0.0)
    e1 = (e3 * q3 * math.exp(nu3) - e0 * y0) / (np.where(y1_pos, y1, 1.0) * nu3)
    e1 = np.where(y1_pos, np.clip(e1, 0.0, E_VACUUM), E_VACUUM)
    gain_1 = y1 * mu * math.exp(-mu) * (1.0 - _entropy(np.minimum(e1, 0.5)))
    cost = q_mu * f_ec * _entropy(e_mu)
    if protocol == "bb84-decoy":
        return np.full_like(d, mu), SIFTING[protocol] * (gain_1 - cost)

    y2 = (
        2.0 * mu * (q1 * math.exp(nu1) - q2 * math.exp(nu2))
        - 2.0 * (nu1 - nu2) * (q_mu * math.exp(mu) - y0)
    ) / (mu * (nu1 - nu2) * (nu1 + nu2 - mu))
    y2_pos = y2 > 0
    y2 = np.where(y2_pos, np.minimum(y2, 1.0), 0.0)
    e2 = (2.0 * e3 * q3 * math.exp(nu3) - 2.0 * e0 * y0) / (
        np.where(y2_pos, y2, 1.0) * nu3**2
    )
    e2 = np.where(y2_pos, np.clip(e2, 0.0, 1.0), 1.0)
    gain_2 = y2 * mu**2 * math.exp(-mu) / 2.0 * (1.0 - _entropy(np.minimum(e2, 0.5)))
    q0 = y0 * math.exp(-mu)
    return np.full_like(d, mu), SIFTING[protocol] * (q0 + gain_1 + gain_2 - cost)


def _close(got, want, extra_tol=0.0):
    tol = np.maximum(np.maximum(RATE_ABS_TOL, RATE_REL_TOL * np.abs(want)), extra_tol)
    return np.abs(np.asarray(got, dtype=float) - want) <= tol


def check_curve(label, distances, mus, rates, want_distances, want_mus, want_rates, mu_tol=0.0):
    """Problems in one rate-vs-distance curve against the reference."""
    problems = []
    for name, got, want, tol in (
        ("distance", distances, want_distances, 0.0),
        ("mu", mus, want_mus, mu_tol),
        ("rate", rates, want_rates, 0.0),
    ):
        bad = np.flatnonzero(~_close(got, want, tol))
        if bad.size:
            i = bad[0]
            problems.append(
                f"{label}: {name} off at {bad.size} points, first at {want_distances[i]} km: "
                f"{got[i]!r} vs reference {want[i]!r}"
            )
    return problems


def check_sweep(label, protocol, mu, channel, distances, got_distances, got_mus, got_rates):
    """Problems in a library sweep of ``protocol`` at ``distances`` against the reference."""
    if len(got_rates) != len(distances):
        return [f"{label}: {len(got_rates)} points, expected {len(distances)}"]
    want_mu, want_rate = reference_rates(protocol, mu, *channel, distances)
    mu_tol = 0.0
    if isinstance(mu, str):
        # judge the rate formula at the library's own root
        _, want_rate = reference_rates(protocol, got_mus, *channel, distances)
        mu_tol = OPTIMAL_MU_TOL
    return check_curve(label, got_distances, got_mus, got_rates, distances, want_mu, want_rate, mu_tol)


def check_cutoff(label, protocol, mu, channel, cutoff):
    """Problems with a cutoff (``None`` for NeverSecureError) against the reference."""
    if cutoff is not None and not math.isfinite(cutoff):
        return [f"{label}: cutoff {cutoff!r} is not finite"]
    points = [0.0] if cutoff is None else [0.0, max(cutoff - CUTOFF_TOL_KM, 0.0), cutoff + CUTOFF_TOL_KM]
    _, r = reference_rates(protocol, mu, *channel, points)
    if cutoff is None:
        return [] if r[0] <= 0 else [f"{label}: NeverSecureError but reference rate(0) = {r[0]!r} > 0"]
    if r[0] <= 0:
        return [f"{label}: cutoff {cutoff!r} km but reference rate(0) = {r[0]!r} <= 0"]
    if not (r[1] > 0 and r[2] <= 0):
        return [
            f"{label}: cutoff {cutoff!r} km not within {CUTOFF_TOL_KM} km of the reference "
            f"sign change (rate {r[1]!r} before, {r[2]!r} after)"
        ]
    return []


def check_bounds(label, bounds, stats_1, stats_2):
    """Problems if the estimated photon bounds fail to bracket the exact statistics."""
    slack = 1.0 + BOUND_REL_TOL
    problems = []
    if not bounds.y1_lower <= stats_1.detection_yield * slack:
        problems.append(f"Y1L {bounds.y1_lower!r} > Y1 {stats_1.detection_yield!r}")
    if not bounds.e1_upper * slack >= stats_1.error_rate:
        problems.append(f"e1U {bounds.e1_upper!r} < e1 {stats_1.error_rate!r}")
    if not bounds.y2_lower <= stats_2.detection_yield * slack:
        problems.append(f"Y2L {bounds.y2_lower!r} > Y2 {stats_2.detection_yield!r}")
    if not bounds.e2_upper * slack >= stats_2.error_rate:
        problems.append(f"e2U {bounds.e2_upper!r} < e2 {stats_2.error_rate!r}")
    return [f"{label}: {p}" for p in problems]


def csv_value_tol(value):
    """One unit in the 12th significant digit, the CLI's printed resolution."""
    return 0.0 if value == 0 else 10.0 ** (math.floor(math.log10(abs(value))) - 11)


def check_cli_output(exit_code, stdout, csv_texts, recorded_stdout, recorded_csvs):
    """Problems in one CLI run against the outputs recorded from the library."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    if stdout != recorded_stdout:
        problems.append(f"stdout differs: {stdout!r} vs recorded {recorded_stdout!r}")
    for name, want_text in recorded_csvs.items():
        text = csv_texts.get(name)
        if text is None:
            problems.append(f"{name}: not written")
            continue
        got_lines, want_lines = text.split("\n"), want_text.split("\n")
        if got_lines[0] != want_lines[0] or len(got_lines) != len(want_lines) or got_lines[-1] != "":
            problems.append(f"{name}: header or row count differs from the recording")
            continue
        try:
            got = np.array([[float(v) for v in row.split(",")] for row in got_lines[1:-1]])
        except ValueError as exc:
            problems.append(f"{name}: unparsable row ({exc})")
            continue
        want = np.array([[float(v) for v in row.split(",")] for row in want_lines[1:-1]])
        if got.shape != want.shape:
            problems.append(f"{name}: {got.shape[1]} columns, expected {want.shape[1]}")
            continue
        tol = np.vectorize(csv_value_tol)(want)
        bad = np.argwhere(~_close(got, want, tol))
        if bad.size:
            row, col = bad[0]
            problems.append(
                f"{name}: {len(bad)} values off, first row {row + 1} column {col + 1}: "
                f"{got[row, col]!r} vs recorded {want[row, col]!r}"
            )
    return problems
