"""Acceptance suite: one check per release criterion, with a PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.

Two of the paper's headline figures do not hold in the paper's own channel
model: the 220 km nonorthogonal cutoff at mu = 0.30, and dominance over
BB84 at every distance. The checks for them first show this with the exact
photon-number statistics of ``exact_bounds``. Fed into the rate formulas in
place of the decoy bounds, those statistics give the most key any estimator
that passes criterion 3 can credit; ``exact_ceiling_km`` is the cutoff of
that rate (the exact-statistics ceiling). The checks then assert the part of
each claim that does hold: a longer cutoff than the prior decoy record,
SARG04 and decoy BB84, bounded by that ceiling.
"""

import math
import time

import numpy as np
import pytest

from decoyqkd import (
    GYS,
    IntensityConstraintError,
    IntensitySet,
    NeverSecureError,
    construct_intensity_set,
    estimate_photon_bounds,
    exact_bounds,
    exact_ceiling_km,
    honest_tally,
    max_secure_distance,
    optimal_mu_sarg04,
    rate_at,
    rate_bb84_decoy,
    rate_nonorthogonal_decoy,
    reconstruct_gain,
    synthesize_tallies,
    verify_bound_inequalities,
)
from decoyqkd.sweeps import MAX_MU

MU_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
GYS_GRID = GYS.at_distance(np.arange(0.0, 151.0, 10.0))  # 0-150 km in 10 km steps

#: The signal intensities of the exact-statistics scan: a lattice of step
#: MU_STEP over (0, 3], then a geometric lattice from 3 up to MAX_MU.
MU_STEP = 0.01
MU_LATTICE = (MU_STEP * np.arange(1, 301)).tolist()
HIGH_MU = np.geomspace(3.0, MAX_MU, 60).tolist()
DECOY_PROTOCOLS = ("nonorthogonal-decoy", "bb84-decoy")


def check(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def check_within_ceiling(protocol, mu, d):
    """Check a criterion-1 cutoff against its exact-statistics ceiling, and return the ceiling."""
    ceiling = exact_ceiling_km(protocol, mu, GYS)
    check(
        f"criterion 1: {protocol} mu={mu:.2f} cutoff within the ceiling",
        d <= ceiling + 0.1,
        f"{d:.1f} km vs <= {ceiling:.1f} km + 0.1 km resolution",
    )
    return ceiling


@pytest.fixture(scope="module")
def fig1_distances():
    start = time.perf_counter()
    distances = {
        "bb84": max_secure_distance("bb84-decoy", 0.48, GYS),
        "sarg04": max_secure_distance("sarg04-no-decoy", "optimal", GYS),
        "nonorth_030": max_secure_distance("nonorthogonal-decoy", 0.30, GYS),
        "nonorth_048": max_secure_distance("nonorthogonal-decoy", 0.48, GYS),
    }
    distances["elapsed_s"] = time.perf_counter() - start
    return distances


class TestCriterion1MaximalDistances:
    def test_bb84_decoy_distance(self, fig1_distances):
        d = fig1_distances["bb84"]
        check("criterion 1: bb84-decoy mu=0.48 cutoff", abs(d - 142) <= 5, f"{d:.1f} km vs 142 +/- 5 km")
        check_within_ceiling("bb84-decoy", 0.48, d)

    def test_sarg04_no_decoy_distance(self, fig1_distances):
        d = fig1_distances["sarg04"]
        check(
            "criterion 1: sarg04-no-decoy optimal-mu cutoff",
            abs(d - 97) <= 5,
            f"{d:.1f} km vs 97 +/- 5 km",
        )

    def test_nonorthogonal_mu030_distance(self, fig1_distances):
        d = fig1_distances["nonorth_030"]
        ceiling = check_within_ceiling("nonorthogonal-decoy", 0.30, d)
        check(
            "criterion 1: paper's 220 km at mu=0.30 lies above the exact-statistics ceiling",
            ceiling < 210,
            f"exact single- and two-photon statistics give a {ceiling:.1f} km cutoff, "
            "below the paper's 220 +/- 10 km; reaching 220 km needs a bound that "
            "overstates the exact statistics (Y1L > Y1, say), which criterion 3 forbids",
        )
        sarg04 = fig1_distances["sarg04"]
        check(
            "criterion 1: nonorthogonal-decoy mu=0.30 cutoff beyond the prior record and SARG04",
            d > 142 and d > sarg04,
            f"{d:.1f} km vs > 142 km and > {sarg04:.1f} km (sarg04-no-decoy)",
        )

    def test_nonorthogonal_mu048_exceeds_bb84_target(self, fig1_distances):
        d = fig1_distances["nonorth_048"]
        check(
            "criterion 1: nonorthogonal-decoy mu=0.48 beyond 142 km",
            d > 142,
            f"{d:.1f} km vs > 142 km",
        )
        check_within_ceiling("nonorthogonal-decoy", 0.48, d)

    def test_runtime_budget(self, fig1_distances):
        elapsed = fig1_distances["elapsed_s"]
        check("criterion 1: runtime", elapsed < 10, f"{elapsed:.2f} s vs < 10 s")


def ceiling_or_none(protocol, mu):
    """The exact-statistics ceiling at GYS, or None where no distance is secure."""
    try:
        return exact_ceiling_km(protocol, mu, GYS)
    except NeverSecureError:
        return None


@pytest.fixture(scope="module")
def mu_scan():
    """Each decoy protocol's ceiling at every mu of MU_LATTICE."""
    return {p: [ceiling_or_none(p, mu) for mu in MU_LATTICE] for p in DECOY_PROTOCOLS}


def best_ceiling(ceilings):
    """The largest ceiling of a scan, and the first and last lattice mu where it
    lies: ceilings are midpoints of 5/64 km lattice steps, so neighbours tie."""
    best = max(c for c in ceilings if c is not None)
    where = [mu for mu, c in zip(MU_LATTICE, ceilings) if c == best]
    return best, f"mu = {where[0]:.2f}-{where[-1]:.2f}"


class TestCriterion1OverEveryIntensity:
    """The paper's headline is a best case, so the check that it fails must hold
    at every signal intensity, not at mu = 0.30 and 0.48 only: no mu reaches
    220 km even with exact photon statistics. Each mu is a lattice point, so
    none is asserted finer than MU_STEP."""

    def test_no_intensity_reaches_220_km(self, mu_scan):
        best, where = best_ceiling(mu_scan["nonorthogonal-decoy"])
        check(
            "criterion 1: no mu in (0, 3] takes the exact-statistics ceiling to 220 km",
            best <= 170,
            f"best nonorthogonal ceiling {best:.1f} km at {where} (lattice step "
            f"{MU_STEP}) vs <= 170 km, far below the paper's 220 km",
        )

    def test_gain_over_bb84_between_best_ceilings(self, mu_scan):
        nonorth, nonorth_where = best_ceiling(mu_scan["nonorthogonal-decoy"])
        bb84, bb84_where = best_ceiling(mu_scan["bb84-decoy"])
        check(
            "criterion 1: the best ceilings leave far less than the paper's +78 km over bb84",
            0 < nonorth - bb84 <= 30,
            f"nonorthogonal {nonorth:.1f} km ({nonorth_where}) - bb84 {bb84:.1f} km "
            f"({bb84_where}) = {nonorth - bb84:.1f} km vs in (0, 30] km",
        )

    @pytest.mark.parametrize("protocol", DECOY_PROTOCOLS)
    def test_secure_intensities_are_one_run_below_3(self, mu_scan, protocol):
        secure = [c is not None for c in mu_scan[protocol]]
        onset = secure.index(False)  # ValueError if every mu is secure
        check(
            f"criterion 1: {protocol} is secure below one mu in (0, 3] and never from it on",
            onset > 0 and not any(secure[onset:]),
            f"a ceiling at mu = {MU_LATTICE[0]:.2f}-{MU_LATTICE[onset - 1]:.2f}, never secure "
            f"from mu = {MU_LATTICE[onset]:.2f} to 3 (lattice step {MU_STEP})",
        )

    @pytest.mark.parametrize("protocol", DECOY_PROTOCOLS)
    def test_never_secure_from_3_to_max_mu(self, protocol):
        never = sum(ceiling_or_none(protocol, mu) is None for mu in HIGH_MU)
        check(
            f"criterion 1: {protocol} never secure on [3, {MAX_MU:g}]",
            never == len(HIGH_MU),
            f"{never} of {len(HIGH_MU)} geometric lattice points never secure",
        )


class TestCriterion2CurveDominance:
    def test_nonorthogonal_dominates_bb84_at_mu048(self, fig1_distances):
        signal = synthesize_tallies(construct_intensity_set(0.48), GYS).row(-1)
        exact = exact_bounds(0.48, GYS)
        bb84_0 = rate_bb84_decoy(signal, exact, GYS.f_ec)
        nonorth_0 = rate_nonorthogonal_decoy(signal, exact, GYS.f_ec)
        check(
            "criterion 2: dominance at every distance fails even with exact statistics",
            bb84_0 > nonorth_0,
            f"at 0 km the exact-statistics rates are bb84 {bb84_0:.3e} > nonorthogonal "
            f"{nonorth_0:.3e} (ratio {nonorth_0 / bb84_0:.3f}): sifting 1/4 against 1/2",
        )

        live = []
        ahead = []
        for d in range(0, 251):
            bb84 = rate_at("bb84-decoy", 0.48, GYS, d).rate
            nonorth = rate_at("nonorthogonal-decoy", 0.48, GYS, d).rate
            if bb84 > 0 or nonorth > 0:
                live.append(d)
                if nonorth >= bb84:
                    ahead.append(d)
        crossing = ahead[0] if ahead else None
        check(
            "criterion 2: nonorthogonal-decoy overtakes bb84-decoy once at mu=0.48",
            bool(ahead) and ahead == [d for d in live if d >= crossing],
            f"nonorthogonal >= bb84 on {len(ahead)} of {len(live)} grid points with a "
            f"positive rate, from {crossing} km; last positive point {live[-1]} km",
        )

        nonorth_d, bb84_d = fig1_distances["nonorth_048"], fig1_distances["bb84"]
        check(
            "criterion 2: nonorthogonal-decoy cutoff beyond bb84-decoy at mu=0.48",
            nonorth_d > bb84_d,
            f"{nonorth_d:.1f} km vs > {bb84_d:.1f} km",
        )


class TestCriterion3Conservativeness:
    def test_bounds_bracket_exact_values_on_grid(self):
        worst = {"y1": -np.inf, "e1": -np.inf, "y2": -np.inf, "e2": -np.inf}
        for mu in MU_GRID:
            s = construct_intensity_set(mu)
            bounds = estimate_photon_bounds(synthesize_tallies(s, GYS_GRID), s)
            exact = exact_bounds(mu, GYS_GRID)
            worst["y1"] = max(worst["y1"], (bounds.y1_lower - exact.y1_lower).max())
            worst["e1"] = max(worst["e1"], (exact.e1_upper - bounds.e1_upper).max())
            worst["y2"] = max(worst["y2"], (bounds.y2_lower - exact.y2_lower).max())
            worst["e2"] = max(worst["e2"], (exact.e2_upper - bounds.e2_upper).max())
        ok = all(v <= 1e-12 for v in worst.values())
        check(
            "criterion 3: bound conservativeness",
            ok,
            "max excess over exact values " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
        )


class TestCriterion4OptimalMuAsymptotics:
    def test_root_matches_asymptotic_and_residual(self):
        details = []
        ok = True
        for eta in (1e-5, 1e-4, 1e-3):
            mu = optimal_mu_sarg04(eta)
            approx = math.sqrt(2 * eta)
            rel_err = abs(mu - approx) / approx
            residual = abs(eta * math.exp(-eta * mu) - 0.5 * mu**2 * math.exp(-mu))
            ok = ok and rel_err < 0.05 and residual < 1e-10
            details.append(f"eta={eta:g}: rel_err={rel_err:.2%}, residual={residual:.1e}")
        check("criterion 4: optimal-mu asymptotics", ok, "; ".join(details))


class TestCriterion5InequalityLemmas:
    def test_lemmas_and_counterexample(self):
        report = verify_bound_inequalities()
        ok = (
            report.lemma1_max_excess <= 0
            and report.lemma2_max_excess <= 0
            and report.counterexample_excess > 0
        )
        check(
            "criterion 5: inequality lemmas",
            ok,
            f"lemma1 max excess {report.lemma1_max_excess:.2e}, "
            f"lemma2 max excess {report.lemma2_max_excess:.2e}, "
            f"out-of-domain counterexample excess {report.counterexample_excess:.2e}",
        )


class TestCriterion6OracleConsistency:
    def test_series_matches_closed_forms(self):
        worst = 0.0
        for mu in MU_GRID:
            gain, qber = reconstruct_gain(mu, GYS_GRID)
            honest = honest_tally(mu, GYS_GRID)
            worst = max(worst, np.abs(gain - honest.gain).max(), np.abs(qber - honest.qber).max())
        check("criterion 6: series vs closed form", worst < 1e-9, f"max |difference| {worst:.2e}")


class TestCriterion7ConstraintEnforcement:
    PASSING = [
        (0.30, 0.225, 0.11560359488618324, 0.05),
        (0.48, 0.36, 0.18496575181789318, 0.05),
    ]
    FAILING = [
        (0.30, 0.225, 0.11560359488618324, 0.0),  # nu3 > 0
        (0.30, 0.225, 0.11560359488618324, 0.2),  # nu3 < nu2
        (0.30, 0.225, 0.25, 0.05),  # nu2 <= 2mu/3
        (0.30, 0.19, 0.11560359488618324, 0.05),  # 2mu/3 < nu1
        (0.30, 0.24, 0.11560359488618324, 0.05),  # nu1 <= 3mu/4
        (0.60, 0.45, 0.14, 0.05),  # nu1 + nu2 > mu
        (0.30, 0.225, 0.19, 0.12),  # nu2 + nu3 < mu
        (0.30, 0.225, 0.11560359488618324 + 1e-6, 0.05),  # balance residual
    ]

    def test_passing_and_failing_cases(self):
        passed = sum(1 for args in self.PASSING if IntensitySet(*args))
        rejected = 0
        for args in self.FAILING:
            with pytest.raises(IntensityConstraintError):
                IntensitySet(*args)
            rejected += 1
        # construction-level enforcement as well
        construct_intensity_set(0.30, nu3=0.05)
        with pytest.raises(IntensityConstraintError):
            construct_intensity_set(0.30, nu3=0.2)
        check(
            "criterion 7: constraint enforcement",
            passed == len(self.PASSING) and rejected == len(self.FAILING),
            f"{passed} valid sets accepted, {rejected} invalid sets rejected individually",
        )
