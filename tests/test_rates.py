import math
import warnings

import numpy as np
import pytest

from decoyqkd import (
    ObservedTally,
    PhotonBounds,
    binary_entropy,
    estimate_photon_bounds,
    honest_tally,
    optimal_mu_sarg04,
    rate_bb84_decoy,
    rate_nonorthogonal_decoy,
    rate_sarg04_worst,
    construct_intensity_set,
    synthesize_tallies,
    transmittance,
    untagged_fraction,
)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_frozen_value(self):
        # evaluated independently at 40 digits
        assert binary_entropy(0.033) == pytest.approx(0.20922047786915264672, abs=1e-15)

    @pytest.mark.parametrize("x", [0.01, 0.1, 0.25, 0.33, 0.49])
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-14)

    @pytest.mark.parametrize("a,b", [(0.05, 0.4), (0.1, 0.2), (0.3, 0.48), (0.02, 0.9)])
    def test_midpoint_concavity(self, a, b):
        mid = binary_entropy((a + b) / 2)
        assert mid >= (binary_entropy(a) + binary_entropy(b)) / 2 - 1e-14

    @pytest.mark.parametrize(
        "x",
        [-0.1, 1.1, 2.0, math.nan, pytest.param(np.array([0.2, math.nan, 0.4]), id="nan-in-array")],
    )
    def test_domain_error(self, x):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            binary_entropy(x)

    def test_empty_array(self):
        h = binary_entropy(np.zeros(0))
        assert isinstance(h, np.ndarray) and h.shape == (0,)

    def test_stack_equals_rows_bitwise(self):
        # the rate formulas take their error rates stacked in one call
        stack = np.random.default_rng(23).random((3, 51))
        stack[:, :3] = (0.0, 0.5, 1.0)
        rows = [binary_entropy(row) for row in stack]
        assert binary_entropy(stack).tobytes() == np.array(rows).tobytes()


def _bounds(**overrides):
    base = dict(
        y0=1.7e-6,
        e0=0.5,
        q0=1e-6,
        y1_lower=0.0,
        e1_upper=0.5,
        q1_lower=0.0,
        y2_lower=0.0,
        q2_lower=0.0,
        e2_upper=1.0,
    )
    base.update(overrides)
    return PhotonBounds(**base)


class TestRateBB84Decoy:
    def test_pure_cost_is_negative(self):
        signal = ObservedTally(0.48, 0.01, 0.05)
        rate = rate_bb84_decoy(signal, _bounds(q1_lower=0.0), f_ec=1.22)
        assert rate < 0
        assert rate == pytest.approx(-0.5 * 0.01 * 1.22 * binary_entropy(0.05), rel=1e-13)

    def test_positive_at_zero_distance(self, gys):
        s = construct_intensity_set(0.48)
        tallies = synthesize_tallies(s, gys.at_distance(0))
        bounds = estimate_photon_bounds(tallies, s)
        assert rate_bb84_decoy(tallies.row(-1), bounds, gys.f_ec) > 0

    def test_formula_wiring(self, gys):
        s = construct_intensity_set(0.48)
        tallies = synthesize_tallies(s, gys.at_distance(40))
        bounds = estimate_photon_bounds(tallies, s)
        signal = tallies.row(-1)
        expected = 0.5 * (
            bounds.q1_lower * (1 - binary_entropy(min(bounds.e1_upper, 0.5)))
            - signal.gain * gys.f_ec * binary_entropy(signal.qber)
        )
        assert rate_bb84_decoy(signal, bounds, gys.f_ec) == pytest.approx(expected, rel=1e-14)


class TestUntaggedFraction:
    def test_in_unit_interval_at_zero_distance(self, gys):
        eta = transmittance(gys.at_distance(0))
        mu = math.sqrt(2 * eta)
        signal = honest_tally(mu, gys)
        omega = untagged_fraction(signal)
        assert 0 < omega < 1

    def test_negative_under_heavy_loss(self, gys):
        # gain collapses to the dark-count floor while the multiphoton
        # probability stays fixed
        params = gys.at_distance(300)
        mu = 0.3
        signal = honest_tally(mu, params)
        assert untagged_fraction(signal) < 0

    def test_boundary_when_gain_equals_tagged_probability(self):
        mu = 0.3
        tagged = 1 - (1 + mu + mu**2 / 2) * math.exp(-mu)
        signal = ObservedTally(mu, tagged, 0.1)
        assert untagged_fraction(signal) == pytest.approx(0.0, abs=1e-12)

    def test_approaches_one_for_weak_source(self):
        # multiphoton probability ~ mu^3/6 vanishes much faster than any
        # fixed observed gain
        signal = ObservedTally(1e-4, 0.01, 0.1)
        assert untagged_fraction(signal) == pytest.approx(1.0, abs=1e-8)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            untagged_fraction(ObservedTally(0.3, 0.0, 0.0))

    def test_weak_source_against_mpmath(self):
        # 1 - (1 + mu + mu^2/2) e^(-mu) cancels to round-off at 1e-7, is 29% off at
        # 1.01e-5 and 1e-6 off at 4.9e-4; the gain is that of a dark-free link at
        # the optimal mu = sqrt(2 eta), about mu^3/2
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50

        def exact(mu, gain):
            m = mpmath.mpf(mu)
            tagged = 1 - (1 + m + m**2 / 2) * mpmath.exp(-m)
            return pytest.approx(float(1 - tagged / mpmath.mpf(gain)), rel=1e-12)

        for mu in (1e-7, 1.01e-5, 3e-5, 1e-4, 4.9e-4):
            gain = mu**3 / 2
            assert untagged_fraction(ObservedTally(mu, gain, 0.1)) == exact(mu, gain), mu
        # an array that straddles the series threshold 5e-4 takes the series
        # only where mu is below it, and equals its scalar calls bit for bit
        mus = np.array([1e-7, 4.9e-4, 5e-4, 0.3])
        gains = mus**3 / 2
        omegas = untagged_fraction(ObservedTally(mus, gains, np.full(4, 0.1))).tolist()
        for mu, gain, omega in zip(mus.tolist(), gains.tolist(), omegas):
            assert omega == untagged_fraction(ObservedTally(mu, gain, 0.1)), mu
            if mu < 5e-4:
                assert omega == exact(mu, gain), mu


class TestRateSarg04Worst:
    def test_untagged_term_dropped_when_omega_nonpositive(self):
        signal = ObservedTally(0.3, 1e-5, 0.1)
        q0 = 1.2e-6
        expected = 0.25 * (q0 - 1e-5 * binary_entropy(0.1))
        assert rate_sarg04_worst(signal, q0, omega=-2.0) == pytest.approx(expected, rel=1e-13)
        assert rate_sarg04_worst(signal, q0, omega=0.0) == pytest.approx(expected, rel=1e-13)

    def test_noiseless_channel(self):
        signal = ObservedTally(0.3, 0.02, 0.0)
        q0 = 1.2e-6
        assert rate_sarg04_worst(signal, q0, omega=1.0) == pytest.approx(
            0.25 * (q0 + 0.02), rel=1e-13
        )

    def test_entropy_argument_capped(self):
        # e/omega beyond 1/2 must not credit the untagged term
        signal = ObservedTally(0.3, 0.01, 0.3)
        q0 = 0.0
        rate = rate_sarg04_worst(signal, q0, omega=0.4)
        expected = 0.25 * (-0.01 * binary_entropy(0.3) + 0.4 * 0.01 * (1 - binary_entropy(0.5)))
        assert rate == pytest.approx(expected, rel=1e-13)


def _exact_optimal_mu(eta: float) -> float:
    """The optimal SARG04 intensity mu = -W0(-k sqrt(2 eta)) / k, k = (1 - eta)/2.

    Written as sqrt(2 eta) W0(z) / z with z = -k sqrt(2 eta), whose limit at
    z = 0 (eta = 1) is sqrt(2 eta).
    """
    mpmath = pytest.importorskip("mpmath")
    x = math.sqrt(2.0 * eta)
    z = -0.5 * (1.0 - eta) * x
    return x * mpmath.fp.lambertw(z) / z if z else x


class TestOptimalMuSarg04:
    @pytest.mark.parametrize("eta,rel", [(1e-6, 0.02), (1e-4, 0.02), (1e-3, 0.05)])
    def test_matches_asymptotic_formula(self, eta, rel):
        # mu ~ sqrt(2 eta) in the weak-transmission limit; the relative
        # error grows like sqrt(eta/2), so loosen the tolerance as eta rises
        assert optimal_mu_sarg04(eta) == pytest.approx(math.sqrt(2 * eta), rel=rel)

    def test_residual_at_gys_efficiency(self):
        eta = 0.045
        mu = optimal_mu_sarg04(eta)
        residual = eta * math.exp(-eta * mu) - 0.5 * mu**2 * math.exp(-mu)
        assert abs(residual) < 1e-10

    def test_vanishes_with_transmittance(self):
        assert optimal_mu_sarg04(1e-10) < 2e-5

    def test_root_below_1e_15(self):
        assert optimal_mu_sarg04(1e-40) == pytest.approx(math.sqrt(2e-40), rel=1e-12)
        # at eta = 0 nothing arrives and no signal is sent, without a warning
        # from the Newton steps; the other elements keep their exact bits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert optimal_mu_sarg04(0.0) == 0.0
            mixed = optimal_mu_sarg04(np.array([0.0, 0.045]))
        assert mixed[0] == 0.0 and mixed[1] == optimal_mu_sarg04(0.045)

    def test_agrees_with_bisection(self):
        # the solver reports the midpoint of the 2^-41 cell of (1e-15, 2) that
        # holds the root, as a bisection to 1e-12 would; that is within 2e-12
        # of the exact root
        rng = np.random.default_rng(6)
        eta = np.concatenate(
            [10.0 ** rng.uniform(math.log10(5e-31), 0.0, 20_000), [1.0, 1 / 3, 1e-30]]
        )
        exact = np.array([_exact_optimal_mu(e) for e in eta])
        assert np.abs(optimal_mu_sarg04(eta) - exact).max() <= 2e-12

    def test_lossless_link_gives_bisected_sqrt2(self):
        # at eta = 1 the optimum solves mu^2 = 2
        assert optimal_mu_sarg04(1.0) == pytest.approx(_exact_optimal_mu(1.0), abs=2e-12)

    def test_array_equals_scalar_calls_bitwise(self):
        # either side of 1e-30, below which the root may lie under 1e-15 (it
        # does up to 4.99e-31): an array with any such element takes that
        # branch, a scalar above 1e-30 skips it
        etas = [0.0, 5e-324, 1e-40, 1e-31, 4.99e-31, 5e-31, 1e-30, 2e-30, 1e-3, 1.0]
        together = optimal_mu_sarg04(np.array(etas)).tolist()
        assert [mu.hex() for mu in together] == [float(optimal_mu_sarg04(e)).hex() for e in etas]

    @pytest.mark.parametrize("eta", [math.nan, -0.1, 1.5])
    def test_invalid_transmittance_rejected(self, eta):
        with pytest.raises(ValueError):
            optimal_mu_sarg04(eta)


class TestRateNonorthogonalDecoy:
    def test_degenerate_bounds(self):
        signal = ObservedTally(0.3, 1e-5, 0.1)
        bounds = _bounds(q0=1.2e-6, q1_lower=0.0, q2_lower=0.0)
        expected = 0.25 * (1.2e-6 - 1e-5 * 1.22 * binary_entropy(0.1))
        assert rate_nonorthogonal_decoy(signal, bounds, 1.22) == pytest.approx(expected, rel=1e-13)

    def test_positive_at_zero_distance(self, gys):
        s = construct_intensity_set(0.30)
        tallies = synthesize_tallies(s, gys.at_distance(0))
        bounds = estimate_photon_bounds(tallies, s)
        assert rate_nonorthogonal_decoy(tallies.row(-1), bounds, gys.f_ec) > 0

    def test_formula_wiring(self, gys):
        s = construct_intensity_set(0.30)
        tallies = synthesize_tallies(s, gys.at_distance(60))
        bounds = estimate_photon_bounds(tallies, s)
        signal = tallies.row(-1)
        expected = 0.25 * (
            bounds.q0
            + bounds.q1_lower * (1 - binary_entropy(min(bounds.e1_upper, 0.5)))
            + bounds.q2_lower * (1 - binary_entropy(min(bounds.e2_upper, 0.5)))
            - signal.gain * gys.f_ec * binary_entropy(signal.qber)
        )
        assert rate_nonorthogonal_decoy(signal, bounds, gys.f_ec) == pytest.approx(
            expected, rel=1e-14
        )
