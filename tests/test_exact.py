import math

import numpy as np
import pytest

from decoyqkd import (
    ChannelParams,
    ParameterError,
    exact_bounds,
    exact_stats,
    honest_tally,
    poisson_weight,
    reconstruct_gain,
    transmittance,
    verify_bound_inequalities,
)


class TestExactStats:
    def test_vacuum(self, gys):
        stats = exact_stats(0, 0.48, gys)
        assert stats.detection_yield == gys.y0
        assert stats.error_rate == 0.5
        assert stats.gain == pytest.approx(gys.y0 * math.exp(-0.48), rel=1e-14)

    def test_saturating_channel(self, gys):
        # many photons at zero distance: something always arrives
        stats = exact_stats(5000, 0.48, gys.at_distance(0))
        assert stats.detection_yield == 1.0
        assert stats.error_rate == pytest.approx(gys.e_det, rel=1e-3)

    def test_single_photon_yield_is_background_plus_transmittance(self, gys):
        params = gys.at_distance(50)
        stats = exact_stats(1, 0.48, params)
        assert stats.detection_yield == pytest.approx(gys.y0 + transmittance(params), rel=1e-14)

    def test_yield_nondecreasing_in_n(self, gys):
        params = gys.at_distance(50)
        yields = [exact_stats(n, 0.3, params).detection_yield for n in range(20)]
        assert all(a <= b for a, b in zip(yields, yields[1:]))

    def test_error_rate_between_edet_and_half(self, gys):
        params = gys.at_distance(50)
        for n in range(1, 30):
            e = exact_stats(n, 0.3, params).error_rate
            assert gys.e_det * (1 - 1e-12) <= e <= 0.5

    def test_gain_uses_poisson_weight(self, gys):
        params = gys.at_distance(25)
        stats = exact_stats(3, 0.48, params)
        assert stats.gain == pytest.approx(
            stats.detection_yield * poisson_weight(0.48, 3), rel=1e-14
        )

    def test_no_detection_possible_is_a_guess(self):
        # at 1000 km and 4 dB/km the transmittance underflows to 0; without dark
        # counts no n-photon pulse is ever detected, and the error rate is 1/2
        params = ChannelParams(4.0, 1000.0, 0.045, 0.0, 0.033, 1.22)
        for n in (0, 1, 2):
            stats = exact_stats(n, 0.3, params)
            assert (stats.detection_yield, stats.error_rate, stats.gain) == (0.0, 0.5, 0.0)

    def test_hit_exact_for_tiny_transmittance(self):
        # 1 - (1 - eta)^n cancels to 0 below eta ~ 1e-16; n eta is the answer there
        params = ChannelParams(0.21, 900.0, 0.045, 0.0, 0.033, 1.22)
        eta = transmittance(params)
        for n in (1, 2, 5):
            stats = exact_stats(n, 0.3, params)
            assert stats.detection_yield == pytest.approx(n * eta, rel=1e-14)
            assert stats.error_rate == pytest.approx(0.033, rel=1e-14)

    def test_lossless_link_detects_every_photon(self):
        params = ChannelParams(0.21, 0.0, 1.0, 0.0, 0.033, 1.22)
        assert exact_stats(0, 0.3, params).error_rate == 0.5
        for n in (1, 2):
            stats = exact_stats(n, 0.3, params)
            assert (stats.detection_yield, stats.error_rate) == (1.0, 0.033)

    def test_negative_photon_number_rejected(self, gys):
        with pytest.raises(ParameterError, match="photon number must be >= 0"):
            exact_stats(-1, 0.3, gys)

    def test_distance_array_equals_scalar_calls(self, gys):
        distances = np.arange(0.0, 251.0)
        oracles = [lambda p, n=n: exact_stats(n, 0.3, p) for n in range(4)]
        for oracle in oracles + [lambda p: exact_bounds(0.3, p)]:
            grid = vars(oracle(gys.at_distance(distances)))
            for i, d in enumerate(distances.tolist()):
                for field, value in vars(oracle(gys.at_distance(d))).items():
                    if field not in ("e0", "_unclamped"):  # the bounds' two fields not per distance
                        assert type(value) is np.float64 and grid[field][i] == value, (field, d)


class TestReconstructGain:
    def test_vacuum_source(self, gys):
        gain, qber = reconstruct_gain(0.0, gys)
        assert gain == pytest.approx(gys.y0, rel=1e-12)
        assert qber == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("distance", [0, 25, 50, 100, 150])
    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.48, 0.6])
    def test_matches_closed_form(self, gys, distance, mu):
        params = gys.at_distance(distance)
        gain, qber = reconstruct_gain(mu, params)
        honest = honest_tally(mu, params)
        assert gain == pytest.approx(honest.gain, abs=1e-9)
        assert qber == pytest.approx(honest.qber, abs=1e-9)

    def test_truncation_insensitive(self, gys):
        # the series cut at n = 20 already agrees with the library's sum
        params = gys.at_distance(50)
        stats = [exact_stats(n, 1.0, params) for n in range(21)]
        q20 = sum(s.gain for s in stats)
        e20 = sum(s.gain * s.error_rate for s in stats) / q20
        q50, e50 = reconstruct_gain(1.0, params)
        assert abs(q50 - q20) < 1e-18
        assert abs(e50 - e20) < 1e-15

    def test_gain_decomposes_into_photon_number_gains(self, gys):
        params = gys.at_distance(75)
        mu = 0.48
        total = sum(exact_stats(n, mu, params).gain for n in range(51))
        assert total == pytest.approx(honest_tally(mu, params).gain, abs=1e-12)

    def test_zero_background_channel(self):
        params = ChannelParams(0.21, 30.0, 0.045, 0.0, 0.033, 1.22)
        gain, qber = reconstruct_gain(0.3, params)
        assert gain == pytest.approx(honest_tally(0.3, params).gain, abs=1e-12)
        assert qber == pytest.approx(0.033, rel=1e-9)

    @pytest.mark.parametrize("y0", [0.0, 1.7e-6, 0.1])
    @pytest.mark.parametrize("mu", [0.1, 0.48, 1.0])
    def test_yield_cap_on_a_lossless_link(self, y0, mu):
        # at eta = 1 every pulse with a photon is detected, so Y_n = min(Y0 + 1, 1)
        # = 1 for n >= 1 loses the background of those pulses: the series falls
        # short of the closed form by Y0 (1 - e^-mu), which is below 1 here
        params = ChannelParams(0.21, 0.0, 1.0, y0, 0.033, 1.22)
        assert transmittance(params) == 1.0
        closed = honest_tally(mu, params).gain
        assert closed < 1.0
        gain, _ = reconstruct_gain(mu, params)
        assert closed - gain == pytest.approx(-y0 * math.expm1(-mu), abs=1e-15)


class TestVerifyBoundInequalities:
    def test_lemmas_hold_on_their_domains(self):
        report = verify_bound_inequalities()
        assert report.lemma1_max_excess <= 0
        assert report.lemma2_max_excess <= 0
        assert report.all_hold

    def test_out_of_domain_counterexample(self):
        # a=0.9, b=0.89, i=3 breaks the quadratic comparison: the 2/3 cap
        # in lemma 1 is load-bearing
        report = verify_bound_inequalities()
        assert report.counterexample_excess > 0
        a, b = 0.9, 0.89
        assert report.counterexample_excess == pytest.approx(
            (a**3 - b**3) - (a**2 - b**2), rel=1e-12
        )
