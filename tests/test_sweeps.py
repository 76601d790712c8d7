import math
import tracemalloc

import numpy as np
import pytest

from decoyqkd import (
    IntensityConstraintError,
    NeverSecureError,
    ChannelParams,
    SweepSpec,
    balance_residual,
    construct_intensity_set,
    estimate_photon_bounds,
    max_secure_distance,
    rate_at,
    sweep,
    synthesize_tallies,
)
from decoyqkd.sweeps import MAX_SWEEP_POINTS


class TestConstructIntensitySet:
    @pytest.mark.parametrize("mu", [0.30, 0.48])
    def test_balanced_construction(self, mu):
        s = construct_intensity_set(mu, nu3=0.05)
        assert s.nu1 == 0.75 * mu
        # independent root of nu2^2 + nu1 nu2 + (nu1^2 - mu^2) = 0
        expected_nu2 = float(max(np.roots([1.0, s.nu1, s.nu1**2 - mu**2])))
        assert s.nu2 == pytest.approx(expected_nu2, rel=1e-12)
        assert abs(balance_residual(s)) < 1e-12

    def test_frozen_nu2_value(self):
        # root for mu=0.30, nu1=0.225, evaluated at 40 digits
        s = construct_intensity_set(0.30, nu3=0.05)
        assert s.nu2 == pytest.approx(0.11560359488618323834, abs=1e-15)

    def test_nu3_not_below_nu2_rejected(self):
        with pytest.raises(IntensityConstraintError, match="nu3 < nu2"):
            construct_intensity_set(0.30, nu3=0.2)

    def test_nonpositive_arguments_rejected(self):
        with pytest.raises(IntensityConstraintError):
            construct_intensity_set(0.0)
        with pytest.raises(IntensityConstraintError):
            construct_intensity_set(0.3, nu3=0.0)

    @pytest.mark.parametrize("mu", np.arange(0.1, 0.65, 0.1).tolist())
    def test_default_nu3_valid_across_grid(self, mu):
        construct_intensity_set(mu)


class TestSweep:
    def test_degenerate_range_single_point(self, gys):
        spec = SweepSpec("bb84-decoy", 0.0, 0.0, 1.0, 0.48, gys)
        points = sweep(spec)
        assert len(points) == 1
        assert points[0].distance_km == 0.0

    def test_ordered_and_complete(self, gys):
        spec = SweepSpec("nonorthogonal-decoy", 0.0, 100.0, 10.0, 0.30, gys)
        points = sweep(spec)
        assert [p.distance_km for p in points] == [10.0 * i for i in range(11)]

    def test_deterministic(self, gys):
        spec = SweepSpec("bb84-decoy", 0.0, 50.0, 5.0, 0.48, gys)
        assert sweep(spec) == sweep(spec)

    def test_optimal_mu_resolved_per_distance(self, gys):
        spec = SweepSpec("sarg04-no-decoy", 0.0, 60.0, 20.0, "optimal", gys)
        mus = [p.mu for p in sweep(spec)]
        assert all(a > b for a, b in zip(mus, mus[1:]))

    def test_optimal_mu_rejected_for_decoy_protocols(self, gys):
        with pytest.raises(ValueError):
            SweepSpec("bb84-decoy", 0.0, 10.0, 1.0, "optimal", gys)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(step_km=0.0),
            dict(step_km=-1.0),
            dict(start_km=50.0, stop_km=10.0),
            dict(protocol="bb85"),
            dict(mu=-0.3),
            dict(step_km=math.nan),
            dict(stop_km=math.inf),
            dict(start_km=-math.inf),
            dict(mu=math.nan),
            dict(protocol="sarg04-no-decoy", mu=math.inf),
        ],
    )
    def test_invalid_spec_rejected(self, gys, kwargs):
        base = dict(
            protocol="bb84-decoy", start_km=0.0, stop_km=10.0, step_km=1.0, mu=0.48, channel=gys
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            SweepSpec(**base)

    def test_oversized_grid_rejected_before_allocation(self, gys):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=str(MAX_SWEEP_POINTS)):
                SweepSpec("bb84-decoy", 0.0, 1e9, 1e-3, 0.48, gys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # the largest allowed grid is accepted
        SweepSpec("bb84-decoy", 0.0, MAX_SWEEP_POINTS - 1.0, 1.0, 0.48, gys)

    def test_monotone_decreasing_past_peak(self, gys):
        for protocol, mu in (("bb84-decoy", 0.48), ("nonorthogonal-decoy", 0.30)):
            rates = [p.rate for p in sweep(SweepSpec(protocol, 0.0, 130.0, 10.0, mu, gys))]
            peak = rates.index(max(rates))
            tail = rates[peak:]
            assert all(a > b for a, b in zip(tail, tail[1:]))


class TestMaxSecureDistance:
    def test_bracket_consistency(self, gys):
        d_max = max_secure_distance("bb84-decoy", 0.48, gys)
        assert rate_at("bb84-decoy", 0.48, gys, d_max - 0.2).rate > 0
        assert rate_at("bb84-decoy", 0.48, gys, d_max + 0.2).rate <= 0

    def test_never_secure_raises(self, gys):
        # misalignment close to the random limit: no key anywhere
        noisy = ChannelParams(0.21, 0.0, 0.045, 1.7e-6, 0.45, 1.22)
        with pytest.raises(NeverSecureError):
            max_secure_distance("nonorthogonal-decoy", 0.30, noisy)

    def test_sarg04_optimal_mu_maximizes_untagged_mass(self, gys):
        # the stationarity condition defining the per-distance mu picks the
        # maximum of the untagged detection probability omega * Q_mu, the
        # quantity that controls the cutoff distance
        import math

        from decoyqkd import ObservedTally, honest_gain, honest_qber, untagged_fraction

        params = gys.at_distance(50.0)

        def untagged_mass(mu):
            signal = ObservedTally(mu, honest_gain(mu, params), honest_qber(mu, params))
            return untagged_fraction(signal, mu) * signal.gain

        best = untagged_mass(rate_at("sarg04-no-decoy", "optimal", gys, 50.0).mu)
        for mu in np.linspace(0.01, 0.5, 50):
            assert best >= untagged_mass(float(mu)) - 1e-15


class TestDistanceArrays:
    """A distance array gives exactly the values of one call per distance."""

    DISTANCES = np.arange(0, 401.0)  # past every cutoff, where the clamps fire

    @pytest.mark.parametrize(
        "protocol,mu",
        [
            ("bb84-decoy", 0.48),
            ("nonorthogonal-decoy", 0.30),
            ("sarg04-no-decoy", 0.1),
            ("sarg04-no-decoy", "optimal"),
        ],
    )
    def test_rate_at_grid_equals_scalar_calls(self, gys, protocol, mu):
        grid = rate_at(protocol, mu, gys, self.DISTANCES)
        points = [rate_at(protocol, mu, gys, float(d)) for d in self.DISTANCES]
        assert grid.distance_km.tolist() == [p.distance_km for p in points]
        assert grid.mu.tolist() == [p.mu for p in points]
        assert grid.rate.tolist() == [p.rate for p in points]

    def test_bounds_of_array_tallies_equal_per_distance_bounds(self, gys):
        s = construct_intensity_set(0.48)
        grid = estimate_photon_bounds(synthesize_tallies(s, gys.at_distance(self.DISTANCES)), s)
        fields = ("y0", "q0", "y1_lower", "e1_upper", "q1_lower", "y2_lower", "q2_lower", "e2_upper")
        flags = set()
        for i, d in enumerate(self.DISTANCES.tolist()):
            point = estimate_photon_bounds(synthesize_tallies(s, gys.at_distance(d)), s)
            for field in fields:
                assert getattr(grid, field)[i] == getattr(point, field), (field, d)
            flags.update(point.flags)
        assert set(grid.flags) == flags
        assert "e1U clamped to 1/2" in flags and "e2U clamped to 1" in flags
