import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import decoyqkd.sweeps
from decoyqkd import (
    IntensityConstraintError,
    NeverSecureError,
    PROTOCOLS,
    ChannelParams,
    IntensitySet,
    ObservedTally,
    ParameterError,
    SweepSpec,
    balance_residual,
    construct_intensity_set,
    estimate_photon_bounds,
    exact_bounds,
    exact_ceiling_km,
    honest_tally,
    max_secure_distance,
    rate_at,
    rate_bb84_decoy,
    rate_nonorthogonal_decoy,
    sweep,
    synthesize_tallies,
)
from decoyqkd.sweeps import (
    COARSE_STEP_KM,
    MAX_MU,
    MAX_SWEEP_POINTS,
    RESOLUTION_KM,
    SCAN_LIMIT_KM,
    ScanLimitError,
)
from not_numbers import not_numbers

#: One request of each protocol kind: the two decoy protocols, and SARG04
#: without decoys at a fixed and at the per-distance optimal intensity.
PROTOCOL_KINDS = [
    ("bb84-decoy", 0.48),
    ("nonorthogonal-decoy", 0.30),
    ("sarg04-no-decoy", 0.1),
    ("sarg04-no-decoy", "optimal"),
]


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

    @pytest.mark.parametrize(
        "mu", [-0.3, math.nextafter(MAX_MU, math.inf), 150.0, 1e155, math.inf, math.nan]
    )
    def test_mu_outside_range_rejected_before_arithmetic(self, mu):
        # 1e155 would overflow mu**2; 150 would pass the ordering constraints
        with pytest.raises(IntensityConstraintError, match="mu must be > 0 and <= 100"):
            construct_intensity_set(mu)
        assert construct_intensity_set(MAX_MU).mu == MAX_MU

    def test_cached_constants_are_shared_and_read_only(self, gys):
        # every call with one set shares these arrays, so none may write to them
        s = construct_intensity_set(0.48)
        assert s.classes is s.classes and s.coefficients is s.coefficients
        distances = (0.0, np.arange(3.0), np.zeros((2, 3)))
        tallies = [synthesize_tallies(s, gys.at_distance(d)) for d in distances]
        # the estimator's operands, one tuple of views per distance rank
        operands = [s._operands[rank] for rank in range(3)]
        for rank, (tally, views) in enumerate(zip(tallies, operands)):
            assert s._operands[rank] is views and tally.intensity is views[0]
            assert synthesize_tallies(s, gys.at_distance(distances[rank])).intensity is views[0]
        arrays = [s.classes, s.coefficients] + [t.intensity for t in tallies]
        for array in arrays + [view for views in operands for view in views]:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 1.0


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

    @pytest.mark.parametrize("protocol,mu", PROTOCOL_KINDS)
    def test_points_are_the_elements_of_one_rate_at_call(self, gys, protocol, mu):
        points = sweep(SweepSpec(protocol, 0.0, 300.0, 1.5, mu, gys))
        grid = rate_at(protocol, mu, gys, 1.5 * np.arange(201))
        assert [p.protocol for p in points] == [protocol] * 201
        assert [p.distance_km for p in points] == grid.distance_km.tolist()
        assert [p.mu for p in points] == grid.mu.tolist()
        assert [p.rate for p in points] == grid.rate.tolist()
        assert all(type(v) is float for p in points for v in (p.distance_km, p.mu, p.rate))

    def test_points_support_dataclass_replace(self, gys):
        point = sweep(SweepSpec("bb84-decoy", 0.0, 10.0, 5.0, 0.48, gys))[1]
        moved = dataclasses.replace(point, rate=2.0 * point.rate)
        assert (moved.protocol, moved.distance_km, moved.mu) == ("bb84-decoy", 5.0, 0.48)
        assert moved.rate == 2.0 * point.rate != point.rate

    def test_optimal_mu_resolved_per_distance(self, gys):
        spec = SweepSpec("sarg04-no-decoy", 0.0, 60.0, 20.0, "optimal", gys)
        mus = [p.mu for p in sweep(spec)]
        assert all(a > b for a, b in zip(mus, mus[1:]))

    def test_optimal_mu_rejected_for_decoy_protocols(self, gys):
        with pytest.raises(ValueError):
            SweepSpec("bb84-decoy", 0.0, 10.0, 1.0, "optimal", gys)
        with pytest.raises(ValueError):
            rate_at("bb84-decoy", "optimal", gys, 10.0)
        with pytest.raises(ValueError):
            max_secure_distance("bb84-decoy", "optimal", gys)

    @pytest.mark.parametrize(
        "nu3", [math.nan, math.inf, -math.inf, pytest.param(-10**400, id="int-beyond-float")]
    )
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_non_finite_nu3_rejected_for_every_protocol(self, gys, protocol, nu3):
        # also for sarg04-no-decoy, which takes no decoys
        mu = 0.1 if protocol == "sarg04-no-decoy" else 0.48
        with pytest.raises(ValueError, match="nu3 must be finite"):
            rate_at(protocol, mu, gys, 10.0, nu3=nu3)
        with pytest.raises(ValueError, match="nu3 must be finite"):
            max_secure_distance(protocol, mu, gys, nu3=nu3)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_mu_string_other_than_optimal_rejected(self, gys, protocol):
        for mu in ("Optimal", "0.3", ""):
            with pytest.raises(ValueError, match="mu must be a number or 'optimal'"):
                SweepSpec(protocol, 0.0, 10.0, 1.0, mu, gys)
            with pytest.raises(ValueError, match="mu must be a number or 'optimal'"):
                rate_at(protocol, mu, gys, 10.0)

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

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_largest_mu_runs_without_runtime_warnings(self, gys, protocol):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sweep(SweepSpec(protocol, 0.0, 250.0, 1.0, MAX_MU, gys))
            with pytest.raises(NeverSecureError):
                max_secure_distance(protocol, MAX_MU, gys)
        with pytest.raises(ValueError, match="mu must be"):
            SweepSpec(protocol, 0.0, 250.0, 1.0, math.nextafter(MAX_MU, math.inf), gys)

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

    def test_cutoff_ends_the_first_secure_run_of_the_lattice(self):
        # without dark counts the optimal-mu rate flickers in sign inside the
        # last secure step; a bisection of that step reported 214.7 km, past
        # lattice points that are insecure from 210.7 km on
        channel = ChannelParams(
            1.09142742536821, 0.0, 0.20475995992426646, 0.0, 0.05684515843583902, 1.22
        )
        cutoff = max_secure_distance("sarg04-no-decoy", "optimal", channel)
        last_secure = COARSE_STEP_KM * (cutoff // COARSE_STEP_KM)
        lattice = last_secure + np.arange(65) * (COARSE_STEP_KM / 64)
        upto = lattice[: np.count_nonzero(lattice < cutoff) + 1]
        rates = rate_at("sarg04-no-decoy", "optimal", channel, upto).rate
        assert (rates[:-1] > 0).all() and rates[-1] <= 0
        assert round(cutoff, 2) == 210.66

    def test_never_secure_raises(self, gys):
        # misalignment close to the random limit: no key anywhere
        noisy = ChannelParams(0.21, 0.0, 0.045, 1.7e-6, 0.45, 1.22)
        with pytest.raises(NeverSecureError):
            max_secure_distance("nonorthogonal-decoy", 0.30, noisy)

    @pytest.mark.parametrize(
        "protocol,mu",
        [("bb84-decoy", 0.48), ("nonorthogonal-decoy", 0.48), ("sarg04-no-decoy", "optimal")],
    )
    def test_points_past_the_first_insecure_one_are_not_evaluated(self, protocol, mu):
        # past about 805 km the transmittance underflows and the QBER is
        # undefined, but the rate is already not positive at 0 km
        noisy = ChannelParams(4.0, 0.0, 0.045, 0.0, 0.45, 1.22)
        with pytest.raises(NeverSecureError):
            max_secure_distance(protocol, mu, noisy)

    def test_sarg04_optimal_mu_maximizes_untagged_mass(self, gys):
        # the stationarity condition defining the per-distance mu picks the
        # maximum of the untagged detection probability omega * Q_mu, the
        # quantity that controls the cutoff distance
        import math

        from decoyqkd import honest_tally, untagged_fraction

        params = gys.at_distance(50.0)

        def untagged_mass(mu):
            signal = honest_tally(mu, params)
            return untagged_fraction(signal) * signal.gain

        best = untagged_mass(rate_at("sarg04-no-decoy", "optimal", gys, 50.0).mu)
        for mu in np.linspace(0.01, 0.5, 50):
            assert best >= untagged_mass(float(mu)) - 1e-15

    def test_exact_ceiling_needs_a_decoy_protocol(self, gys):
        for protocol, mu in (("sarg04-no-decoy", 0.30), ("nonorthogonal-decoy", "optimal")):
            with pytest.raises(ValueError):
                exact_ceiling_km(protocol, mu, gys)


class TestDistanceArrays:
    """A distance array gives exactly the values of one call per distance."""

    DISTANCES = np.arange(0, 401.0)  # past every cutoff, where the clamps fire

    @pytest.mark.parametrize("protocol,mu", PROTOCOL_KINDS)
    def test_rate_at_grid_equals_scalar_calls(self, gys, protocol, mu):
        grid = rate_at(protocol, mu, gys, self.DISTANCES)
        points = [rate_at(protocol, mu, gys, float(d)) for d in self.DISTANCES]
        assert grid.distance_km.tolist() == [p.distance_km for p in points]
        assert grid.mu.tolist() == [p.mu for p in points]
        assert grid.rate.tolist() == [p.rate for p in points]

    @pytest.mark.parametrize("protocol,mu", PROTOCOL_KINDS)
    def test_every_distance_rank_gives_the_same_bits(self, gys, protocol, mu):
        # each rank takes its own operand views of the set: a 2-d grid gives
        # each row's 1-d rates, and a number the one-element array's
        grid = self.DISTANCES[:400].reshape(4, 100)
        rows = rate_at(protocol, mu, gys, grid)
        assert rows.distance_km.shape == rows.mu.shape == rows.rate.shape == grid.shape
        for distances, row_mu, row_rate in zip(grid, rows.mu, rows.rate):
            point = rate_at(protocol, mu, gys, distances)
            assert row_mu.tobytes() == point.mu.tobytes()
            assert row_rate.tobytes() == point.rate.tobytes()
        for distance in (0.0, 75.0, 140.0, 400.0):
            point, single = (rate_at(protocol, mu, gys, d) for d in (distance, [distance]))
            assert point.mu.hex() == single.mu[0].hex()
            assert point.rate.hex() == single.rate[0].hex()

    @pytest.mark.parametrize("protocol,mu", PROTOCOL_KINDS)
    def test_empty_distance_array_gives_empty_rates(self, gys, protocol, mu):
        empty = np.zeros(0)
        point = rate_at(protocol, mu, gys, empty)
        for values in (point.distance_km, point.mu, point.rate):
            assert values.shape == (0,)

    @pytest.mark.parametrize(
        "distance",
        [
            pytest.param("10", id="str"),
            pytest.param(["10"], id="str-list"),
            pytest.param(np.array(["10", "20"]), id="str-array"),
            # numpy holds it in an object array, which is not converted either
            pytest.param(10**400, id="int-beyond-float"),
        ]
        + not_numbers(10.0, "str", "str-list", "str-array", "int-beyond-float"),
    )
    def test_rate_at_does_not_parse_a_text_distance(self, gys, distance):
        with pytest.raises(ParameterError, match="^distance_km must be finite and >= 0$"):
            rate_at("bb84-decoy", 0.48, gys, distance)

    @pytest.mark.parametrize("protocol,mu", PROTOCOL_KINDS)
    def test_real_distances_give_the_float64_results(self, gys, protocol, mu):
        expected = rate_at(protocol, mu, gys, np.array([0.0, 10.0, 100.0]))
        for distances in ([0, 10, 100], (0.0, 10, 100.0), np.array([0, 10, 100], np.float32)):
            point = rate_at(protocol, mu, gys, distances)
            for name in ("distance_km", "mu", "rate"):
                values = getattr(point, name)
                assert values.dtype == np.float64
                assert values.tobytes() == getattr(expected, name).tobytes()

    def test_empty_tally_is_in_range(self):
        empty = np.zeros(0)
        assert ObservedTally(empty, empty, empty).gain.shape == (0,)

    def test_bounds_of_array_tallies_equal_per_distance_bounds(self, gys):
        s = construct_intensity_set(0.48)
        grid = estimate_photon_bounds(synthesize_tallies(s, gys.at_distance(self.DISTANCES)), s)
        fields = ("y0", "q0", "y1_lower", "e1_upper", "q1_lower", "y2_lower", "q2_lower", "e2_upper")
        flags = set()
        for i, d in enumerate(self.DISTANCES.tolist()):
            point = estimate_photon_bounds(synthesize_tallies(s, gys.at_distance(d)), s)
            for field in fields:
                assert getattr(grid, field)[i] == getattr(point, field), (field, d)
            assert grid.clamps[..., i].tolist() == point.clamps.tolist(), d
            flags.update(point.flags)
        assert set(grid.flags) == flags
        assert "e1U clamped to 1/2" in flags and "e2U clamped to 1" in flags


class TestPinnedOutputs:
    """Cutoffs, ceilings and rates as the float bits the current chain computes;
    a change that is meant to keep results must keep every bit of these.
    Returning optimal_mu_sarg04's Newton root unsnapped (ROADMAP item 1b) moves
    the optimal-SARG04 values on purpose: re-pin them then."""

    LOW_LOSS = ChannelParams(0.16, 0.0, 0.5, 1e-8, 0.005, 1.0)  # past FIRST_SCAN_KM
    KINDS = (
        ("bb84-decoy", 0.48),
        ("nonorthogonal-decoy", 0.30),
        ("sarg04-no-decoy", 0.1),
        ("sarg04-no-decoy", "optimal"),
    )
    CUTOFFS = {
        "gys": ("0x1.147c000000000p+7", "0x1.25d4000000000p+7",
                "0x1.dc90000000000p+5", "0x1.82b8000000000p+6"),
        "low_loss": ("0x1.9d8e000000000p+8", "0x1.a7ca000000000p+8",
                     "0x1.359c000000000p+7", "0x1.2912000000000p+8"),
    }
    CEILINGS = {
        "gys": ("0x1.1bfc000000000p+7", "0x1.3dbc000000000p+7"),
        "low_loss": ("0x1.9ffa000000000p+8", "0x1.b396000000000p+8"),
    }
    #: GYS rates at 0, 75 and 140 km
    RATES = (
        ("0x1.1d7afbc3b719bp-9", "0x1.c3a2778f945c4p-15", "-0x1.b390c988240e0p-23"),
        ("0x1.171c3614d680cp-10", "0x1.c5a46f4241fc6p-16", "0x1.3ed7ebe92b378p-22"),
        ("0x1.424c662ffcb7ap-11", "-0x1.cf76ce2b910fap-18", "-0x1.60638d8118840p-21"),
        ("0x1.f4fa47abb40c1p-11", "0x1.85b043d07a36cp-19", "-0x1.ce2842d82baa8p-24"),
    )
    #: A link without dark counts, where the optimal SARG04 mu falls from 1.4e-3
    #: past untagged_fraction's series threshold 5e-4 to 4.5e-4 and 4.5e-5 at 250,
    #: 300 and 400 km, and the optimal-SARG04 rates there
    DARK_FREE = ChannelParams(0.2, 0.0, 0.1, 0.0, 0.02, 1.0)
    WEAK_SOURCE_RATES = ("0x1.33b8f0523492ap-33", "0x1.374da58228ad9p-38", "0x1.3ebc7c0be155cp-48")
    #: Every PhotonBounds field at GYS 0, 75 and 140 km for mu = 0.48
    BOUNDS = {
        "y0": ("0x1.c8571c4687a3dp-20",) * 3,
        "e0": ("0x1.0000000000000p-1",) * 3,
        "q0": ("0x1.1a603355b1ab3p-20",) * 3,
        "y1_lower": ("0x1.5b647c0f43156p-5", "0x1.274b898dc2166p-10", "0x1.a51cc43cac720p-15"),
        "e1_upper": ("0x1.21da7a6f994a2p-5", "0x1.2870f7037f7e3p-5", "0x1.a46ebff8592e0p-5"),
        "q1_lower": ("0x1.9cb97e4dfbb79p-7", "0x1.5ed4584dc504dp-12", "0x1.f44ef969c9458p-17"),
        "y2_lower": ("0x1.509e174247d00p-4", "0x1.2433c78161bb0p-9", "0x1.9a47d19515f00p-14"),
        "q2_lower": ("0x1.7fed2186bc9e5p-8", "0x1.4d44d1785d89bp-13", "0x1.d3f1272deb011p-18"),
        "e2_upper": ("0x1.0000000000000p+0",) * 3,
    }
    #: The optimal SARG04 mu at GYS 0, 75 and 140 km
    OPTIMAL_MU = ("0x1.6c0924b1ce00ep-2", "0x1.9b0ca01b3008cp-5", "0x1.4ecda6324023dp-7")

    @pytest.mark.parametrize("link", ["gys", "low_loss"])
    def test_cutoffs_and_ceilings(self, gys, link):
        channel = gys if link == "gys" else self.LOW_LOSS
        cutoffs = [max_secure_distance(p, mu, channel).hex() for p, mu in self.KINDS]
        assert tuple(cutoffs) == self.CUTOFFS[link]
        ceilings = [exact_ceiling_km(p, mu, channel).hex() for p, mu in self.KINDS[:2]]
        assert tuple(ceilings) == self.CEILINGS[link]

    def test_rates(self, gys):
        for (protocol, mu), pinned in zip(self.KINDS, self.RATES):
            rates = rate_at(protocol, mu, gys, np.array([0.0, 75.0, 140.0])).rate
            assert tuple(r.hex() for r in rates.tolist()) == pinned, (protocol, mu)

    def test_weak_source_rates(self):
        distances = np.array([250.0, 300.0, 400.0])
        point = rate_at("sarg04-no-decoy", "optimal", self.DARK_FREE, distances)
        assert point.mu[0] > 5e-4 > point.mu[1] > point.mu[2]
        assert tuple(r.hex() for r in point.rate.tolist()) == self.WEAK_SOURCE_RATES

    def test_bounds(self, gys):
        intensities = construct_intensity_set(0.48)
        tallies = synthesize_tallies(intensities, gys.at_distance(np.array([0.0, 75.0, 140.0])))
        bounds = estimate_photon_bounds(tallies, intensities)
        for name, pinned in self.BOUNDS.items():
            values = np.broadcast_to(getattr(bounds, name), (3,)).tolist()
            assert tuple(v.hex() for v in values) == pinned, name

    def test_optimal_mu(self, gys):
        mu = rate_at("sarg04-no-decoy", "optimal", gys, np.array([0.0, 75.0, 140.0])).mu
        assert tuple(m.hex() for m in mu.tolist()) == self.OPTIMAL_MU


class TestCallCounts:
    """The array pipeline's call structure, which per-distance loops would multiply."""

    @staticmethod
    def count(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("protocol", ["bb84-decoy", "nonorthogonal-decoy"])
    def test_decoy_rate_at_builds_at_most_two_tallies(self, gys, monkeypatch, protocol):
        # one stacked tally of the five classes, and its signal row
        built = self.count(monkeypatch, ObservedTally, "__post_init__")
        rate_at(protocol, 0.48, gys, np.arange(0.0, 251.0))
        assert 1 <= len(built) <= 2

    @pytest.mark.parametrize("protocol", ["bb84-decoy", "nonorthogonal-decoy"])
    def test_decoy_rate_at_checks_its_intensity_set_once(self, gys, monkeypatch, protocol):
        # the set checks itself when built; the estimator does not check it again
        checked = self.count(monkeypatch, IntensitySet, "__post_init__")
        rate_at(protocol, 0.48, gys, np.arange(0.0, 251.0))
        assert len(checked) == 1

    @pytest.mark.parametrize("mu", [0.1, "optimal"])
    def test_sarg04_rate_at_builds_one_tally(self, gys, monkeypatch, mu):
        built = self.count(monkeypatch, ObservedTally, "__post_init__")
        rate_at("sarg04-no-decoy", mu, gys, np.arange(0.0, 251.0))
        assert len(built) == 1

    @pytest.mark.parametrize("mu", [0.1, "optimal"])
    def test_sweep_is_one_rate_at_call(self, gys, monkeypatch, mu):
        calls = self.count(monkeypatch, decoyqkd.sweeps, "rate_at")
        sweep(SweepSpec("sarg04-no-decoy", 0.0, 250.0, 1.0, mu, gys))
        assert len(calls) == 1

    def test_cutoff_is_two_rate_evaluations_of_one_intensity_set(self, gys, monkeypatch):
        evaluations = self.count(monkeypatch, ChannelParams, "at_distance")
        sets = self.count(monkeypatch, IntensitySet, "__post_init__")
        max_secure_distance("nonorthogonal-decoy", 0.30, gys)
        assert len(evaluations) == 2
        assert len(sets) == 1

    @pytest.mark.parametrize(
        "protocol,mu,cutoff",
        [
            ("bb84-decoy", 0.48, 413.55),
            ("nonorthogonal-decoy", 0.48, 422.70),
            ("sarg04-no-decoy", "optimal", 297.07),
        ],
    )
    def test_cutoff_past_the_first_scan_is_three_rate_evaluations(
        self, monkeypatch, protocol, mu, cutoff
    ):
        evaluations = self.count(monkeypatch, ChannelParams, "at_distance")
        sets = self.count(monkeypatch, IntensitySet, "__post_init__")
        low_loss = ChannelParams(0.16, 0.0, 0.5, 1e-8, 0.005, 1.0)
        assert round(max_secure_distance(protocol, mu, low_loss), 2) == cutoff
        assert len(evaluations) == 3
        assert len(sets) == (0 if protocol == "sarg04-no-decoy" else 1)

    @pytest.mark.parametrize("protocol", ["bb84-decoy", "nonorthogonal-decoy"])
    def test_decoy_sweep_builds_one_intensity_set(self, gys, monkeypatch, protocol):
        sets = self.count(monkeypatch, IntensitySet, "__post_init__")
        sweep(SweepSpec(protocol, 0.0, 250.0, 1.0, 0.48, gys))
        assert len(sets) == 1


class TestBoundsSources:
    """Every decoy rate is one evaluation path with a bounds source: the estimate
    from the five tallies of an intensity set, or the exact statistics of the
    exact-statistics ceiling."""

    def test_both_sources_measure_the_same_signal(self, gys):
        # the estimate's signal is row -1 of the five-class tally, the ceiling's
        # is honest_tally(mu): the same bits, so the ceiling bounds the estimate
        # on one signal
        link = gys.at_distance(np.arange(300.0))
        for mu in np.random.default_rng(20261021).uniform(0.1, 1.0, 200).tolist():
            estimated = synthesize_tallies(construct_intensity_set(mu), link).row(-1)
            exact = honest_tally(mu, link)
            assert estimated.gain.tobytes() == exact.gain.tobytes(), mu
            assert estimated.qber.tobytes() == exact.qber.tobytes(), mu

    def test_ceiling_builds_no_intensity_set(self, gys, monkeypatch):
        # mu = 0.02 has no valid set at the default nu3 (0.01 is not below nu2)
        with pytest.raises(IntensityConstraintError):
            construct_intensity_set(0.02)
        evaluations = TestCallCounts.count(monkeypatch, ChannelParams, "at_distance")
        sets = TestCallCounts.count(monkeypatch, IntensitySet, "__post_init__")
        assert round(exact_ceiling_km("nonorthogonal-decoy", 0.02, gys), 2) == 114.65
        assert len(evaluations) == 2
        assert sets == []

    @pytest.mark.parametrize("protocol", ["bb84-decoy", "nonorthogonal-decoy"])
    def test_exact_source_is_the_formula_on_exact_statistics(self, gys, protocol):
        distances = np.arange(0.0, 200.0, 5.0)
        link = gys.at_distance(distances)
        formula = {"bb84-decoy": rate_bb84_decoy, "nonorthogonal-decoy": rate_nonorthogonal_decoy}
        expected = formula[protocol](honest_tally(0.48, link), exact_bounds(0.48, link), gys.f_ec)
        exact = decoyqkd.sweeps._exact
        mu, rates = decoyqkd.sweeps._prepare(protocol, 0.48, gys, 0.01, exact)(distances)
        assert mu == 0.48
        assert rates.tobytes() == expected.tobytes()


def full_grid_cutoff_km(protocol, rates):
    """The cutoff search with its whole coarse grid evaluated in one call: the
    windowed scan's reference."""
    grid = np.arange(0.0, SCAN_LIMIT_KM + COARSE_STEP_KM, COARSE_STEP_KM)
    secure = rates(grid) > 0
    if not secure[0]:
        raise NeverSecureError(f"{protocol} has no positive rate even at zero distance")
    end = int(np.argmin(secure))
    if secure[end]:
        raise ScanLimitError(f"rate still positive at the {grid[-1]} km scan limit")
    steps = 2 ** math.ceil(math.log2(COARSE_STEP_KM / RESOLUTION_KM))
    lattice = grid[end - 1] + np.arange(steps + 1) * (COARSE_STEP_KM / steps)
    end = int(np.argmin(rates(lattice) > 0))
    return float(0.5 * (lattice[end - 1] + lattice[end]))


class TestWindowedScan:
    """The cutoff search evaluates the coarse grid past FIRST_SCAN_KM only while
    the rate is still positive; on every link it finds what the whole grid finds."""

    @staticmethod
    def outcome(search):
        try:
            return search().hex()
        except (ValueError, RuntimeWarning) as exc:
            return type(exc)

    def test_same_outcome_as_the_full_grid_scan(self, monkeypatch):
        rng = np.random.default_rng(20241018)
        searched = []

        def reference(protocol, rates):
            searched.append(rates)
            return full_grid_cutoff_km(protocol, rates)

        grid = np.arange(0.0, SCAN_LIMIT_KM + COARSE_STEP_KM, COARSE_STEP_KM)
        tail_raises = 0
        for _ in range(300):
            channel = ChannelParams(
                rng.uniform(0.15, 0.4) if rng.random() < 0.5 else rng.uniform(0.1, 4.0),
                0.0,
                math.exp(rng.uniform(math.log(1e-3), 0.0)),
                0.0 if rng.random() < 0.3 else math.exp(rng.uniform(math.log(1e-8), math.log(1e-3))),
                rng.uniform(0.0, 0.1),
                rng.uniform(1.0, 1.5),
            )
            kind = rng.integers(4)
            protocol = PROTOCOLS[(0, 2, 1, 1)[kind]]
            mu = "optimal" if kind == 3 else rng.uniform(0.02, 0.6)
            searches = [lambda: max_secure_distance(protocol, mu, channel)]
            if protocol != "sarg04-no-decoy":
                searches.append(lambda: exact_ceiling_km(protocol, mu, channel))
            for search in searches:
                got = self.outcome(search)
                with monkeypatch.context() as patched:
                    patched.setattr(decoyqkd.sweeps, "_cutoff_km", reference)
                    want = self.outcome(search)
                if got == want:
                    continue
                # the full grid raised from a coarse point past the first
                # insecure one, which the windowed scan does not evaluate
                assert want not in (NeverSecureError, ScanLimitError), (channel, protocol, mu)
                assert isinstance(got, str) or got is NeverSecureError, (channel, protocol, mu)
                end = 0 if got is NeverSecureError else int(float.fromhex(got) // COARSE_STEP_KM) + 1
                secure = searched[-1](grid[: end + 1]) > 0
                assert secure[:end].all() and not secure[end]
                with pytest.raises(want):
                    searched[-1](grid[end + 1 :])
                tail_raises += 1
        assert tail_raises < 30
