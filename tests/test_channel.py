import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

from decoyqkd import (
    PROTOCOLS,
    ChannelParams,
    IntensitySet,
    ObservedTally,
    ParameterError,
    UndefinedQberError,
    exact_stats,
    honest_tally,
    poisson_weight,
    rate_at,
    synthesize_tallies,
    transmittance,
)


class TestPoissonWeight:
    def test_vacuum_component(self):
        assert poisson_weight(0.5, 0) == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_vacuum_source(self):
        assert poisson_weight(0.0, 0) == 1.0
        assert poisson_weight(0.0, 1) == 0.0
        assert poisson_weight(0.0, 7) == 0.0

    def test_single_photon_value(self):
        # frozen: 0.48 * e^(-0.48) evaluated at 40 digits
        assert poisson_weight(0.48, 1) == pytest.approx(0.29701602806694760938, abs=1e-15)

    @pytest.mark.parametrize("mu", [0.05, 0.3, 0.48, 1.0])
    def test_factorial_recurrence(self, mu):
        for n in range(0, 20):
            expected = poisson_weight(mu, n) * mu / (n + 1)
            assert poisson_weight(mu, n + 1) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.1, 0.48, 1.0])
    def test_normalization(self, mu):
        total = sum(poisson_weight(mu, n) for n in range(51))
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_tail_below_1e30_at_n50(self):
        # the double-precision sum cannot resolve the tail; check it in
        # 60-digit arithmetic
        with mpmath.workdps(60):
            mu = mpmath.mpf(1)
            total = sum(mu**n * mpmath.exp(-mu) / mpmath.factorial(n) for n in range(51))
            assert 1 - total < mpmath.mpf("1e-30")

    def test_negative_mu_rejected(self):
        for mu in (-0.1, math.nan, math.inf):
            with pytest.raises(ParameterError):
                poisson_weight(mu, 0)

    def test_negative_n_rejected(self):
        with pytest.raises(ParameterError):
            poisson_weight(0.5, -1)


class TestTransmittance:
    def test_zero_length_fiber(self, gys):
        assert transmittance(gys.at_distance(0)) == pytest.approx(0.045, abs=0)

    def test_100km(self, gys):
        # frozen: 0.045 * 10^(-2.1)
        assert transmittance(gys.at_distance(100)) == pytest.approx(
            3.5744770562592667593e-4, rel=1e-14
        )

    def test_long_distance_limit(self, gys):
        assert transmittance(gys.at_distance(2000)) < 1e-40

    def test_monotone_in_distance(self, gys):
        etas = [transmittance(gys.at_distance(d)) for d in range(0, 200, 10)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    @pytest.mark.parametrize(
        "alpha,distance",
        [
            # an alpha <= 1 keeps alpha * distance finite, and the overflow guard is skipped
            (1.0, 1.7e308),
            # above 1 the guard is entered; at 5 dB/km the product overflows
            (math.nextafter(1.0, 2.0), 1e308),
            (5.0, 1e308),
            (np.array([0.2, 5.0]), 1e308),
        ],
        ids=["alpha-1", "alpha-above-1", "alpha-5", "alpha-array"],
    )
    def test_far_end_is_dark_without_a_warning(self, gys, alpha, distance):
        # an array distance takes the product through numpy, which warns on overflow
        params = ChannelParams(alpha, np.array([distance]), 0.045, 1.7e-6, 0.033, 1.22)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eta = transmittance(params)
        assert np.all(eta == 0.0)


@pytest.mark.parametrize("distances", [[0.0, 10.0, 100.0], (0, 10, 100)], ids=["list", "tuple"])
def test_sequence_distance_gives_the_array_results(gys, distances):
    def observables(params):
        tally, stats = honest_tally(0.5, params), exact_stats(1, 0.5, params)
        return transmittance(params), tally.gain, tally.qber, stats.gain, stats.error_rate

    as_array = observables(gys.at_distance(np.array(distances, dtype=float)))
    as_sequence = observables(gys.at_distance(distances))
    assert [a.tobytes() for a in as_sequence] == [a.tobytes() for a in as_array]


#: Three in-range values of each link field but the distance
LINK_VALUES = {
    "alpha_db_per_km": [0.2, 0.21, 1.5],
    "eta_bob": [0.045, 0.1, 1.0],
    "y0": [0.0, 1.7e-6, 1e-5],
    "e_det": [0.0, 0.033, 0.5],
    "f_ec": [1.0, 1.22, 2.0],
}


@pytest.mark.parametrize("container", [list, tuple])
@pytest.mark.parametrize("field", list(LINK_VALUES))
def test_sequence_field_gives_the_array_results(gys, field, container):
    # the observables at one distance, where the field's axis is their only
    # one, and each protocol's rates over three distances, one value each
    def results(value):
        link = dataclasses.replace(gys, **{field: value})
        params = link.at_distance(10.0)
        tally, stats = honest_tally(0.5, params), exact_stats(1, 0.5, params)
        distances = np.array([0.0, 50.0, 100.0])
        rates = [rate_at(protocol, 0.48, link, distances).rate for protocol in PROTOCOLS]
        return transmittance(params), tally.gain, tally.qber, stats.gain, stats.error_rate, *rates

    values = LINK_VALUES[field]
    as_array = results(np.array(values))
    as_sequence = results(container(values))
    assert [np.shape(a) for a in as_sequence] == [np.shape(a) for a in as_array]
    assert [a.tobytes() for a in as_sequence] == [a.tobytes() for a in as_array]


class TestHonestGain:
    def test_vacuum_gives_background(self, gys):
        assert honest_tally(0.0, gys).gain == gys.y0

    def test_direct_evaluation_at_zero_distance(self, gys):
        expected = 1.7e-6 + 1 - math.exp(-0.045 * 0.48)
        assert honest_tally(0.48, gys.at_distance(0)).gain == pytest.approx(expected, rel=1e-15)

    def test_opaque_channel(self, gys):
        assert honest_tally(0.48, gys.at_distance(3000)).gain == pytest.approx(gys.y0, rel=1e-9)

    def test_monotone_in_intensity(self, gys):
        params = gys.at_distance(50)
        gains = [honest_tally(mu, params).gain for mu in (0.01, 0.1, 0.3, 0.5, 1.0)]
        assert all(a < b for a, b in zip(gains, gains[1:]))


class TestHonestQber:
    def test_vacuum_is_random(self, gys):
        assert honest_tally(0.0, gys).qber == pytest.approx(0.5, abs=1e-12)

    def test_signal_dominated_limit(self, gys):
        # strong signal at zero distance: dark counts negligible
        assert honest_tally(5.0, gys.at_distance(0)).qber == pytest.approx(gys.e_det, rel=1e-3)

    def test_direct_evaluation(self, gys):
        params = gys.at_distance(100)
        eta = transmittance(params)
        tally = honest_tally(0.48, params)
        expected = (0.5 * params.y0 + params.e_det * (1 - math.exp(-eta * 0.48))) / tally.gain
        assert tally.qber == pytest.approx(expected, rel=1e-15)

    def test_no_cancellation_on_a_dark_free_link(self):
        # eta * intensity is about 4e-18 here, where 1 - e^(-x) rounds to 0
        params = ChannelParams(0.35, 450, 0.045, 0.0, 0.033, 1.22)
        assert honest_tally(0.48, params).qber == pytest.approx(0.033, rel=1e-12)

    def test_bounded_between_edet_and_half(self, gys):
        for d in range(0, 301, 25):
            for mu in (0.05, 0.3, 0.6):
                e = honest_tally(mu, gys.at_distance(d)).qber
                assert gys.e_det * (1 - 1e-12) <= e <= 0.5

    def test_zero_gain_raises(self):
        # no dark counts, and the transmittance underflows to 0
        params = ChannelParams(4.0, 1000.0, 0.045, 0.0, 0.033, 1.22)
        with pytest.raises(UndefinedQberError):
            honest_tally(0.3, params)

    def test_vacuum_at_zero_gain_is_random(self):
        tally = honest_tally(0.0, ChannelParams(0.21, 10.0, 0.045, 0.0, 0.033, 1.22))
        assert tally.gain == 0.0
        assert tally.qber == 0.5


class TestHonestTally:
    def test_intensities_against_distances_equal_scalar_calls(self, gys):
        # as for the per-distance optimal SARG04 intensity
        distances = np.arange(0.0, 401.0, 20.0)
        intensities = np.linspace(0.01, 0.6, distances.size)
        grid = honest_tally(intensities, gys.at_distance(distances))
        points = [
            honest_tally(float(m), gys.at_distance(float(d))) for m, d in zip(intensities, distances)
        ]
        assert grid.gain.tolist() == [p.gain for p in points]
        assert grid.qber.tolist() == [p.qber for p in points]

    def test_negative_intensity_rejected(self, gys):
        with pytest.raises(ParameterError):
            honest_tally(-0.1, gys)

    def test_nan_intensity_rejected(self, gys):
        with pytest.raises(ParameterError, match="^intensity must be >= 0$"):
            honest_tally(np.array([0.1, math.nan]), gys)

    def test_int_intensities_equal_float_ones(self, gys):
        params = gys.at_distance(10.0)
        ints, floats = honest_tally(np.array([0, 1, 2]), params), honest_tally(np.arange(3.0), params)
        assert ints.gain.tobytes() == floats.gain.tobytes()
        assert ints.qber.tobytes() == floats.qber.tobytes()
        assert honest_tally(0, params).qber == 0.5

    @pytest.mark.parametrize("container", [list, tuple])
    def test_sequence_intensity_gives_the_array_tally(self, gys, container):
        params = gys.at_distance(10.0)
        as_array = honest_tally(np.array([0.0, 0.1, 0.5]), params)
        as_sequence = honest_tally(container([0.0, 0.1, 0.5]), params)
        for name in ("intensity", "gain", "qber"):
            assert getattr(as_sequence, name).tobytes() == getattr(as_array, name).tobytes()


class TestSynthesizeTallies:
    def test_five_classes_with_vacuum_first(self, gys):
        s = IntensitySet(mu=0.48, nu1=0.36, nu2=0.18496575181789318, nu3=0.05)
        tallies = synthesize_tallies(s, gys.at_distance(50))
        assert tallies.intensity.tolist() == [0.0, s.nu3, s.nu2, s.nu1, s.mu]
        assert tallies.gain.shape == tallies.qber.shape == (5,)
        assert tallies.intensity[0] == 0.0
        assert tallies.gain[0] == gys.y0
        assert tallies.qber[0] == 0.5

    def test_gain_ordering(self, gys):
        s = IntensitySet(mu=0.48, nu1=0.36, nu2=0.18496575181789318, nu3=0.05)
        tallies = synthesize_tallies(s, gys.at_distance(50))
        gains = tallies.gain.tolist()
        assert gains == sorted(gains)

    def test_consistent_with_honest_model(self, gys):
        params = gys.at_distance(50)
        s = IntensitySet(mu=0.48, nu1=0.36, nu2=0.18496575181789318, nu3=0.05)
        tallies = synthesize_tallies(s, params)
        for tally in map(tallies.row, range(5)):
            honest = honest_tally(tally.intensity, params)
            assert tally.gain == honest.gain
            assert tally.qber == honest.qber

    def test_deterministic(self, gys):
        s = IntensitySet(mu=0.3, nu1=0.225, nu2=0.11560359488618324, nu3=0.01)
        a, b = synthesize_tallies(s, gys.at_distance(80)), synthesize_tallies(s, gys.at_distance(80))
        for field in ("intensity", "gain", "qber"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize(
    "field,value",
    [
        ("alpha_db_per_km", -0.1),
        ("distance_km", -1.0),
        ("eta_bob", 0.0),
        ("eta_bob", 1.5),
        ("y0", -1e-6),
        ("y0", 1.0),
        ("e_det", -0.01),
        ("e_det", 0.6),
        ("f_ec", 0.9),
    ]
    + [
        (field, value)
        for field in ("alpha_db_per_km", "distance_km", "eta_bob", "y0", "e_det", "f_ec")
        for value in (math.nan, math.inf, -math.inf)
    ]
    + [
        ("distance_km", np.array([0.0, 50.0, math.nan])),
        ("distance_km", np.array([0.0, math.inf])),
        ("distance_km", np.array([10.0, -1.0])),
        # a numpy float takes the number test, a 0-d array and an int the array test
        pytest.param("y0", np.float64(math.nan), id="y0-float64-nan"),
        pytest.param("distance_km", np.array(math.nan), id="distance_km-0d-nan"),
        pytest.param("eta_bob", 2, id="eta_bob-int-2"),
    ],
)
def test_channel_params_invariants(field, value):
    kwargs = dict(
        alpha_db_per_km=0.21, distance_km=0.0, eta_bob=0.045, y0=1.7e-6, e_det=0.033, f_ec=1.22
    )
    kwargs[field] = value
    with pytest.raises(ParameterError):
        ChannelParams(**kwargs)


@pytest.mark.parametrize(
    "distance", [math.nan, -1.0, np.array([10.0, math.nan]), np.array([1, -1])]
)
def test_at_distance_rejects_a_bad_distance(gys, distance):
    with pytest.raises(ParameterError, match=r"^distance_km must be finite and >= 0$"):
        gys.at_distance(distance)


@pytest.mark.parametrize("distance", [np.arange(3), np.zeros(0)], ids=["int", "empty"])
def test_at_distance_accepts_int_and_empty_arrays(gys, distance):
    assert gys.at_distance(distance).distance_km is distance


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("intensity", -0.1, "intensity must be >= 0"),
        ("intensity", math.nan, "intensity must be >= 0"),
        ("gain", -1e-9, r"gain must be in \[0, 1\]"),
        ("gain", 1.5, r"gain must be in \[0, 1\]"),
        ("gain", np.array([0.1, math.nan]), r"gain must be in \[0, 1\]"),
        ("qber", -0.01, r"qber must be in \[0, 1\]"),
        ("qber", 1.01, r"qber must be in \[0, 1\]"),
        ("qber", math.nan, r"qber must be in \[0, 1\]"),
        # both bad: the gain is named first
        ("gain,qber", math.nan, r"gain must be in \[0, 1\]"),
        ("gain,qber", math.inf, r"gain must be in \[0, 1\]"),
        ("gain,qber", -math.inf, r"gain must be in \[0, 1\]"),
        ("gain,qber", -1e-300, r"gain must be in \[0, 1\]"),
        ("gain,qber", math.nextafter(1.0, 2.0), r"gain must be in \[0, 1\]"),
        ("gain,qber", np.array([0.1, math.nan]), r"gain must be in \[0, 1\]"),
        # an int or 0-d field names the same field as a float one
        ("gain", np.array([0, 2]), r"gain must be in \[0, 1\]"),
        ("intensity", -1, "intensity must be >= 0"),
        ("qber", np.array(1.5), r"qber must be in \[0, 1\]"),
    ],
)
def test_observed_tally_range_checks(field, value, message):
    kwargs = dict(intensity=0.3, gain=1e-3, qber=0.02)
    for name in field.split(","):
        kwargs[name] = value
    with pytest.raises(ParameterError, match=f"^{message}$"):
        ObservedTally(**kwargs)


@pytest.mark.parametrize("field", ["intensity", "gain", "qber"])
def test_observed_tally_accepts_negative_zero(field):
    kwargs = dict(intensity=0.3, gain=1e-3, qber=0.02)
    kwargs[field] = -0.0
    assert math.copysign(1.0, getattr(ObservedTally(**kwargs), field)) == -1.0
