import dataclasses
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest

from decoyqkd import (
    GYS,
    ChannelParams,
    IntensityConstraintError,
    IntensitySet,
    ObservedTally,
    ParameterError,
    SweepSpec,
    UndefinedQberError,
    binary_entropy,
    construct_intensity_set,
    estimate_photon_bounds,
    exact_bounds,
    exact_ceiling_km,
    exact_stats,
    honest_tally,
    max_secure_distance,
    optimal_mu_sarg04,
    poisson_weight,
    rate_at,
    reconstruct_gain,
    synthesize_tallies,
    transmittance,
)
from decoyqkd.channel import number_in, within
from not_numbers import NOT_NUMBERS, not_numbers


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
        ],
        ids=["alpha-1", "alpha-above-1", "alpha-5"],
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


@pytest.mark.parametrize(
    "wrap",
    [lambda v: [v, v], lambda v: (v, v), lambda v: np.array([v, v]), np.array]
    + list(NOT_NUMBERS.values()),
    ids=["list", "tuple", "array", "0d-array", *NOT_NUMBERS],
)
@pytest.mark.parametrize("field", ["alpha_db_per_km", "eta_bob", "y0", "e_det", "f_ec"])
def test_a_link_field_that_is_not_a_number_is_rejected(gys, field, wrap):
    # a link is one point, and the distance is its only axis; each but NaN and inf
    # holds the GYS value, which the range test alone would pass (np.asarray
    # parses a str)
    with pytest.raises(ParameterError, match=f"^{field} must be "):
        dataclasses.replace(gys, **{field: wrap(getattr(gys, field))})


#: The mu = 0.48 set of the other tallies in this file
S_48 = IntensitySet(mu=0.48, nu1=0.36, nu2=0.18496575181789318, nu3=0.05)


@pytest.mark.parametrize(
    "field,value,call",
    [
        # rate_at gave the first value's rate
        ("y0", [1e-6, 2e-6, 3e-6], lambda link: rate_at("nonorthogonal-decoy", 0.48, link, 50.0)),
        # a bare numpy broadcast ValueError
        (
            "y0",
            [1e-6, 2e-6, 3e-6],
            lambda link: max_secure_distance("nonorthogonal-decoy", 0.48, link),
        ),
        # a non-broadcastable output operand in estimate_photon_bounds
        (
            "e_det",
            np.array([0.01, 0.033]),
            lambda link: estimate_photon_bounds(synthesize_tallies(S_48, link), S_48),
        ),
    ],
    ids=["rate_at", "max_secure_distance", "estimate_photon_bounds"],
)
def test_a_link_field_array_fails_when_the_link_is_built(gys, field, value, call):
    # each once reached the rate layer, where it gave a wrong number or a bare error
    with pytest.raises(ParameterError, match=f"^{field} must be "):
        call(dataclasses.replace(gys, distance_km=10.0, **{field: value}))


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

    @pytest.mark.parametrize(
        "distance", [10.0, np.arange(0.0, 301.0, 50.0)], ids=["scalar", "array"]
    )
    @pytest.mark.parametrize("y0", [1.7e-6, 0.0])  # without dark counts the vacuum has no gain
    def test_number_intensity_gives_the_one_element_array_tally(self, gys, distance, y0):
        params = dataclasses.replace(gys, distance_km=distance, y0=y0)
        for intensity in (0.0, 0.01, 0.48):
            number = honest_tally(intensity, params)
            array = honest_tally(np.array([intensity]), params)
            for name in ("gain", "qber"):
                values = np.broadcast_to(getattr(number, name), getattr(array, name).shape)
                assert values.tobytes() == getattr(array, name).tobytes(), (intensity, name)

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
        # in within, a numpy float takes the float test, a 0-d distance and an
        # int the array test; a link field that is an array fails the type test
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
    # np.asarray would parse the str, and np.array(dtype=float) the sequence or
    # array of str; an array of objects holds no number either
    "distance",
    [math.nan, -1.0, np.array([10.0, math.nan]), np.array([1, -1]), "10"]
    + [
        pytest.param(("10", "20"), id="str-tuple"),
        pytest.param(["10", 20.0], id="str-list"),
        pytest.param(np.array(["10", "20"]), id="str-array"),
        pytest.param(np.array([10.0, 20.0], dtype=object), id="object-array"),
        pytest.param(np.array([10.0 + 0j]), id="complex-array"),
    ]
    + not_numbers(10.0, "str", "str-list", "str-array", "object-array", "complex-array", "nan"),
)
def test_at_distance_rejects_a_bad_distance(gys, distance):
    with pytest.raises(ParameterError, match=r"^distance_km must be finite and >= 0$"):
        gys.at_distance(distance)


@pytest.mark.parametrize(
    "value,number,every",
    [
        # the range is judged on the float64 value: a float32 at its own max is
        # finite, its inf and float16's are not, and no float holds 10**400
        pytest.param(np.float32(np.finfo(np.float32).max), True, True, id="float32-max"),
        pytest.param(np.float32(np.inf), False, False, id="float32-inf"),
        pytest.param(np.float16(np.inf), False, False, id="float16-inf"),
        pytest.param(10**400, False, False, id="int-beyond-float"),
        pytest.param(-(10**400), False, False, id="negative-int-beyond-float"),
        # text is not parsed, in a number or in an array
        pytest.param("0.5", False, False, id="str"),
        pytest.param(np.array(["0.5"]), False, False, id="str-array"),
        # a Python bool is an int; numpy's bool is no NUMBER
        pytest.param(True, True, True, id="bool"),
        pytest.param(np.True_, False, False, id="numpy-bool"),
        # an empty array is no number, and has no element out of range
        pytest.param(np.zeros(0), False, True, id="empty-array"),
    ],
)
def test_number_in_and_within_judge_the_float64_value(value, number, every):
    # the widest finite range, with no exception and no warning for any value
    big = sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert number_in(value, -big, big) is number
        assert within(value, -big, big) is every


@pytest.mark.parametrize("distance", [np.arange(3), np.zeros(0)], ids=["int", "empty"])
def test_at_distance_accepts_int_and_empty_arrays(gys, distance):
    assert gys.at_distance(distance).distance_km is distance


@pytest.mark.parametrize(
    "distances",
    [[True, 2, 3.5], (0, 10, 2**63), [[0, 5], [10, 20]], np.array([0, 10], dtype=np.uint8)],
    ids=["bool-int-float-list", "int-tuple", "nested-list", "uint8-array"],
)
def test_real_distances_keep_their_values(gys, distances):
    # a sequence becomes the float64 array that np.array(dtype=float) makes
    distance = gys.at_distance(distances).distance_km
    if isinstance(distances, np.ndarray):
        assert distance is distances
    else:
        assert distance.dtype == np.float64
        assert distance.tobytes() == np.array(distances, dtype=float).tobytes()


def _range_ends():
    """(field, value, requirement or None) at each end of each ChannelParams range:
    the accepted ends themselves (None), then the next float outside, NaN and -inf."""
    big, tiny = sys.float_info.max, math.nextafter(0.0, 1.0)
    below_zero = math.nextafter(0.0, -1.0)
    ends = {
        "alpha_db_per_km": ([0.0, big], [below_zero, math.inf], "finite and >= 0"),
        "distance_km": ([0.0, big], [below_zero, math.inf], "finite and >= 0"),
        "eta_bob": ([tiny, 1.0], [0.0, math.nextafter(1.0, 2.0)], "in (0, 1]"),
        "y0": ([0.0, math.nextafter(1.0, 0.0)], [below_zero, 1.0], "in [0, 1)"),
        "e_det": ([0.0, 0.5], [below_zero, math.nextafter(0.5, 1.0)], "in [0, 0.5]"),
        "f_ec": ([1.0, big], [math.nextafter(1.0, 0.0), math.inf], "finite and >= 1"),
    }
    for field, (inside, outside, requirement) in ends.items():
        yield from ((field, value, None) for value in inside)
        yield from ((field, value, requirement) for value in outside + [math.nan, -math.inf])


@pytest.mark.parametrize("field,value,requirement", list(_range_ends()))
def test_every_field_agrees_at_its_range_ends(gys, field, value, requirement):
    # a link of Python floats takes the one combined range test; a numpy float or
    # an int takes the per-field loop. Both must draw the same line
    forms = [value, np.float64(value)]
    if value in (0.0, 1.0, sys.float_info.max):
        forms.append(int(value))
    if field == "distance_km":
        forms += [np.array([value]), [value]]
    for form in forms:
        if requirement is None:
            link = dataclasses.replace(gys, **{field: form})
            assert np.array_equal(getattr(link, field), np.array(form, dtype=float))
        else:
            with pytest.raises(ParameterError, match=f"^{field} must be {re.escape(requirement)}$"):
                dataclasses.replace(gys, **{field: form})


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
    ]
    # the catalogue, made from each field's valid value
    + [
        pytest.param(field, make(valid), message, id=f"{field}-{name}")
        for field, valid, message in [
            ("intensity", 0.3, "intensity must be >= 0"),
            ("gain", 1e-3, r"gain must be in \[0, 1\]"),
            ("qber", 0.02, r"qber must be in \[0, 1\]"),
        ]
        for name, make in NOT_NUMBERS.items()
        if (field, name) not in {("intensity", "nan"), ("qber", "nan")}
    ],
)
def test_observed_tally_range_checks(field, value, message):
    kwargs = dict(intensity=0.3, gain=1e-3, qber=0.02)
    for name in field.split(","):
        kwargs[name] = value
    with pytest.raises(ParameterError, match=f"^{message}$"):
        ObservedTally(**kwargs)


def test_observed_tally_checks_field_by_field():
    # type then range, one field at a time, as ChannelParams: an intensity out of
    # range is named before a later gain that is no number
    with pytest.raises(ParameterError, match="^intensity must be >= 0$"):
        ObservedTally(-1.0, "0.1", 0.1)


@pytest.mark.parametrize("field", ["intensity", "gain", "qber"])
def test_observed_tally_accepts_negative_zero(field):
    kwargs = dict(intensity=0.3, gain=1e-3, qber=0.02)
    kwargs[field] = -0.0
    assert math.copysign(1.0, getattr(ObservedTally(**kwargs), field)) == -1.0


@pytest.mark.parametrize(
    "value",
    [1, True, [0, 1], (True, 0.25), np.array([0, 1])],
    ids=["int", "bool", "list", "tuple", "int-array"],
)
def test_real_tally_inputs_keep_their_values(gys, value):
    # as for the distance: a list or tuple becomes the float64 array that
    # np.array(dtype=float) makes, a number or an array is kept as it is, and
    # each gives the bits of its float64 form
    as_float, link = np.array(value, dtype=float), gys.at_distance(10.0)
    tally = ObservedTally(value, value, value)
    honest, expected = honest_tally(value, link), honest_tally(as_float, link)
    for field in (tally.intensity, tally.gain, tally.qber, honest.intensity):
        if isinstance(value, (list, tuple)):
            assert type(field) is np.ndarray and field.dtype == np.float64
        else:
            assert field is value
        assert np.asarray(field, dtype=float).tobytes() == as_float.tobytes()
    for name in ("gain", "qber"):
        bits = [np.asarray(getattr(tally, name)).tobytes() for tally in (honest, expected)]
        assert bits[0] == bits[1]


def _mu_message(name, mu):
    # a str mu is taken for a misspelt "optimal"
    if name == "str":
        return f"mu must be a number or 'optimal', got {mu!r}"
    return f"mu must be > 0 and <= 100, got {mu}"


#: Each public numeric input without a catalogue test of its own, by name: the
#: call of one value, a valid value, the error and the exact message for a
#: catalogue case.
ENTRY_POINTS = {
    "honest_tally": (
        lambda v: honest_tally(v, GYS.at_distance(10.0)),
        0.3,
        ParameterError,
        lambda name, v: "intensity must be >= 0",
    ),
    "SweepSpec": (
        lambda v: SweepSpec("bb84-decoy", v, 160.0, 5.0, 0.48, GYS),
        0.0,
        ValueError,
        lambda name, v: f"start, stop and step must be finite, got {v}:160.0:5.0",
    ),
    "max_secure_distance": (
        lambda v: max_secure_distance("bb84-decoy", v, GYS),
        0.48,
        ValueError,
        _mu_message,
    ),
    "exact_ceiling_km": (
        lambda v: exact_ceiling_km("bb84-decoy", v, GYS),
        0.48,
        ValueError,
        _mu_message,
    ),
    "construct_intensity_set": (
        construct_intensity_set,
        0.48,
        IntensityConstraintError,
        lambda name, v: f"mu must be > 0 and <= 100, got {v}",
    ),
    "IntensitySet": (
        lambda v: IntensitySet(v, S_48.nu1, S_48.nu2, S_48.nu3),
        0.48,
        IntensityConstraintError,
        lambda name, v: f"mu must be > 0, got {v}",
    ),
    "binary_entropy": (
        binary_entropy,
        0.5,
        ValueError,
        lambda name, v: f"binary entropy argument must be in [0, 1], got {v}",
    ),
    "optimal_mu_sarg04": (
        optimal_mu_sarg04,
        1e-3,
        ValueError,
        lambda name, v: f"transmittance must be in [0, 1], got {v}",
    ),
    "poisson_weight": (
        lambda v: poisson_weight(v, 1),
        0.5,
        ParameterError,
        lambda name, v: "mean photon number must be finite and >= 0",
    ),
    "poisson_weight-n": (
        lambda v: poisson_weight(0.5, v),
        1,
        ParameterError,
        lambda name, v: "photon count must be a non-negative integer",
    ),
    # n is checked to be a number >= 0 first, then by poisson_weight to be a
    # count, which an infinite n is not
    "exact_stats": (
        lambda v: exact_stats(v, 0.5, GYS.at_distance(10.0)),
        1,
        ParameterError,
        lambda name, v: (
            "photon count must be a non-negative integer"
            if name in ("inf", "float32-inf", "float16-inf")
            else "photon number must be >= 0"
        ),
    ),
    "exact_bounds": (
        lambda v: exact_bounds(v, GYS.at_distance(10.0)),
        0.5,
        ParameterError,
        lambda name, v: "mean photon number must be finite and >= 0",
    ),
    "reconstruct_gain": (
        lambda v: reconstruct_gain(v, GYS.at_distance(10.0)),
        0.5,
        ParameterError,
        lambda name, v: "mean photon number must be finite and >= 0",
    ),
}


@pytest.mark.parametrize("bad", NOT_NUMBERS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_public_input_rejects_the_catalogue(entry, bad):
    # text is not parsed and a complex number not ordered: each case raises the
    # input's own error, not numpy's TypeError, with the message a number
    # out of range gets
    call, valid, error, message = ENTRY_POINTS[entry]
    value = NOT_NUMBERS[bad](valid)
    call(valid)
    with pytest.raises(error, match=f"^{re.escape(message(bad, value))}$") as raised:
        call(value)
    assert type(raised.value) is error
