import math
import types
import warnings
from dataclasses import fields

import mpmath
import numpy as np
import pytest

from decoyqkd import (
    ChannelParams,
    IntensityConstraintError,
    IntensitySet,
    ObservedTally,
    PhotonBounds,
    balance_residual,
    construct_intensity_set,
    estimate_photon_bounds,
    exact_bounds,
    exact_stats,
    synthesize_tallies,
)


def quadratic_nu2(mu, nu1):
    """Independent root: nu2 solves nu2^2 + nu1 nu2 + (nu1^2 - mu^2) = 0."""
    roots = np.roots([1.0, nu1, nu1**2 - mu**2])
    return float(max(roots))


class TestValidateIntensities:
    @pytest.mark.parametrize("mu", [0.30, 0.48])
    def test_balanced_set_is_valid(self, mu):
        nu1 = 0.75 * mu
        s = IntensitySet(mu=mu, nu1=nu1, nu2=quadratic_nu2(mu, nu1), nu3=0.05)
        assert abs(balance_residual(s)) < 1e-12

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(mu=0.30, nu1=0.225, nu2=0.1156035949, nu3=0.0), "nu3 must be > 0"),
            (dict(mu=0.30, nu1=0.225, nu2=0.1156035949, nu3=0.2), "nu3 < nu2"),
            (dict(mu=0.30, nu1=0.225, nu2=0.25, nu3=0.05), "nu2 <= 2mu/3"),
            (dict(mu=0.30, nu1=0.19, nu2=0.1156035949, nu3=0.05), "2mu/3 < nu1"),
            (dict(mu=0.30, nu1=0.24, nu2=0.1156035949, nu3=0.05), "nu1 <= 3mu/4"),
            (dict(mu=0.60, nu1=0.45, nu2=0.14, nu3=0.05), "nu1 + nu2 > mu"),
            (dict(mu=0.30, nu1=0.225, nu2=0.19, nu3=0.12), "nu2 + nu3 < mu"),
            (dict(mu=0.30, nu1=0.2, nu2=0.2, nu3=0.01), "nu2 < nu1"),
            # a balanced set whose bound denominators underflow to 0
            (dict(mu=1e-120, nu1=7.5e-121, nu2=3.853453162872775e-121, nu3=1e-122), "denominators"),
            # nu3^2, the e2U scale, underflows below the normal floats
            (dict(mu=0.30, nu1=0.225, nu2=0.1156035949, nu3=1e-160), "nu3=1e-160 is too small"),
            # a decoy that is not a real number is named before any constraint
            (dict(mu=0.30, nu1="0.225", nu2=0.1156035949, nu3=0.05), "nu1 must be a real number"),
            (dict(mu=0.30, nu1=0.225, nu2=complex(0.1156035949), nu3=0.05), "nu2 must be a real number"),
            (dict(mu=0.30, nu1=0.225, nu2=0.1156035949, nu3=None), "nu3 must be a real number"),
            # no float holds an int beyond the float range, and the checks are float arithmetic
            (dict(mu=0.30, nu1=10**400, nu2=0.1156035949, nu3=0.05), "nu1 must be a real number"),
            (dict(mu=0.30, nu1=0.225, nu2=0.1156035949, nu3=-10**400), "nu3 must be a real number"),
            # NaN is no real number either, and orders against none
            (dict(mu=0.30, nu1=0.225, nu2=0.1156035949, nu3=math.nan), "nu3 must be a real number"),
            # mu is finite: the float32 and float16 inf too, as their float64 value
            (dict(mu=math.inf, nu1=0.225, nu2=0.1156035949, nu3=0.05), "mu must be > 0, got inf"),
            (dict(mu=np.float16(math.inf), nu1=0.225, nu2=0.1156, nu3=0.05), "mu must be > 0"),
        ],
    )
    def test_each_inequality_rejected(self, kwargs, fragment):
        with pytest.raises(IntensityConstraintError, match=fragment.replace("+", r"\+")):
            IntensitySet(**kwargs)

    def test_balance_residual_rejected(self):
        # nudge nu2 off the quadratic root by 1e-6: residual far above 1e-9
        mu, nu1 = 0.30, 0.225
        nu2 = quadratic_nu2(mu, nu1) + 1e-6
        with pytest.raises(IntensityConstraintError, match="residual"):
            IntensitySet(mu=mu, nu1=nu1, nu2=nu2, nu3=0.05)

    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["negative", "positive"])
    def test_only_round_off_is_allowed_below_zero(self, sign):
        # nu2 moved off the quadratic root so that the residual is +-9.9e-10: a
        # negative one lets Y2L exceed Y2 by (mu^3/3)|r|/D2 per unit Y3
        mu, nu1 = 0.48, 0.36
        root = quadratic_nu2(mu, nu1)
        nu2 = root + sign * 9.9e-10 / (3.0 * root**2 / mu**2 - 1.0)
        residual = balance_residual(types.SimpleNamespace(mu=mu, nu1=nu1, nu2=nu2))
        assert residual == pytest.approx(sign * 9.9e-10, rel=1e-6)
        if sign > 0:
            assert balance_residual(IntensitySet(mu=mu, nu1=nu1, nu2=nu2, nu3=0.01)) == residual
        else:
            with pytest.raises(IntensityConstraintError, match="residual=-9.900e-10"):
                IntensitySet(mu=mu, nu1=nu1, nu2=nu2, nu3=0.01)

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(IntensityConstraintError, match="mu"):
            IntensitySet(mu=0.0, nu1=0.1, nu2=0.05, nu3=0.01)


def balanced_set(mu, nu3=0.01):
    nu1 = 0.75 * mu
    return IntensitySet(mu=mu, nu1=nu1, nu2=quadratic_nu2(mu, nu1), nu3=nu3)


#: A channel without dark counts, so that its vacuum class reads y0 = 0.
DARK = ChannelParams(0.21, 20.0, 0.045, 0.0, 0.033, 1.22)


def with_vacuum(vacuum, params, s):
    """The honest tallies of ``params`` with ``vacuum`` in place of the vacuum class."""
    honest = synthesize_tallies(s, params)
    return ObservedTally(
        *(np.r_[getattr(vacuum, f), getattr(honest, f)[1:]] for f in ("intensity", "gain", "qber"))
    )


def every_clamp_tallies(s):
    """One crafted column per clamp pattern: both bounds vacuous; Y1L > 1 with
    e1U < 0 (E_nu3 = 0 against Y0 = 1/2); Y2L > 1 with e2U < 0; and positive
    Y1L and Y2L charged the whole nu3 error budget (E_nu3 = 1), so that e1U
    exceeds 1/2 and e2U exceeds 1."""
    return ObservedTally(
        np.array([0.0, s.nu3, s.nu2, s.nu1, s.mu]),
        np.array(
            [
                [0.0, 0.5, 0.5, 0.0],
                [0.5, 0.0, 0.0, 0.1],
                [0.1, 1.0, 0.0, 0.1],
                [0.1, 0.0, 1.0, 0.1],
                [0.9, 0.0, 0.0, 0.0],
            ]
        ),
        np.array([[0.5] * 4, [0.1, 0.0, 0.0, 1.0], [0.1] * 4, [0.1] * 4, [0.1] * 4]),
    )


#: The clamps of every_clamp_tallies: per column, photon numbers 1 and 2, each
#: (vacuous, Y clamped to 1, e clamped to the cap, e clamped to 0).
EVERY_CLAMP_MASK = [
    [[1, 0, 0, 0], [1, 0, 0, 0]],
    [[0, 1, 0, 1], [1, 0, 0, 0]],
    [[0, 1, 0, 1], [0, 1, 0, 1]],
    [[0, 0, 1, 0], [0, 1, 1, 0]],
]


class TestEstimateBackground:
    def test_reads_vacuum_gain(self, gys):
        s = balanced_set(0.48)
        bounds = estimate_photon_bounds(with_vacuum(ObservedTally(0.0, 1.7e-6, 0.5), gys, s), s)
        y0, e0 = bounds.y0, bounds.e0
        assert y0 == 1.7e-6
        assert e0 == 0.5

    def test_no_dark_counts(self):
        s = balanced_set(0.48)
        bounds = estimate_photon_bounds(synthesize_tallies(s, DARK), s)
        assert (bounds.y0, bounds.e0) == (0.0, 0.5)

    def test_e0_is_the_observed_vacuum_qber(self, gys):
        # e0 Y0 is read from the vacuum class, not assumed to be Y0 / 2: a
        # vacuum QBER below 1/2 would otherwise take too much off e1U and e2U
        s = balanced_set(0.48)
        e0 = estimate_photon_bounds(with_vacuum(ObservedTally(0.0, 1e-6, 0.37), gys, s), s).e0
        assert e0 == 0.37

    def test_honest_channel_recovers_parameter(self, gys):
        s = balanced_set(0.48, nu3=0.05)
        for d in (0, 60, 120):
            tallies = synthesize_tallies(s, gys.at_distance(d))
            assert estimate_photon_bounds(tallies, s).y0 == gys.y0

    def test_nonzero_intensity_rejected(self, gys):
        s = balanced_set(0.48)
        with pytest.raises(ValueError, match="vacuum"):
            estimate_photon_bounds(with_vacuum(ObservedTally(0.05, 1e-3, 0.1), gys, s), s)

    def test_tallies_of_another_set_rejected(self, gys):
        # honest tallies of mu = 0.30 would give Y1L = 0.00221 against an exact Y1 of 0.00401
        s = construct_intensity_set(0.48)
        tallies = synthesize_tallies(construct_intensity_set(0.30), gys.at_distance(50))
        with pytest.raises(ValueError, match="do not match"):
            estimate_photon_bounds(tallies, s)
        # the set's own tally matches by identity; the tally of a distinct but
        # equal set, and one holding a writable copy of the set's column, match
        # by value, and give the same bits, past the cutoff where the clamps fire
        link = gys.at_distance(np.arange(0.0, 301.0, 25.0))
        own = synthesize_tallies(s, link)
        equal = synthesize_tallies(construct_intensity_set(0.48), link)
        copied = ObservedTally(own.intensity.copy(), own.gain, own.qber)
        assert copied.intensity.flags.writeable
        expected = estimate_photon_bounds(own, s)
        for tally in (equal, copied):
            assert tally.intensity is not own.intensity
            bounds = estimate_photon_bounds(tally, s)
            for name in (f.name for f in fields(PhotonBounds) if f.compare):
                got, want = getattr(bounds, name), getattr(expected, name)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
            assert bounds.clamps.tobytes() == expected.clamps.tobytes()
        assert expected.clamps.any()


class TestBoundSinglePhoton:
    def test_conservative_on_honest_channel(self, gys):
        params = gys.at_distance(20)
        s = balanced_set(0.48)
        tallies = synthesize_tallies(s, params)
        result = estimate_photon_bounds(tallies, s)
        exact = exact_stats(1, s.mu, params)
        assert 0 < result.y1_lower <= exact.detection_yield + 1e-12
        assert result.e1_upper >= exact.error_rate - 1e-12

    def test_lossless_limit_stays_probability(self):
        params = ChannelParams(0.21, 0.0, 1.0, 0.0, 0.033, 1.22)
        s = balanced_set(0.48)
        tallies = synthesize_tallies(s, params)
        result = estimate_photon_bounds(tallies, s)
        assert 0 <= result.y1_lower <= 1.0

    def test_degenerate_decoys_rejected(self, gys):
        with pytest.raises(IntensityConstraintError):
            s = IntensitySet(mu=0.48, nu1=0.36, nu2=0.05, nu3=0.05)
            estimate_photon_bounds(synthesize_tallies(s, gys), s)

    def test_vacuous_bound_clamped_and_flagged(self):
        # gains crafted so the nu2/nu3 difference goes negative
        s = balanced_set(0.30, nu3=0.05)
        tallies = ObservedTally(
            np.array([0.0, s.nu3, s.nu2, s.nu1, s.mu]),
            np.array([1e-6, 2e-4, 1e-4, 3e-4, 4e-4]),
            np.array([0.5, 0.1, 0.1, 0.1, 0.1]),
        )
        result = estimate_photon_bounds(tallies, s)
        assert result.y1_lower == 0.0
        assert result.q1_lower == 0.0
        assert any("vacuous" in flag for flag in result.flags)

    def test_every_clamp_flag_in_order(self):
        s = balanced_set(0.30, nu3=0.05)
        result = estimate_photon_bounds(every_clamp_tallies(s), s)
        assert result.flags == (
            "single-photon bound vacuous (Y1L <= 0)",
            "Y1L clamped to 1",
            "e1U clamped to 1/2",
            "e1U clamped to 0",
            "two-photon bound vacuous (Y2L <= 0)",
            "Y2L clamped to 1",
            "e2U clamped to 1",
            "e2U clamped to 0",
        )
        assert result.clamps.astype(int).transpose(2, 0, 1).tolist() == EVERY_CLAMP_MASK
        assert result.y1_lower[:2].tolist() == [0.0, 1.0]
        assert result.e1_upper.tolist() == [0.5, 0.0, 0.0, 0.5]
        assert result.y2_lower[:3].tolist() == [0.0, 0.0, 1.0]
        assert result.e2_upper.tolist() == [1.0, 1.0, 0.0, 1.0]

    def test_clamp_mask_built_once_read_only(self, gys):
        s = balanced_set(0.30, nu3=0.05)
        result = estimate_photon_bounds(every_clamp_tallies(s), s)
        assert "clamps" not in vars(result)  # not built until read
        clamps = result.clamps
        assert result.clamps is clamps
        assert clamps.astype(int).transpose(2, 0, 1).tolist() == EVERY_CLAMP_MASK
        with pytest.raises(ValueError, match="read-only"):
            clamps[0, 0, 0] = False
        assert exact_bounds(0.30, gys.at_distance(np.arange(3.0))).clamps is None

    def test_gain_relation(self, gys):
        params = gys.at_distance(40)
        s = balanced_set(0.30)
        result = estimate_photon_bounds(synthesize_tallies(s, params), s)
        assert result.q1_lower == pytest.approx(result.y1_lower * s.mu * math.exp(-s.mu), rel=1e-14)


class TestBoundTwoPhoton:
    def test_conservative_on_honest_channel(self, gys):
        params = gys.at_distance(20)
        s = balanced_set(0.30)
        tallies = synthesize_tallies(s, params)
        result = estimate_photon_bounds(tallies, s)
        exact = exact_stats(2, s.mu, params)
        assert 0 < result.y2_lower <= exact.detection_yield + 1e-12
        assert result.e2_upper >= exact.error_rate - 1e-12

    def test_opaque_channel_contribution_vanishes(self):
        # no dark counts and essentially no transmission: nothing to extract
        params = ChannelParams(0.21, 3000.0, 0.045, 0.0, 0.033, 1.22)
        s = balanced_set(0.30)
        tallies = synthesize_tallies(s, params)
        result = estimate_photon_bounds(tallies, s)
        assert result.y2_lower <= 1e-15
        assert result.q2_lower <= 1e-15

    def test_unbalanced_nu1_nu2_rejected(self, gys):
        with pytest.raises(IntensityConstraintError, match=r"nu1 \+ nu2 > mu"):
            s = IntensitySet(mu=0.60, nu1=0.41, nu2=0.15, nu3=0.05)
            estimate_photon_bounds(synthesize_tallies(s, gys), s)

    def test_underflowed_scale_gives_capped_e2_and_flag(self):
        # at 800 km of 4 dB/km fiber without dark counts Y2L is subnormal, and
        # Y2L nu3^2 underflows to 0: e2U is the cap, flagged, without 0/0
        params = ChannelParams(4.0, 800.0, 0.045, 0.0, 0.033, 1.22)
        s = construct_intensity_set(0.48)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = estimate_photon_bounds(synthesize_tallies(s, params), s)
        assert result.y2_lower > 0 and result.y2_lower * s.nu3**2 == 0
        assert result.e2_upper == 1.0
        assert "e2U clamped to 1" in result.flags

    def test_e2_upper_sensitivity_to_nu3(self, gys):
        # the error budget scales like 1/nu3^2 against a numerator ~ nu3,
        # so smaller nu3 loosens the two-photon error bound
        params = gys.at_distance(20)
        uppers = []
        for nu3 in (0.01, 0.05, 0.1):
            s = balanced_set(0.30, nu3=nu3)
            tallies = synthesize_tallies(s, params)
            uppers.append(estimate_photon_bounds(tallies, s).e2_upper)
        assert uppers[0] >= uppers[1] >= uppers[2]


class TestEstimatePhotonBounds:
    @pytest.mark.parametrize(
        "mu,nu3", [(0.1, 0.01), (0.3, 0.05), (0.48, 0.01), (1.0, 1e-4), (100.0, 1.0)]
    )
    def test_coefficients_are_the_documented_formula(self, mu, nu3):
        # the docstring's Y1L and Y2L, each gain's factor in Python floats
        s = construct_intensity_set(mu, nu3)
        mu, nu1, nu2, nu3 = s.mu, s.nu1, s.nu2, s.nu3
        d1 = mu * (nu2 - nu3) * (mu - nu2 - nu3)
        d2 = mu * (nu1 - nu2) * (nu1 + nu2 - mu)
        y1 = (nu2**2 - nu3**2) / d1, -mu**2 * math.exp(nu3) / d1, mu**2 * math.exp(nu2) / d1
        y1 += 0.0, -(nu2**2 - nu3**2) * math.exp(mu) / d1
        y2 = 2.0 * (nu1 - nu2) / d2, 0.0, -2.0 * mu * math.exp(nu2) / d2
        y2 += 2.0 * mu * math.exp(nu1) / d2, -2.0 * (nu1 - nu2) * math.exp(mu) / d2
        expected = [[a.hex(), b.hex()] for a, b in zip(y1, y2)]
        assert [[a.hex(), b.hex()] for a, b in s.coefficients.tolist()] == expected
        assert s.coefficients.shape == (5, 2) and s.coefficients.dtype == np.float64

    def test_pipeline_fields(self, gys):
        params = gys.at_distance(30)
        s = balanced_set(0.48)
        bounds = estimate_photon_bounds(synthesize_tallies(s, params), s)
        assert bounds.y0 == gys.y0
        assert bounds.e0 == 0.5
        assert bounds.q0 == pytest.approx(gys.y0 * math.exp(-0.48), rel=1e-14)
        assert bounds.q1_lower == pytest.approx(
            bounds.y1_lower * s.mu * math.exp(-s.mu), rel=1e-14
        )
        assert bounds.q2_lower == pytest.approx(
            bounds.y2_lower * s.mu**2 * math.exp(-s.mu) / 2, rel=1e-14
        )

    def test_all_quantities_in_unit_interval(self, gys):
        for d in (0, 50, 100, 150):
            s = balanced_set(0.30)
            bounds = estimate_photon_bounds(synthesize_tallies(s, gys.at_distance(d)), s)
            for value in (
                bounds.y0,
                bounds.q0,
                bounds.y1_lower,
                bounds.e1_upper,
                bounds.q1_lower,
                bounds.y2_lower,
                bounds.q2_lower,
                bounds.e2_upper,
            ):
                assert 0.0 <= value <= 1.0

    def test_deterministic(self, gys):
        s = balanced_set(0.30)
        tallies = synthesize_tallies(s, gys.at_distance(70))
        assert estimate_photon_bounds(tallies, s) == estimate_photon_bounds(tallies, s)

    @pytest.mark.parametrize("container", [list, tuple])
    def test_sequence_tally_gives_the_array_bounds(self, gys, container):
        s = balanced_set(0.48)
        tallies = synthesize_tallies(s, gys.at_distance(70))
        columns = (container(a.tolist()) for a in (tallies.intensity, tallies.gain, tallies.qber))
        as_sequence = estimate_photon_bounds(ObservedTally(*columns), s)
        as_array = estimate_photon_bounds(tallies, s)

        def values(bounds):
            return [np.asarray(getattr(bounds, f.name)).tobytes() for f in fields(bounds) if f.compare]

        assert values(as_sequence) == values(as_array)
        assert as_sequence.clamps.tobytes() == as_array.clamps.tobytes()

    def test_invalid_set_rejected(self, gys):
        with pytest.raises(IntensityConstraintError):
            s = IntensitySet(mu=0.30, nu1=0.225, nu2=0.25, nu3=0.05)
            estimate_photon_bounds(synthesize_tallies(s, gys), s)

    @pytest.mark.parametrize(
        "gain,qber",
        [(0.1, 0.1), (np.float64(0.1), np.float64(0.1)), (np.full(2, 0.1), np.full(2, 0.1))]
        + [(np.full(5, 0.1), 0.1)],
        ids=["float", "float64", "two-classes", "number-qber"],
    )
    def test_tally_not_stacking_five_classes_rejected(self, gain, qber):
        # the class intensities match the set's, so only the layout is wrong: one
        # ValueError, before a class is read, not a TypeError, an IndexError or
        # numpy's broadcast error
        s = construct_intensity_set(0.48)
        layout = "^tally gain and qber must stack the five classes on axis 0, got "
        with pytest.raises(ValueError, match=layout) as raised:
            estimate_photon_bounds(ObservedTally(s.classes, gain, qber), s)
        assert type(raised.value) is ValueError

    def test_look_alike_set_rejected(self, gys):
        # a set is checked when built, so only a built IntensitySet is taken
        s = balanced_set(0.30)
        look_alike = types.SimpleNamespace(mu=s.mu, nu1=s.nu1, nu2=s.nu2, nu3=s.nu3)
        with pytest.raises(TypeError, match="IntensitySet"):
            estimate_photon_bounds(synthesize_tallies(s, gys), look_alike)

    @pytest.mark.parametrize(
        "distance", [np.linspace(0.0, 250.0, 201), 70.0], ids=["201-points", "scalar"]
    )
    def test_class_sum_matches_sequential_sum_bitwise(self, gys, distance):
        # the five classes are added in order, as Python's sum adds them, so a
        # grid and each of its points give the same bits
        s = construct_intensity_set(0.48)
        tallies = synthesize_tallies(s, gys.at_distance(distance))
        bounds = estimate_photon_bounds(tallies, s)
        for n, value in enumerate((bounds.y1_lower, bounds.y2_lower)):
            raw = sum(c * gain for c, gain in zip(s.coefficients[:, n], tallies.gain))
            expected = np.minimum(np.maximum(0.0, raw), 1.0)
            assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("mu", [0.48, 0.30])
    def test_yield_bounds_within_round_off_of_exact_arithmetic(self, gys, mu):
        # the same combinations of the same float tallies and intensities at
        # 100 digits; a forward error of a few eps times the sum of the
        # numerator's term magnitudes over the denominator is all round-off
        s = construct_intensity_set(mu)
        tallies = synthesize_tallies(s, gys.at_distance(np.arange(0.0, 251.0)))
        bounds = estimate_photon_bounds(tallies, s)
        with mpmath.workdps(100):
            m, nu1, nu2, nu3 = (mpmath.mpf(x) for x in (s.mu, s.nu1, s.nu2, s.nu3))
            boost = [mpmath.exp(x) for x in (0, nu3, nu2, nu1, m)]
            signal_1, signal_2 = nu2**2 - nu3**2, 2 * (nu1 - nu2)
            combinations = (
                ("Y1L", [signal_1, -(m**2), m**2, 0, -signal_1], m * (nu2 - nu3) * (m - nu2 - nu3)),
                ("Y2L", [signal_2, 0, -2 * m, 2 * m, -signal_2], m * (nu1 - nu2) * (nu1 + nu2 - m)),
            )
            for (name, coefficients, denominator), values in zip(
                combinations, (bounds.y1_lower, bounds.y2_lower)
            ):
                for gains, value in zip(tallies.gain.T.tolist(), values.tolist()):
                    terms = [c * b * g for c, b, g in zip(coefficients, boost, gains)]
                    exact = mpmath.fsum(terms) / denominator
                    if 0 < exact < 1:
                        scale = np.finfo(float).eps * mpmath.fsum(map(abs, terms)) / denominator
                        assert abs(value - exact) <= 4 * scale, (name, gains)


class TestDecoyLemmas:
    def test_photon_number_weights_of_the_yield_combinations(self):
        # lemmas 1 and 2 in the estimator's form: Y_nL = sum_n w_n Y_n with
        # w_n = sum_k a_k nu_k^n / (n! D), a_k the numerators of the classes
        # (0, nu3, nu2, nu1, mu). Each is a lower bound for every yield vector
        # as w_1 = 1 (w_2 = 1 for Y2L) and no other w_n is positive, but for
        # Y2L's w_3 = -(mu^3 / 3) r / D2 with r the balance residual. Lemma 1
        # is tight for n = 3 as nu3 and nu2 near 2mu/3, so w_n <= 0 is not
        # strict. At 50 digits, from the sets' float intensities
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 12:
            mu = rng.uniform(0.05, 1.0)
            nu1 = mu * rng.uniform(2.0 / 3.0, 0.75)
            nu2 = quadratic_nu2(mu, nu1)
            # a residual of either sign up to 1e-9 (dr/dnu2 = 3 nu2^2/mu^2 - 1); the
            # set rejects all but round-off below 0, and the loop draws again
            nu2 += rng.uniform(-0.9e-9, 0.9e-9) / (3.0 * nu2**2 / mu**2 - 1.0)
            nu3 = 1e-4 * (0.3 * mu / 1e-4) ** rng.uniform()
            try:
                s = IntensitySet(mu=mu, nu1=nu1, nu2=nu2, nu3=nu3)
            except IntensityConstraintError:
                continue
            checked += 1
            with mpmath.workdps(50):
                m, v1, v2, v3 = (mpmath.mpf(x) for x in (s.mu, s.nu1, s.nu2, s.nu3))
                r = v1 - v2 - (v1**3 - v2**3) / m**2
                signal_1, signal_2 = v2**2 - v3**2, 2 * (v1 - v2)
                d2 = m * (v1 - v2) * (v1 + v2 - m)
                combinations = (
                    (
                        "Y1L",
                        (signal_1, -(m**2), m**2, 0, -signal_1),
                        m * (v2 - v3) * (m - v2 - v3),
                        {0: 0, 1: 1, 2: 0},
                    ),
                    (
                        "Y2L",
                        (signal_2, 0, -2 * m, 2 * m, -signal_2),
                        d2,
                        {0: 0, 1: 0, 2: 1, 3: -(m**3 / 3) * r / d2},
                    ),
                )
                for name, numerators, denominator, fixed in combinations:
                    for n in range(61):
                        powers = (a * nu**n for a, nu in zip(numerators, (0, v3, v2, v1, m)))
                        w = mpmath.fsum(powers) / (mpmath.factorial(n) * denominator)
                        if n in fixed:
                            assert abs(w - fixed[n]) <= mpmath.mpf(10) ** -40, (name, n, s)
                        else:
                            assert w <= 0, (name, n, s)
