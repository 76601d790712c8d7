"""Property tests over random channels, drawn by hypothesis."""

import io
import math
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from decoyqkd import (
    DEFAULT_NU3,
    PROTOCOLS,
    ChannelParams,
    NeverSecureError,
    ObservedTally,
    ScanLimitError,
    UndefinedQberError,
    binary_entropy,
    construct_intensity_set,
    estimate_photon_bounds,
    exact_bounds,
    exact_ceiling_km,
    max_secure_distance,
    rate_at,
    synthesize_tallies,
    transmittance,
)
from decoyqkd.cli import main
from decoyqkd.sweeps import COARSE_STEP_KM, MAX_MU, RESOLUTION_KM, SCAN_LIMIT_KM


def examples(count: int) -> int:
    """``count`` examples under the default profile, scaled with the loaded
    profile's max_examples (ten times as many under the thorough profile)."""
    return count * settings.default.max_examples // settings.get_profile("default").max_examples


#: -log10 of the smallest transmittance eta at which eta nu3 is still a positive float.
EDGE_DECADES = -math.log10(5e-324 / DEFAULT_NU3)


@st.composite
def links(draw, edge=EDGE_DECADES):
    """A channel at a distance whose overall transmittance eta is 10^-d, d in
    [0, edge]. Half the draws lie within four decades of the edge; at the
    default edge, Y2L nu3^2 underflows there though Y2L is positive."""
    eta_bob = draw(st.floats(1e-3, 1.0))
    alpha = draw(st.just(0.0) | st.floats(0.01, 4.0))
    decades = draw(st.floats(0.0, edge) | st.floats(edge - 4.0, edge))
    # the fiber loss that leaves 10^-decades of eta_bob (none on a lossless fiber)
    loss_db = 10.0 * max(decades + math.log10(eta_bob), 0.0)
    return ChannelParams(
        alpha_db_per_km=alpha,
        distance_km=loss_db / alpha if alpha else draw(st.floats(0.0, 1000.0)),
        eta_bob=eta_bob,
        y0=draw(st.just(0.0) | st.floats(1e-9, 1e-3)),
        e_det=draw(st.floats(0.0, 0.2)),
        f_ec=1.22,
    )


@settings(max_examples=examples(200))
@given(params=links(), mu=st.floats(0.05, 1.0))
def test_bounds_stay_in_range_without_warning(params, mu):
    s = construct_intensity_set(mu)
    # every pulse class but the vacuum still has a positive gain
    assume(transmittance(params) * s.nu3 > 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bounds = estimate_photon_bounds(synthesize_tallies(s, params), s)
    assert 0.0 <= bounds.y1_lower <= 1.0
    assert 0.0 <= bounds.y2_lower <= 1.0
    assert 0.0 <= bounds.e1_upper <= 0.5
    assert 0.0 <= bounds.e2_upper <= 1.0


@settings(max_examples=examples(300))
@given(mu=st.floats(0.05, 1.0), spread=st.floats(0.0, 1.0), data=st.data())
def test_bounds_are_conservative(mu, spread, data):
    # nu3 log-uniform in [1e-9, 0.2 mu]. The float bounds are not yet
    # conservative where their terms cancel to round-off: a smaller nu3, or
    # an eta nu3 or e_det below the normal floats. Those are left out.
    nu3 = 1e-9 * (0.2 * mu / 1e-9) ** spread
    params = data.draw(links(edge=-math.log10(sys.float_info.min / nu3)))
    assume(transmittance(params) * nu3 >= sys.float_info.min)
    assume(params.e_det == 0 or params.e_det >= sys.float_info.min)
    s = construct_intensity_set(mu, nu3)
    bounds = estimate_photon_bounds(synthesize_tallies(s, params), s)
    exact = exact_bounds(mu, params)
    assert bounds.y1_lower <= exact.y1_lower
    assert bounds.e1_upper >= exact.e1_upper
    assert bounds.y2_lower <= exact.y2_lower
    assert bounds.e2_upper >= exact.e2_upper


#: Entropy arguments: [0, 1] with its ends, its middle, subnormals and 1 - ulp.
UNIT = st.floats(0.0, 1.0) | st.sampled_from(
    [0.0, 1.0, 0.5, 5e-324, 1e-310, sys.float_info.min, math.nextafter(1.0, 0.0)]
)
OUT_OF_UNIT = st.sampled_from(
    [math.nan, -math.inf, math.inf, -1e-300, -5e-324, math.nextafter(1.0, 2.0), 2.0]
)


@settings(max_examples=examples(100))
@given(data=st.data(), width=st.integers(1, 20))
def test_stacked_entropy_rows_equal_separate_calls(data, width):
    # the rate formulas take the entropies of their error rates from one call
    # on the stacked rows; that must be bitwise what one call per row gives,
    # at widths on both sides of the SIMD vector lengths
    values = data.draw(st.lists(UNIT, min_size=3 * width, max_size=3 * width))
    rows = np.array(values).reshape(3, width)
    stacked = binary_entropy(rows)
    for row, entropy in zip(rows, stacked):
        assert entropy.view(np.int64).tolist() == binary_entropy(row).view(np.int64).tolist()
    # an argument outside [0, 1] in any row raises the same error either way
    bad_row, bad_column = data.draw(st.integers(0, 2)), data.draw(st.integers(0, width - 1))
    rows[bad_row, bad_column] = data.draw(OUT_OF_UNIT)
    message = r"^binary entropy argument must be in \[0, 1\]"
    with pytest.raises(ValueError, match=message):
        binary_entropy(rows)
    with pytest.raises(ValueError, match=message):
        binary_entropy(rows[bad_row])


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


#: Photon numbers of an adversarial channel with a yield of their own. The
#: tallies leave out n >= 40, whose yields are free: P(n >= 40) <= nu^40 / 40!
#: for nu <= 1 bounds what they could add to a gain.
PHOTON_NUMBERS = 40

#: Relative round-off allowed each sum of the bounds: 16 eps of its terms'
#: magnitudes (Higham 2002, sec. 3.1), the guard that ROADMAP item 4 would
#: put into the estimator itself.
ROUND_OFF = 16 * sys.float_info.epsilon


@st.composite
def adversarial_channels(draw):
    """Yields Y_n in [0, 1] and error rates e_n in [0, 1/2] for n < 40, the
    vacuum's included, picked per photon number: arbitrary, with every
    multi-photon pulse detected on some draws, and scaled down by up to 1e-9."""
    unit = st.lists(st.floats(0.0, 1.0), min_size=PHOTON_NUMBERS, max_size=PHOTON_NUMBERS)
    half = st.lists(st.floats(0.0, 0.5), min_size=PHOTON_NUMBERS, max_size=PHOTON_NUMBERS)
    yields, errors = np.array(draw(unit)), np.array(draw(half))
    if draw(st.booleans()):
        yields[2:] = 1.0
    return yields * draw(st.just(1.0) | log_uniform(1e-9, 1.0)), errors


def poisson_tallies(s, yields, errors):
    """The five pulse classes' tallies on the channel (yields, errors): each
    gain and error weight the Poisson sum over n < 40, correctly rounded."""
    gains, qbers = [], []
    for nu in s.classes.tolist():
        weights = [math.exp(-nu) * nu**n / math.factorial(n) for n in range(PHOTON_NUMBERS)]
        gain = math.fsum(w * y for w, y in zip(weights, yields.tolist()))
        wrong = math.fsum(w * e * y for w, e, y in zip(weights, errors.tolist(), yields.tolist()))
        gains.append(gain)
        qbers.append(wrong / gain if gain else 0.5)  # no detection: any QBER
    return ObservedTally(s.classes, np.array(gains), np.array(qbers))


@settings(max_examples=examples(200))
@given(
    mu=st.floats(0.05, 1.0),
    spread=st.floats(0.0, 1.0),
    channel=adversarial_channels(),
)
def test_bounds_are_conservative_on_adversarial_channels(mu, spread, channel):
    # the decoy argument holds for any yields and errors an eavesdropper picks
    # per photon number, not only the honest channel's, once e0 Y0 is read from
    # the vacuum class. Each bound may pass its true value by no more than the
    # n >= 40 tail and the sums' round-off can move it
    yields, errors = channel
    s = construct_intensity_set(mu, 1e-4 * (0.3 * mu / 1e-4) ** spread)  # log-uniform
    tallies = poisson_tallies(s, yields, errors)
    bounds = estimate_photon_bounds(tallies, s)
    tail = s.classes**PHOTON_NUMBERS / math.factorial(PHOTON_NUMBERS)
    yield_slack = np.abs(s.coefficients).T @ (ROUND_OFF * tallies.gain + tail)
    # E_nu3 Q_nu3 e^nu3 - e0 Y0 = e_nU Y_nL nu3^n / n!, at least e_n Y_n nu3^n / n!
    decoy = tallies.qber[1] * tallies.gain[1] * math.exp(s.nu3)
    background = tallies.qber[0] * tallies.gain[0]
    weight_slack = ROUND_OFF * (decoy + background) + tail[1] * math.exp(s.nu3)
    y_lower, e_upper = (bounds.y1_lower, bounds.y2_lower), (bounds.e1_upper, bounds.e2_upper)
    for n in (1, 2):
        assert y_lower[n - 1] <= yields[n] + yield_slack[n - 1], n
        if y_lower[n - 1] > 0:  # else e_nU is its cap, which no e_n exceeds
            scale = s.nu3**n / math.factorial(n)
            slack = weight_slack / scale + errors[n] * yield_slack[n - 1]
            assert e_upper[n - 1] >= errors[n] - slack / y_lower[n - 1], n


@st.composite
def fiber_links(draw):
    """A link at distance 0 with its loss, efficiency, background and errors
    drawn over the ranges of the windowed-scan test; some draws have no dark
    counts."""
    return ChannelParams(
        alpha_db_per_km=draw(st.floats(0.15, 0.4) | st.floats(0.1, 4.0)),
        distance_km=0.0,
        eta_bob=draw(log_uniform(1e-3, 1.0)),
        y0=draw(st.just(0.0) | log_uniform(1e-8, 1e-3)),
        e_det=draw(st.floats(0.0, 0.1)),
        f_ec=draw(st.floats(1.0, 1.5)),
    )


def cutoff_outcome(search):
    """The cutoff in km, or the NeverSecureError or ScanLimitError class it raised."""
    try:
        return search()
    except (NeverSecureError, ScanLimitError) as exc:
        return type(exc)
    except UndefinedQberError:
        assume(False)


@settings(max_examples=examples(80))
@given(
    protocol=st.sampled_from(["bb84-decoy", "nonorthogonal-decoy"]),
    mu=st.floats(0.02, 0.8),
    spread=st.floats(0.0, 1.0),
    channel=fiber_links(),
)
def test_no_cutoff_beyond_its_exact_statistics_ceiling(protocol, mu, spread, channel):
    # nu3 log-uniform in [1e-6 mu, 0.2 mu]
    nu3 = 1e-6 * mu * 2e5**spread
    cutoff = cutoff_outcome(lambda: max_secure_distance(protocol, mu, channel, nu3))
    ceiling = cutoff_outcome(lambda: exact_ceiling_km(protocol, mu, channel))
    if isinstance(cutoff, float) and isinstance(ceiling, float):
        assert cutoff <= ceiling + RESOLUTION_KM
    if ceiling is NeverSecureError:
        assert cutoff is NeverSecureError
    if cutoff is ScanLimitError:
        assert ceiling is ScanLimitError


@settings(max_examples=examples(150))
@given(
    protocol=st.sampled_from(PROTOCOLS),
    mu=st.floats(0.02, 0.8),
    nu3_share=st.floats(1e-6, 0.2),
    channel=fiber_links(),
)
def test_rate_crosses_zero_once(protocol, mu, nu3_share, channel):
    # the cutoff search ends the secure range at the first non-positive point
    # of the coarse grid, and then of the lattice of the last secure step. That
    # is well defined for any rate; this checks that the rate does not turn
    # positive again past it, on either grid. Optimal mu is left out, for two
    # reasons. Its root is snapped to a 2^-41 cell, which makes the sign
    # flicker on links without dark counts. And where eta is near 1 the root
    # maximizes the untagged gain, not the rate, so the rate can turn positive
    # again a few km on (ROADMAP items 1b and 3).
    nu3 = nu3_share * mu
    grid = np.arange(0.0, SCAN_LIMIT_KM + COARSE_STEP_KM, COARSE_STEP_KM)
    if channel.y0 == 0:  # past the underflow of eta nu3, a decoy class has no QBER
        grid = grid[transmittance(channel.at_distance(grid)) * nu3 > 0]
    secure = rate_at(protocol, mu, channel, grid, nu3).rate > 0
    assert (secure[1:] <= secure[:-1]).all()
    end = int(np.argmin(secure))
    if secure[0] and not secure[end]:
        steps = 2 ** math.ceil(math.log2(COARSE_STEP_KM / RESOLUTION_KM))
        lattice = grid[end - 1] + np.arange(steps + 1) * (COARSE_STEP_KM / steps)
        secure = rate_at(protocol, mu, channel, lattice, nu3).rate > 0
        assert (secure[1:] <= secure[:-1]).all()


#: Values at the edges of the float range and of each input's domain.
EDGES = (
    0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 100.0, 1e308,
    math.inf, -math.inf, math.nan,
)


def edgy(*in_range):
    """Any float, an edge, or a draw from the ``in_range`` strategies."""
    any_float = st.floats(allow_nan=True, allow_infinity=True)
    return st.one_of(*in_range, st.sampled_from(EDGES), any_float)


#: The six ChannelParams fields, each within its range (half the draws), or
#: each from edgy(), mostly out of range.
channel_fields = st.tuples(
    st.floats(0.0, 1e308),
    st.floats(0.0, 1e308),
    st.floats(5e-324, 1.0),
    st.floats(0.0, math.nextafter(1.0, 0.0)),
    st.floats(0.0, 0.5),
    st.floats(1.0, 1e308),
) | st.tuples(*[edgy()] * 6)


def finite_or_value_error(call):
    """Whether ``call()`` gives only finite numbers or raises a ValueError subclass."""
    try:
        values = call()
    except ValueError:
        return True
    return all(math.isfinite(v) for v in values)


@settings(max_examples=examples(150))
@given(
    fields=channel_fields,
    protocol=st.sampled_from(PROTOCOLS),
    mu=edgy(st.just("optimal"), st.floats(0.0, MAX_MU)),
    nu3=edgy(st.floats(0.0, 1.0)),
    distance=edgy(st.floats(0.0, 1e308)),
)
def test_library_entry_points_give_a_finite_result_or_a_value_error(
    fields, protocol, mu, nu3, distance
):
    # with warnings as errors; alpha distance past ~1.8e308 overflows to eta = 0,
    # where the optimal SARG04 intensity is 0
    def rate():
        point = rate_at(protocol, mu, ChannelParams(*fields), distance, nu3)
        return point.mu, point.rate

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert finite_or_value_error(rate)
        assert finite_or_value_error(
            lambda: [max_secure_distance(protocol, mu, ChannelParams(*fields), nu3)]
        )
        if mu != "optimal":  # the sentinel is for the sweeps, not an intensity
            assert finite_or_value_error(lambda: astuple(construct_intensity_set(mu, nu3)))


#: Junk: empty, words, separators, near-numbers, and '--', which argparse
#: turns into an empty list.
JUNK = ("", " ", "abc", "0.3.1", "1,5", "0x10", "1e", "--", "=", "#", "all,", "optimal ")


def option(*valid):
    """The text of one option: a valid value, a float edge, or junk."""
    edges = st.sampled_from([repr(v) for v in EDGES])
    return st.one_of(*valid, edges, st.sampled_from(JUNK), st.text(max_size=6))


def decimal(low, high):
    return st.floats(low, high).map(repr)


#: Each option's texts; distance triples stay small, or are rejected before
#: anything is allocated.
CLI_OPTIONS = {
    "preset": option(st.just("gys")),
    "protocol": option(
        st.sampled_from(("all",) + PROTOCOLS),
        st.lists(st.sampled_from(PROTOCOLS), min_size=1, max_size=3).map(",".join),
    ),
    "mu": option(st.just("optimal"), decimal(0.02, 1.0)),
    "nu3": option(log_uniform(1e-6, 0.2).map(repr)),
    "alpha": option(decimal(0.1, 4.0)),
    "eta_bob": option(decimal(1e-3, 1.0)),
    "y0": option(st.just("0"), log_uniform(1e-8, 1e-3).map(repr)),
    "edet": option(decimal(0.0, 0.5)),
    "fec": option(decimal(1.0, 1.5)),
    "distance": option(
        st.tuples(
            *[option(decimal(0.0, 200.0)) for _ in range(2)], option(decimal(5.0, 50.0))
        ).map(":".join)
    ),
    # under the run's directory: a new one, one under a file, a null byte
    "out": st.sampled_from(["out", "out/sub", "afile", "afile/sub", "nul\0"]),
}

#: Each option absent, or given as a flag or as a config-file key.
GIVEN_AS = st.fixed_dictionaries(
    {},
    optional={
        name: st.tuples(st.sampled_from(["flag", "file"]), text)
        for name, text in CLI_OPTIONS.items()
    },
)


@settings(max_examples=examples(100))
@given(given_as=GIVEN_AS)
def test_cli_exits_0_2_or_3_with_one_line_or_finite_csvs(given_as):
    # warnings as errors; a flag is --name=text, so that a text starting with
    # '-' reaches the option's parser and not argparse's. Cutoffs are not
    # checked against their exact-statistics ceilings: --nu3 1e-150 gives a
    # 185.4 km cutoff against a 163.6 km ceiling (ROADMAP item 4)
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        (run_dir / "afile").write_text("not a directory\n")
        argv, lines = [], []
        for name, (where, text) in given_as.items():
            if name == "out":
                text = str(run_dir / text)
            if where == "flag":
                argv.append(f"--{name.replace('_', '-')}={text}")
            else:
                lines.append(f"{name} = {text}\n")
        if lines:
            (run_dir / "run.cfg").write_text("".join(lines), encoding="utf-8")
            argv.append(f"--config={run_dir / 'run.cfg'}")
        if "out" not in given_as:
            argv.append(f"--out={run_dir / 'out'}")
        err = io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2, 3), argv
        if code:
            message = err.getvalue()
            assert message.count("\n") == 1 and message.endswith("\n"), message
            assert message.startswith(("error: ", "constraint violation: ")), message
        else:
            for csv in run_dir.rglob("*.csv"):
                rows = csv.read_text().splitlines()[1:]
                assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
