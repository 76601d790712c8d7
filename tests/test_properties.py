"""Property tests over random channels, drawn by hypothesis."""

import math
import sys
import warnings
from dataclasses import astuple

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from decoyqkd import (  # noqa: E402
    DEFAULT_NU3,
    PROTOCOLS,
    ChannelParams,
    NeverSecureError,
    ScanLimitError,
    UndefinedQberError,
    construct_intensity_set,
    estimate_photon_bounds,
    exact_bounds,
    exact_ceiling_km,
    max_secure_distance,
    rate_at,
    synthesize_tallies,
    transmittance,
)
from decoyqkd.sweeps import COARSE_STEP_KM, MAX_MU, RESOLUTION_KM, SCAN_LIMIT_KM  # noqa: E402

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


@settings(max_examples=200)
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


@settings(max_examples=300)
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


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


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


@settings(max_examples=80)
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


@settings(max_examples=150)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    mu=st.floats(0.02, 0.8),
    nu3_share=st.floats(1e-6, 0.2),
    channel=fiber_links(),
)
def test_rate_crosses_zero_once(protocol, mu, nu3_share, channel):
    # the cutoff search takes the first non-positive point of the coarse grid,
    # and then of the lattice of the last secure step, as the end of the secure
    # range: once the rate is non-positive there, it must stay so. Optimal mu
    # is left out, for two reasons. Its root is snapped to a 2^-41 cell, which
    # makes the sign flicker on links without dark counts. And where eta is
    # near 1 the root maximizes the untagged gain, not the rate, so the rate
    # can turn positive again a few km on (ROADMAP items 1b and 3).
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


@settings(max_examples=150)
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
