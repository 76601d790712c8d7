"""Property tests over random channels, drawn by hypothesis."""

import math
import sys
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from decoyqkd import (  # noqa: E402
    DEFAULT_NU3,
    ChannelParams,
    construct_intensity_set,
    estimate_photon_bounds,
    exact_bounds,
    synthesize_tallies,
    transmittance,
)

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
