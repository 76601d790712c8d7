"""Rate-vs-distance sweeps, maximal secure distance, and intensity construction.

``rate_at`` is elementwise in distance: a sweep is one call over its grid.
The cutoff search, also the exact-statistics ceiling's, is two calls: the
coarse scan up to FIRST_SCAN_KM and the bisection lattice. The scan takes a
third call, for the rest of its grid, only while the rate is still positive
at FIRST_SCAN_KM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Union

import numpy as np

from .bounds import IntensityConstraintError, estimate_photon_bounds, validate_intensities
from .channel import (
    ChannelParams,
    IntensitySet,
    honest_tally,
    synthesize_tallies,
    transmittance,
)
from .exact import exact_bounds
from .rates import (
    DECOY_RATES,
    PROTOCOLS,
    KeyRatePoint,
    optimal_mu_sarg04,
    rate_sarg04_worst,
    untagged_fraction,
)

#: Default weakest decoy intensity. Small enough that the single-photon
#: error bound stays tight in the asymptotic regime and that nu3 < nu2
#: holds down to mu = 0.1 with the auto-constructed set.
DEFAULT_NU3 = 0.01

#: Largest signal intensity accepted. A weak coherent pulse carries well
#: under one photon on average; up to 100 the e^mu, mu^2 and mu^3 terms of
#: the bounds and rates stay far from overflow (e^700 overflows them).
MAX_MU = 100.0

#: Largest number of points a sweep may have.
MAX_SWEEP_POINTS = 100_000

#: Cutoff search: a coarse scan from zero up to the scan limit, then a
#: bisection of the last bracket down to the resolution.
COARSE_STEP_KM = 5.0
RESOLUTION_KM = 0.1
SCAN_LIMIT_KM = 1000.0

#: The coarse scan evaluates the points up to here first, and the rest of
#: them only if the rate is still positive at all of these. Cutoffs lie far
#: below the scan limit: of 1000 searches on random links (alpha 0.16-0.35
#: dB/km, eta_bob 0.01-0.5, y0 1e-7-1e-4, e_det 0.5-5%), 992 ended below
#: 250 km and 4 were never secure, with a median cutoff of 88 km; the GYS
#: cutoffs are 96.7-146.9 km.
FIRST_SCAN_KM = 250.0

#: Sentinel for per-distance optimization of the signal intensity
#: (sarg04-no-decoy only).
OPTIMAL_MU = "optimal"


class NeverSecureError(ValueError):
    """The requested protocol has no positive rate even at zero distance."""


class ScanLimitError(ValueError):
    """The requested protocol's rate is still positive at SCAN_LIMIT_KM."""


def construct_intensity_set(mu: float, nu3: float = DEFAULT_NU3) -> IntensitySet:
    """Build a valid intensity set for a given signal intensity.

    Pins nu1 at its upper limit 3mu/4 (maximizing the nu1 - nu2 gap) and
    takes nu2 as the positive root of nu2^2 + nu1 nu2 + (nu1^2 - mu^2) = 0,
    which satisfies the cubic balance condition exactly. The result is
    fully validated; a mu outside (0, MAX_MU] is rejected before any
    arithmetic, whose squares would overflow past about 1e154.
    """
    if not 0 < mu <= MAX_MU:
        raise IntensityConstraintError(f"mu must be > 0 and <= {MAX_MU:g}, got {mu}")
    nu1 = 0.75 * mu
    nu2 = 0.5 * (-nu1 + math.sqrt(4.0 * mu**2 - 3.0 * nu1**2))
    return validate_intensities(IntensitySet(mu=mu, nu1=nu1, nu2=nu2, nu3=nu3))


def _grid_points(start_km: float, stop_km: float, step_km: float) -> int:
    """Number of points of the grid start:stop:step, checked before anything is allocated."""
    if not all(math.isfinite(v) for v in (start_km, stop_km, step_km)):
        raise ValueError(f"start, stop and step must be finite, got {start_km}:{stop_km}:{step_km}")
    if step_km <= 0:
        raise ValueError("step_km must be > 0")
    if start_km > stop_km:
        raise ValueError("start_km must be <= stop_km")
    span = (stop_km - start_km) / step_km + 1e-9
    if not span < MAX_SWEEP_POINTS:
        raise ValueError(f"{span + 1:.3g} sweep points exceed the limit of {MAX_SWEEP_POINTS}")
    return int(span) + 1


def _check_request(protocol: str, mu: Union[float, str]) -> None:
    """ValueError unless ``protocol`` is known and ``mu`` is an intensity in
    (0, MAX_MU], or ``"optimal"`` for sarg04-no-decoy."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    if isinstance(mu, str):
        if mu != OPTIMAL_MU:
            raise ValueError(f"mu must be a number or {OPTIMAL_MU!r}, got {mu!r}")
        if protocol in DECOY_RATES:
            raise ValueError("per-distance optimal mu is only defined for sarg04-no-decoy")
    elif not 0 < mu <= MAX_MU:
        raise ValueError(f"mu must be > 0 and <= {MAX_MU:g}, got {mu}")


@dataclass(frozen=True)
class SweepSpec:
    """A rate-vs-distance sweep request.

    ``mu`` is either a fixed signal intensity or ``"optimal"`` to re-solve
    the optimal intensity at every distance (sarg04-no-decoy only).
    ``nu3`` is the weakest decoy of the auto-constructed decoy set.
    """

    protocol: str
    start_km: float
    stop_km: float
    step_km: float
    mu: Union[float, str]
    channel: ChannelParams
    nu3: float = DEFAULT_NU3

    def __post_init__(self):
        _check_request(self.protocol, self.mu)
        _grid_points(self.start_km, self.stop_km, self.step_km)


def rate_at(
    protocol: str,
    mu: Union[float, str],
    channel: ChannelParams,
    distance_km: float,
    nu3: float = DEFAULT_NU3,
) -> KeyRatePoint:
    """Secure key rate of one protocol, elementwise in distance.

    For an array of distances the returned point holds arrays of that shape.
    A number is evaluated as a one-element array, with the same arithmetic.
    """
    _check_request(protocol, mu)
    distances = np.atleast_1d(np.asarray(distance_km, dtype=float))
    params = channel.at_distance(distances)
    if protocol in DECOY_RATES:
        intensities = construct_intensity_set(mu, nu3)
        tallies = synthesize_tallies(intensities, params)
        bounds = estimate_photon_bounds(tallies, intensities)
        rate = DECOY_RATES[protocol](tallies.row(-1), bounds, params.f_ec)
    else:
        if mu == OPTIMAL_MU:
            # where the transmittance underflows to 0 no signal arrives: send none
            eta = transmittance(params)
            arrives = eta > 0
            mu = np.where(arrives, optimal_mu_sarg04(np.where(arrives, eta, 1.0)), 0.0)
        signal = honest_tally(mu, params)
        q0 = params.y0 * np.exp(-mu)
        rate = rate_sarg04_worst(signal, q0, untagged_fraction(signal, mu))
    mus = np.full(distances.shape, mu)
    if np.ndim(distance_km) == 0:
        return KeyRatePoint(protocol, distance_km, float(mus[0]), float(rate[0]))
    return KeyRatePoint(protocol, distances, mus, rate)


def sweep(spec: SweepSpec) -> list[KeyRatePoint]:
    """Evaluate the rate on the requested distance grid, in distance order."""
    count = _grid_points(spec.start_km, spec.stop_km, spec.step_km)
    distances = spec.start_km + np.arange(count) * spec.step_km
    grid = rate_at(spec.protocol, spec.mu, spec.channel, distances, spec.nu3)
    columns = distances.tolist(), grid.mu.tolist(), grid.rate.tolist()
    return list(map(KeyRatePoint, repeat(spec.protocol), *columns))


def _cutoff_km(protocol: str, rates: Callable[[np.ndarray], np.ndarray]) -> float:
    """Largest distance at which ``rates(distance array)`` is strictly positive.

    Scans a COARSE_STEP_KM grid for the first non-positive rate, then bisects
    the bracket before it down to RESOLUTION_KM. A halving can only land on the
    lattice that splits the bracket into 2^k steps, so that lattice is evaluated
    in one call and the halvings are replayed on it.

    That is two calls; a third only while the rate is still positive at
    FIRST_SCAN_KM, because the scan evaluates its grid past FIRST_SCAN_KM only
    then. So where an earlier coarse point is not secure, the points past
    FIRST_SCAN_KM are not evaluated and raise nothing.
    """
    grid = np.arange(0.0, SCAN_LIMIT_KM + COARSE_STEP_KM, COARSE_STEP_KM)
    first = int(FIRST_SCAN_KM / COARSE_STEP_KM) + 1
    secure = rates(grid[:first]) > 0
    if secure.all():
        secure = np.concatenate((secure, rates(grid[first:]) > 0))
    if not secure[0]:
        raise NeverSecureError(f"{protocol} has no positive rate even at zero distance")
    end = int(np.argmin(secure))
    if secure[end]:
        raise ScanLimitError(f"rate still positive at the {grid[-1]} km scan limit")

    steps = 2 ** math.ceil(math.log2(COARSE_STEP_KM / RESOLUTION_KM))
    lattice = grid[end - 1] + np.arange(steps + 1) * (COARSE_STEP_KM / steps)
    secure = rates(lattice) > 0
    lo, hi = 0, steps
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if secure[mid] else (lo, mid)
    return float(0.5 * (lattice[lo] + lattice[hi]))


def max_secure_distance(
    protocol: str,
    mu: Union[float, str],
    channel: ChannelParams,
    nu3: float = DEFAULT_NU3,
) -> float:
    """Largest distance with a strictly positive rate, to RESOLUTION_KM."""
    return _cutoff_km(protocol, lambda grid: rate_at(protocol, mu, channel, grid, nu3).rate)


def exact_ceiling_km(protocol: str, mu: float, channel: ChannelParams) -> float:
    """Cutoff of a decoy protocol's rate with ``exact_bounds`` in place of the
    decoy bounds: no conservative cutoff lies beyond it, up to RESOLUTION_KM."""
    _check_request(protocol, mu)
    if protocol not in DECOY_RATES:
        raise ValueError(f"the exact-statistics ceiling needs a decoy protocol, got {protocol!r}")

    def rates(distances):
        params = channel.at_distance(distances)
        signal = honest_tally(mu, params)
        return DECOY_RATES[protocol](signal, exact_bounds(mu, params), params.f_ec)

    return _cutoff_km(protocol, rates)
