"""Rate-vs-distance sweeps, maximal secure distance, and intensity construction.

``rate_at`` evaluates a rate request, elementwise in distance, so a sweep
is one evaluation over its grid. ``max_secure_distance`` checks its request
and builds its intensity set once, then evaluates it two times: the coarse
scan up to FIRST_SCAN_KM and the lattice of the last secure step. The scan
takes a third, for the rest of its grid, only while the rate is still
positive at FIRST_SCAN_KM. The exact-statistics ceiling's search is the
same, on rates with the exact statistics in place of the decoy bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Union

import numpy as np

from .bounds import IntensityConstraintError, IntensitySet, estimate_photon_bounds
from .channel import (
    NUMBER,
    ZERO,
    ChannelParams,
    as_real,
    honest_tally,
    read_only,
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
#: lattice over the last secure step, finer than the resolution.
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

#: The coarse grid of the cutoff search, the number of its points up to
#: FIRST_SCAN_KM, and the offsets of the lattice that splits one coarse step
#: into 2^k steps of at most RESOLUTION_KM; read-only, shared by every search.
_COARSE_GRID = read_only(np.arange(0.0, SCAN_LIMIT_KM + COARSE_STEP_KM, COARSE_STEP_KM))
_FIRST_SCAN_POINTS = int(FIRST_SCAN_KM / COARSE_STEP_KM) + 1
_LATTICE_STEPS = 2 ** math.ceil(math.log2(COARSE_STEP_KM / RESOLUTION_KM))
_LATTICE_OFFSETS = read_only(np.arange(_LATTICE_STEPS + 1) * (COARSE_STEP_KM / _LATTICE_STEPS))

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
    which satisfies the cubic balance condition exactly. The set checks
    itself when built; a mu outside (0, MAX_MU] is rejected before any
    arithmetic, whose squares would overflow past about 1e154.
    """
    if not (isinstance(mu, NUMBER) and 0 < mu <= MAX_MU):
        raise IntensityConstraintError(f"mu must be > 0 and <= {MAX_MU:g}, got {mu}")
    nu1 = 0.75 * mu
    nu2 = 0.5 * (-nu1 + math.sqrt(4.0 * mu**2 - 3.0 * nu1**2))
    return IntensitySet(mu=mu, nu1=nu1, nu2=nu2, nu3=nu3)


def _grid_points(start_km: float, stop_km: float, step_km: float) -> int:
    """Number of points of the grid start:stop:step, checked before anything is allocated."""
    if not all(isinstance(v, NUMBER) and math.isfinite(v) for v in (start_km, stop_km, step_km)):
        raise ValueError(f"start, stop and step must be finite, got {start_km}:{stop_km}:{step_km}")
    if step_km <= 0:
        raise ValueError("step_km must be > 0")
    if start_km > stop_km:
        raise ValueError("start_km must be <= stop_km")
    span = (stop_km - start_km) / step_km + 1e-9
    if not span < MAX_SWEEP_POINTS:
        raise ValueError(f"{span + 1:.3g} sweep points exceed the limit of {MAX_SWEEP_POINTS}")
    return int(span) + 1


def _check_request(protocol: str, mu: Union[float, str], nu3: float) -> None:
    """ValueError unless ``protocol`` is known, ``mu`` is an intensity in
    (0, MAX_MU] or ``"optimal"`` for sarg04-no-decoy, and ``nu3`` is finite."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    if isinstance(mu, str):
        if mu != OPTIMAL_MU:
            raise ValueError(f"mu must be a number or {OPTIMAL_MU!r}, got {mu!r}")
        if protocol in DECOY_RATES:
            raise ValueError("per-distance optimal mu is only defined for sarg04-no-decoy")
    elif not (isinstance(mu, NUMBER) and 0 < mu <= MAX_MU):
        raise ValueError(f"mu must be > 0 and <= {MAX_MU:g}, got {mu}")
    if not (isinstance(nu3, NUMBER) and math.isfinite(nu3)):
        raise ValueError(f"nu3 must be finite, got {nu3}")


@dataclass(frozen=True)
class SweepSpec:
    """A rate-vs-distance sweep request.

    ``mu`` is either a fixed signal intensity or ``"optimal"`` to re-solve
    the optimal intensity at every distance (sarg04-no-decoy only).
    ``nu3``, finite, is the weakest decoy of the auto-constructed decoy set.
    """

    protocol: str
    start_km: float
    stop_km: float
    step_km: float
    mu: Union[float, str]
    channel: ChannelParams
    nu3: float = DEFAULT_NU3

    def __post_init__(self):
        _check_request(self.protocol, self.mu, self.nu3)
        _grid_points(self.start_km, self.stop_km, self.step_km)


def _prepare(
    protocol: str, mu: Union[float, str], channel: ChannelParams, nu3: float
) -> Callable[[np.ndarray], tuple]:
    """The checked request as a function from a distance array to (mu, rates),
    with mu the intensity, per distance for ``"optimal"``."""
    _check_request(protocol, mu, nu3)
    if protocol in DECOY_RATES:
        intensities = construct_intensity_set(mu, nu3)
        formula = DECOY_RATES[protocol]

        def evaluate(distances):
            params = channel.at_distance(distances)
            tallies = synthesize_tallies(intensities, params)
            bounds = estimate_photon_bounds(tallies, intensities)
            return mu, formula(tallies.row(-1), bounds, params.f_ec)

        return evaluate

    optimal = mu == OPTIMAL_MU
    # a fixed mu's e^-mu is one number per request
    exp_neg_mu = None if optimal else np.exp(-mu)

    def evaluate(distances):
        params = channel.at_distance(distances)
        signal_mu = optimal_mu_sarg04(transmittance(params)) if optimal else mu
        signal = honest_tally(signal_mu, params)
        q0 = params.y0 * (np.exp(-signal_mu) if optimal else exp_neg_mu)
        return signal_mu, rate_sarg04_worst(signal, q0, untagged_fraction(signal))

    return evaluate


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
    evaluate = _prepare(protocol, mu, channel, nu3)
    # float64; a str, or an int too large for a float (an object array), is rejected
    distances = as_real(np.atleast_1d(distance_km), "distance_km must be finite and >= 0")
    distances = distances.astype(float, copy=False)
    mu, rate = evaluate(distances)
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
    """Distance at which ``rates(distance array)`` first stops being strictly positive.

    Takes the first non-positive rate on a COARSE_STEP_KM grid, then on the
    lattice that splits the step before it into 2^k steps of at most
    RESOLUTION_KM, and returns the midpoint of the lattice step ending there.

    That is two calls; a third only while the rate is still positive at
    FIRST_SCAN_KM, because the scan evaluates its grid past FIRST_SCAN_KM only
    then. So where an earlier coarse point is not secure, the points past
    FIRST_SCAN_KM are not evaluated and raise nothing.
    """
    grid = _COARSE_GRID
    secure = rates(grid[:_FIRST_SCAN_POINTS]) > ZERO
    if np.logical_and.reduce(secure):
        secure = np.concatenate((secure, rates(grid[_FIRST_SCAN_POINTS:]) > ZERO))
    if not secure[0]:
        raise NeverSecureError(f"{protocol} has no positive rate even at zero distance")
    end = int(secure.argmin())
    if secure[end]:
        raise ScanLimitError(f"rate still positive at the {grid[-1]} km scan limit")

    lattice = grid[end - 1] + _LATTICE_OFFSETS
    end = int((rates(lattice) > ZERO).argmin())
    return float(0.5 * (lattice[end - 1] + lattice[end]))


def max_secure_distance(
    protocol: str,
    mu: Union[float, str],
    channel: ChannelParams,
    nu3: float = DEFAULT_NU3,
) -> float:
    """End of the first secure run from zero distance, to RESOLUTION_KM: the
    midpoint of the lattice step where the rate first stops being strictly
    positive (see ``_cutoff_km``); a later secure run does not move it."""
    evaluate = _prepare(protocol, mu, channel, nu3)
    return _cutoff_km(protocol, lambda distances: evaluate(distances)[1])


def exact_ceiling_km(protocol: str, mu: float, channel: ChannelParams) -> float:
    """Cutoff of a decoy protocol's rate with ``exact_bounds`` in place of the
    decoy bounds: no conservative cutoff lies beyond it, up to RESOLUTION_KM."""
    _check_request(protocol, mu, DEFAULT_NU3)
    if protocol not in DECOY_RATES:
        raise ValueError(f"the exact-statistics ceiling needs a decoy protocol, got {protocol!r}")

    def rates(distances):
        params = channel.at_distance(distances)
        signal = honest_tally(mu, params)
        return DECOY_RATES[protocol](signal, exact_bounds(mu, params), params.f_ec)

    return _cutoff_km(protocol, rates)
