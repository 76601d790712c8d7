"""Rate-vs-distance sweeps, maximal secure distance, and intensity construction.

``rate_at`` is elementwise in distance: a sweep is one call over its grid,
and the cutoff search is two calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bounds import estimate_photon_bounds, validate_intensities
from .channel import (
    ChannelParams,
    IntensitySet,
    ObservedTally,
    _gain,
    _qber,
    synthesize_tallies,
    transmittance,
)
from .rates import (
    KeyRatePoint,
    PROTOCOL_BB84_DECOY,
    PROTOCOL_SARG04_NO_DECOY,
    PROTOCOLS,
    optimal_mu_sarg04,
    rate_bb84_decoy,
    rate_nonorthogonal_decoy,
    rate_sarg04_worst,
    untagged_fraction,
)

#: Default weakest decoy intensity. Small enough that the single-photon
#: error bound stays tight in the asymptotic regime and that nu3 < nu2
#: holds down to mu = 0.1 with the auto-constructed set.
DEFAULT_NU3 = 0.01

#: Largest number of points a sweep may have.
MAX_SWEEP_POINTS = 100_000

#: Cutoff search: a coarse scan from zero up to the scan limit, then a
#: bisection of the last bracket down to the resolution.
COARSE_STEP_KM = 5.0
RESOLUTION_KM = 0.1
SCAN_LIMIT_KM = 1000.0

#: Sentinel for per-distance optimization of the signal intensity
#: (sarg04-no-decoy only).
OPTIMAL_MU = "optimal"


class NeverSecureError(ValueError):
    """The requested protocol has no positive rate even at zero distance."""


def construct_intensity_set(mu: float, nu3: float = DEFAULT_NU3) -> IntensitySet:
    """Build a valid intensity set for a given signal intensity.

    Pins nu1 at its upper limit 3mu/4 (maximizing the nu1 - nu2 gap) and
    takes nu2 as the positive root of nu2^2 + nu1 nu2 + (nu1^2 - mu^2) = 0,
    which satisfies the cubic balance condition exactly. The result is
    fully validated.
    """
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
    """ValueError unless ``protocol`` is known and ``mu`` is a finite positive
    intensity, or ``"optimal"`` for sarg04-no-decoy."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    if isinstance(mu, str):
        if mu != OPTIMAL_MU:
            raise ValueError(f"mu must be a number or {OPTIMAL_MU!r}, got {mu!r}")
        if protocol != PROTOCOL_SARG04_NO_DECOY:
            raise ValueError("per-distance optimal mu is only defined for sarg04-no-decoy")
    elif not 0 < mu < math.inf:
        raise ValueError(f"mu must be finite and > 0, got {mu}")


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
    if protocol == PROTOCOL_SARG04_NO_DECOY:
        # honest_gain and honest_qber, sharing one transmittance and one gain
        eta = transmittance(params)
        if mu == OPTIMAL_MU:
            # where the transmittance underflows to 0 no signal arrives: send none
            mu = np.piecewise(eta, [eta > 0], [optimal_mu_sarg04])
        gain = _gain(mu, params, eta)
        signal = ObservedTally(mu, gain, _qber(mu, params, eta, gain))
        q0 = params.y0 * np.exp(-mu)
        rate = rate_sarg04_worst(signal, q0, untagged_fraction(signal, mu))
    else:
        intensities = construct_intensity_set(mu, nu3)
        tallies = synthesize_tallies(intensities, params)
        bounds = estimate_photon_bounds(tallies, intensities)
        if protocol == PROTOCOL_BB84_DECOY:
            rate = rate_bb84_decoy(tallies[-1], bounds, params.f_ec)
        else:
            rate = rate_nonorthogonal_decoy(tallies[-1], bounds, params.f_ec)
    mus = np.broadcast_to(mu, distances.shape)
    if np.ndim(distance_km) == 0:
        return KeyRatePoint(protocol, distance_km, float(mus[0]), float(rate[0]))
    return KeyRatePoint(protocol, distances, mus, rate)


def sweep(spec: SweepSpec) -> list[KeyRatePoint]:
    """Evaluate the rate on the requested distance grid, in distance order."""
    count = _grid_points(spec.start_km, spec.stop_km, spec.step_km)
    distances = spec.start_km + np.arange(count) * spec.step_km
    grid = rate_at(spec.protocol, spec.mu, spec.channel, distances, spec.nu3)
    return [
        KeyRatePoint(spec.protocol, d, mu, rate)
        for d, mu, rate in zip(distances.tolist(), grid.mu.tolist(), grid.rate.tolist())
    ]


def max_secure_distance(
    protocol: str,
    mu: Union[float, str],
    channel: ChannelParams,
    nu3: float = DEFAULT_NU3,
) -> float:
    """Largest distance with a strictly positive rate.

    Scans a COARSE_STEP_KM grid for the first non-positive rate, then bisects
    the bracket before it down to RESOLUTION_KM. A halving can only land on the
    lattice that splits the bracket into 2^k steps, so that lattice is evaluated
    in one call and the halvings are replayed on it.
    """
    grid = np.arange(0.0, SCAN_LIMIT_KM + COARSE_STEP_KM, COARSE_STEP_KM)
    secure = rate_at(protocol, mu, channel, grid, nu3).rate > 0
    if not secure[0]:
        raise NeverSecureError(f"{protocol} has no positive rate even at zero distance")
    end = int(np.argmin(secure))
    if secure[end]:
        raise ValueError(f"rate still positive at the {grid[-1]} km scan limit")

    steps = 2 ** math.ceil(math.log2(COARSE_STEP_KM / RESOLUTION_KM))
    lattice = grid[end - 1] + np.arange(steps + 1) * (COARSE_STEP_KM / steps)
    secure = rate_at(protocol, mu, channel, lattice, nu3).rate > 0
    lo, hi = 0, steps
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if secure[mid] else (lo, mid)
    return float(0.5 * (lattice[lo] + lattice[hi]))
