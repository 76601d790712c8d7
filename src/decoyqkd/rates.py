"""Secure key generation rate formulas for the three compared protocols.

All rates are in secret bits per sent pulse and may be negative, which
means no secure key can be distilled at that operating point. Nothing is
floored so that zero crossings can be located.

Protocols:
    bb84-decoy          sifting 1/2, key from the single-photon fraction.
    sarg04-no-decoy     sifting 1/4, worst-case untagged-fraction analysis.
    nonorthogonal-decoy sifting 1/4, key from the vacuum, single-photon,
                        and two-photon fractions bounded via decoy states.

Every formula is elementwise in distance: tallies and bounds whose fields
are arrays over distances give a rate array of the same shape. The optimal
SARG04 intensity is solved the same way, by a fixed number of Newton steps.

The signal tally and the bounds of one decoy rate call must have one shape:
one entropy call takes E_mu and the e_nU stacked, so a number tally with
array bounds raises numpy's ValueError and is not broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import PhotonBounds
from .channel import ObservedTally

PROTOCOLS = ("bb84-decoy", "sarg04-no-decoy", "nonorthogonal-decoy")


@dataclass(slots=True)
class KeyRatePoint:
    """Rate of one protocol at one distance, or arrays of them over a distance array.

    Not frozen: a sweep builds one per distance, and a frozen dataclass sets
    each field through object.__setattr__, several times slower.
    """

    protocol: str
    distance_km: float
    mu: float
    rate: float


def _in_unit_interval(x: np.ndarray) -> bool:
    """Whether every element of ``x`` lies in [0, 1]: False if any is NaN, True if
    there is none (the identities of the two reductions)."""
    low = np.minimum.reduce(x, None, initial=np.inf)
    return low >= 0 and np.maximum.reduce(x, None, initial=-np.inf) <= 1


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H2(x) = -x log2 x - (1-x) log2 (1-x), in bits.

    Elementwise; H2(0) = H2(1) = 0 by continuous extension.
    """
    x = np.asarray(x, dtype=float)
    if not _in_unit_interval(x):
        raise ValueError(f"binary entropy argument must be in [0, 1], got {x}")
    inner = (x > 0.0) & (x < 1.0)
    # the endpoints take the value 1/2 in the logs and are then overwritten
    safe = np.where(inner, x, 0.5)
    other = 1.0 - safe
    return np.where(inner, -safe * np.log2(safe) - other * np.log2(other), 0.0)[()]


def rate_bb84_decoy(signal_tally: ObservedTally, bounds: PhotonBounds, f_ec: float) -> float:
    """Decoy-state BB84 rate from the single-photon bound.

    S = (1/2) { -Q_mu f H2(E_mu) + Q1L [1 - H2(e1U)] }

    E_mu and e1U have one shape: one entropy call takes both, stacked.
    """
    h_mu, h_1 = binary_entropy(np.array((signal_tally.qber, np.minimum(bounds.e1_upper, 0.5))))
    cost = signal_tally.gain * f_ec * h_mu
    gain = bounds.q1_lower * (1.0 - h_1)
    return 0.5 * (gain - cost)


#: untagged_fraction takes the tagged probability from its series below this mu.
_SERIES_MU = 5e-4


def untagged_fraction(signal_tally: ObservedTally) -> float:
    """Worst-case fraction of detections from pulses with at most two photons.

    mu is the tally's intensity. Every pulse carrying three or more photons
    (probability 1 - (1 + mu + mu^2/2) e^(-mu)) is assumed to produce a
    detection, so

        Omega = 1 - [1 - (1 + mu + mu^2/2) e^(-mu)] / Q_mu.

    Omega can go negative under heavy loss, in which case no detection can
    be attributed to an untagged pulse.

    Below mu = 5e-4 the tagged probability, about mu^3/6, cancels in that
    form to a relative error of 1e-5 or worse, so it is taken from the series
    e^(-mu) mu^3/6 (1 + mu/4 + mu^2/20 + mu^3/120 + mu^4/840), whose first
    omitted term is mu^5/6720 of it.
    """
    if np.count_nonzero(signal_tally.gain <= 0):
        raise ValueError("untagged fraction is undefined at zero gain")
    mu = signal_tally.intensity
    decay = np.exp(-mu)
    tagged = 1.0 - (1.0 + mu + mu**2 / 2.0) * decay
    weak = mu < _SERIES_MU
    if np.count_nonzero(weak):  # the series only where some element needs it
        series = 1.0 + mu / 4.0 + mu**2 / 20.0 + mu**3 / 120.0 + mu**4 / 840.0
        tagged = np.where(weak, decay * mu**3 / 6.0 * series, tagged)
    with np.errstate(over="ignore"):  # a gain near the float floor: Omega = -inf is the limit
        return 1.0 - tagged / signal_tally.gain


def rate_sarg04_worst(signal_tally: ObservedTally, q0: float, omega: float) -> float:
    """Worst-case SARG04 rate without decoy states.

    S = (1/4) { -Q_mu H2(E_mu) + Q0 + Omega Q_mu [1 - H2(E_mu / Omega)] }

    The error-correction factor is taken as 1 here. The untagged term is
    dropped when Omega <= 0; the entropy argument E_mu / Omega is capped
    at 1/2. Omega has the shape of the tally's fields, or is a number.
    """
    q_mu = signal_tally.gain
    untagged = omega > 0
    omega = np.where(untagged, omega, 1.0)  # dropped ones, -inf too, are overwritten below
    capped = np.minimum(signal_tally.qber / omega, 0.5)
    h_mu, h_capped = binary_entropy(np.array((signal_tally.qber, capped)))
    cost = q_mu * h_mu
    untagged_term = np.where(untagged, omega * q_mu * (1.0 - h_capped), 0.0)
    return 0.25 * (q0 + untagged_term - cost)


#: optimal_mu_sarg04 reports the midpoint of the cell that holds the root,
#: among the 2^41 equal cells of (1e-15, 2).
_MU_LO = 1e-15
_MU_CELL = (2.0 - _MU_LO) / 2**41
_NEWTON_STEPS = 5
#: mu^2 e^(-mu) at mu = 1e-15, the second term of the doubled residual there.
_LO_DECAY = _MU_LO**2 * float(np.exp(-_MU_LO))
#: From this transmittance on, the doubled residual at 1e-15 is positive:
#: 2 eta e^(-eta 1e-15) >= 2e-30 e^(-1e-15), twice _LO_DECAY.
_TINY_ETA = 1e-30


def optimal_mu_sarg04(eta: float) -> float:
    """Signal intensity maximizing the untagged gain, for transmittance eta in [0, 1].

    The untagged gain Omega Q_mu = Y0 + 1 - e^(-eta mu) - P(n >= 3) is
    largest where eta e^(-eta mu) = (1/2) mu^2 e^(-mu), elementwise in eta.
    That root tracks the optimum of the worst-case no-decoy SARG04 rate only
    for eta << 1, where it approaches sqrt(2 eta). It is
    mu = -W0(-k sqrt(2 eta)) / k with k = (1 - eta)/2 (Lambert W, principal
    branch; Corless et al. 1996), computed without W by Newton's method on
    the concave log form ln mu - k mu - ln sqrt(2 eta) = 0. From sqrt(2 eta)
    the iterates rise monotonically to the root, and 5 steps bring the log
    residual to round-off on all of (0, 1].

    The root is then snapped to the midpoint of its cell of width
    (2 - 1e-15) / 2^41 in (1e-15, 2). That is the value a bisection of the
    interval to 1e-12 returns, up to the rounding of its midpoints (a few
    ulps), so outputs recorded from such a bisection keep their printed
    digits; the unsnapped root moves them. Below a transmittance of about
    5e-31 the root lies under 1e-15, where mu^2 = 2 eta e^((1 - eta) mu) is
    sqrt(2 eta) to double precision: 0 at eta = 0, where no signal arrives.
    """
    eta = np.asarray(eta, dtype=float)
    if not _in_unit_interval(eta):
        raise ValueError(f"transmittance must be in [0, 1], got {eta}")
    two_eta = 2.0 * eta
    k = 0.5 * (1.0 - eta)
    mu = start = root = np.sqrt(two_eta)
    # the residual eta e^(-eta mu) - (1/2) mu^2 e^(-mu), doubled, is negative
    # at 1e-15 where the root lies below it; Newton solves for 1e-15 there.
    # That takes an eta below _TINY_ETA, so it is tested only if some eta is
    near_zero = np.count_nonzero(eta < _TINY_ETA)
    if near_zero:
        tiny = two_eta * np.exp(-eta * _MU_LO) - _LO_DECAY < 0
        mu = start = np.where(tiny, _MU_LO, root)
    log_target = np.log(start)
    for _ in range(_NEWTON_STEPS):
        k_mu = k * mu
        mu = mu - mu * (np.log(mu) - k_mu - log_target) / (1.0 - k_mu)
    # a root within round-off under 1e-15 still belongs to the first cell
    cell = np.maximum(np.floor((mu - _MU_LO) / _MU_CELL), 0.0)
    mu = _MU_LO + (cell + 0.5) * _MU_CELL
    if near_zero:
        mu = np.where(tiny, root, mu)
    return mu[()]


def rate_nonorthogonal_decoy(
    signal_tally: ObservedTally, bounds: PhotonBounds, f_ec: float
) -> float:
    """Decoy-state rate with nonorthogonal encoding.

    S = (1/4) { -Q_mu f H2(E_mu) + Q0 + Q1L [1 - H2(e1U)] + Q2L [1 - H2(e2U)] }

    Unlike BB84, the vacuum and two-photon fractions also contribute key.
    E_mu, e1U and e2U have one shape: one entropy call takes all three, stacked.
    """
    errors = np.array((signal_tally.qber, bounds.e1_upper, bounds.e2_upper))
    bounded = errors[1:]  # e1U and e2U, capped at 1/2 in place
    np.minimum(bounded, 0.5, out=bounded)
    h_mu, h_1, h_2 = binary_entropy(errors)
    cost = signal_tally.gain * f_ec * h_mu
    gain_1 = bounds.q1_lower * (1.0 - h_1)
    gain_2 = bounds.q2_lower * (1.0 - h_2)
    return 0.25 * (bounds.q0 + gain_1 + gain_2 - cost)


#: The rate formula of each decoy protocol, from the signal tally and photon
#: bounds. The other protocol, sarg04-no-decoy, takes no decoy bounds.
DECOY_RATES = {"bb84-decoy": rate_bb84_decoy, "nonorthogonal-decoy": rate_nonorthogonal_decoy}
