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
are arrays over distances give a rate array of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import PhotonBounds
from .channel import ObservedTally
from .roots import bisect_root

PROTOCOL_BB84_DECOY = "bb84-decoy"
PROTOCOL_SARG04_NO_DECOY = "sarg04-no-decoy"
PROTOCOL_NONORTHOGONAL_DECOY = "nonorthogonal-decoy"
PROTOCOLS = (PROTOCOL_BB84_DECOY, PROTOCOL_SARG04_NO_DECOY, PROTOCOL_NONORTHOGONAL_DECOY)

#: Sifting efficiencies: half of BB84 detections survive basis
#: reconciliation; a quarter survive SARG04 pair announcement.
SIFTING = {
    PROTOCOL_BB84_DECOY: 0.5,
    PROTOCOL_SARG04_NO_DECOY: 0.25,
    PROTOCOL_NONORTHOGONAL_DECOY: 0.25,
}


@dataclass(frozen=True)
class KeyRatePoint:
    """Rate of one protocol at one distance, or arrays of them over a distance array."""

    protocol: str
    distance_km: float
    mu: float
    rate: float


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H2(x) = -x log2 x - (1-x) log2 (1-x), in bits.

    Elementwise; H2(0) = H2(1) = 0 by continuous extension.
    """
    x = np.asarray(x, dtype=float)
    if not ((x >= 0.0) & (x <= 1.0)).all():
        raise ValueError(f"binary entropy argument must be in [0, 1], got {x}")
    inner = (x > 0.0) & (x < 1.0)
    # the endpoints take the value 1/2 in the logs and are then overwritten
    safe = np.where(inner, x, 0.5)
    return np.where(inner, -safe * np.log2(safe) - (1.0 - safe) * np.log2(1.0 - safe), 0.0)[()]


def rate_bb84_decoy(signal_tally: ObservedTally, bounds: PhotonBounds, f_ec: float) -> float:
    """Decoy-state BB84 rate from the single-photon bound.

    S = (1/2) { -Q_mu f H2(E_mu) + Q1L [1 - H2(e1U)] }
    """
    cost = signal_tally.gain * f_ec * binary_entropy(signal_tally.qber)
    gain = bounds.q1_lower * (1.0 - binary_entropy(np.minimum(bounds.e1_upper, 0.5)))
    return SIFTING[PROTOCOL_BB84_DECOY] * (gain - cost)


def untagged_fraction(signal_tally: ObservedTally, mu: float) -> float:
    """Worst-case fraction of detections from pulses with at most two photons.

    Every pulse carrying three or more photons (probability
    1 - (1 + mu + mu^2/2) e^(-mu)) is assumed to produce a detection, so

        Omega = 1 - [1 - (1 + mu + mu^2/2) e^(-mu)] / Q_mu.

    Omega can go negative under heavy loss, in which case no detection can
    be attributed to an untagged pulse.
    """
    if np.count_nonzero(signal_tally.gain <= 0):
        raise ValueError("untagged fraction is undefined at zero gain")
    tagged = 1.0 - (1.0 + mu + mu**2 / 2.0) * np.exp(-mu)
    return 1.0 - tagged / signal_tally.gain


def rate_sarg04_worst(signal_tally: ObservedTally, q0: float, omega: float) -> float:
    """Worst-case SARG04 rate without decoy states.

    S = (1/4) { -Q_mu H2(E_mu) + Q0 + Omega Q_mu [1 - H2(E_mu / Omega)] }

    The error-correction factor is taken as 1 here. The untagged term is
    dropped when Omega <= 0; the entropy argument E_mu / Omega is capped
    at 1/2.
    """
    q_mu = signal_tally.gain
    cost = q_mu * binary_entropy(signal_tally.qber)
    untagged = omega > 0
    # the dropped elements divide by 1 and are then overwritten
    capped = np.minimum(signal_tally.qber / np.where(untagged, omega, 1.0), 0.5)
    untagged_term = np.where(untagged, omega * q_mu * (1.0 - binary_entropy(capped)), 0.0)
    return SIFTING[PROTOCOL_SARG04_NO_DECOY] * (q0 + untagged_term - cost)


def optimal_mu_sarg04(eta: float) -> float:
    """Signal intensity maximizing the worst-case no-decoy SARG04 rate.

    Solves eta e^(-eta mu) = (1/2) mu^2 e^(-mu) by bisection on (1e-15, 2) to
    1e-12, elementwise in eta; for eta << 1 the root approaches sqrt(2 eta).
    Below a transmittance of about 5e-31 the root lies under 1e-15, where
    mu^2 = 2 eta e^((1 - eta) mu) is sqrt(2 eta) to double precision.
    """
    eta = np.asarray(eta, dtype=float)
    if not ((eta > 0) & (eta <= 1)).all():
        raise ValueError(f"transmittance must be in (0, 1], got {eta}")
    neg_eta, two_eta = -eta, 2.0 * eta

    def residual(mu):
        # twice the residual; doubling is exact, so its signs and zeros,
        # all that the bisection reads, are those of the residual
        return two_eta * np.exp(neg_eta * mu) - mu**2 * np.exp(-mu)

    lo = np.full(eta.shape, 1e-15)
    # roots under 1e-15 are bracketed from 0 (residual 2 eta > 0) only so that the
    # bisection runs; their result is sqrt(2 eta)
    tiny = residual(lo) < 0
    lo[tiny] = 0.0
    return np.where(tiny, np.sqrt(two_eta), bisect_root(residual, lo, np.full(eta.shape, 2.0)))[()]


def rate_nonorthogonal_decoy(
    signal_tally: ObservedTally, bounds: PhotonBounds, f_ec: float
) -> float:
    """Decoy-state rate with nonorthogonal encoding.

    S = (1/4) { -Q_mu f H2(E_mu) + Q0 + Q1L [1 - H2(e1U)] + Q2L [1 - H2(e2U)] }

    Unlike BB84, the vacuum and two-photon fractions also contribute key.
    """
    cost = signal_tally.gain * f_ec * binary_entropy(signal_tally.qber)
    gain_1 = bounds.q1_lower * (1.0 - binary_entropy(np.minimum(bounds.e1_upper, 0.5)))
    gain_2 = bounds.q2_lower * (1.0 - binary_entropy(np.minimum(bounds.e2_upper, 0.5)))
    return SIFTING[PROTOCOL_NONORTHOGONAL_DECOY] * (bounds.q0 + gain_1 + gain_2 - cost)
