"""Secure key generation rate formulas for the three compared protocols.

All rates are in secret bits per sent pulse and may be negative, which
means no secure key can be distilled at that operating point. Nothing is
floored so that zero crossings can be located.

The three protocols share one formula, ``_secure_rate``'s, with each e_i
capped at 1/2; its key terms (g_i, e_i) are single-photon (Q1L, e1U),
two-photon (Q2L, e2U) or untagged (Omega Q_mu, E_mu / Omega):

    S = sifting { Q0 + sum_i g_i [1 - H2(e_i)] - Q_mu f H2(E_mu) }

    protocol             sifting  Q0   key terms                    f
    bb84-decoy           1/2      0    single-photon                f_ec
    nonorthogonal-decoy  1/4      Q0   single- and two-photon       f_ec
    sarg04-no-decoy      1/4      Q0   untagged, where Omega > 0    1

Every formula is elementwise in distance: tallies and bounds whose fields
are arrays over distances give a rate array of the same shape. The optimal
SARG04 intensity is solved the same way, by a fixed number of Newton steps.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .bounds import PhotonBounds
from .channel import HALF, ONE, QUARTER, TWO, ZERO, ObservedTally, ParameterError
from .channel import as_real, read_only, within

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


#: The smallest subnormal float: np.maximum(x, _TINY) is x for every x in
#: (0, 1], and lifts 0 to a number whose log is finite.
_TINY = read_only(np.array(5e-324))
_FLOAT64 = np.dtype(float)


def _unit_interval(x, message: str) -> np.ndarray:
    """``x`` as float64 if every element is a real number in [0, 1], else
    ValueError(message.format(x)), with x the float64 form where it is real.

    A float64 array, as the rate chain passes, goes straight to the range test.
    """
    if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
        try:  # as_real parses no text, unlike np.asarray(x, dtype=float); its message is unused
            x = np.asarray(as_real(x, ""), dtype=float)
        except ParameterError:
            raise ValueError(message.format(x)) from None
    if not within(x, 0.0, 1.0):
        raise ValueError(message.format(x))
    return x


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H2(x) = -x log2 x - (1-x) log2 (1-x), in bits.

    Elementwise; H2(0) = H2(1) = 0 by continuous extension.
    """
    x = _unit_interval(x, "binary entropy argument must be in [0, 1], got {}")
    other = ONE - x
    # at x = 0 or 1 a zero factor meets the finite log of _TINY: both terms
    # are signed zeros and H2 is +0.0; inside (0, 1) the logs take x and 1 - x
    return (-x * np.log2(np.maximum(x, _TINY)) - other * np.log2(np.maximum(other, _TINY)))[()]


def _secure_rate(sifting, signal_tally: ObservedTally, f_ec, q0, gains, errors) -> float:
    """sifting { q0 + sum_i gains[i] [1 - H2(errors[i])] - Q_mu f_ec H2(E_mu) },
    each error rate capped at 1/2 and each key term added to q0 in turn.

    The signal tally and every term of one call must have one shape: one
    entropy call takes E_mu and the error rates stacked, so a number tally
    with array terms raises numpy's ValueError and is not broadcast.
    """
    stacked = np.array((signal_tally.qber, *errors))
    bounded = stacked[1:]  # the error rates, capped at 1/2 in place
    np.minimum(bounded, HALF, out=bounded)
    h_mu, *entropies = binary_entropy(stacked)
    key = sum((gain * (ONE - entropy) for gain, entropy in zip(gains, entropies)), q0)
    return sifting * (key - signal_tally.gain * f_ec * h_mu)


def rate_bb84_decoy(signal_tally: ObservedTally, bounds: PhotonBounds, f_ec: float) -> float:
    """Decoy-state BB84 rate from the single-photon bound.

    S = (1/2) { -Q_mu f H2(E_mu) + Q1L [1 - H2(e1U)] }
    """
    return _secure_rate(HALF, signal_tally, f_ec, ZERO, (bounds.q1_lower,), (bounds.e1_upper,))


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
    smallest = np.minimum.reduce(signal_tally.gain, None, initial=1)  # 1: a gain may be an int
    if smallest <= 0:
        raise ValueError("untagged fraction is undefined at zero gain")
    mu = signal_tally.intensity
    decay = np.exp(-mu)
    # literals, not 0-d arrays: at a fixed intensity mu is a number, and numbers are quicker
    tagged = 1.0 - (1.0 + mu + mu**2 / 2.0) * decay
    weak = mu < _SERIES_MU
    if np.count_nonzero(weak):  # the series only where some element needs it
        series = 1.0 + mu / 4.0 + mu**2 / 20.0 + mu**3 / 120.0 + mu**4 / 840.0
        tagged = np.where(weak, decay * mu**3 / 6.0 * series, tagged)
    # tagged <= 1, so a normal gain keeps tagged / gain below 4.5e307; a
    # subnormal one can overflow it, and Omega = -inf is then the limit
    if smallest >= sys.float_info.min:
        return ONE - tagged / signal_tally.gain
    with np.errstate(over="ignore"):
        return ONE - tagged / signal_tally.gain


def rate_sarg04_worst(signal_tally: ObservedTally, q0: float, omega: float) -> float:
    """Worst-case SARG04 rate without decoy states.

    S = (1/4) { -Q_mu H2(E_mu) + Q0 + Omega Q_mu [1 - H2(E_mu / Omega)] }

    The error-correction factor is taken as 1 here. The untagged term is
    dropped when Omega <= 0; the entropy argument E_mu / Omega is capped
    at 1/2. Omega has the shape of the tally's fields, or is a number.
    """
    untagged = omega > ZERO
    omega = np.where(untagged, omega, ONE)  # dropped ones, -inf too, credit nothing below
    gain = np.where(untagged, omega * signal_tally.gain, ZERO)
    return _secure_rate(QUARTER, signal_tally, ONE, q0, (gain,), (signal_tally.qber / omega,))


#: optimal_mu_sarg04 reports the midpoint of the cell that holds the root,
#: among the 2^41 equal cells of (1e-15, 2).
_MU_LO = read_only(np.array(1e-15))
_MU_CELL = read_only(np.array((2.0 - _MU_LO) / 2**41))
_NEWTON_STEPS = 5
#: mu^2 e^(-mu) at mu = 1e-15, the second term of the doubled residual there.
_LO_DECAY = float(_MU_LO**2 * np.exp(-_MU_LO))
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
    eta = _unit_interval(eta, "transmittance must be in [0, 1], got {}")
    two_eta = TWO * eta
    k = HALF * (ONE - eta)
    mu = start = root = np.sqrt(two_eta)
    # the residual eta e^(-eta mu) - (1/2) mu^2 e^(-mu), doubled, is negative
    # at 1e-15 where the root lies below it; Newton solves for 1e-15 there.
    # That takes an eta below _TINY_ETA, so it is tested only if some eta is
    near_zero = np.minimum.reduce(eta, None, initial=1.0) < _TINY_ETA
    if near_zero:
        tiny = two_eta * np.exp(-eta * _MU_LO) - _LO_DECAY < 0
        mu = start = np.where(tiny, _MU_LO, root)
    log_target = np.log(start)
    for _ in range(_NEWTON_STEPS):
        k_mu = k * mu
        mu = mu - mu * (np.log(mu) - k_mu - log_target) / (ONE - k_mu)
    # a root within round-off under 1e-15 still belongs to the first cell
    cell = np.maximum(np.floor((mu - _MU_LO) / _MU_CELL), ZERO)
    mu = _MU_LO + (cell + HALF) * _MU_CELL
    if near_zero:
        mu = np.where(tiny, root, mu)
    return mu[()]


def rate_nonorthogonal_decoy(
    signal_tally: ObservedTally, bounds: PhotonBounds, f_ec: float
) -> float:
    """Decoy-state rate with nonorthogonal encoding.

    S = (1/4) { -Q_mu f H2(E_mu) + Q0 + Q1L [1 - H2(e1U)] + Q2L [1 - H2(e2U)] }

    Unlike BB84, the vacuum and two-photon fractions also contribute key.
    """
    gains, errors = (bounds.q1_lower, bounds.q2_lower), (bounds.e1_upper, bounds.e2_upper)
    return _secure_rate(QUARTER, signal_tally, f_ec, bounds.q0, gains, errors)


#: The rate formula of each decoy protocol, from the signal tally and photon
#: bounds. The other protocol, sarg04-no-decoy, takes no decoy bounds.
DECOY_RATES = {"bb84-decoy": rate_bb84_decoy, "nonorthogonal-decoy": rate_nonorthogonal_decoy}
