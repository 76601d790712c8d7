"""Brute-force per-photon-number statistics of the honest channel.

Independent of the estimation pipeline: yields and error rates are
computed photon number by photon number and Poisson-summed, so the decoy
bounds can be checked against the exact values they are supposed to
bracket.

Model: background and transmission are independent, so an n-photon pulse
is detected with probability Y_n = Y0 + 1 - (1 - eta)^n (capped at 1),
and its error weight is e_n Y_n = Y0/2 + e_det [1 - (1 - eta)^n]. The
Poisson average of this model reproduces the closed-form channel gain
and QBER to round-off only while the cap does not bite, that is while
Y0 + 1 - (1 - eta)^n <= 1 for every n of non-negligible Poisson weight.
Near eta = 1 with Y0 > 0 it bites: at eta = 1 the averaged gain falls
short of the closed form by Y0 (1 - e^(-mu)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import PhotonBounds
from .channel import (
    ChannelParams,
    E_VACUUM,
    ParameterError,
    UndefinedQberError,
    number_in,
    poisson_weight,
    transmittance,
)

#: Series truncation of reconstruct_gain (for mu <= 1 the dropped Poisson
#: tail is far below every tolerance used in this package), and points per
#: axis of each verify_bound_inequalities grid.
N_MAX = 50
GRID_SIZE = 100


@dataclass(frozen=True)
class ExactPhotonStats:
    """Exact yield, error rate, and gain of the n-photon pulse fraction, per distance."""

    detection_yield: float
    error_rate: float
    gain: float


def exact_stats(n: int, mu: float, params: ChannelParams) -> ExactPhotonStats:
    """Exact statistics for n-photon pulses out of a source of mean ``mu``, per distance.

    ``n`` and ``mu`` are each one number, as in ``poisson_weight``: anything else
    raises ParameterError, "photon number must be >= 0" for an n that is not a
    number >= 0 (NaN and an int that no float holds are none), and then
    ``poisson_weight``'s message.
    """
    if not number_in(n, 0.0, np.inf):
        raise ParameterError("photon number must be >= 0")
    # first, so that its checks of mu and of n as a count precede any arithmetic
    weight = poisson_weight(mu, n)
    eta = transmittance(params)
    # 1 - (1 - eta)^n without its cancellation to 0 below eta ~ 1e-16;
    # at eta = 1, log1p gives -inf and the hit is exactly 1
    with np.errstate(divide="ignore"):
        hit = -np.expm1(n * np.log1p(-eta)) if n else np.zeros(np.shape(eta))
    y_raw = params.y0 + hit
    # where no detection is possible, the error rate is that of a guess, 1/2
    detected = (y_raw > 0) & (n != 0)
    numerator = E_VACUUM * params.y0 + params.e_det * hit
    guess = np.full(np.shape(y_raw), E_VACUUM)
    error_rate = np.divide(numerator, y_raw, out=guess, where=detected)
    detection_yield = np.minimum(y_raw, 1.0)
    return ExactPhotonStats(detection_yield, error_rate[()], detection_yield * weight)


def exact_bounds(mu: float, params: ChannelParams) -> PhotonBounds:
    """The exact n = 0, 1, 2 statistics in place of the decoy bounds, elementwise
    in distance: no estimator whose bounds bracket them credits more key."""
    zero, one, two = (exact_stats(n, mu, params) for n in (0, 1, 2))
    return PhotonBounds(
        zero.detection_yield, E_VACUUM, zero.gain,
        one.detection_yield, one.error_rate, one.gain,
        two.detection_yield, two.gain, two.error_rate,
    )


def reconstruct_gain(mu: float, params: ChannelParams) -> tuple[float, float]:
    """Gain and QBER rebuilt from the per-photon-number series, elementwise in distance.

    Q = sum_n P_n(mu) Y_n,  E = sum_n P_n(mu) Y_n e_n / Q,  n = 0..N_MAX.

    Agrees with the closed-form channel model to round-off while no n of
    non-negligible Poisson weight has Y0 + 1 - (1 - eta)^n > 1, where
    exact_stats caps the yield at 1 (see the module docstring). As in
    ``honest_tally``, a vacuum source (mu = 0) has QBER 1/2 even at zero
    gain; any other source with zero gain raises ``UndefinedQberError``.
    """
    stats = [exact_stats(n, mu, params) for n in range(N_MAX + 1)]
    gain = np.sum([s.gain for s in stats], axis=0)
    if mu == 0:
        return gain, np.full(np.shape(gain), E_VACUUM)[()]
    if np.minimum.reduce(gain, None, initial=1) <= 0:
        raise UndefinedQberError("QBER is undefined at zero gain")
    return gain, np.sum([s.gain * s.error_rate for s in stats], axis=0) / gain


@dataclass(frozen=True)
class InequalityReport:
    """Grid-check results for the two power-difference lemmas."""

    lemma1_max_excess: float
    lemma2_max_excess: float
    counterexample_excess: float

    @property
    def all_hold(self) -> bool:
        return self.lemma1_max_excess <= 0 and self.lemma2_max_excess <= 0


def verify_bound_inequalities() -> InequalityReport:
    """Grid-check the inequalities the yield estimates rest on.

    Lemma 1: a^i - b^i <= a^2 - b^2 for 0 < b < a <= 2/3 and i in {2..10}.
    Lemma 2: a^i - b^i <= a^3 - b^3 for 0 < b < a <= 3/4 and i in {3..10}.

    Reports the largest value of (a^i - b^i) - (a^p - b^p) seen on each
    grid of GRID_SIZE points per axis (non-positive means the lemma holds),
    together with the excess for the out-of-domain point a=0.9, b=0.89,
    i=3, which violates the quadratic comparison and shows the domain cap
    is load-bearing.
    """

    def max_excess(limit: float, power: int, i_lo: int) -> float:
        a = np.linspace(limit / GRID_SIZE, limit, GRID_SIZE)
        b = a.copy()
        aa, bb = np.meshgrid(a, b, indexing="ij")
        mask = bb < aa
        worst = -np.inf
        base = aa**power - bb**power
        for i in range(i_lo, 10 + 1):
            excess = (aa**i - bb**i) - base
            worst = max(worst, float(excess[mask].max()))
        return worst

    a, b = 0.9, 0.89
    counterexample = (a**3 - b**3) - (a**2 - b**2)
    return InequalityReport(
        lemma1_max_excess=max_excess(2.0 / 3.0, 2, 2),
        lemma2_max_excess=max_excess(0.75, 3, 3),
        counterexample_excess=counterexample,
    )
