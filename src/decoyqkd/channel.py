"""Honest fiber-channel model for weak-coherent-pulse QKD.

All observables used by the estimation and rate modules come from this
model: a Poisson photon-number source, exponential fiber loss, a constant
misalignment error, and random dark counts (error rate 1/2).

The channel functions are elementwise in distance: ``distance_km`` may be
an array, and every observable then has its shape.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np


class ParameterError(ValueError):
    """A physical parameter is outside its allowed range."""


class UndefinedQberError(ValueError):
    """QBER requested for a pulse class with zero gain."""


def _holds(ok) -> bool:
    """Whether a test holds at every element (``ok`` is a bool or a boolean array)."""
    return bool(ok.all() if isinstance(ok, np.ndarray) else ok)


@dataclass(frozen=True)
class ChannelParams:
    """Fiber link, detector, and post-processing parameters, all finite.

    Attributes:
        alpha_db_per_km: fiber attenuation in dB/km.
        distance_km: fiber length in km, a number or an array of lengths.
        eta_bob: receiver detection efficiency, in (0, 1].
        y0: background (dark-count) yield per pulse.
        e_det: misalignment error probability, in [0, 0.5].
        f_ec: error-correction inefficiency factor, >= 1.
    """

    alpha_db_per_km: float
    distance_km: float
    eta_bob: float
    y0: float
    e_det: float
    f_ec: float

    def __post_init__(self):
        largest = sys.float_info.max
        # NaN lies in no [low, high]; nextafter makes a closed end an open one
        for name, low, high, requirement in (
            ("alpha_db_per_km", 0.0, largest, "finite and >= 0"),
            ("distance_km", 0.0, largest, "finite and >= 0"),
            ("eta_bob", math.nextafter(0.0, 1.0), 1.0, "in (0, 1]"),
            ("y0", 0.0, math.nextafter(1.0, 0.0), "in [0, 1)"),
            ("e_det", 0.0, 0.5, "in [0, 0.5]"),
            ("f_ec", 1.0, largest, "finite and >= 1"),
        ):
            value = getattr(self, name)
            if not _holds((value >= low) & (value <= high)):
                raise ParameterError(f"{name} must be {requirement}")

    def at_distance(self, distance_km: float) -> "ChannelParams":
        """Same link evaluated at a different fiber length, or at an array of lengths."""
        return replace(self, distance_km=distance_km)


#: Experimental parameter set used for all numeric comparisons
#: (0.21 dB/km fiber, 3.3% misalignment, 1.7e-6 dark-count yield,
#: 4.5% receiver efficiency, error-correction inefficiency 1.22).
GYS = ChannelParams(
    alpha_db_per_km=0.21,
    distance_km=0.0,
    eta_bob=0.045,
    y0=1.7e-6,
    e_det=0.033,
    f_ec=1.22,
)

#: Dark counts are random, so the vacuum error rate is exactly 1/2.
E_VACUUM = 0.5


@dataclass(frozen=True)
class IntensitySet:
    """Signal and decoy mean photon numbers.

    Construction is permissive; use ``bounds.validate_intensities`` to
    enforce the ordering constraints the estimation formulas rely on.
    """

    mu: float
    nu1: float
    nu2: float
    nu3: float


@dataclass(frozen=True)
class ObservedTally:
    """Measured gain and QBER for one pulse class.

    ``gain`` is the probability per sent pulse that Bob registers a
    detection; ``qber`` is the error fraction among those detections. Each
    field may be an array over distances, and every element is checked.
    """

    intensity: float
    gain: float
    qber: float

    def __post_init__(self):
        if not _holds(self.intensity >= 0):
            raise ParameterError("intensity must be >= 0")
        if not _holds((self.gain >= 0) & (self.gain <= 1)):
            raise ParameterError("gain must be in [0, 1]")
        if not _holds((self.qber >= 0) & (self.qber <= 1)):
            raise ParameterError("qber must be in [0, 1]")


def poisson_weight(mu: float, n: int) -> float:
    """Probability that a pulse of mean photon number ``mu`` carries ``n`` photons.

    P_n(mu) = mu^n e^(-mu) / n!
    """
    if mu < 0:
        raise ParameterError("mean photon number must be >= 0")
    if n < 0 or n != int(n):
        raise ParameterError("photon count must be a non-negative integer")
    n = int(n)
    if mu == 0:
        return 1.0 if n == 0 else 0.0
    # log form avoids overflow in mu**n / n! for large n
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))


def transmittance(params: ChannelParams) -> float:
    """Overall single-photon transmission probability.

    eta = eta_bob * 10^(-alpha * distance / 10)
    """
    # np.power: ** on a Python float can round differently from the array loop
    return params.eta_bob * np.power(10.0, -params.alpha_db_per_km * params.distance_km / 10.0)


def honest_gain(intensity: float, params: ChannelParams) -> float:
    """Gain of a pulse class in the absence of an eavesdropper.

    Q = Y0 + 1 - e^(-eta * intensity)
    """
    return _gain(intensity, params, transmittance(params))


def honest_qber(intensity: float, params: ChannelParams) -> float:
    """QBER of a pulse class in the absence of an eavesdropper.

    E = [Y0/2 + e_det (1 - e^(-eta * intensity))] / Q

    Dark counts contribute at error rate 1/2; detected photons err with
    probability e_det.
    """
    eta = transmittance(params)
    return _qber(intensity, params, eta, _gain(intensity, params, eta))


def synthesize_tallies(intensities: IntensitySet, params: ChannelParams) -> list[ObservedTally]:
    """Honest-channel observables for vacuum, the three decoys, and the signal.

    Returned in ascending intensity: vacuum, nu3, nu2, nu1, mu.
    """
    eta = transmittance(params)
    tallies = [ObservedTally(0.0, _gain(0.0, params, eta), E_VACUUM)]
    for intensity in (intensities.nu3, intensities.nu2, intensities.nu1, intensities.mu):
        gain = _gain(intensity, params, eta)
        tallies.append(ObservedTally(intensity, gain, _qber(intensity, params, eta, gain)))
    return tallies


def _gain(intensity: float, params: ChannelParams, eta: float) -> float:
    if not _holds(intensity >= 0):
        raise ParameterError("intensity must be >= 0")
    # expm1 keeps the vacuum limit exact: Y0 + (1 - e^0) must be Y0, not
    # the round-off of (Y0 + 1) - 1
    return np.minimum(params.y0 - np.expm1(-eta * intensity), 1.0)


def _qber(intensity: float, params: ChannelParams, eta: float, gain: float) -> float:
    if np.count_nonzero(gain <= 0):
        raise UndefinedQberError("QBER is undefined at zero gain")
    return (E_VACUUM * params.y0 + params.e_det * (1.0 - np.exp(-eta * intensity))) / gain
