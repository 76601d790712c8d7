"""Honest fiber-channel model for weak-coherent-pulse QKD.

All observables used by the estimation and rate modules come from this
model: a Poisson photon-number source, exponential fiber loss, a constant
misalignment error, and random dark counts (error rate 1/2). One function,
``honest_tally``, turns intensities into gains and QBERs; the five pulse
classes of ``synthesize_tallies`` are one call of it.

A link is one point: every ``ChannelParams`` field but the distance is a
number. The distance is the only axis: ``distance_km`` may be an array, and
every observable then has its shape broadcast with the intensity's.

The other modules share its read-only 0-d float64 operands ``ZERO``,
``QUARTER``, ``HALF``, ``ONE``, ``TWO`` and ``TEN``, its ``read_only`` for
constants and the one number rule for inputs: ``number_in`` (one real number
whose float64 value lies in [low, high]), ``within`` (every element of an array
in [low, high], a number by ``number_in``) and ``as_real`` (a real number or
array, a list or tuple as a float64 array). A number's range is judged on its
float64 value, so a float32 or float16 inf is rejected like a float inf, and an
int beyond the float range lies in no range. An intensity must be finite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .bounds import IntensitySet


class ParameterError(ValueError):
    """A physical parameter is outside its allowed range."""


class UndefinedQberError(ValueError):
    """QBER requested for a pulse class with zero gain."""


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, no longer writable: a constant shared by every call."""
    array.setflags(write=False)  # about half the cost of setting flags.writeable
    return array


#: Float64 operands of the package's array arithmetic, 0-d and read-only:
#: numpy converts a Python number again on every ufunc call that takes it, and
#: an array not at all. Under NEP 50 a Python float takes the other operand's
#: float type and a 0-d float64 array keeps its own, so against the package's
#: float64 and integer operands each gives the same bits as its number.
ZERO, QUARTER, HALF, ONE, TWO, TEN = (
    read_only(np.array(v)) for v in (0.0, 0.25, 0.5, 1.0, 2.0, 10.0)
)

#: The types of a real number; a str, which np.asarray would parse, is not one.
NUMBER = (int, float, np.integer, np.floating)

#: The numpy dtype kinds of a real array (bool, signed and unsigned int, float).
_REAL_KINDS = "biuf"
_FLOAT_MAX = sys.float_info.max
_FLOAT64 = np.dtype(float)


def number_in(x, low: float, high: float) -> bool:
    """Whether ``x`` is one real number (a ``NUMBER``) whose float64 value lies in
    [low, high]: False for NaN, an int beyond the float range and any other value.
    A float32 or float16 is compared as its float64 value, so its inf is inf."""
    if type(x) is not float:
        # no float holds an int beyond the float range, and float() raises on it;
        # any value that is no real number becomes NaN
        big_int = isinstance(x, int) and not -_FLOAT_MAX <= x <= _FLOAT_MAX
        x = float(x) if isinstance(x, NUMBER) and not big_int else math.nan
    return low <= x <= high  # NaN fails the chained test


def within(x, low: float, high: float) -> bool:
    """Whether every element of the real array ``x`` lies in [low, high]: False if
    any is NaN, True if there is none (the identities of the two reductions), and
    False for an array of text or objects. Any ``x`` that is not an array is
    judged by ``number_in``."""
    if not isinstance(x, np.ndarray):
        return number_in(x, low, high)
    if x.dtype is not _FLOAT64:
        if x.dtype.kind not in _REAL_KINDS:  # np.asarray would parse text
            return False
        x = np.asarray(x, dtype=float)  # initial=np.inf raises OverflowError on an int array
    smallest = np.minimum.reduce(x, None, initial=np.inf)
    return bool(smallest >= low and np.maximum.reduce(x, None, initial=-np.inf) <= high)


def as_real(value, message: str):
    """``value`` if a real number or array, a list or tuple of numbers as a float64
    array; any other value (a str, None, complex, object) raises
    ParameterError(message). An int beyond the float range is returned: it lies in
    no range of ``within``."""
    if type(value) in (list, tuple):
        value = np.array(value)  # not np.array(value, dtype=float), which parses a str
        value = value.astype(float) if value.dtype.kind in _REAL_KINDS else value
    real_array = isinstance(value, np.ndarray) and value.dtype.kind in _REAL_KINDS
    if real_array or isinstance(value, NUMBER):
        return value
    raise ParameterError(message)


#: The types of a field that takes an array, or a list or tuple, which becomes one.
_ARRAY_OR_NUMBER = (*NUMBER, np.ndarray, list, tuple)

#: Each ChannelParams field's accepted types and range (name, types, low, high,
#: requirement); nextafter opens a closed end. Only the distance takes an array.
_CHANNEL_RANGES = (
    ("alpha_db_per_km", NUMBER, 0.0, _FLOAT_MAX, "finite and >= 0"),
    ("distance_km", _ARRAY_OR_NUMBER, 0.0, _FLOAT_MAX, "finite and >= 0"),
    ("eta_bob", NUMBER, math.nextafter(0.0, 1.0), 1.0, "in (0, 1]"),
    ("y0", NUMBER, 0.0, math.nextafter(1.0, 0.0), "in [0, 1)"),
    ("e_det", NUMBER, 0.0, 0.5, "in [0, 0.5]"),
    ("f_ec", NUMBER, 1.0, _FLOAT_MAX, "finite and >= 1"),
)

#: ObservedTally's rows, as in _CHANNEL_RANGES: every field takes an array.
_TALLY_RANGES = (
    ("intensity", _ARRAY_OR_NUMBER, 0.0, _FLOAT_MAX, ">= 0"),
    ("gain", _ARRAY_OR_NUMBER, 0.0, 1.0, "in [0, 1]"),
    ("qber", _ARRAY_OR_NUMBER, 0.0, 1.0, "in [0, 1]"),
)


def _check_fields(instance, rows) -> None:
    """Check each field of the frozen dataclass ``instance`` by its row (name,
    types, low, high, requirement), in order, its type then its range: the first
    that fails raises ParameterError("<name> must be <requirement>"). Each field
    is then set to its ``as_real`` form, a list or tuple to a float64 array."""
    for name, types, low, high, requirement in rows:
        rule, value = f"{name} must be {requirement}", getattr(instance, name)
        if not isinstance(value, types) or not within(value := as_real(value, rule), low, high):
            raise ParameterError(rule)
        object.__setattr__(instance, name, value)


@dataclass(frozen=True)
class ChannelParams:
    """Fiber link, detector, and post-processing parameters, all finite.

    A link is one point: each field but the distance is a real number, and
    anything else (an array, a list, a tuple, a str) raises the field's
    ``ParameterError``. The distance is the only axis.

    Attributes:
        alpha_db_per_km: fiber attenuation in dB/km.
        distance_km: fiber length in km, a number or an array of lengths; a
            list or tuple becomes a float64 array.
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
        # one test of the ranges for the common case, Python floats and any distance
        # (within judges a number by number_in), which NaN and inf fail; the
        # field-by-field check runs only where it fails, to name the first field
        # that is no real number or out of range
        alpha, distance, eta, y0, e_det, f_ec = (
            self.alpha_db_per_km, self.distance_km, self.eta_bob, self.y0, self.e_det, self.f_ec
        )
        if (
            type(alpha) is type(eta) is type(y0) is type(e_det) is type(f_ec) is float
            and 0.0 <= alpha <= _FLOAT_MAX
            and 0.0 < eta <= 1.0
            and 0.0 <= y0 < 1.0
            and 0.0 <= e_det <= 0.5
            and 1.0 <= f_ec <= _FLOAT_MAX
        ):
            if within(distance, 0.0, _FLOAT_MAX):
                return
        _check_fields(self, _CHANNEL_RANGES)

    def at_distance(self, distance_km: float) -> "ChannelParams":
        """Same link evaluated at a different fiber length, or at an array of lengths."""
        # positional: dataclasses.replace costs several times more per call
        return ChannelParams(
            self.alpha_db_per_km, distance_km, self.eta_bob, self.y0, self.e_det, self.f_ec
        )


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
class ObservedTally:
    """Measured gain and QBER for one pulse class, or for several stacked on axis 0.

    ``gain`` is the probability per sent pulse that Bob registers a
    detection; ``qber`` is the error fraction among those detections. Each
    field may be an array over distances, and every element is checked, field
    by field: the intensity finite and >= 0, the gain and QBER in [0, 1]. A
    list or tuple becomes a float64 array.
    ``synthesize_tallies`` stacks the five classes, with ``intensity`` their
    (5, 1, ...) column, which broadcasts against the distances (a (5,)
    vector at a scalar distance); ``row`` takes one class out.
    """

    intensity: float
    gain: float
    qber: float

    def __post_init__(self):
        # a float64 gain and qber, as the rate chain passes, take one type test and
        # one test of all three ranges, which NaN fails; within takes any intensity,
        # a number by number_in. The field-by-field check runs only where the test
        # fails, to name the first field that is no real number or out of range
        gain, qber = self.gain, self.qber
        if getattr(gain, "dtype", None) is getattr(qber, "dtype", None) is _FLOAT64:
            low, high = np.minimum(gain, qber), np.maximum(gain, qber)
            in_range = within(self.intensity, 0.0, _FLOAT_MAX)
            # NaN if any element is; the initial 0 lets an empty array through
            in_range = in_range and np.minimum.reduce(low, None, initial=0) >= 0
            if in_range and np.maximum.reduce(high, None, initial=0) <= 1:
                return
        _check_fields(self, _TALLY_RANGES)

    def row(self, index: int) -> "ObservedTally":
        """The tally of pulse class ``index`` of a stacked tally (-1 is the signal)."""
        return ObservedTally(self.intensity[index], self.gain[index], self.qber[index])


def poisson_weight(mu: float, n: int) -> float:
    """Probability that a pulse of mean photon number ``mu`` carries ``n`` photons.

    P_n(mu) = mu^n e^(-mu) / n!
    """
    # one number each: an array, a str or None is no mean or count
    if not number_in(mu, 0.0, _FLOAT_MAX):
        raise ParameterError("mean photon number must be finite and >= 0")
    if not number_in(n, 0.0, _FLOAT_MAX) or n != int(n):
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
    alpha = params.alpha_db_per_km
    # alpha * distance above ~1.8e308 overflows, where eta = 0 is the limit. An
    # alpha <= 1 keeps it within the distance's float range; 10^(x <= 0) can
    # only underflow, which numpy ignores by default
    if alpha > 1.0:
        with np.errstate(over="ignore"):
            return params.eta_bob * np.power(TEN, -alpha * params.distance_km / TEN)
    # np.power: ** on a Python float can round differently from the array loop
    return params.eta_bob * np.power(TEN, -alpha * params.distance_km / TEN)


def honest_tally(intensity: float, params: ChannelParams) -> ObservedTally:
    """Gain and QBER of a pulse class in the absence of an eavesdropper.

    Q = Y0 + 1 - e^(-eta * intensity)
    E = [Y0/2 + e_det (1 - e^(-eta * intensity))] / Q

    Dark counts contribute at error rate 1/2; detected photons err with
    probability e_det. The intensity is finite and >= 0, as in
    ``ObservedTally``. Elementwise in intensity and distance by
    broadcasting. A vacuum class (intensity 0) has QBER 1/2 even at zero
    gain; any other class with zero gain raises ``UndefinedQberError``.
    """
    if type(intensity) is not float and getattr(intensity, "dtype", None) is not _FLOAT64:
        intensity = as_real(intensity, "intensity must be >= 0")
    if not within(intensity, 0.0, _FLOAT_MAX):  # the ends of ObservedTally's intensity row
        raise ParameterError("intensity must be >= 0")
    return _honest_tally(intensity, params)


def _honest_tally(intensity, params: ChannelParams) -> ObservedTally:
    """``honest_tally`` of an intensity already checked: by ``honest_tally``, or
    an intensity set's class column, checked when the set was built."""
    eta = transmittance(params)
    # e^(-eta * intensity) - 1, the negated probability of a hit, by expm1:
    # exact at the vacuum (Y0 - 0 is Y0), and no cancellation to 0 where
    # eta * intensity is below about 1e-16
    minus_hit = np.expm1(-eta * intensity)
    gain = np.minimum(params.y0 - minus_hit, ONE)
    # the vacuum's QBER is that of the dark counts, 1/2, even at zero gain. A
    # Python float against the number 0: against the array ZERO it is a ufunc call
    sent = intensity != 0.0 if type(intensity) is float else intensity != ZERO
    if np.minimum.reduce(gain, None, initial=1, where=sent) <= 0:
        raise UndefinedQberError("QBER is undefined at zero gain")
    numerator = E_VACUUM * params.y0 - params.e_det * minus_hit
    qber = np.empty(gain.shape)  # gain is an array or a numpy scalar
    qber.fill(E_VACUUM)
    np.divide(numerator, gain, out=qber, where=sent)
    return ObservedTally(intensity, gain, qber[()])


def synthesize_tallies(intensities: IntensitySet, params: ChannelParams) -> ObservedTally:
    """Honest-channel observables for vacuum, the three decoys, and the signal.

    One honest tally with the five pulse classes on axis 0, in ascending
    intensity: vacuum, nu3, nu2, nu1, mu. ``intensity`` is their column, of
    shape (5, 1, ...) with one 1 per distance axis (so (5,) at a scalar
    distance), and each row of ``gain`` and ``qber`` has the shape of the
    distance. The column is the set's own read-only array for that rank, the
    same object on every call, by which ``estimate_photon_bounds`` knows the
    tally for the set's own. The set checked the intensities when it was built,
    so ``honest_tally``'s intensity check is not run again.
    """
    # np.ndim would convert a float distance to an array first
    return _honest_tally(intensities._operands[getattr(params.distance_km, "ndim", 0)][0], params)
