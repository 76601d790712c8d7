"""Decoy-state estimation of the vacuum, single-photon, and two-photon contributions.

One estimator, ``estimate_photon_bounds``, takes the measured gains and
QBERs of the vacuum, the three weak decoy intensities and the signal. It
returns the vacuum's observed gain Y0 and QBER e0, lower bounds on the
single-photon yield Y1 and two-photon yield Y2, upper bounds on their
error rates e1 and e2, and the corresponding gain bounds Q1, Q2. The
bounds are conservative for any channel whose per-photon-number yields and
error rates lie in [0, 1]: Y1L <= Y1, e1U >= e1, Y2L <= Y2, e2U >= e2. An
``IntensitySet`` meets the intensity constraints the bounds rest on: it
checks them when it is built, and on first use it builds, in one pass from
Python floats, every constant the estimator takes from it: the class
intensities, the coefficient matrix and the other per-set factors.

The tallies are positional: one ``ObservedTally`` with the classes vacuum,
nu3, nu2, nu1, mu on axis 0, which one (2, 5) coefficient matrix maps to
Y1L and Y2L. The bounds are elementwise in distance, with arrays over
distances in and out, and ``PhotonBounds.clamps``, built on first read, marks
each clamp per element.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import E_VACUUM, NUMBER, ONE, ZERO, ObservedTally, read_only


class IntensityConstraintError(ValueError):
    """An intensity set violates the ordering or balance constraints."""


#: Tolerance on the cubic balance residual nu1 - nu2 - (nu1^3 - nu2^3) / mu^2
#: above 0. Below 0 it is BALANCE_ROUND_OFF * mu, four float epsilons: for mu
#: in [1e-6, 100], construct_intensity_set's own residuals stay above -0.75 eps mu.
BALANCE_RESIDUAL_TOL = 1e-9
BALANCE_ROUND_OFF = 4.0 * sys.float_info.epsilon


def balance_residual(intensities: IntensitySet) -> float:
    """Residual of the constraint that makes the Y2 estimate tight.

    The two-photon derivation requires nu1 - nu2 - (nu1^3 - nu2^3)/mu^2 = 0,
    equivalently nu1^2 + nu1*nu2 + nu2^2 = mu^2.
    """
    s = intensities
    return s.nu1 - s.nu2 - (s.nu1**3 - s.nu2**3) / s.mu**2


def _denominators(s: IntensitySet) -> tuple[float, float]:
    """Denominators of the Y1L and Y2L combinations."""
    mu, nu1, nu2, nu3 = s.mu, s.nu1, s.nu2, s.nu3
    return mu * (nu2 - nu3) * (mu - nu2 - nu3), mu * (nu1 - nu2) * (nu1 + nu2 - mu)


@dataclass(frozen=True)
class IntensitySet:
    """Signal and decoy mean photon numbers, checked when built.

    Required, of four real numbers (an int within the float range, a float or a
    numpy scalar):
        0 < nu3 < nu2 <= (2/3) mu < nu1 <= (3/4) mu
        nu2 < nu1
        nu1 + nu2 > mu
        nu2 + nu3 < mu
        -4 eps mu <= nu1 - nu2 - (nu1^3 - nu2^3)/mu^2 <= 1e-9 (eps the float
        epsilon: a negative residual is allowed only as round-off)
        Y1L and Y2L denominators > 0 as floats (they underflow for mu < ~1e-108)
        nu3^2 a normal float, as the e1U and e2U scales nu3 and nu3^2 must be
        (it underflows for nu3 < ~1.5e-154)

    Raises IntensityConstraintError naming each violated constraint.

    On first use, one pass builds every constant the estimator takes from the
    set: the class intensities (``classes``), the coefficient matrix
    (``coefficients``) and the other per-set factors. They are kept with the
    set, read-only, so each read returns the same array.
    """

    mu: float
    nu1: float
    nu2: float
    nu3: float

    def __post_init__(self):
        mu, nu1, nu2, nu3 = self.mu, self.nu1, self.nu2, self.nu3
        problems = []
        # an int beyond the float range is no real number here: the float
        # arithmetic of the checks below would raise OverflowError on it
        top = sys.float_info.max
        if not (isinstance(mu, NUMBER) and mu > 0) or isinstance(mu, int) and mu > top:
            raise IntensityConstraintError(f"mu must be > 0, got {mu}")
        for name, nu in (("nu1", nu1), ("nu2", nu2), ("nu3", nu3)):
            if not isinstance(nu, NUMBER) or isinstance(nu, int) and not -top <= nu <= top:
                raise IntensityConstraintError(f"{name} must be a real number, got {nu!r}")
        if not 0 < nu3:
            problems.append(f"nu3 must be > 0 (nu3={nu3})")
        if not nu3 < nu2:
            problems.append(f"nu3 < nu2 violated (nu3={nu3}, nu2={nu2})")
        # implied by the chain below, but its slack lets nu2 = nu1 = 2mu/3 through
        if not nu2 < nu1:
            problems.append(f"nu2 < nu1 violated (nu2={nu2}, nu1={nu1})")
        # slack of a few ulps so exact fractions of mu (e.g. nu1 = 3mu/4
        # written as a decimal) are not rejected over float round-off
        tol = 1e-12 * mu
        if not nu2 <= 2.0 * mu / 3.0 + tol:
            problems.append(f"nu2 <= 2mu/3 violated (nu2={nu2}, 2mu/3={2.0 * mu / 3.0})")
        if not 2.0 * mu / 3.0 < nu1 + tol:
            problems.append(f"2mu/3 < nu1 violated (nu1={nu1}, 2mu/3={2.0 * mu / 3.0})")
        if not nu1 <= 0.75 * mu + tol:
            problems.append(f"nu1 <= 3mu/4 violated (nu1={nu1}, 3mu/4={0.75 * mu})")
        if not nu1 + nu2 > mu:
            problems.append(f"nu1 + nu2 > mu violated (nu1+nu2={nu1 + nu2}, mu={mu})")
        if not nu2 + nu3 < mu:
            problems.append(f"nu2 + nu3 < mu violated (nu2+nu3={nu2 + nu3}, mu={mu})")
        if not problems and not min(_denominators(self)) > 0:
            problems.append(f"bound denominators {_denominators(self)} must be > 0 (mu={mu})")
        if not problems and not nu3**2 >= sys.float_info.min:
            problems.append(f"nu3={nu3} is too small: nu3^2 underflows below the normal floats")
        if not problems:
            residual = balance_residual(self)
            # one-sided: a negative residual r lets Y2L exceed Y2 by up to
            # (mu^3/3)|r|/D2 per unit Y3, so only round-off is allowed below 0
            floor = -BALANCE_ROUND_OFF * mu
            if not floor <= residual <= BALANCE_RESIDUAL_TOL:
                problems.append(
                    "cubic balance nu1 - nu2 - (nu1^3 - nu2^3)/mu^2 = 0 violated "
                    f"(residual={residual:.3e}, tol={BALANCE_RESIDUAL_TOL:.0e}, "
                    f"floor={floor:.3e})"
                )
        if problems:
            raise IntensityConstraintError("; ".join(problems))

    @cached_property
    def _constants(self) -> tuple:
        """Everything the estimator takes from the set, built in one pass from
        Python floats: the class column as an array and as the list the intensity
        match compares, the coefficient matrix, e^nu3, e^-mu, (nu3, nu3^2) and
        (mu, mu^2); each array read-only."""
        mu, nu1, nu2, nu3 = self.mu, self.nu1, self.nu2, self.nu3
        intensities = [0.0, float(nu3), float(nu2), float(nu1), float(mu)]
        signal_1, signal_2 = nu2**2 - nu3**2, 2.0 * (nu1 - nu2)
        y1_numerators = (signal_1, -(mu**2), mu**2, 0.0, -signal_1)
        y2_numerators = (signal_2, 0.0, -2.0 * mu, 2.0 * mu, -signal_2)
        boost = (1.0, math.exp(nu3), math.exp(nu2), math.exp(nu1), math.exp(mu))
        d1, d2 = _denominators(self)
        # each entry numerator * e^nu / denominator, as numbers, class by class
        entries = []
        for a, b, e in zip(y1_numerators, y2_numerators, boost):
            entries += (a * e / d1, b * e / d2)
        # float64 arrays, as the estimator's array operands should be (see channel.ZERO)
        arrays = (
            np.array(intensities),
            np.array(entries),
            np.array(math.exp(nu3)),
            np.array(math.exp(-mu)),
            np.array((nu3, nu3**2)),
            np.array((mu, mu**2)),
        )
        classes, entries, *factors = map(read_only, arrays)
        # a view of a read-only array is read-only too
        return (classes, intensities, entries.reshape(5, 2), *factors)

    @property
    def classes(self) -> np.ndarray:
        """The pulse-class intensities (0, nu3, nu2, nu1, mu), in that order."""
        return self._constants[0]

    @property
    def coefficients(self) -> np.ndarray:
        """The map from the five gains to Y1L and Y2L, e^nu and the denominators
        folded in, class by class: row i holds class i's (Y1L, Y2L) coefficients."""
        return self._constants[2]


#: The caps of e1U and e2U.
_ERROR_CAPS = read_only(np.array((E_VACUUM, 1.0)))

#: n! for the photon numbers n = 1, 2.
_FACTORIALS = read_only(np.array((1.0, 2.0)))

_CLAMP_NAMES = (
    "single-photon bound vacuous (Y1L <= 0)",
    "Y1L clamped to 1",
    "e1U clamped to 1/2",
    "e1U clamped to 0",
    "two-photon bound vacuous (Y2L <= 0)",
    "Y2L clamped to 1",
    "e2U clamped to 1",
    "e2U clamped to 0",
)


@dataclass(frozen=True)
class PhotonBounds:
    """Estimated vacuum, single-photon, and two-photon contributions, with the
    ``clamps`` that ``estimate_photon_bounds`` applied (None for ``exact_bounds``)."""

    y0: float
    e0: float
    q0: float
    y1_lower: float
    e1_upper: float
    q1_lower: float
    y2_lower: float
    q2_lower: float
    e2_upper: float
    #: the unclamped Y_nL and e_nU and the e_nU caps, from which ``clamps`` is built
    _unclamped: tuple | None = field(default=None, compare=False, repr=False)

    @cached_property
    def clamps(self) -> np.ndarray | None:
        """Read-only mask of shape (2, 4, *distance shape), built on first read: per
        photon number and element, where Y_nL was vacuous, Y_nL was clamped to 1,
        e_nU was clamped to its cap, and e_nU was clamped to 0."""
        if self._unclamped is None:
            return None
        raw_yield, raw_error, cap = self._unclamped
        vacuous = raw_yield <= 0
        # built kind first: np.array is quicker than np.stack
        clamps = np.array((vacuous, raw_yield > 1.0, (raw_error > cap) & ~vacuous, raw_error < 0))
        return read_only(clamps.swapaxes(0, 1))

    @property
    def flags(self) -> tuple[str, ...]:
        """The name of each clamp that fired at any distance, in the order of ``clamps``."""
        fired = () if self.clamps is None else self.clamps.reshape(8, -1).any(axis=1)
        return tuple(name for name, hit in zip(_CLAMP_NAMES, fired) if hit)


def estimate_photon_bounds(tallies: ObservedTally, intensities: IntensitySet) -> PhotonBounds:
    """Vacuum, single-photon and two-photon bounds from the five observed
    pulse classes, stacked on axis 0 in the order vacuum, nu3, nu2, nu1, mu
    (as ``synthesize_tallies`` returns them), for an ``IntensitySet`` (any
    other object is a ``TypeError``, so none skips the set's checks). The
    tally's five class intensities must be exactly (0, nu3, nu2, nu1, mu) of
    that set, or a ``ValueError`` names both: tallies of one set estimated
    with another give wrong bounds.

    Y0 and e0 are the observed vacuum gain and QBER (Ma et al. 2005), and
    Q0 = Y0 e^(-mu). The single-photon bounds use the nu2 and nu3 decoy
    classes together with the signal class:

        Y1L = [mu^2 (Q_nu2 e^nu2 - Q_nu3 e^nu3) - (nu2^2 - nu3^2)(Q_mu e^mu - Y0)]
              / [mu (nu2 - nu3)(mu - nu2 - nu3)]
        e1U = (E_nu3 Q_nu3 e^nu3 - e0 Y0) / (Y1L nu3)
        Q1L = Y1L mu e^(-mu)

    The two-photon bounds use the nu1, nu2 and nu3 decoy classes together
    with the signal class; the cubic balance condition on (nu1, nu2) cancels
    the Y1 term from the difference of the nu1 and nu2 observables:

        Y2L = [2 mu (Q_nu1 e^nu1 - Q_nu2 e^nu2) - 2 (nu1 - nu2)(Q_mu e^mu - Y0)]
              / [mu (nu1 - nu2)(nu1 + nu2 - mu)]
        Q2L = Y2L mu^2 e^(-mu) / 2
        e2U = [2 E_nu3 Q_nu3 e^nu3 - 2 e0 Y0] / (Y2L nu3^2)

    Both yield bounds are one (2, 5) coefficient matrix applied to the five
    gains, with e^nu and the denominators folded into its rows. A non-positive
    Y1L or Y2L is clamped to zero (no extractable contribution); its error
    bound is then the cap. e1U is clamped into [0, 1/2] and e2U into [0, 1].
    ``clamps``, of shape (2, 4, *distance shape) and built on first read, marks
    per photon number and element where Y_nL was vacuous, Y_nL was clamped to
    1, e_nU to its cap, and e_nU to 0. e2U inherits the whole nu3 error budget
    (including the single-photon share), so it is loose and grows like 1/nu3^2
    as nu3 shrinks.
    """
    if not isinstance(intensities, IntensitySet):
        raise TypeError(f"intensities must be an IntensitySet, got {type(intensities).__name__}")
    _, expected, coefficients, exp_nu3, exp_neg_mu, error_scale, gain_scale = (
        intensities._constants
    )
    observed = np.asarray(tallies.intensity).ravel().tolist()
    if observed != expected:
        raise ValueError(
            f"tally intensities {observed} do not match the set's vacuum, nu3, nu2, nu1, mu "
            f"{expected}"
        )
    gain, qber = tallies.gain, tallies.qber
    y0, e0 = gain[0], qber[0]
    # photon numbers 1 and 2 on axis 0, broadcast against the distances
    column = (2,) + (1,) * y0.ndim
    # summed class by class in a fixed order (a BLAS product rounds differently
    # at each width): the reduction over axis 0 adds the classes in order, as
    # Python's sum would. Only a zero's sign can differ, since sum starts from the
    # integer 0 and so turns -0.0 into +0.0; the clamp below gives +0.0 for
    # either, and the clamp mask tests <= 0
    raw_yield = np.add.reduce(coefficients.reshape((5,) + column) * gain[:, None], 0)
    factorials = _FACTORIALS.reshape(column)
    # n! (E_nu3 Q_nu3 e^nu3 - e0 Y0), the numerator of e_nU
    weight = (qber[1] * gain[1] * exp_nu3 - e0 * y0) * factorials
    cap = _ERROR_CAPS.reshape(column)
    # np.clip's signs of zero, which differ with scalar and array bounds
    y = np.minimum(np.maximum(ZERO, raw_yield), ONE)
    denominator = y * error_scale.reshape(column)
    # e_nU is the cap where Y_nL, or Y_nL times the scale, is 0: it bounds nothing
    raw_error = np.empty(denominator.shape)
    raw_error.fill(np.inf)
    np.divide(weight, denominator, out=raw_error, where=denominator != ZERO)
    error = np.minimum(np.maximum(raw_error, ZERO), cap)
    # Q_nL = Y_nL mu^n e^(-mu) / n!, both photon numbers in one product
    q = y * gain_scale.reshape(column) * exp_neg_mu / factorials
    return PhotonBounds(
        y0, e0, y0 * exp_neg_mu, y[0], error[0], q[0], y[1], q[1], error[1],
        (raw_yield, raw_error, cap),
    )
