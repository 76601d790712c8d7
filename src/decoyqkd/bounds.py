"""Decoy-state estimation of vacuum, single-photon, and two-photon contributions.

Given measured gains and QBERs for the signal and three weak decoy
intensities plus vacuum, these routines produce a lower bound on the
single-photon yield Y1 and two-photon yield Y2, upper bounds on their
error rates e1 and e2, and the corresponding gain bounds Q1, Q2. The
bounds are conservative for any channel whose per-photon-number yields
lie in [0, 1]: Y1L <= Y1, e1U >= e1, Y2L <= Y2, e2U >= e2.

The tallies are positional, in the order vacuum, nu3, nu2, nu1, mu. The
bounds are elementwise in distance: tallies whose gains and QBERs are
arrays over distances give bounds of the same shape, and a clamp flag is
raised when the clamp fires at any element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .channel import E_VACUUM, IntensitySet, ObservedTally


class IntensityConstraintError(ValueError):
    """An intensity set violates the ordering or balance constraints."""


#: Tolerance on the cubic balance residual nu1 - nu2 - (nu1^3 - nu2^3) / mu^2.
BALANCE_RESIDUAL_TOL = 1e-9


def balance_residual(intensities: IntensitySet) -> float:
    """Residual of the constraint that makes the Y2 estimate tight.

    The two-photon derivation requires nu1 - nu2 - (nu1^3 - nu2^3)/mu^2 = 0,
    equivalently nu1^2 + nu1*nu2 + nu2^2 = mu^2.
    """
    s = intensities
    return s.nu1 - s.nu2 - (s.nu1**3 - s.nu2**3) / s.mu**2


def validate_intensities(intensities: IntensitySet) -> IntensitySet:
    """Check every ordering constraint and the cubic balance condition.

    Required:
        0 < nu3 < nu2 <= (2/3) mu < nu1 <= (3/4) mu
        nu1 + nu2 > mu
        nu2 + nu3 < mu
        |nu1 - nu2 - (nu1^3 - nu2^3)/mu^2| <= 1e-9

    Raises IntensityConstraintError naming each violated constraint.
    """
    s = intensities
    problems = []
    if not s.mu > 0:
        raise IntensityConstraintError(f"mu must be > 0, got {s.mu}")
    if not 0 < s.nu3:
        problems.append(f"nu3 must be > 0 (nu3={s.nu3})")
    if not s.nu3 < s.nu2:
        problems.append(f"nu3 < nu2 violated (nu3={s.nu3}, nu2={s.nu2})")
    # slack of a few ulps so exact fractions of mu (e.g. nu1 = 3mu/4
    # written as a decimal) are not rejected over float round-off
    tol = 1e-12 * s.mu
    if not s.nu2 <= 2.0 * s.mu / 3.0 + tol:
        problems.append(f"nu2 <= 2mu/3 violated (nu2={s.nu2}, 2mu/3={2.0 * s.mu / 3.0})")
    if not 2.0 * s.mu / 3.0 < s.nu1 + tol:
        problems.append(f"2mu/3 < nu1 violated (nu1={s.nu1}, 2mu/3={2.0 * s.mu / 3.0})")
    if not s.nu1 <= 0.75 * s.mu + tol:
        problems.append(f"nu1 <= 3mu/4 violated (nu1={s.nu1}, 3mu/4={0.75 * s.mu})")
    if not s.nu1 + s.nu2 > s.mu:
        problems.append(f"nu1 + nu2 > mu violated (nu1+nu2={s.nu1 + s.nu2}, mu={s.mu})")
    if not s.nu2 + s.nu3 < s.mu:
        problems.append(f"nu2 + nu3 < mu violated (nu2+nu3={s.nu2 + s.nu3}, mu={s.mu})")
    if not problems:
        residual = balance_residual(s)
        if abs(residual) > BALANCE_RESIDUAL_TOL:
            problems.append(
                "cubic balance nu1 - nu2 - (nu1^3 - nu2^3)/mu^2 = 0 violated "
                f"(residual={residual:.3e}, tol={BALANCE_RESIDUAL_TOL:.0e})"
            )
    if problems:
        raise IntensityConstraintError("; ".join(problems))
    return intensities


def estimate_background(vacuum_tally: ObservedTally) -> tuple[float, float]:
    """Background yield and error rate from the vacuum pulse class.

    Y0 equals the vacuum gain; the vacuum error rate is taken to be 1/2
    regardless of the observed value, because dark counts are random.
    """
    if vacuum_tally.intensity != 0:
        raise ValueError(
            f"background must be estimated from the vacuum class, got intensity {vacuum_tally.intensity}"
        )
    return vacuum_tally.gain, E_VACUUM


def _clamp(n: int, raw_yield, error_weight, scale: float):
    """Clamp the n-photon yield bound into [0, 1] and its error-rate bound into [0, cap].

    e_nU = error_weight / (Y_nL scale); cap is 1/2 for n = 1 and 1 for n = 2, and a
    vacuous Y_nL <= 0 gives e_nU = cap. Returns (Y_nL, e_nU, flags).
    """
    cap, cap_name = (E_VACUUM, "1/2") if n == 1 else (1.0, "1")
    vacuous = raw_yield <= 0
    y = np.where(vacuous, 0.0, np.minimum(raw_yield, 1.0))
    # NaN at the vacuous elements keeps them out of the error-rate flags
    raw_error = error_weight / (np.where(vacuous, np.nan, y) * scale)
    error = np.where(vacuous, cap, np.clip(raw_error, 0.0, cap))
    flags = tuple(
        name
        for mask, name in (
            (vacuous, f"{('single', 'two')[n - 1]}-photon bound vacuous (Y{n}L <= 0)"),
            (raw_yield > 1.0, f"Y{n}L clamped to 1"),
            (raw_error > cap, f"e{n}U clamped to {cap_name}"),
            (raw_error < 0, f"e{n}U clamped to 0"),
        )
        if np.count_nonzero(mask)
    )
    return y[()], error[()], flags


class SinglePhotonBound(NamedTuple):
    y1_lower: float
    e1_upper: float
    q1_lower: float
    flags: tuple[str, ...]


class TwoPhotonBound(NamedTuple):
    y2_lower: float
    q2_lower: float
    e2_upper: float
    flags: tuple[str, ...]


def bound_single_photon(
    tallies: Iterable[ObservedTally],
    intensities: IntensitySet,
    y0: float,
    e0: float,
) -> SinglePhotonBound:
    """Lower-bound the single-photon yield and gain, upper-bound its error rate.

    Uses the nu2 and nu3 decoy classes together with the signal class:

        Y1L = [mu^2 (Q_nu2 e^nu2 - Q_nu3 e^nu3) - (nu2^2 - nu3^2)(Q_mu e^mu - Y0)]
              / [mu (nu2 - nu3)(mu - nu2 - nu3)]
        e1U = (E_nu3 Q_nu3 e^nu3 - e0 Y0) / (Y1L nu3)
        Q1L = Y1L mu e^(-mu)

    A non-positive Y1L is clamped to zero (no extractable single-photon
    contribution) and flagged; e1U above 1/2 is clamped to 1/2 and flagged.
    """
    s = intensities
    mu, nu2, nu3 = s.mu, s.nu2, s.nu3
    denominator = mu * (nu2 - nu3) * (mu - nu2 - nu3)
    if denominator <= 0:
        raise IntensityConstraintError(
            f"single-photon estimate needs nu3 < nu2 and nu2 + nu3 < mu (denominator={denominator})"
        )
    _, t3, t2, _, signal = tallies

    numerator = mu**2 * (t2.gain * math.exp(nu2) - t3.gain * math.exp(nu3)) - (
        nu2**2 - nu3**2
    ) * (signal.gain * math.exp(mu) - y0)
    error_weight = t3.qber * t3.gain * math.exp(nu3) - e0 * y0
    y1, e1, flags = _clamp(1, numerator / denominator, error_weight, nu3)
    return SinglePhotonBound(y1, e1, y1 * mu * math.exp(-mu), flags)


def bound_two_photon(
    tallies: Iterable[ObservedTally],
    intensities: IntensitySet,
    y0: float,
    e0: float,
) -> TwoPhotonBound:
    """Lower-bound the two-photon yield and gain, upper-bound its error rate.

    Uses the nu1, nu2, and nu3 decoy classes together with the signal class;
    requires the cubic balance condition on (nu1, nu2), which cancels the Y1
    term from the difference of the nu1 and nu2 observables:

        Y2L = [2 mu (Q_nu1 e^nu1 - Q_nu2 e^nu2) - 2 (nu1 - nu2)(Q_mu e^mu - Y0)]
              / [mu (nu1 - nu2)(nu1 + nu2 - mu)]
        Q2L = Y2L mu^2 e^(-mu) / 2
        e2U = [2 E_nu3 Q_nu3 e^nu3 - 2 e0 Y0] / (Y2L nu3^2)

    A non-positive Y2L is clamped to zero and flagged. e2U inherits the whole
    nu3 error budget (including the single-photon share), so it is loose and
    grows like 1/nu3^2 as nu3 shrinks; it is clamped into [0, 1] and flagged.
    """
    s = intensities
    mu, nu1, nu2, nu3 = s.mu, s.nu1, s.nu2, s.nu3
    if nu1 + nu2 <= mu:
        raise IntensityConstraintError(
            f"two-photon estimate needs nu1 + nu2 > mu (nu1+nu2={nu1 + nu2}, mu={mu})"
        )
    if nu2 >= nu1:
        raise IntensityConstraintError(f"two-photon estimate needs nu2 < nu1 (nu1={nu1}, nu2={nu2})")
    _, t3, t2, t1, signal = tallies

    numerator = 2.0 * mu * (t1.gain * math.exp(nu1) - t2.gain * math.exp(nu2)) - 2.0 * (
        nu1 - nu2
    ) * (signal.gain * math.exp(mu) - y0)
    denominator = mu * (nu1 - nu2) * (nu1 + nu2 - mu)
    error_weight = 2.0 * t3.qber * t3.gain * math.exp(nu3) - 2.0 * e0 * y0
    y2, e2, flags = _clamp(2, numerator / denominator, error_weight, nu3**2)
    return TwoPhotonBound(y2, y2 * mu**2 * math.exp(-mu) / 2.0, e2, flags)


@dataclass(frozen=True)
class PhotonBounds:
    """Estimated vacuum, single-photon, and two-photon contributions."""

    y0: float
    e0: float
    q0: float
    y1_lower: float
    e1_upper: float
    q1_lower: float
    y2_lower: float
    q2_lower: float
    e2_upper: float
    flags: tuple[str, ...] = ()


def estimate_photon_bounds(
    tallies: Iterable[ObservedTally], intensities: IntensitySet
) -> PhotonBounds:
    """Full estimation pipeline from the five observed tallies, in the order
    vacuum, nu3, nu2, nu1, mu (as ``synthesize_tallies`` returns them).

    Validates the intensity set, reads Y0/e0 off the vacuum class, and
    combines the single- and two-photon estimates. Q0 = Y0 e^(-mu).
    """
    validate_intensities(intensities)
    tallies = list(tallies)
    y0, e0 = estimate_background(tallies[0])
    single = bound_single_photon(tallies, intensities, y0, e0)
    double = bound_two_photon(tallies, intensities, y0, e0)
    # both NamedTuples list their three values in PhotonBounds' field order
    q0 = y0 * math.exp(-intensities.mu)
    return PhotonBounds(y0, e0, q0, *single[:3], *double[:3], single.flags + double.flags)
