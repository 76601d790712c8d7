"""Decoy-state estimation of the vacuum, single-photon, and two-photon contributions.

One estimator, ``estimate_photon_bounds``, takes the measured gains and
QBERs of the vacuum, the three weak decoy intensities and the signal, and
returns the background yield Y0, lower bounds on the single-photon yield
Y1 and two-photon yield Y2, upper bounds on their error rates e1 and e2,
and the corresponding gain bounds Q1, Q2. The bounds are conservative for
any channel whose per-photon-number yields lie in [0, 1]: Y1L <= Y1,
e1U >= e1, Y2L <= Y2, e2U >= e2. ``validate_intensities`` is the one place
that checks the intensity constraints the bounds rest on.

The tallies are positional: one ``ObservedTally`` with the classes vacuum,
nu3, nu2, nu1, mu on axis 0. The bounds are elementwise in distance:
tallies whose gains and QBERs are arrays over distances give bounds of the
same shape, and a clamp flag is raised when the clamp fires at any element.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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


def _denominators(s: IntensitySet) -> tuple[float, float]:
    """Denominators of the Y1L and Y2L combinations."""
    mu, nu1, nu2, nu3 = s.mu, s.nu1, s.nu2, s.nu3
    return mu * (nu2 - nu3) * (mu - nu2 - nu3), mu * (nu1 - nu2) * (nu1 + nu2 - mu)


def validate_intensities(intensities: IntensitySet) -> IntensitySet:
    """Check every ordering constraint and the cubic balance condition.

    Required:
        0 < nu3 < nu2 <= (2/3) mu < nu1 <= (3/4) mu
        nu2 < nu1
        nu1 + nu2 > mu
        nu2 + nu3 < mu
        |nu1 - nu2 - (nu1^3 - nu2^3)/mu^2| <= 1e-9
        Y1L and Y2L denominators > 0 as floats (they underflow for mu < ~1e-108)
        nu3^2 a normal float, as the e1U and e2U scales nu3 and nu3^2 must be
        (it underflows for nu3 < ~1.5e-154)

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
    # implied by the chain below, but its slack lets nu2 = nu1 = 2mu/3 through
    if not s.nu2 < s.nu1:
        problems.append(f"nu2 < nu1 violated (nu2={s.nu2}, nu1={s.nu1})")
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
    if not problems and not min(_denominators(s)) > 0:
        problems.append(f"bound denominators {_denominators(s)} must be > 0 (mu={s.mu})")
    if not problems and not s.nu3**2 >= sys.float_info.min:
        problems.append(f"nu3={s.nu3} is too small: nu3^2 underflows below the normal floats")
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


def _clamp(n: int, raw_yield, error_weight, scale: float):
    """Clamp the n-photon yield bound into [0, 1] and its error-rate bound into [0, cap].

    e_nU = error_weight / (Y_nL scale); cap is 1/2 for n = 1 and 1 for n = 2, and a
    vacuous Y_nL <= 0 gives e_nU = cap. A positive Y_nL whose product with scale
    underflows to 0 bounds nothing either: its e_nU is the cap, flagged as clamped.
    Returns (Y_nL, e_nU, flags).
    """
    cap, cap_name = (E_VACUUM, "1/2") if n == 1 else (1.0, "1")
    vacuous = raw_yield <= 0
    y = np.where(vacuous, 0.0, np.minimum(raw_yield, 1.0))
    denominator = y * scale
    # NaN at the vacuous elements keeps them out of the error-rate flags; inf at
    # an underflowed denominator raises the clamp flag
    raw_error = np.where(vacuous, np.nan, np.inf)
    np.divide(error_weight, denominator, out=raw_error, where=denominator != 0)
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


def estimate_photon_bounds(tallies: ObservedTally, intensities: IntensitySet) -> PhotonBounds:
    """Vacuum, single-photon and two-photon bounds from the five observed
    pulse classes, stacked on axis 0 in the order vacuum, nu3, nu2, nu1, mu
    (as ``synthesize_tallies`` returns them), for an intensity set that
    passes ``validate_intensities``. The tally's five class intensities must
    be exactly (0, nu3, nu2, nu1, mu) of that set, or a ``ValueError`` names
    both: tallies of one set estimated with another give wrong bounds.

    Y0 is the vacuum gain. The vacuum error rate e0 is taken to be 1/2
    regardless of the observed value, because dark counts are random, and
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

    A non-positive Y1L or Y2L is clamped to zero (no extractable contribution)
    and flagged; its error bound is then the cap. e1U is clamped into [0, 1/2]
    and e2U into [0, 1], and each clamp is flagged. e2U inherits the whole nu3
    error budget (including the single-photon share), so it is loose and grows
    like 1/nu3^2 as nu3 shrinks.
    """
    s = validate_intensities(intensities)
    expected = [0.0, s.nu3, s.nu2, s.nu1, s.mu]
    observed = np.ravel(tallies.intensity).tolist()
    if observed != expected:
        raise ValueError(
            f"tally intensities {observed} do not match the set's vacuum, nu3, nu2, nu1, mu "
            f"{expected}"
        )
    y0, q_nu3, q_nu2, q_nu1, q_mu = tallies.gain
    e_nu3, e0 = tallies.qber[1], E_VACUUM
    mu, nu1, nu2, nu3 = s.mu, s.nu1, s.nu2, s.nu3
    signal_excess = q_mu * math.exp(mu) - y0
    denominator_1, denominator_2 = _denominators(s)

    numerator = mu**2 * (q_nu2 * math.exp(nu2) - q_nu3 * math.exp(nu3)) - (
        nu2**2 - nu3**2
    ) * signal_excess
    error_weight = e_nu3 * q_nu3 * math.exp(nu3) - e0 * y0
    y1, e1, flags_1 = _clamp(1, numerator / denominator_1, error_weight, nu3)

    numerator = 2.0 * mu * (q_nu1 * math.exp(nu1) - q_nu2 * math.exp(nu2)) - 2.0 * (
        nu1 - nu2
    ) * signal_excess
    error_weight = 2.0 * e_nu3 * q_nu3 * math.exp(nu3) - 2.0 * e0 * y0
    y2, e2, flags_2 = _clamp(2, numerator / denominator_2, error_weight, nu3**2)

    return PhotonBounds(
        y0,
        e0,
        y0 * math.exp(-mu),
        y1,
        e1,
        y1 * mu * math.exp(-mu),
        y2,
        y2 * mu**2 * math.exp(-mu) / 2.0,
        e2,
        flags_1 + flags_2,
    )
