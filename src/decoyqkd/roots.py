"""Bracketed bisection, elementwise over arrays of brackets.

The library itself no longer calls it: the optimal SARG04 intensity is
solved by Newton's method in ``rates``. It stays a public export, for
callers that need a bracketed root of their own function.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


def bisect_root(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    xtol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Root of f on [lo, hi] by bisection, to within xtol in the variable.

    Requires f(lo) and f(hi) to have opposite signs (an endpoint that is
    exactly zero is returned directly).

    Elementwise: for arrays of brackets ``f`` maps an array of points to an
    array of values, and each element takes exactly the steps of a scalar
    bisection on its own bracket (one whose f is NaN at a midpoint stops
    moving instead). A scalar bracket returns a float.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    f_lo, f_hi = np.asarray(f(lo)), np.asarray(f(hi))
    lo_root, hi_root = f_lo == 0, f_hi == 0
    unbracketed = ((f_lo > 0) == (f_hi > 0)) & ~lo_root & ~hi_root
    if np.count_nonzero(unbracketed):
        i = np.flatnonzero(unbracketed)[0]
        raise BracketError(
            f"no sign change on [{lo.flat[i]}, {hi.flat[i]}]: "
            f"f(lo)={f_lo.flat[i]:.6e}, f(hi)={f_hi.flat[i]:.6e}"
        )
    # Each bracket is turned so that f > 0 at its first end; the first end then
    # moves to a midpoint where f >= 0, the second where f <= 0. A bracket of
    # zero width keeps its value, so roots and converged elements collapse it.
    positive = f_lo > 0
    bracket = np.array([np.where(positive, lo, hi), np.where(positive, hi, lo)])
    np.copyto(bracket, hi, where=hi_root)
    np.copyto(bracket, lo, where=lo_root)
    first, second = bracket[0, ...], bracket[1, ...]
    moves = np.empty(bracket.shape, dtype=bool)
    move_first, move_second = moves[0, ...], moves[1, ...]
    # Each step halves every width up to half a spacing of the largest end, so
    # no width can reach xtol, and none is computed, while half_width - slack > xtol.
    slack = 4.0 * float(np.spacing(np.abs(bracket).max(initial=0.0)))
    half_width = float(np.abs(second - first).min(initial=np.inf))
    for _ in range(max_iter if bracket.size else 0):
        mid = 0.5 * (first + second)
        f_mid = f(mid)
        np.greater_equal(f_mid, 0.0, out=move_first)
        np.less_equal(f_mid, 0.0, out=move_second)
        np.copyto(bracket, mid, where=moves)
        half_width *= 0.5
        if half_width <= xtol + slack:
            done = np.abs(second - first) <= xtol
            if done.all():
                break
            np.copyto(bracket, 0.5 * (first + second), where=done)
    root = 0.5 * (first + second)
    return float(root) if root.ndim == 0 else root
