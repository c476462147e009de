"""Bounded Brent scalar minimization (pure Python).

A float-exact port of SciPy's ``_minimize_scalar_bounded`` (the
``minimize_scalar(method="bounded")`` backend, SciPy 1.17.1): Brent's
method — golden-section steps interleaved with parabolic interpolation
— on a closed interval.  It performs the same floating-point operations
in the same order, so for any function it returns the same ``x`` and
``f(x)`` bit for bit; ``tests/core/model/test_bounded_brent.py`` checks
that against SciPy where it is installed.  Keeping it in-tree spares
every process the ``scipy.optimize`` import for one α* polish.

The NumPy scalar calls of the original become ``abs``,
:func:`_step_sign` and ``max``.  ``max(abs(rat), tol1)`` differs from ``np.maximum`` only
when ``tol1`` alone is NaN; that takes a NaN ``xf`` or ``xatol``, which
fails the loop test before the next step is taken.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _step_sign(x: float) -> float:
    """``np.sign(x) + (x == 0)``: -1 below zero, NaN for NaN, else 1."""
    if x < 0.0:
        return -1.0
    if x != x:
        return x
    return 1.0


def minimize_bounded(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    xatol: float = 1e-5,
    maxiter: int = 500,
) -> Tuple[float, float]:
    """Minimize ``func`` on ``[lo, hi]``; return ``(x, func(x))``.

    Stops when the bracket around the best point shrinks below
    ``xatol`` (plus a relative term) or after ``maxiter`` function
    evaluations.  A NaN from ``func`` is not an error: like SciPy, the
    search carries on and may return NaN.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")

    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for parabolic fit
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if (
                (abs(p) < abs(0.5 * q * r))
                and (p > q * (a - xf))
                and (p < q * (b - xf))
            ):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * _step_sign(xm - xf)

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = _GOLDEN_MEAN * e

        x = xf + _step_sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            break

    return xf, fx
