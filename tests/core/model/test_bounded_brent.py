"""Differential tests: the in-tree bounded Brent minimizer against SciPy.

``repro.core.model.brent.minimize_bounded`` is a float-exact port of
``scipy.optimize.minimize_scalar(method="bounded")``; every case here
requires the same ``x`` and ``f(x)`` bit for bit (``float.hex``
equality, so signed zeros and NaNs count too).  The α* brackets that
``AdvancedModel.optimize`` polishes on the Fig. 3, Fig. 8 and Fig. 10
grids are the cases the published tables depend on.
"""

import math
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sciopt = pytest.importorskip("scipy.optimize")

from repro.core.model import ModelContext, advanced  # noqa: E402
from repro.core.model.brent import minimize_bounded  # noqa: E402
from repro.experiments.common import size_grid  # noqa: E402
from repro.hpu import HPU1, PLATFORMS  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def scipy_bounded(func, lo, hi, xatol=1e-5, maxiter=500):
    res = sciopt.minimize_scalar(
        func,
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": xatol, "maxiter": maxiter},
    )
    return float(res.x), float(res.fun)


def assert_same(func, lo, hi, xatol=1e-5, maxiter=500):
    ours = minimize_bounded(func, lo, hi, xatol=xatol, maxiter=maxiter)
    theirs = scipy_bounded(func, lo, hi, xatol=xatol, maxiter=maxiter)
    assert [float(v).hex() for v in ours] == [v.hex() for v in theirs]


# ----------------------------------------------------------------------
# α* polish on the figure grids
# ----------------------------------------------------------------------
def _polish_calls(monkeypatch, hpu, n):
    """Run ``AdvancedModel.optimize`` for one mergesort point and return
    the ``(func, lo, hi, xatol, maxiter)`` of each bounded polish it made."""
    calls = []

    def spy(func, lo, hi, xatol=1e-5, maxiter=500):
        calls.append((func, lo, hi, xatol, maxiter))
        return minimize_bounded(func, lo, hi, xatol=xatol, maxiter=maxiter)

    monkeypatch.setattr(advanced, "minimize_bounded", spy)
    ctx = ModelContext(a=2, b=2, n=n, f=lambda m: m, params=hpu.parameters)
    advanced.AdvancedModel(ctx).optimize()
    return calls


FIG_GRIDS = {
    # Fig. 3: the §5.2.2 worked example.
    "fig3": [(HPU1, 1 << 24)],
    # Fig. 8: predicted speedup on both platforms over the full size
    # grid (the --fast grid is a subset).
    "fig8": [(hpu, n) for _, hpu in sorted(PLATFORMS.items())
             for n in size_grid(False)],
    # Fig. 10: predicted α* and level on HPU1 from n = 2^12.
    "fig10": [(HPU1, n) for n in size_grid(False) if n >= 1 << 12],
}


@pytest.mark.parametrize("figure", sorted(FIG_GRIDS))
def test_alpha_star_polish_matches_scipy(monkeypatch, figure):
    polished = 0
    for hpu, n in FIG_GRIDS[figure]:
        for func, lo, hi, xatol, maxiter in _polish_calls(monkeypatch, hpu, n):
            assert_same(func, lo, hi, xatol=xatol, maxiter=maxiter)
            polished += 1
    # No grid point is degenerate: each one makes exactly one polish.
    assert polished == len(FIG_GRIDS[figure])


# ----------------------------------------------------------------------
# generated functions and brackets
# ----------------------------------------------------------------------
coeffs = st.floats(-100.0, 100.0, allow_nan=False)
widths = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-15, 1e-12, 1e-9, 1e-7, 1e-6]),
    st.floats(0.0, 200.0, allow_nan=False),
)
brackets = st.tuples(st.floats(-1e3, 1e3, allow_nan=False), widths).map(
    lambda t: (t[0], t[0] + t[1])
)
xatols = st.sampled_from([1e-3, 1e-5, 1e-6, 1e-9, 0.0])


def smooth(c2, c1, c0):
    return lambda x: c2 * x * x + c1 * x + math.sin(c0 * x)


def kinked(c, m, s):
    return lambda x: c * abs(x - m) + s * x


def flat(c):
    return lambda x: c


@SETTINGS
@given(st.tuples(coeffs, coeffs, coeffs), brackets, xatols)
def test_smooth_functions(c, bracket, xatol):
    assert_same(smooth(*c), *bracket, xatol=xatol)


@SETTINGS
@given(st.tuples(coeffs, coeffs, coeffs), brackets, xatols)
def test_kinked_functions(c, bracket, xatol):
    assert_same(kinked(*c), *bracket, xatol=xatol)


@SETTINGS
@given(coeffs, brackets, xatols)
def test_flat_functions(c, bracket, xatol):
    assert_same(flat(c), *bracket, xatol=xatol)


@SETTINGS
@given(st.tuples(coeffs, coeffs, coeffs), brackets, st.integers(1, 6))
def test_maxiter_exhaustion(c, bracket, maxiter):
    assert_same(smooth(*c), *bracket, xatol=0.0, maxiter=maxiter)


@SETTINGS
@given(st.tuples(coeffs, coeffs, coeffs), brackets, st.floats(0.0, 1.0))
def test_nan_returning_functions(c, bracket, where):
    lo, hi = bracket
    cut = lo + where * (hi - lo)
    f = smooth(*c)
    assert_same(lambda x: math.nan if x > cut else f(x), lo, hi)


def test_all_nan_function():
    assert_same(lambda x: math.nan, 0.0, 1.0)


def test_rejects_bad_bounds():
    with pytest.raises(ValueError):
        minimize_bounded(abs, 1.0, 0.0)
    with pytest.raises(ValueError):
        minimize_bounded(abs, 0.0, math.inf)


@pytest.mark.parametrize(
    "func",
    [
        abs,
        lambda x: x * x,
        lambda x: -x,
        lambda x: math.cos(x) if math.isfinite(x) else math.nan,
    ],
)
@pytest.mark.parametrize(
    "bracket",
    [
        (-1e308, 1e308),
        (1e308, 1.7e308),
        (-1.7e308, -1e308),
        (0.0, sys.float_info.max),
        (1.7e308, sys.float_info.max),
    ],
)
def test_overflowing_brackets(func, bracket):
    # hi - lo or lo + hi overflows to inf, and steps past the largest
    # float turn x (and f(x)) into inf or NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert_same(func, *bracket)
