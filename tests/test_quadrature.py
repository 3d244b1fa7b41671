import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chardisp.quadrature import (
    ROUNDING_ULPS,
    NonFiniteIntegrandError,
    QuadratureError,
    integrate,
    integrate_shifts,
)

from oracles import midpoint_integral


def test_exact_on_polynomials():
    # a single Gauss-Kronrod panel integrates low-degree polynomials exactly
    res = integrate(lambda x: 3 * x**2, 0.0, 2.0, tol=1e-12)
    assert res.value == pytest.approx(8.0, abs=1e-13)

    res = integrate(lambda x: x**7 - x + 1.0, -1.0, 3.0, tol=1e-12)
    assert res.value == pytest.approx(3**8 / 8 - 1 / 8 - (9 / 2 - 1 / 2) + 4.0, rel=1e-14)


def test_known_transcendental_values():
    res = integrate(np.sin, 0.0, np.pi, tol=1e-12)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    res = integrate(lambda x: np.exp(-x * x), -10.0, 10.0, tol=1e-12)
    assert res.value == pytest.approx(np.sqrt(np.pi), rel=1e-13)


def test_kink_with_breakpoint_matches_oracle():
    f = lambda x: np.exp(-np.abs(x))
    res = integrate(f, -3.0, 5.0, tol=1e-12, breakpoints=(0.0,))
    exact = 2.0 - np.exp(-3.0) - np.exp(-5.0)
    assert res.value == pytest.approx(exact, abs=1e-12)
    # and against the independent midpoint oracle
    assert res.value == pytest.approx(midpoint_integral(f, -3.0, 5.0, n=2_000_000), abs=1e-10)


def test_breakpoints_outside_range_ignored():
    res = integrate(np.cos, 0.0, 1.0, tol=1e-12, breakpoints=(-5.0, 7.0, 0.5))
    assert res.value == pytest.approx(np.sin(1.0), abs=1e-13)


def test_error_bound_dominates_true_error():
    res = integrate(lambda x: np.sin(10 * x) ** 2, 0.0, 7.0, tol=1e-9)
    exact = 7.0 / 2 - np.sin(140.0) / 40.0
    assert abs(res.value - exact) <= res.error_bound + 1e-15


def test_budget_exhaustion_reports_estimate():
    # highly oscillatory integrand with a tiny budget cannot converge
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda x: np.sin(1e4 * x), 0.0, 1.0, tol=1e-14, max_panels=4)
    assert np.isfinite(exc.value.estimate)
    assert exc.value.error_bound > 1e-14
    assert exc.value.floor is None and "did not converge" in str(exc.value)


def test_rounding_floor_failure_says_so():
    # a constant 1e12 leaves |kronrod - gauss| at the rounding of its
    # weighted sums on every panel, so bisection never lowers the bound
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda x: np.full_like(x, 1e12), 0.0, 1.0, tol=1e-8)
    e = exc.value
    assert not isinstance(e, NonFiniteIntegrandError)
    assert e.floor == pytest.approx(ROUNDING_ULPS * np.finfo(float).eps * 1e12, rel=1e-12)
    assert 1e-8 < e.error_bound <= e.floor
    assert f"below the integral's rounding floor {e.floor!r}:" in str(e)
    assert "did not converge" not in str(e)


def test_tolerance_halving_consistency():
    # values at tol and tol/2 differ by at most the sum of the two bounds
    f = lambda x: np.exp(-x * x) * np.cos(3 * x)
    r1 = integrate(f, -8.0, 8.0, tol=1e-8)
    r2 = integrate(f, -8.0, 8.0, tol=5e-9)
    assert abs(r1.value - r2.value) <= r1.error_bound + r2.error_bound


def test_degenerate_and_invalid_limits():
    assert integrate(np.sin, 2.0, 2.0).value == 0.0
    with pytest.raises(ValueError):
        integrate(np.sin, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(np.sin, 0.0, 1.0, tol=0.0)


def test_non_finite_integrand_names_the_abscissa():
    f = lambda x: np.where(x > 0.7, np.nan, 1.0)
    with pytest.raises(NonFiniteIntegrandError) as exc:
        integrate(f, 0.0, 1.0)
    assert isinstance(exc.value, QuadratureError)  # the CLI still exits with code 2
    assert exc.value.x > 0.7 and np.isnan(exc.value.value)
    assert "not finite" in str(exc.value) and "did not converge" not in str(exc.value)
    with pytest.raises(NonFiniteIntegrandError) as exc:
        integrate(lambda x: np.where(x < -0.5, -np.inf, x), -1.0, 1.0)
    assert exc.value.x < -0.5 and exc.value.value == -np.inf


def test_overflowing_panel_sum_names_the_largest_sample():
    # every sample is finite, but 1e308 times Kronrod weights summing to 2
    # is not; numpy's warning comes from the sum itself, so silence it here
    f = lambda x: np.where(x > 0.5, 1e308, 1.0)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteIntegrandError, match="panel sum overflowed") as exc:
            integrate(f, 0.0, 1.0)
    assert exc.value.value == 1e308 and exc.value.x > 0.5
    assert "not finite" not in str(exc.value)


def _cusp_integral(c: float) -> float:
    """Integral of |x - c|**0.7 over [-1, 2], for c in [-1, 2]."""
    return ((c + 1) ** 1.7 + (2 - c) ** 1.7) / 1.7


@settings(max_examples=40, deadline=None)
@given(tol=st.floats(1e-12, 1e-3), max_panels=st.integers(1, 80))
@example(tol=1e-12, max_panels=1)
def test_max_panels_is_a_hard_cap(tol, max_panels):
    f = lambda x: np.abs(x) ** 0.7
    free = integrate(f, -1.0, 2.0, tol=tol)
    try:
        res = integrate(f, -1.0, 2.0, tol=tol, max_panels=max_panels)
    except QuadratureError as exc:
        assert not isinstance(exc, NonFiniteIntegrandError)
        assert exc.error_bound > tol and max_panels < free.n_panels
    else:
        assert res.n_panels <= max_panels and res.error_bound <= tol
        if max_panels >= free.n_panels:  # the cap never bound
            assert res == free


def test_forced_panels_over_the_budget_are_refused_unevaluated():
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.sin(x)

    with pytest.raises(ValueError, match=r"force 4 panels, more than max_panels=2"):
        integrate(f, 0.0, 1.0, breakpoints=(0.25, 0.5, 0.75), max_panels=2)
    # in a batch, the shift's own cut counts, and the error names it
    with pytest.raises(ValueError, match=r"force 3 panels at shift 0\.6, more than max_panels=2"):
        integrate_shifts(lambda x, s: f(x), 0.0, 1.0, [0.4, 0.6], breakpoints=(0.4,), max_panels=2)
    assert calls == []
    assert integrate(np.sin, 0.0, 1.0, breakpoints=(0.25, 0.5, 0.75), max_panels=4).n_panels == 4


@settings(max_examples=25, deadline=None)
@given(tol=st.floats(1e-13, 1e-3))
def test_error_bound_dominates_on_cusps(tol):
    # a kink at a breakpoint, or left to bisection, and a batch of shifted
    # kinks, each cut at its own shift
    f = lambda x: np.abs(x) ** 0.7
    for breakpoints in ((), (0.0,)):
        res = integrate(f, -1.0, 2.0, tol=tol, breakpoints=breakpoints)
        assert abs(res.value - _cusp_integral(0.0)) <= res.error_bound + 1e-15
    shifts = np.linspace(-1.0, 2.0, 13)
    batch = integrate_shifts(lambda x, s: np.abs(x - s) ** 0.7, -1.0, 2.0, shifts, tol=tol)
    for s, res in zip(shifts, batch):
        assert abs(res.value - _cusp_integral(s)) <= res.error_bound + 1e-15
