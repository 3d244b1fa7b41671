import numpy as np
import pytest

from chardisp.quadrature import NonFiniteIntegrandError, QuadratureError, integrate

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
