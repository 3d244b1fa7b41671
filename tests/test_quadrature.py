import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chardisp import quadrature
from chardisp.quadrature import (
    ROUNDING_ULPS,
    NonFiniteIntegrandError,
    QuadratureError,
    integrate,
    integrate_shifts,
)

from oracles import midpoint_integral, numpy_wrapper_frames


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


def test_error_bound_covers_the_rounding_of_a_large_integral():
    # the Kronrod and Gauss sums agree to the bit, so the summed estimate is
    # 0, yet the value is 2.2e-5 off 1e12 sin(1): the bound adds the floor
    import mpmath as mp

    res = integrate(lambda x: 1e12 * np.cos(x), 0.0, 1.0, tol=1e-8)
    with mp.workdps(40):
        error = abs(mp.mpf(res.value) - mp.mpf(10) ** 12 * mp.sin(1))
    assert error > 1e-5
    assert error <= res.error_bound


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


def test_overflowing_panel_sum_raises_without_a_warning():
    # the same overflow as above, under warnings-as-errors: the error, not
    # numpy's warning about the sum, reaches the caller
    f = lambda x: np.where(x > 0.5, 1e308, 1.0)
    with pytest.raises(NonFiniteIntegrandError, match="panel sum overflowed: every sample is finite") as exc:
        integrate(f, 0.0, 1.0)
    assert exc.value.value == 1e308 and exc.value.x > 0.5 and exc.value.shift is None


def test_overflowing_sum_over_finite_panels_names_the_largest_panel():
    # each of the two panels holds 1.2e308, their sum does not fit
    f = lambda x: np.full(x.shape, 0.6e308)
    with pytest.raises(NonFiniteIntegrandError, match="panel sum overflowed: every panel is finite") as exc:
        integrate(f, -2.0, 2.0, breakpoints=(0.0,))
    assert exc.value.value == pytest.approx(1.2e308) and exc.value.x in (-1.0, 1.0)
    assert "rounding floor" not in str(exc.value)


@pytest.mark.parametrize("f, b, message", [
    (lambda x, s: np.where(x > s, np.nan, 1.0), 1.0, "integrand is not finite: value nan"),
    (lambda x, s: np.where(x > s, 1e308, 1.0), 1.0, "every sample is finite"),
    (lambda x, s: np.full(x.shape, 0.6e308) * (s == 0.5), 2.0, "every panel is finite"),
], ids=["nan", "sample-sum", "panel-sum"])
def test_batched_non_finite_failure_names_its_shift(f, b, message):
    # shift 2 stays finite and shift 0.5 does not
    with pytest.raises(NonFiniteIntegrandError, match=message) as exc:
        integrate_shifts(f, -2.0, b, [2.0, 0.5], breakpoints=lambda s: (s, 0.0))
    assert exc.value.shift == 0.5 and str(exc.value).endswith(" for shift 0.5")


def _counting(calls):
    def f(x, s=None):
        calls.append(x.shape)
        return np.sin(x)
    return f


@pytest.mark.parametrize("a, b, message", [
    (0.0, np.inf, r"limits must be finite: \[0\.0, inf\]"),
    (-np.inf, 0.0, r"limits must be finite: \[-inf, 0\.0\]"),
    (np.nan, 1.0, r"limits must be finite: \[nan, 1\.0\]"),
    (-1e308, 1e308, r"width overflows a float: \[-1e\+308, 1e\+308\]"),
], ids=["inf", "minus-inf", "nan", "width"])
def test_limits_that_cannot_be_integrated_are_refused_unevaluated(a, b, message):
    calls = []
    with pytest.raises(ValueError, match=message):
        integrate(_counting(calls), a, b)
    with pytest.raises(ValueError, match=message):
        integrate_shifts(_counting(calls), a, b, [0.0])
    assert calls == []


def test_infinite_tolerance_is_refused_unevaluated():
    # an infinite tolerance would return the first panels' sum as converged
    calls = []
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol}"):
            integrate(_counting(calls), 0.0, 30.0, tol=tol)
    assert calls == []


def test_nan_shift_is_refused_unevaluated():
    calls = []
    with pytest.raises(ValueError, match=r"shifts\[1\] is NaN"):
        integrate_shifts(_counting(calls), -1.0, 1.0, [0.0, np.nan, 0.5])
    assert calls == []


def _cusp_integral(c: float) -> float:
    """Integral of |x - c|**0.7 over [-1, 2], for c in [-1, 2]."""
    return ((c + 1) ** 1.7 + (2 - c) ** 1.7) / 1.7


@settings(max_examples=40, deadline=None)
@given(tol=st.floats(1e-12, 1e-3), max_panels=st.integers(1, 80))
@example(tol=1e-12, max_panels=1)
@example(tol=1.5927407402904255e-12, max_panels=30)  # under maximum marking alone, bound > tol
@example(tol=1.3337015264542533e-11, max_panels=25)  # bound > tol by less than the floor
def test_max_panels_is_a_hard_cap(tol, max_panels):
    f = lambda x: np.abs(x) ** 0.7
    free = integrate(f, -1.0, 2.0, tol=tol)
    try:
        res = integrate(f, -1.0, 2.0, tol=tol, max_panels=max_panels)
    except QuadratureError as exc:
        assert not isinstance(exc, NonFiniteIntegrandError)
        assert exc.error_bound > tol and max_panels < free.n_panels
    else:
        # the returned bound is the summed estimate, at most tol, plus the
        # rounding floor, which for a nonnegative integrand is taken of the value
        floor = ROUNDING_ULPS * np.finfo(float).eps * res.value
        assert res.n_panels <= max_panels and res.error_bound - floor <= tol
        if max_panels >= free.n_panels:  # the cap never bound
            assert res == free


def _replay(f, a, b, tol, max_panels, breakpoints, cusps):
    """Integrate f over [a, b], recording every round: returns the list of
    (live panels as (lo, hi, estimate) in order, set of (lo, hi) bisected)
    of each round that bisects, and the result or the QuadratureError."""
    evaluated = []
    gk15 = quadrature._gk15

    def recorded(g, lo, hi, *rest):
        k, err = gk15(g, lo, hi, *rest)
        evaluated.append(list(zip(lo.tolist(), hi.tolist(), err.tolist())))
        return k, err

    quadrature._gk15 = recorded
    try:
        result = integrate(f, a, b, tol=tol, breakpoints=breakpoints, max_panels=max_panels, cusps=cusps)
    except QuadratureError as exc:
        result = exc
    finally:
        quadrature._gk15 = gk15
    live, rounds = evaluated[0], []
    for kids in evaluated[1:]:
        split = {(kids[i][0], kids[i + 1][1]): kids[i:i + 2] for i in range(0, len(kids), 2)}
        rounds.append((live, set(split)))
        live = [q for p in live for q in split.get(p[:2], [p])]
    return rounds, result


_marking_draws = dict(
    beta=st.floats(0.1, 0.9), c=st.floats(-1.0, 2.0), tol=st.floats(1e-13, 1e-4),
    max_panels=st.integers(2, 120), cut=st.sampled_from(["none", "breakpoint", "cusp"]),
)


def _marking_rounds(beta, c, tol, max_panels, cut):
    f = lambda x: np.abs(x - c) ** beta
    return _replay(f, -1.0, 2.0, tol, max_panels, (c,) if cut == "breakpoint" else (), (c,) if cut == "cusp" else ())


@settings(max_examples=40, deadline=None)
@given(**_marking_draws)
@example(beta=0.7, c=0.0, tol=1e-12, max_panels=120, cut="none")
@example(beta=0.5, c=0.25, tol=1e-10, max_panels=7, cut="breakpoint")  # more maximum marks than room
@example(beta=0.3, c=0.5, tol=1e-13, max_panels=12, cut="cusp")
def test_tolerance_share_marks_a_superset_of_maximum_marking(beta, c, tol, max_panels, cut):
    # each round bisects every splittable panel whose estimate is at least
    # MARK_FRACTION times the largest (maximum marking) or 1 / MARK_FRACTION
    # times the equal share tol / count of the tolerance; when the budget
    # has room for fewer, the largest estimates among them
    eps = np.finfo(float).eps
    for live, split in _marking_rounds(beta, c, tol, max_panels, cut)[0]:
        splittable = [p for p in live if p[1] - p[0] >= 64 * eps * max(abs(p[0]), abs(p[1]), 3.0)]
        worst = max(e for _, _, e in splittable)
        threshold = min(quadrature.MARK_FRACTION * worst, tol / (quadrature.MARK_FRACTION * len(live)))
        maximum = {p[:2] for p in splittable if p[2] >= quadrature.MARK_FRACTION * worst}
        marked = sorted((p for p in splittable if p[2] >= threshold), key=lambda p: -p[2])
        room = max_panels - len(live)
        assert maximum <= {p[:2] for p in marked}
        assert split == {p[:2] for p in marked[:room]}
        if len(maximum) <= room:
            assert maximum <= split
        else:  # the budget's room goes to the largest estimates, all of them maximum marks
            assert split <= maximum and len(split) == room


@settings(max_examples=40, deadline=None)
@given(**_marking_draws)
@example(beta=0.5, c=0.25, tol=1e-10, max_panels=7, cut="breakpoint")
def test_tolerance_share_marks_never_pass_the_budget(beta, c, tol, max_panels, cut):
    rounds, result = _marking_rounds(beta, c, tol, max_panels, cut)
    for live, split in rounds:
        assert len(live) + len(split) <= max_panels
    if not isinstance(result, QuadratureError):
        assert result.n_panels <= max_panels


def test_forced_panels_over_the_budget_are_refused_unevaluated():
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.sin(x)

    with pytest.raises(ValueError, match=r"force 4 panels, more than max_panels=2"):
        integrate(f, 0.0, 1.0, breakpoints=(0.25, 0.5, 0.75), max_panels=2)
    # in a batch, each shift's own cuts count, and the error names the shift
    with pytest.raises(ValueError, match=r"force 3 panels at shift 0\.6, more than max_panels=2"):
        integrate_shifts(lambda x, s: f(x), 0.0, 1.0, [0.4, 0.6], breakpoints=lambda s: (s, 0.4), max_panels=2)
    assert calls == []
    assert integrate(np.sin, 0.0, 1.0, breakpoints=(0.25, 0.5, 0.75), max_panels=4).n_panels == 4


@settings(max_examples=25, deadline=None)
@given(tol=st.floats(1e-13, 1e-3))
def test_error_bound_dominates_on_cusps(tol):
    # a kink at a breakpoint, or left to bisection, or graded as a cusp, and
    # a batch of shifted kinks, each cut (and graded) at its own shift
    f = lambda x: np.abs(x) ** 0.7
    for breakpoints, cusps in (((), ()), ((0.0,), ()), ((), (0.0,))):
        res = integrate(f, -1.0, 2.0, tol=tol, breakpoints=breakpoints, cusps=cusps)
        assert abs(res.value - _cusp_integral(0.0)) <= res.error_bound + 1e-15
    shifts = np.linspace(-1.0, 2.0, 13)
    for cusps in (None, lambda s: (s,)):
        values, bounds, _ = integrate_shifts(lambda x, s: np.abs(x - s) ** 0.7, -1.0, 2.0, shifts, tol=tol,
                                             breakpoints=lambda s: (s,), cusps=cusps)
        for s, value, bound in zip(shifts, values, bounds):
            assert abs(value - _cusp_integral(s)) <= bound + 1e-15


def test_midpoints_near_the_float_maximum_do_not_overflow():
    # lo + hi overflows on every panel of [1e308, 1.7e308]; 0.5 lo + 0.5 hi
    # does not, for a panel's midpoint nor for a bisection point
    res = integrate(lambda x: np.ones_like(x), 1e308, 1.7e308, tol=1e295)
    assert res.value == pytest.approx(0.7e308, rel=1e-15) and res.n_panels == 1
    res = integrate(lambda x: np.cos((x - 1e308) / 1e307), 1e308, 1.7e308, tol=1e295)
    assert res.n_panels > 1
    assert res.value == pytest.approx(1e307 * np.sin(7.0), rel=1e-13)


def test_numpy_wrapper_frames_do_not_grow_with_rounds():
    # numpy's Python-level wrappers cost 1-2 us a call, so none of them may
    # run once per round: a cusp refining in 19 rounds enters as many wrapper
    # frames as a smooth integrand refining in 4, and so does the same cusp
    # graded, in graded and plain panels; and the rounds and the panel
    # evaluation enter no numpy Python frame at all, not even a dispatcher
    # such as np.where's
    shifts = np.linspace(-0.5, 0.5, 5)
    calls = []
    engine = (quadrature._rounds.__code__, quadrature._gk15.__code__)

    def frames(f, cusps=None):
        def counted(x, s):
            calls.append(None)
            return f(x, s)
        calls.clear()
        run = lambda: integrate_shifts(counted, -1.0, 1.0, shifts, breakpoints=lambda s: (s,), cusps=cusps)
        n, rounds = numpy_wrapper_frames(run), len(calls)
        assert numpy_wrapper_frames(run, files=None, callers=engine) == 0
        return n, rounds, numpy_wrapper_frames(run, files=("_ufunc_config.py",))

    smooth, smooth_rounds, smooth_errstate = frames(lambda x, s: np.cos(20.0 * (x - s)))
    cusp, cusp_rounds, cusp_errstate = frames(lambda x, s: np.abs(x - s) ** 0.3)
    graded, graded_rounds, graded_errstate = frames(lambda x, s: np.abs(x - s) ** 0.3, lambda s: (s,))
    assert cusp_rounds >= 3 * smooth_rounds and graded_rounds > 1
    assert cusp == smooth == graded
    # numpy's error state is entered a fixed number of times per run
    assert cusp_errstate == smooth_errstate == graded_errstate


def test_shifts_of_any_shape_integrate_each_distinct_shift_once():
    shifts = np.array([[0.5, -0.25, 0.5], [1.0, -0.25, 0.5]])
    cusp = lambda x, s: np.abs(x - s) ** 0.7
    seen = []  # the shift of every panel the batch evaluates

    def f(x, s):
        seen.extend(s[:, 0].tolist())
        return cusp(x, s)

    values, bounds, panels = integrate_shifts(f, -1.0, 2.0, shifts, tol=1e-10, breakpoints=lambda s: (s,))
    assert values.shape == bounds.shape == panels.shape == shifts.shape
    for s in (-0.25, 0.5, 1.0):
        rows = []  # the panels the shift takes alone
        alone = integrate(lambda x: rows.append(len(x)) or cusp(x, s), -1.0, 2.0, tol=1e-10, breakpoints=(s,))
        for idx in zip(*np.nonzero(shifts == s)):
            assert (values[idx], bounds[idx], panels[idx]) == (alone.value, alone.error_bound, alone.n_panels)
        # the 0.5 thrice and the -0.25 twice, each refined as one integral
        assert seen.count(s) == sum(rows)


def test_an_overflowing_integrand_is_raised_not_warned():
    # exp(1000 x) overflows to inf on most of [0, 1]: numpy's warning about
    # it is silenced, and the sample is raised
    with pytest.raises(NonFiniteIntegrandError, match=r"integrand is not finite: value inf at x=") as exc:
        integrate(lambda x: np.exp(1000 * x), 0.0, 1.0)
    assert exc.value.value == np.inf and exc.value.x > 0.7


def test_an_overflow_inside_a_finite_integrand_is_not_warned():
    # 1 / exp(1000 x) is 0 wherever exp overflows, so the integral is finite
    res = integrate(lambda x: 1 / np.exp(1000 * x), 0.0, 1.0)
    assert abs(res.value - 1e-3) <= res.error_bound


@pytest.mark.parametrize("cusp", [0.0, 1.0])
def test_only_the_panels_that_reach_a_cusp_are_graded(cusp):
    # |x - c|^0.3 on [0, 1], graded at its cusp c: fewer panels than plain
    # bisection (16 against 29), each row that reaches c has its nodes clustered there
    # (its centre a sixteenth of the panel from c), and every other row,
    # the other child of each split included, is plain
    f = lambda x: np.abs(x - cusp) ** 0.3
    rows = []
    res = integrate(lambda x: rows.append(x.copy()) or f(x), 0.0, 1.0, tol=1e-13, cusps=(cusp,))
    assert abs(res.value - 1 / 1.3) <= res.error_bound
    assert 1 < res.n_panels < integrate(f, 0.0, 1.0, tol=1e-13).n_panels
    x = np.concatenate(rows)
    width = x[:, 14] - x[:, 0]
    reaches = np.abs(x[:, 0 if cusp == 0.0 else 14] - cusp) < 1e-6 * width
    near, far = np.abs(x[:, 7] - x[:, [0, 14]].T)
    graded = np.minimum(near, far) < 0.1 * np.maximum(near, far)
    assert np.array_equal(graded, reaches) and np.sum(graded) > 1


@pytest.mark.parametrize("grade", [0, 1, 2])
def test_each_grade_table_row_is_a_rule_on_the_reference_panel(grade):
    # nodes strictly increasing inside (-1, 1), column 7 strictly inside,
    # and both weight rows integrating 1 and (1 + x) / 2 exactly, to 4 ulps
    x = quadrature._GRADED_NODES[grade]
    assert -1.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0) and -1.0 < x[7] < 1.0
    for w, nodes in [(quadrature._GRADED_WEIGHTS_K[grade], x), (quadrature._GRADED_WEIGHTS_G[grade], x[1::2])]:
        assert abs(math.fsum(w) - 2.0) <= 4 * np.spacing(2.0)
        assert abs(math.fsum(w * (0.5 + 0.5 * nodes)) - 1.0) <= 4 * np.spacing(1.0)


def test_a_panel_between_two_cusps_is_cut_at_its_midpoint():
    # (x (1 - x))^0.3 with both ends marked: [0, 1] starts as [0, 1/2]
    # graded at 0 and [1/2, 1] graded at 1, and converges to the Beta value
    rows = []
    f = lambda x: (x * (1.0 - x)) ** 0.3
    res = integrate(lambda x: rows.append(x.copy()) or f(x), 0.0, 1.0, tol=1e-13, cusps=(0.0, 1.0))
    assert abs(res.value - math.gamma(1.3) ** 2 / math.gamma(2.6)) <= res.error_bound
    first = rows[0]
    assert len(first) == 2 and first[0, 7] == 0.5 / 16 and first[1, 7] == 1.0 - 0.5 / 16


def test_a_panel_between_cusps_one_ulp_apart_is_graded_at_its_lower_end():
    # the panel [0.5, nextafter(0.5)] has no midpoint strictly inside, so it
    # keeps one grade; the integral agrees with the one cusp it stands for
    f = lambda x: np.abs(x - 0.5) ** 0.7
    tol = 1e-10
    twin = integrate(f, 0.0, 1.0, tol=tol, cusps=(0.5, np.nextafter(0.5, 1.0)))
    one = integrate(f, 0.0, 1.0, tol=tol, cusps=(0.5,))
    assert twin.error_bound <= tol + 32 * np.spacing(1.0)
    assert abs(twin.value - one.value) <= tol
    assert abs(twin.value - 2.0 * 0.5 ** 1.7 / 1.7) <= tol


def test_cusps_outside_the_limits_are_ignored_and_inside_are_cuts():
    f = lambda x: np.abs(x) ** 0.7
    assert integrate(f, 0.5, 2.0, cusps=(0.0, 3.0)) == integrate(f, 0.5, 2.0)
    assert integrate(f, -1.0, 2.0, cusps=(0.0,)).value == pytest.approx(_cusp_integral(0.0), abs=1e-10)


def test_plain_integrals_keep_their_bits_beside_graded_ones(monkeypatch):
    # blocks of 8 rows mixing graded and plain panels: a shift without a
    # cusp gives the bits it gives alone without one, and a graded shift the
    # bits it gives alone with one
    f = lambda x, s: np.abs(x - s) ** 0.6 * np.exp(-x * x)
    shifts = np.linspace(-1.0, 1.0, 9)
    alone = [integrate(lambda x: f(x, s), -3.0, 3.0, breakpoints=(s,), cusps=(s,) if s > 0 else ()) for s in shifts]
    monkeypatch.setattr(quadrature, "PANEL_BLOCK", 8)
    batch = integrate_shifts(f, -3.0, 3.0, shifts, breakpoints=lambda s: (s,), cusps=lambda s: (s,) if s > 0 else ())
    for res, one in zip(zip(*batch), alone):
        assert res == (one.value, one.error_bound, one.n_panels)
