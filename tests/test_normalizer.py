import math
import sys
import warnings
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chardisp import normalizer, quadrature
from chardisp.charfn import Cauchy, InvalidSpecError, Laplace, Normal, SymmetricNIG, SymmetricStable
from chardisp.deviance import UnitDeviancePair
from chardisp.normalizer import (
    CosineGaussian,
    KernelSpec,
    NormalizerSpec,
    OddGaussian,
    PositivityError,
    TabulatedEven,
    Window,
    Zero,
    convolution_residual,
    fft_deconvolve_check,
    kernel_integral,
    perturbation_from_dict,
    perturbed_normalizer,
    trivial_normalizer,
    window_convolve,
)
from chardisp.quadrature import (
    NonFiniteIntegrandError,
    QuadratureError,
    integrate,
    integrate_shifts,
)

from oracles import dense_minimum, fft_deconvolve_reference, midpoint_convolution, midpoint_integral, numpy_wrapper_frames

NN = UnitDeviancePair(Normal(1.0), Normal(1.0))
LL = UnitDeviancePair(Laplace(1.0), Laplace(1.0))
W20 = Window(-20.0, 20.0, 1024)

# Golden values computed ahead of time with the 1e7-point midpoint oracle
# (stable to ~7e-15 under doubling of the resolution).
GOLDEN_INTEGRAL_NN = 39.327251983583842
GOLDEN_INTEGRAL_LL = 38.621340936110386


@dataclass(frozen=True)
class CountingKernel(KernelSpec):
    """KernelSpec that records the size of every evaluation."""

    calls: list = field(default_factory=list, compare=False, repr=False)

    def eval(self, y):
        self.calls.append(np.size(y))
        return super().eval(y)


@dataclass(frozen=True)
class AmplitudeFirst(CosineGaussian):
    """CosineGaussian with its amplitude applied first, so that a huge
    amplitude overflows A (cos + 1) to inf where the envelope underflows to
    0, and inf * 0 is NaN."""

    def eval(self, y):
        yy = np.asarray(y, dtype=float)
        return self.amplitude * (np.cos(self.frequency * yy) + 1.0) * np.exp(-yy ** 2 / (2.0 * self.width ** 2))


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            Window(1.0, 1.0)
        with pytest.raises(ValueError):
            Window(2.0, -2.0)
        with pytest.raises(ValueError):
            Window(-1.0, 1.0, n_grid=8)

    def test_rejects_a_width_that_overflows(self):
        with pytest.raises(ValueError, match="window width overflows"):
            Window(-1e308, 1e308)
        assert Window(-8e307, 8e307).width == 1.6e308

    @pytest.mark.parametrize("lo, hi, n_grid", [([1.0], [2.0], 16), (True, 5.0, 16), ("a", 1.0, 16), (-1.0, 1.0, 20.5)])
    def test_rejects_non_numbers(self, lo, hi, n_grid):
        with pytest.raises(ValueError):
            Window(lo, hi, n_grid)

    def test_grids(self):
        w = Window(-2.0, 2.0, 16)
        assert w.width == 4.0
        assert w.grid().size == 17
        assert w.grid(4).size == 65
        pg = w.periodic_grid()
        assert pg.size == 16
        assert pg[0] == -2.0 and pg[-1] < 2.0
        assert w.middle_half() == (-1.0, 1.0)
        assert w.contains([0.0, 2.0, -2.0])
        assert not w.contains(2.5)


class TestKernel:
    def test_unit_at_origin(self):
        for lam in (0.0, 0.1, 1.0, 10.0):
            assert KernelSpec(NN, lam).eval(0.0) == 1.0

    def test_pinned_value_at_deviance_maximum(self):
        k = KernelSpec(NN, 1.0)
        t_star = math.sqrt(2.0 * math.log(2.0))
        assert k.eval(t_star) == pytest.approx(math.exp(-0.25), rel=1e-15)

    def test_lower_bound_from_deviance_range(self):
        k = KernelSpec(NN, 3.0)
        ys = np.linspace(-50.0, 50.0, 10001)
        v = k.eval(ys)
        assert np.all(v >= math.exp(-6.0))
        assert np.all(v <= 1.0)

    def test_even(self):
        k = KernelSpec(LL, 1.0)
        ys = np.linspace(0.0, 30.0, 1001)
        assert np.array_equal(k.eval(ys), k.eval(-ys))

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            KernelSpec(NN, -0.5)

    @pytest.mark.parametrize(
        "phi", [Normal(1.0), Cauchy(1.0), Laplace(1.0), SymmetricStable(0.7, 1.0), SymmetricNIG(1.0, 1.0)],
        ids=lambda phi: phi.family,
    )
    def test_evaluation_enters_no_fromnumeric_wrapper(self, phi):
        # the kernel runs once per quadrature block, where a wrapper such as
        # np.clip costs as much as the arithmetic of a small block: not that
        # one, nor ndarray.clip's _methods._clip, nor any other Python-level
        # numpy code runs, only ufuncs
        k = KernelSpec(UnitDeviancePair(phi, Normal(1.0)), 1.0)
        ys = np.linspace(-5.0, 5.0, 15)
        assert numpy_wrapper_frames(lambda: k.eval(ys), files=None) == 0


class TestKernelIntegral:
    def test_flat_boundary_case(self):
        # lam = 0 makes the kernel identically 1
        assert kernel_integral(KernelSpec(NN, 0.0), Window(-10.0, 10.0)) == pytest.approx(20.0, abs=1e-12)

    def test_golden_values_from_midpoint_oracle(self):
        got = kernel_integral(KernelSpec(NN, 1.0), W20, tol=1e-10)
        assert got == pytest.approx(GOLDEN_INTEGRAL_NN, rel=1e-8)
        got = kernel_integral(KernelSpec(LL, 1.0), W20, tol=1e-10)
        assert got == pytest.approx(GOLDEN_INTEGRAL_LL, rel=1e-8)

    def test_range_bracket(self):
        lam = 1.0
        got = kernel_integral(KernelSpec(NN, lam), W20)
        assert W20.width * math.exp(-2.0 * lam) <= got <= W20.width

    def test_strictly_decreasing_in_lambda(self):
        vals = [kernel_integral(KernelSpec(LL, lam), W20) for lam in (0.0, 0.1, 0.5, 1.0, 2.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_tolerance_halving_consistency(self):
        k = KernelSpec(LL, 1.0)
        r1 = integrate(k.eval, W20.lo, W20.hi, tol=1e-8, breakpoints=(0.0,))
        r2 = integrate(k.eval, W20.lo, W20.hi, tol=5e-9, breakpoints=(0.0,))
        assert abs(r1.value - r2.value) <= r1.error_bound + r2.error_bound


    @pytest.mark.parametrize(
        "charfn", [Normal(1.3), Cauchy(0.7), Laplace(1.1), SymmetricStable(0.7, 1.0), SymmetricNIG(2.0, 1.0)]
    )
    def test_is_the_plain_integral_of_the_kernel(self, charfn):
        # the window convolution of 1 with K at shift 0 integrates K(0 - y),
        # which equals K(y) bit for bit, graded at 0 only for the fractional
        # stable exponent; each kernel bisects at least KERNEL_SEED_LEVELS
        # times toward 0, so the seeded cuts leave the value as it is
        k = KernelSpec(UnitDeviancePair(charfn, Normal(1.0)), 1.0)
        assert k.graded == isinstance(charfn, SymmetricStable)
        plain = integrate(k.eval, W20.lo, W20.hi, tol=1e-10, breakpoints=(0.0,), cusps=(0.0,) if k.graded else ()).value
        assert kernel_integral(k, W20, tol=1e-10) == plain


    @pytest.mark.parametrize(
        "phi, psi, graded",
        [(SymmetricStable(0.7, 1.0), Normal(1.0), True), (SymmetricStable(1.5, 2.0), Cauchy(1.0), True),
         (SymmetricStable(1.0, 1.0), Normal(1.0), False), (SymmetricStable(2.0, 1.0), Normal(1.0), False),
         (Cauchy(1.0), Normal(1.0), False), (Normal(1.0), SymmetricStable(0.7, 1.0), False),
         (Laplace(1.0), Laplace(1.0), False), (SymmetricNIG(1.0, 1.0), SymmetricNIG(1.0, 1.0), False)],
    )
    def test_only_a_fractional_phi_exponent_grades(self, phi, psi, graded):
        assert KernelSpec(UnitDeviancePair(phi, psi), 1.0).graded is graded

    @pytest.mark.parametrize("alpha", [0.7, 1.5, 1.9])
    def test_graded_stable_kernel_matches_a_50_digit_reference(self, alpha):
        # K of stable alpha x normal, graded at its cusp 0, on [0, 1] and as
        # the kernel integral over the window, against mpmath's tanh-sinh
        # quadrature at 50 digits: each within its own error bound
        import mpmath as mp

        k = KernelSpec(UnitDeviancePair(SymmetricStable(alpha, 1.0), Normal(1.0)), 1.0)
        one_sided = integrate(k.eval, 0.0, 1.0, tol=1e-13, cusps=(0.0,))
        window = integrate(k.eval, W20.lo, W20.hi, tol=1e-10, breakpoints=(0.0,), cusps=(0.0,))
        assert window.value == kernel_integral(k, W20, tol=1e-10)
        assert one_sided.n_panels < integrate(k.eval, 0.0, 1.0, tol=1e-13).n_panels
        with mp.workdps(50):
            a = mp.mpf(alpha)
            kernel = lambda y: mp.exp(-(1 - mp.exp(-abs(y) ** a)) * mp.exp(-y * y / 2))
            assert abs(mp.mpf(one_sided.value) - mp.quad(kernel, [0, 1])) <= one_sided.error_bound
            assert abs(mp.mpf(window.value) - 2 * mp.quad(kernel, [0, 1, 2, 4, 8, 20])) <= window.error_bound


def plain_kernel_integral(k, w, tol=1e-10):
    """(value, bound, panels) of K over the window cut at 0 alone, as
    :func:`window_convolve` integrates it at shift 0, and the number of
    integrand calls."""
    calls = []
    out = integrate_shifts(lambda y, s: calls.append(1) or k.eval(s - y), w.lo, w.hi, 0.0, tol=tol,
                           breakpoints=lambda s: (s, 0.0), cusps=(lambda s: (s,)) if k.graded else None)
    return tuple(v.item() for v in out), len(calls)


def seeded_kernel_integral(k, w, tol=1e-10):
    """(value, bound, panels) of :func:`kernel_integral`'s own quadrature
    call, and the number of integrand calls it made."""
    calls, results = [], []

    def spy(f, *args, **kwargs):
        results.append(integrate_shifts(lambda y, s: calls.append(1) or f(y, s), *args, **kwargs))
        return results[-1]

    with mock.patch.object(normalizer, "integrate_shifts", spy):
        value = kernel_integral(k, w, tol)
    (got,) = results
    got = tuple(v.item() for v in got)
    assert value == got[0]
    return got, len(calls)


# the five benchmark pairs at their reference scales, and the graded stable
# 0.7 x normal kernel at unit scales
BENCHMARK_KERNELS = {
    "normal": (Normal(1.0866), Normal(0.9214)),
    "laplace": (Laplace(0.8184), Laplace(0.8074)),
    "cauchy_normal": (Cauchy(1.166), Normal(1.2107)),
    "nig": (SymmetricNIG(1.0, 1.073), SymmetricNIG(1.0, 1.1283)),
    "stable07_normal": (SymmetricStable(0.7, 1.0446), Normal(1.2208)),
    "stable07_unit": (SymmetricStable(0.7, 1.0), Normal(1.0)),
}
# the kernels of the figures command, on its default window
FIGURES_KERNELS = {
    "fig1A": (Normal(1.0), Normal(1.0)),
    "fig1B": (Cauchy(1.0), Normal(1.0)),
    "fig2C": (Laplace(1.0), Laplace(1.0)),
}
SEEDED_CASES = [pytest.param(pair, w, id=f"{name}[{w.lo:g},{w.hi:g}]")
                for w in (W20, Window(-12.0, 20.0)) for name, pair in BENCHMARK_KERNELS.items()]
SEEDED_CASES += [pytest.param(pair, W20, id=name) for name, pair in FIGURES_KERNELS.items()]
_SEED_SCALES = st.floats(min_value=0.1, max_value=10.0)
SEED_MEMBERS = st.one_of(
    st.builds(Normal, _SEED_SCALES), st.builds(Cauchy, _SEED_SCALES), st.builds(Laplace, _SEED_SCALES),
    st.builds(SymmetricStable, st.floats(min_value=0.1, max_value=2.0), _SEED_SCALES),
    st.builds(SymmetricNIG, _SEED_SCALES, _SEED_SCALES),
)


class TestSeededKernelMesh:
    @pytest.mark.parametrize("pair, w", SEEDED_CASES)
    def test_bit_identical_in_fewer_calls(self, pair, w):
        # each of these bisects at least KERNEL_SEED_LEVELS times toward 0
        # on its own, so the seeded run ends on the plain run's mesh
        k = KernelSpec(UnitDeviancePair(*pair), 1.0)
        plain, plain_calls = plain_kernel_integral(k, w)
        seeded, seeded_calls = seeded_kernel_integral(k, w)
        assert seeded == plain
        assert seeded_calls < plain_calls

    @pytest.mark.parametrize("w", [Window(1.0, 30.0), Window(0.0, 20.0)], ids=["[1,30]", "[0,20]"])
    @pytest.mark.parametrize("pair", list(BENCHMARK_KERNELS.values()), ids=list(BENCHMARK_KERNELS))
    def test_no_cuts_without_zero_inside(self, pair, w):
        k = KernelSpec(UnitDeviancePair(*pair), 1.0)
        assert seeded_kernel_integral(k, w) == plain_kernel_integral(k, w)

    def test_cuts_are_the_engines_bisection_points(self):
        # the first levels toward 0 of each half, bit for bit as the engine
        # splits a panel: 0.5 * lo + 0.5 * hi
        cuts = []
        with mock.patch.object(normalizer, "window_convolve", lambda g, k, s, w, tol, corners: cuts.extend(corners) or 1.0):
            kernel_integral(KernelSpec(NN, 1.0), Window(-12.0, 20.0))
        levels = normalizer.KERNEL_SEED_LEVELS
        assert cuts == [-12.0 / 2 ** j for j in range(1, levels + 1)] + [20.0 / 2 ** j for j in range(1, levels + 1)]

    @settings(max_examples=300, deadline=None)
    @given(phi=SEED_MEMBERS, psi=SEED_MEMBERS, log_lam=st.floats(min_value=-2.0, max_value=2.0),
           w=st.one_of(st.sampled_from([Window(-2.0, 2.0), Window(-7.0, 7.0), Window(-12.0, 20.0), W20]),
                       st.builds(Window, st.floats(min_value=-20.0, max_value=-2.0),
                                 st.floats(min_value=2.0, max_value=20.0))))
    def test_within_the_plain_bound(self, phi, psi, log_lam, w):
        # a kernel resolved on a coarser mesh than the seeded one (a narrow
        # window beside its structure, a nearly flat kernel) gets more
        # panels; the value moves within the plain run's error bound
        k = KernelSpec(UnitDeviancePair(phi, psi), 10.0 ** log_lam)
        (plain, bound, _), _ = plain_kernel_integral(k, w)
        (seeded, _, _), _ = seeded_kernel_integral(k, w)
        assert abs(seeded - plain) <= bound


class TestWindowConvolve:
    def test_any_shape_one_integral_per_distinct_shift(self):
        shifts = np.array([[0.0, 1.5, -2.0], [1.5, 0.0, 3.0]])
        g = CosineGaussian().eval
        k = CountingKernel(LL, 1.0)
        got = window_convolve(g, k, shifts, W20, 1e-10)
        assert got.shape == (2, 3)
        for idx, s in np.ndenumerate(shifts):
            assert got[idx] == window_convolve(g, KernelSpec(LL, 1.0), s, W20, 1e-10)
        # as many kernel abscissae as the distinct shifts take one at a time:
        # the repeated 0 and 1.5 are integrated once each
        abscissae = 0
        for s in (0.0, 1.5, -2.0, 3.0):
            single = CountingKernel(LL, 1.0)
            window_convolve(g, single, s, W20, 1e-10)
            abscissae += sum(single.calls)
        assert sum(k.calls) == abscissae

    def test_more_shifts_than_one_chunk_match_single_shifts(self, monkeypatch):
        # the cusp-heavy stable 0.7 x normal kernel, across chunk and block
        # boundaries made small: every shift refines exactly as it does alone,
        # graded at its corner s, and no integrand call gets more than a
        # block of panels
        k = KernelSpec(UnitDeviancePair(SymmetricStable(0.7, 1.0), Normal(1.0)), 1.0)
        chunk, block = 4, 16
        shifts = np.linspace(-9.0, 9.0, 2 * chunk + 3)
        f = lambda y, s: k.eval(y) * k.eval(s - y)
        alone = [integrate(lambda y: f(y, s), W20.lo, W20.hi, tol=1e-10, breakpoints=(s, 0.0), cusps=(s,))
                 for s in shifts]
        single = [window_convolve(k.eval, k, s, W20, 1e-10) for s in shifts]
        monkeypatch.setattr(quadrature, "SHIFT_CHUNK", chunk)
        monkeypatch.setattr(quadrature, "PANEL_BLOCK", block)
        rows, panels = [], []
        gk15 = quadrature._gk15
        monkeypatch.setattr(quadrature, "_gk15", lambda f, lo, *rest: panels.append(lo.size) or gk15(f, lo, *rest))
        counting = lambda y, s: rows.append(len(y)) or f(y, s)
        batch = integrate_shifts(counting, W20.lo, W20.hi, shifts, tol=1e-10, breakpoints=lambda s: (s, 0.0),
                                 cusps=lambda s: (s,))
        values = window_convolve(k.eval, k, shifts, W20, 1e-10)
        assert max(rows) <= block < max(panels)
        for res, one, value, single_value in zip(zip(*batch), alone, values, single):
            assert res == (one.value, one.error_bound, one.n_panels)
            assert value == single_value == one.value

    def test_budget_failure_names_the_shift(self):
        with pytest.raises(QuadratureError) as exc:
            window_convolve(np.ones_like, KernelSpec(LL, 1.0), np.array([1.5]), Window(-2.0, 2.0), 1e-300)
        assert not isinstance(exc.value, NonFiniteIntegrandError)
        assert exc.value.shift == 1.5 and "at shift 1.5:" in str(exc.value)


class TestTrivialNormalizer:
    def test_flat_boundary_case(self):
        norm = trivial_normalizer(KernelSpec(NN, 0.0), Window(-10.0, 10.0))
        assert norm.a_tilde == pytest.approx(0.05, abs=1e-14)
        assert norm.kind == "trivial"
        assert norm.value(3.2) == norm.a_tilde

    def test_rejected_when_the_kernel_integrates_to_zero(self):
        # K vanishes at every quadrature node: no constant normalizes it
        with pytest.raises(ValueError, match="kernel integral over the window is 0.0"):
            trivial_normalizer(KernelSpec(NN, 1e300), W20)

    def test_reciprocal_of_golden_integral(self):
        norm = trivial_normalizer(KernelSpec(NN, 1.0), W20)
        assert norm.a_tilde == pytest.approx(1.0 / GOLDEN_INTEGRAL_NN, rel=1e-8)

    def test_window_shift_substitution_invariance(self):
        # shifting the window and the integrand together must not move the
        # constant; five random shifts
        k = KernelSpec(LL, 1.0)
        base = kernel_integral(k, W20, tol=1e-12)
        rng = np.random.default_rng(7)
        for c in rng.uniform(-30.0, 30.0, size=5):
            shifted = integrate(
                lambda y: k.eval(y - c), W20.lo + c, W20.hi + c, tol=1e-12, breakpoints=(c,)
            ).value
            assert abs(shifted - base) <= 1e-12 * abs(base)


class TestPerturbations:
    def test_zero_behaves_like_base(self):
        base = trivial_normalizer(KernelSpec(NN, 1.0), W20)
        pert = perturbed_normalizer(base, Zero())
        ys = np.linspace(-20.0, 20.0, 101)
        assert np.array_equal(pert.value(ys), base.value(ys))
        assert pert.kind == "perturbed"
        assert pert.is_constant()

    @pytest.mark.parametrize("zero, nonzero", [
        (Zero(), None),
        (CosineGaussian(amplitude=0.0), CosineGaussian(amplitude=1e-300)),
        (OddGaussian(amplitude=-0.0, width=2.0), OddGaussian(amplitude=0.01, width=2.0)),
        (TabulatedEven((0.0, 1.0, 2.0), (0.0, -0.0, 0.0)), TabulatedEven((0.0, 1.0, 2.0), (0.0, 0.0, 1e-9))),
    ], ids=["zero", "cosgauss", "oddgauss", "custom"])
    def test_is_zero_for_every_member_that_vanishes(self, zero, nonzero):
        base = trivial_normalizer(KernelSpec(NN, 1.0), W20)
        ys = np.linspace(-20.0, 20.0, 101)
        assert zero.is_zero() and not np.any(zero.eval(ys))
        assert perturbed_normalizer(base, zero).is_constant()
        if nonzero is not None:
            assert not nonzero.is_zero()
            assert not perturbed_normalizer(base, nonzero).is_constant()

    def test_catalog_cosine_gaussian_matches_closed_form(self):
        f = CosineGaussian()  # amplitude 1, frequency 3, width sqrt(5)
        ys = np.linspace(-10.0, 10.0, 401)
        expect = (np.cos(3.0 * ys) + 1.0) * np.exp(-(ys**2) / 10.0)
        assert np.allclose(f.eval(ys), expect, rtol=0, atol=1e-15)
        assert np.array_equal(f.eval(-ys), f.eval(ys))
        assert f.eval(0.0) == pytest.approx(2.0, abs=1e-15)

    @given(y=st.floats(min_value=-1e150, max_value=1e150),
           width=st.floats(min_value=1e-150, max_value=1e150))
    @settings(max_examples=300, deadline=None)
    def test_gaussian_envelope_at_ordinary_widths(self, y, width):
        # cosgauss with frequency 0 and amplitude 1/2 is its envelope exactly
        import mpmath as mp

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = CosineGaussian(0.5, 0.0, width).eval(np.array([y, -y]))
        with mp.workdps(50):
            e = (mp.mpf(y) / mp.mpf(width)) ** 2 / 2  # the exponent's magnitude
            ref = float(mp.exp(-e))
        # a few ulps of the exponent, scaled by it, and two steps of the subnormal grid
        slack = 8 * sys.float_info.epsilon * (1.0 + float(min(e, 800))) * ref + 2 * 5e-324
        assert got[0] == got[1]
        assert abs(got[0] - ref) <= slack
        if y == 0.0:
            assert got[0] == 1.0

    @pytest.mark.parametrize("y, width, limit", [
        (2.5, 1e155, 1.0),  # 2 s^2 overflows
        (2.5, sys.float_info.max, 1.0),
        (0.0, 1e-170, 1.0),  # 2 s^2 underflows to 0
        (2.5, 1e-170, 0.0),
        (0.0, 5e-324, 1.0),
        (2.5, 1e-154, 0.0),  # 2 s^2 is subnormal
        (1e200, 1.0, 0.0),  # y^2 overflows
        (1e-170, 1e-170, 1.0),  # both saturate alike
        (1e200, 1e200, 1.0),
    ])
    def test_gaussian_envelope_limits(self, y, width, limit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = CosineGaussian(0.5, 0.0, width).eval(np.array([y, -y]))
        assert got.tolist() == [limit, limit]

    def test_accepted_when_positive(self):
        base = trivial_normalizer(KernelSpec(LL, 1.0), W20)
        pert = perturbed_normalizer(base, CosineGaussian())
        assert pert.kind == "perturbed"
        assert pert.a_tilde == base.a_tilde
        assert pert.window == base.window

    def test_rejected_on_positivity_violation(self):
        base = trivial_normalizer(KernelSpec(LL, 1.0), W20)
        bad = CosineGaussian(amplitude=-2.0 * base.a_tilde)
        with pytest.raises(PositivityError) as exc:
            perturbed_normalizer(base, bad)
        # the minimum of a_tilde + f sits at the origin where f = -4 a_tilde
        assert abs(exc.value.y) < 0.2
        assert exc.value.value <= 0.0

    def test_rejected_on_dip_between_grid_points(self):
        # a dip of width 0.002 falls between the 4x oversampled grid points
        # (spacing 0.0098); the table's knots must be checked too
        base = trivial_normalizer(KernelSpec(LL, 1.0), W20)
        dip = TabulatedEven((0.003, 0.004, 0.005, 1.0), (0.0, -1.0, 0.0, 0.0))
        assert dip.critical_points(W20.lo, W20.hi) == (-0.003, -0.004, -0.005, -1.0, 0.003, 0.004, 0.005, 1.0)
        with pytest.raises(PositivityError) as exc:
            perturbed_normalizer(base, dip)
        assert abs(exc.value.y) == 0.004
        assert exc.value.value == base.a_tilde - 1.0

    @pytest.mark.parametrize("f, window, y", [
        (CosineGaussian(amplitude=-1.0, width=0.001), Window(-20.0, 21.0), 0.0),
        (OddGaussian(amplitude=100.0, width=0.001), W20, -0.001),
    ], ids=["cosgauss", "oddgauss"])
    def test_rejected_at_the_exact_extreme(self, f, window, y):
        # a dip far narrower than the scan's spacing (about 0.01) is found at
        # the perturbation's critical points, off the grid
        base = trivial_normalizer(KernelSpec(LL, 1.0), window)
        assert y in f.critical_points(window.lo, window.hi)
        with pytest.raises(PositivityError) as exc:
            perturbed_normalizer(base, f)
        assert exc.value.y == y
        assert exc.value.value == base.a_tilde + f.eval(y)

    @pytest.mark.parametrize(
        "f", [AmplitudeFirst(amplitude=1e308, width=0.1), AmplitudeFirst(amplitude=1e308, frequency=0.0, width=0.1)]
    )
    def test_rejected_on_nan(self, f):
        # NaN fails every comparison, so "not > 0" must be the test, not "<= 0".
        # Parameters must be finite, but a perturbation may still evaluate to
        # NaN: here inf * 0 where the envelope underflows.
        base = trivial_normalizer(KernelSpec(LL, 1.0), W20)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PositivityError) as exc:
                perturbed_normalizer(base, f)
            ys = base.window.grid(4)
            first_nan = ys[np.flatnonzero(np.isnan(f.eval(ys)))[0]]
        assert math.isnan(exc.value.value)
        assert exc.value.y == first_nan

    def test_overflow_rejected_as_not_finite(self):
        # A (cos(3y) + 1) overflows near the peaks of the cosine; the first
        # scan point where it does is named, and no numpy warning escapes
        base = trivial_normalizer(KernelSpec(LL, 1.0), W20)
        f = CosineGaussian(amplitude=1e308, frequency=3.0, width=2.0)
        with pytest.raises(PositivityError, match="not finite") as exc:
            perturbed_normalizer(base, f)
        ys = base.window.grid(4)
        with np.errstate(over="ignore"):
            first_inf = ys[np.flatnonzero(np.isinf(f.eval(ys)))[0]]
        assert exc.value.value == math.inf
        assert exc.value.y == first_inf
        assert f"y={float(first_inf)!r}" in str(exc.value)

    def test_integrals_that_would_overflow_rejected(self):
        # a_tilde + f is finite everywhere, but its largest value, about
        # 1.78e308, times the window width 40 is not: the quadrature's panel
        # sums would overflow, so the normalizer is refused when it is built
        base = trivial_normalizer(KernelSpec(LL, 1.0), W20)
        f = CosineGaussian(amplitude=8.9e307, frequency=3.0, width=2.0)
        with pytest.raises(ValueError, match="too large to integrate: value 1.78e[+]308 at y=0.0 "
                                             "times 40.0 overflows") as exc:
            perturbed_normalizer(base, f)
        assert not isinstance(exc.value, PositivityError)
        # a window narrower than 2 is still scaled by the Kronrod weights' sum
        narrow = trivial_normalizer(KernelSpec(LL, 1.0), Window(-0.5, 0.5, 16))
        with pytest.raises(ValueError, match="times 2.0 overflows"):
            perturbed_normalizer(narrow, f)
        assert perturbed_normalizer(base, CosineGaussian(1e306, 3.0, 2.0)).perturbation.amplitude == 1e306

    def test_odd_gaussian_huge_amplitude_stays_finite(self):
        # 1e308 * y overflows at |y| > 1.8; the amplitude is applied last so
        # the value, -20 exp(-200) 1e308 ~ -2.77e222 at y = -20, survives
        f = OddGaussian(amplitude=1e308, width=1.0)
        exact = -math.exp(math.log(20.0) - 200.0 + 308.0 * math.log(10.0))
        assert f.eval(-20.0) == pytest.approx(exact, rel=1e-12)
        base = trivial_normalizer(KernelSpec(LL, 1.0), W20)
        with pytest.raises(PositivityError, match="not positive") as exc:
            perturbed_normalizer(base, f)
        # the minimum of a_tilde + f sits near y = -width
        assert math.isfinite(exc.value.value) and exc.value.value < -5e307
        assert abs(exc.value.y + 1.0) < 0.05

    def test_requires_trivial_base(self):
        base = trivial_normalizer(KernelSpec(LL, 1.0), W20)
        pert = perturbed_normalizer(base, Zero())
        with pytest.raises(ValueError):
            perturbed_normalizer(pert, CosineGaussian())

    def test_odd_gaussian_flagged(self):
        f = OddGaussian(amplitude=0.01, width=2.0)
        assert f.eval(1.3) == -f.eval(-1.3)

    def test_tabulated_even(self):
        f = TabulatedEven(knots=(0.0, 1.0, 2.0), values=(1.0, 0.5, 0.0))
        assert f.eval(-0.5) == f.eval(0.5) == pytest.approx(0.75)
        assert f.eval(5.0) == 0.0
        with pytest.raises(InvalidSpecError, match="strictly increasing"):
            TabulatedEven(knots=(1.0, 0.5), values=(0.0, 0.0))
        with pytest.raises(InvalidSpecError, match="equal length"):
            TabulatedEven(knots=(0.0, 1.0, 2.0), values=(1.0, 0.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidSpecError, match="knots must be finite"):
                TabulatedEven(knots=(0.0, bad, 2.0), values=(1.0, 0.5, 0.0))
            with pytest.raises(InvalidSpecError, match="knots must be finite"):
                TabulatedEven(knots=(0.0, 1.0, bad), values=(1.0, 0.5, 0.0))
            with pytest.raises(InvalidSpecError, match="custom values must be finite"):
                TabulatedEven(knots=(0.0, 1.0, 2.0), values=(1.0, bad, 0.0))

    def test_square_integrable_on_window(self):
        for f in (Zero(), CosineGaussian(), OddGaussian(), TabulatedEven((0.0, 1.0), (1.0, 0.0))):
            sq = integrate(lambda y: np.asarray(f.eval(y)) ** 2, -20.0, 20.0, tol=1e-9)
            assert np.isfinite(sq.value)

    def test_perturbation_round_trip(self):
        for f in (Zero(), CosineGaussian(2.0, 1.0, 3.0), OddGaussian(0.5, 2.0),
                  TabulatedEven((0.0, 2.0), (1.0, 0.0))):
            assert perturbation_from_dict(f.to_dict()) == f


def dense(lo, hi, n=2001):
    """lo, hi, their neighbours inside [lo, hi] and n floats between them."""
    return np.concatenate([np.clip(np.linspace(lo, hi, n), lo, hi), np.nextafter([lo, hi], [hi, lo])])


def assert_bounds_hold(bounded, lo, hi):
    """``bounded.bounds`` over [lo, hi] holds ``bounded.eval`` at every point of a dense grid."""
    b_lo, b_hi = bounded.bounds(np.array([lo]), np.array([hi]))
    v = bounded.eval(dense(lo, hi))
    assert b_lo.shape == b_hi.shape == (1,)
    assert b_lo[0] <= v.min() and v.max() <= b_hi[0], (b_lo, v.min(), v.max(), b_hi)


# an interval [lo, lo + length]: a point, short, and up to many periods or widths long
INTERVALS = st.tuples(
    st.floats(min_value=-60.0, max_value=60.0),
    st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1.0), st.floats(min_value=1.0, max_value=40.0)),
).map(lambda t: (t[0], t[0] + t[1]))
# perturbation widths over the floats, with the saturating ones of the _gaussian tests
WIDTHS = st.one_of(st.floats(min_value=1e-150, max_value=1e150),
                   st.sampled_from([5e-324, 1e-170, 1e-154, 1e155, sys.float_info.max]))
AMPLITUDES = st.floats(min_value=-1e3, max_value=1e3)
SCALES = st.floats(min_value=1e-3, max_value=1e5)
CATALOG_MEMBERS = st.one_of(
    st.builds(Normal, SCALES), st.builds(Cauchy, SCALES), st.builds(Laplace, SCALES),
    st.builds(SymmetricStable, st.floats(min_value=1e-3, max_value=2.0), SCALES),
    st.builds(SymmetricNIG, SCALES, SCALES),
)


@dataclass(frozen=True)
class Ripple(Normal):
    """A real even characteristic function that is not monotone in |t|
    (a Gaussian times cos t) and does not declare itself non-increasing."""

    family = "ripple_test"
    non_increasing = False

    def eval(self, t):
        return np.cos(t) * super().eval(t)


class TestBounds:
    @settings(max_examples=300, deadline=None)
    @given(amplitude=AMPLITUDES, frequency=st.one_of(st.just(0.0), st.floats(min_value=-1e3, max_value=1e3)),
           width=WIDTHS, interval=INTERVALS)
    def test_cosgauss(self, amplitude, frequency, width, interval):
        assert_bounds_hold(CosineGaussian(amplitude, frequency, width), *interval)

    @pytest.mark.parametrize("amplitude", [1.0, -1.0])
    @pytest.mark.parametrize("periods", [0.5, 0.75, 3.0])
    def test_cosgauss_over_half_a_period_or_more(self, amplitude, periods):
        # the cosine factor's bound is then [0, 2], even with no peak or
        # trough at the interval's ends
        f = CosineGaussian(amplitude, 17.0, 1e155)  # a flat Gaussian
        lo = 0.3
        hi = lo + periods * 2.0 * math.pi / 17.0
        f_lo, f_hi = f.bounds(np.array([lo]), np.array([hi]))
        assert f_lo[0] == pytest.approx(min(0.0, 2.0 * amplitude), abs=1e-9)
        assert f_hi[0] == pytest.approx(max(0.0, 2.0 * amplitude), abs=1e-9)
        assert_bounds_hold(f, lo, hi)

    @settings(max_examples=300, deadline=None)
    @given(amplitude=AMPLITUDES, width=WIDTHS, interval=INTERVALS)
    def test_oddgauss(self, amplitude, width, interval):
        assert_bounds_hold(OddGaussian(amplitude, width), *interval)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), interval=INTERVALS)
    def test_custom(self, data, interval):
        knots = sorted(data.draw(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=6,
                                          unique=True)))
        values = data.draw(st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=len(knots),
                                    max_size=len(knots)))
        assert_bounds_hold(TabulatedEven(tuple(knots), tuple(values)), *interval)

    def test_custom_knots_closer_than_a_finite_slope(self):
        # 1 / (least normal number) overflows: the slope between these knots
        # is not a float, yet every value between them lies in [0, 1]
        f = TabulatedEven((0.0, 2.0 ** -1022), (0.0, 1.0))
        assert np.all(np.isfinite(f.eval(dense(0.0, 2.0 ** -1022))))
        assert_bounds_hold(f, 0.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(1.5, 2.5), (-2.5, -1.5), (-3.0, 0.5), (2.0, 2.5)])
    def test_custom_drop_past_the_last_knot(self, lo, hi):
        # np.interp(..., right=0.0) drops to 0 past the last knot: an extreme
        # that neither the ends nor the knots' values hold
        f = TabulatedEven((0.0, 1.0, 2.0), (5.0, 5.0, 5.0))
        f_lo, f_hi = f.bounds(np.array([lo]), np.array([hi]))
        assert f_lo[0] <= 0.0 and f_hi[0] >= 5.0
        assert_bounds_hold(f, lo, hi)

    @given(interval=INTERVALS)
    def test_zero(self, interval):
        assert_bounds_hold(Zero(), *interval)
        assert [b.tolist() for b in Zero().bounds(np.array([interval[0]]), np.array([interval[1]]))] == [[0.0], [0.0]]

    @settings(max_examples=300, deadline=None)
    @given(phi=CATALOG_MEMBERS, psi=CATALOG_MEMBERS,
           lam=st.one_of(st.just(0.0), st.floats(min_value=1e-2, max_value=1e6)), interval=INTERVALS)
    def test_kernel_of_catalog_members(self, phi, psi, lam, interval):
        assert phi.non_increasing and psi.non_increasing
        assert_bounds_hold(KernelSpec(UnitDeviancePair(phi, psi), lam), *interval)

    @settings(max_examples=300, deadline=None)
    @given(phi=CATALOG_MEMBERS, psi=CATALOG_MEMBERS, lam=st.floats(min_value=1e6, max_value=1e300),
           interval=INTERVALS)
    def test_kernel_upper_bound_is_at_most_one(self, phi, psi, lam, interval):
        # K = exp(-lam d) <= 1; uncapped, the bound exp(slack (1 + lam))
        # overflows above lam ~ 4.88e13
        k = KernelSpec(UnitDeviancePair(phi, psi), lam)
        assert k.bounds(np.array([interval[0]]), np.array([interval[1]]))[1][0] <= 1.0
        assert_bounds_hold(k, *interval)

    @settings(max_examples=100, deadline=None)
    @given(member=CATALOG_MEMBERS, lam=st.floats(min_value=1e-2, max_value=1e6), interval=INTERVALS)
    def test_kernel_of_an_undeclared_member(self, member, lam, interval):
        # d in [0, 2] whichever member is undeclared
        for pair in (UnitDeviancePair(Ripple(1.0), member), UnitDeviancePair(member, Ripple(1.0))):
            assert [b.tolist() for b in pair.bounds(np.array([0.0]), np.array([1.0]))] == [[0.0], [2.0]]
            assert_bounds_hold(KernelSpec(pair, lam), *interval)


class TestNormalizerSpec:
    def test_positive_constant_required(self):
        with pytest.raises(ValueError):
            NormalizerSpec(a_tilde=0.0, window=W20)
        with pytest.raises(ValueError):
            NormalizerSpec(a_tilde=-1.0, window=W20)

    def test_scanned_when_built_directly(self):
        # the positivity scan belongs to the spec, not to perturbed_normalizer:
        # 0.05 - 1 * (cos(0) + 1) = -1.95 at the origin
        with pytest.raises(PositivityError, match="not positive: value -1.95 at y=0.0"):
            NormalizerSpec(0.05, Window(), CosineGaussian(-1.0))
        with pytest.raises(PositivityError, match="not finite: value inf"):
            NormalizerSpec(0.05, W20, CosineGaussian(1e308, 3.0, 2.0))
        with pytest.raises(ValueError, match="too large to integrate"):
            NormalizerSpec(1e308, W20)
        assert NormalizerSpec(0.05, Window(), CosineGaussian(-0.02)).value(0.0) == pytest.approx(0.01)

    def test_minimum_between_scan_points_rejected(self):
        # [1, 30] leaves out 0: a's minimum near y = 1.9851 dips to -3.5e-9,
        # while the nearest grid point, 0.001 away, reads +7.6e-8
        a_tilde, f = 0.03476587181576067, CosineGaussian(-0.029226193424446992, 3.0, 2.0)
        window = Window(1.0, 30.0)
        ys = window.grid(4)
        assert np.all(a_tilde + f.eval(ys) > 0.0)
        with pytest.raises(PositivityError, match="not positive") as exc:
            NormalizerSpec(a_tilde, window, f)
        assert exc.value.y == pytest.approx(1.9851015, abs=1e-6)
        assert -3.5e-9 < exc.value.value <= -3.4e-9
        assert exc.value.value == a_tilde + f.eval(exc.value.y)
        # the same trough raised a little stays accepted
        assert NormalizerSpec(a_tilde + 1e-8, window, f).perturbation == f

    @settings(max_examples=200, deadline=None)
    @given(f=st.one_of(
        st.just(Zero()),
        st.builds(CosineGaussian, st.floats(-0.6, -1e-3), st.floats(-40.0, 40.0), st.floats(0.2, 100.0)),
        st.builds(OddGaussian, st.floats(-1.0, 1.0), st.floats(0.01, 3.0)),
        st.lists(st.floats(0.0, 30.0), min_size=2, max_size=8, unique=True).flatmap(
            lambda k: st.builds(TabulatedEven, st.just(tuple(sorted(k))),
                                st.lists(st.floats(-1.5, 1.5), min_size=len(k), max_size=len(k)))),
    ), lo=st.floats(-30.0, 30.0), width=st.floats(0.5, 40.0))
    def test_scan_finds_the_minimum(self, f, lo, width):
        # every family declares where its extremes sit, so the smallest
        # scanned value is the minimum of a over the window to rounding,
        # on windows with 0 and without it
        window = Window(lo, lo + width)
        reference = dense_minimum(lambda y: 1.0 + f.eval(y), window.lo, window.hi)
        try:
            spec = NormalizerSpec(1.0, window, f)
        except PositivityError as exc:
            smallest = exc.value
        else:
            smallest = float(np.min(spec.value(spec.scan_points())))
            assert reference > 0.0
        assert smallest <= reference + 4 * np.spacing(1.0)


class TestConvolutionResidual:
    def test_trivial_center_residual_small(self):
        k = KernelSpec(NN, 1.0)
        norm = trivial_normalizer(k, W20, tol=1e-10)
        tol = 1e-8
        r = convolution_residual(norm, k, [0.0], tol=tol)
        assert abs(r[0]) <= 10.0 * tol

    def test_boundary_truncation_drift_reported(self):
        # trivial normalizer convolved at 90% of the window half-width picks
        # up the mass the truncation removes; oracle-confirmed, not asserted 0
        k = KernelSpec(NN, 1.0)
        norm = trivial_normalizer(k, W20, tol=1e-10)
        mu = 0.9 * 20.0
        r = convolution_residual(norm, k, [mu], tol=1e-10)[0]
        oracle = norm.a_tilde * midpoint_integral(
            lambda y: k.eval(mu - y), -20.0, 20.0, n=4_000_000
        ) - 1.0
        assert abs(r) > 1e-6
        assert r == pytest.approx(oracle, abs=1e-8)

    def test_perturbed_residual_curve_matches_oracle(self):
        k = KernelSpec(LL, 1.0)
        base = trivial_normalizer(k, W20, tol=1e-10)
        norm = perturbed_normalizer(base, CosineGaussian())
        mus = np.linspace(-5.0, 5.0, 5)
        rs = convolution_residual(norm, k, mus, tol=1e-10)
        for mu, r in zip(mus, rs):
            oracle = midpoint_convolution(norm.value, k.eval, mu, -20.0, 20.0, n=4_000_000) - 1.0
            assert r == pytest.approx(oracle, abs=1e-8)

    def test_mu_outside_window_rejected(self):
        k = KernelSpec(NN, 1.0)
        norm = trivial_normalizer(k, W20)
        with pytest.raises(ValueError):
            convolution_residual(norm, k, [25.0])

    def test_table_knots_are_panel_boundaries(self):
        # a knot inside a panel is a kink its error estimate misses: cut
        # only at 0 and mu, the residual at mu = 2 is off by 2.1e-9 at tol 1e-9
        k = KernelSpec(NN, 1.0)
        norm = perturbed_normalizer(trivial_normalizer(k, W20), TabulatedEven((0.0, 1.3, 2.7), (0.1, -0.02, 0.0)))
        mus = [0.5, 1.1, 2.0]
        reference, _, _ = integrate_shifts(lambda y, s: norm.value(y) * k.eval(s - y), W20.lo, W20.hi, mus,
                                           tol=1e-14, breakpoints=lambda s: (s, 0.0, *norm.critical_points()))
        rs = convolution_residual(norm, k, mus, tol=1e-9)
        for r, ref in zip(rs, reference):
            assert abs(r - (ref - 1.0)) <= 1e-9


class TestFFTDeconvolve:
    def test_flat_boundary_constant(self):
        rep = fft_deconvolve_check(KernelSpec(NN, 0.0), Window(-10.0, 10.0, 1024))
        assert rep.dc_value == pytest.approx(0.05, abs=1e-14)
        assert rep.n_grid == 1024

    @pytest.mark.parametrize("pair", [NN, LL], ids=["normal", "laplace"])
    def test_matches_quadrature_normalizer(self, pair):
        w = Window(-20.0, 20.0, 4096)
        k = KernelSpec(pair, 1.0)
        rep = fft_deconvolve_check(k, w)
        a_quad = trivial_normalizer(k, w, tol=1e-10).a_tilde
        assert rep.dc_value == pytest.approx(a_quad, rel=1e-6)

    def test_near_constant_for_all_catalog_kernels(self):
        from chardisp.charfn import Cauchy, SymmetricNIG, SymmetricStable

        pairs = [
            NN,
            LL,
            UnitDeviancePair(Cauchy(1.0), Normal(1.0)),
            UnitDeviancePair(Cauchy(1.0), Cauchy(1.0)),
            UnitDeviancePair(SymmetricStable(1.5, 1.0), SymmetricStable(1.5, 1.0)),
            UnitDeviancePair(SymmetricNIG(1.0, 1.0), SymmetricNIG(1.0, 1.0)),
            UnitDeviancePair(Normal(1.0), Laplace(1.0)),
        ]
        w = Window(-20.0, 20.0, 2048)
        for pair in pairs:
            k = KernelSpec(pair, 1.0)
            rep = fft_deconvolve_check(k, w)
            solution, _, _ = fft_deconvolve_reference(k.eval, w.lo, w.hi, w.n_grid)
            assert np.full(w.n_grid, rep.dc_value).tobytes() == solution.tobytes()

    @pytest.mark.parametrize("lo, hi", [(-20.0, 20.0), (-3.3, 7.1)], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("cf", [
        Normal(1.3), Cauchy(0.7), Laplace(2.0), SymmetricStable(1.5, 1.0), SymmetricNIG(1.0, 0.5),
    ], ids=lambda cf: cf.family)
    def test_closed_form_equals_three_transform_solve(self, cf, lo, hi):
        for lam in (0.0, 1.0, 10.0):
            k = KernelSpec(UnitDeviancePair(cf, cf), lam)
            for n in (16, 1024, 4096):
                rep = fft_deconvolve_check(k, Window(lo, hi, n))
                solution, dc_value, n_guarded = fft_deconvolve_reference(k.eval, lo, hi, n)
                assert np.full(n, rep.dc_value).tobytes() == solution.tobytes()
                assert (rep.dc_value, rep.n_guarded) == (dc_value, n_guarded)

    @pytest.mark.parametrize("n", [17, 1000])
    def test_any_grid(self, n):
        # the closed form divides by the DC bin alone, so no grid size is special
        k = KernelSpec(NN, 1.0)
        rep = fft_deconvolve_check(k, Window(-10.0, 10.0, n))
        _, dc_value, n_guarded = fft_deconvolve_reference(k.eval, -10.0, 10.0, n)
        assert abs(rep.dc_value / dc_value - 1.0) <= 1e-15
        assert rep.n_guarded == n_guarded
        assert rep.n_grid == n

    def test_report_serializes(self):
        d = fft_deconvolve_check(KernelSpec(NN, 1.0), Window(-10.0, 10.0, 256)).to_dict()
        assert list(d) == ["dc_value", "n_guarded", "n_grid"]
