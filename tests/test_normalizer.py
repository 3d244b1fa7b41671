import math
from dataclasses import dataclass, field

import numpy as np
import pytest

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
    SHIFT_CHUNK,
    NonFiniteIntegrandError,
    QuadratureError,
    integrate,
    integrate_shifts,
)

from oracles import midpoint_convolution, midpoint_integral

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


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            Window(1.0, 1.0)
        with pytest.raises(ValueError):
            Window(2.0, -2.0)
        with pytest.raises(ValueError):
            Window(-1.0, 1.0, n_grid=8)

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
        # which equals K(y) bit for bit, cut at the same single point
        k = KernelSpec(UnitDeviancePair(charfn, Normal(1.0)), 1.0)
        plain = integrate(k.eval, W20.lo, W20.hi, tol=1e-10, breakpoints=(0.0,)).value
        assert kernel_integral(k, W20, tol=1e-10) == plain


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

    def test_more_shifts_than_one_chunk_match_single_shifts(self):
        # the cusp-heavy stable 0.7 x normal kernel, across chunk boundaries:
        # every shift refines exactly as it does alone
        k = KernelSpec(UnitDeviancePair(SymmetricStable(0.7, 1.0), Normal(1.0)), 1.0)
        shifts = np.linspace(-9.0, 9.0, SHIFT_CHUNK + 7)
        f = lambda y, s: k.eval(y) * k.eval(s - y)
        batch = integrate_shifts(f, W20.lo, W20.hi, shifts, tol=1e-10, breakpoints=(0.0,))
        values = window_convolve(k.eval, k, shifts, W20, 1e-10)
        for s, res, value in zip(shifts, batch, values):
            alone = integrate(lambda y: f(y, s), W20.lo, W20.hi, tol=1e-10, breakpoints=(s, 0.0))
            assert res == alone  # value, error bound and panel count
            assert value == window_convolve(k.eval, k, s, W20, 1e-10) == alone.value

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

    def test_catalog_cosine_gaussian_matches_closed_form(self):
        f = CosineGaussian()  # amplitude 1, frequency 3, width sqrt(5)
        ys = np.linspace(-10.0, 10.0, 401)
        expect = (np.cos(3.0 * ys) + 1.0) * np.exp(-(ys**2) / 10.0)
        assert np.allclose(f.eval(ys), expect, rtol=0, atol=1e-15)
        assert f.even
        assert f.eval(0.0) == pytest.approx(2.0, abs=1e-15)

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
        assert dip.critical_points() == (-0.003, -0.004, -0.005, -1.0, 0.003, 0.004, 0.005, 1.0)
        with pytest.raises(PositivityError) as exc:
            perturbed_normalizer(base, dip)
        assert abs(exc.value.y) == 0.004
        assert exc.value.value == base.a_tilde - 1.0

    @pytest.mark.parametrize(
        "f", [CosineGaussian(amplitude=1e308, width=0.1), CosineGaussian(amplitude=1e308, frequency=0.0, width=0.1)]
    )
    def test_rejected_on_nan(self, f):
        # NaN fails every comparison, so "not > 0" must be the test, not "<= 0".
        # Parameters must be finite, but a huge amplitude still overflows to
        # inf where the envelope underflows to 0, and inf * 0 is NaN.
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
        assert not f.even
        assert f.eval(1.3) == -f.eval(-1.3)

    def test_tabulated_even(self):
        f = TabulatedEven(knots=(0.0, 1.0, 2.0), values=(1.0, 0.5, 0.0))
        assert f.even
        assert f.eval(-0.5) == f.eval(0.5) == pytest.approx(0.75)
        assert f.eval(5.0) == 0.0
        with pytest.raises(InvalidSpecError, match="strictly increasing"):
            TabulatedEven(knots=(1.0, 0.5), values=(0.0, 0.0))
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


class TestNormalizerSpec:
    def test_positive_constant_required(self):
        with pytest.raises(ValueError):
            NormalizerSpec(a_tilde=0.0, window=W20)
        with pytest.raises(ValueError):
            NormalizerSpec(a_tilde=-1.0, window=W20)


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
        reference = integrate_shifts(lambda y, s: norm.value(y) * k.eval(s - y), W20.lo, W20.hi, mus,
                                     tol=1e-14, breakpoints=(0.0, *norm.critical_points()))
        rs = convolution_residual(norm, k, mus, tol=1e-9)
        for r, ref in zip(rs, reference):
            assert abs(r - (ref.value - 1.0)) <= 1e-9


class TestFFTDeconvolve:
    def test_flat_boundary_constant(self):
        rep = fft_deconvolve_check(KernelSpec(NN, 0.0), Window(-10.0, 10.0, 1024))
        assert rep.dc_value == pytest.approx(0.05, abs=1e-14)
        assert rep.nonconstancy <= 1e-12
        assert rep.solution.size == 1024

    @pytest.mark.parametrize("pair", [NN, LL], ids=["normal", "laplace"])
    def test_matches_quadrature_normalizer(self, pair):
        w = Window(-20.0, 20.0, 4096)
        k = KernelSpec(pair, 1.0)
        rep = fft_deconvolve_check(k, w)
        a_quad = trivial_normalizer(k, w, tol=1e-10).a_tilde
        assert rep.dc_value == pytest.approx(a_quad, rel=1e-6)
        assert rep.nonconstancy <= 1e-10 * rep.dc_value

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
            rep = fft_deconvolve_check(KernelSpec(pair, 1.0), w)
            assert rep.nonconstancy <= 1e-10 * rep.dc_value

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            fft_deconvolve_check(KernelSpec(NN, 1.0), Window(-10.0, 10.0, 1000))

    def test_report_serializes(self):
        d = fft_deconvolve_check(KernelSpec(NN, 1.0), Window(-10.0, 10.0, 256)).to_dict()
        assert set(d) == {"dc_value", "nonconstancy", "n_guarded", "n_grid"}
