import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chardisp import quadrature
from chardisp.quadrature import integrate_shifts
from chardisp.charfn import Cauchy, Laplace, Normal, SymmetricNIG, SymmetricStable
from chardisp.deviance import UnitDeviancePair
from chardisp.normalizer import (
    RESIDUAL_TOL,
    CosineGaussian,
    KernelSpec,
    OddGaussian,
    TabulatedEven,
    Window,
    Zero,
    window_autoconvolve,
    window_convolve,
)
from chardisp.riesz import (
    TranslateSystem,
    gram_matrix,
    orthogonality_residual,
    rational_enumeration,
)

from oracles import midpoint_convolution, rational_enumeration_reference

NN = UnitDeviancePair(Normal(1.0), Normal(1.0))
LL = UnitDeviancePair(Laplace(1.0), Laplace(1.0))
W20 = Window(-20.0, 20.0, 1024)

# Laplace/Laplace lam=1 on [-20,20]: Gram entries from the 1e7-point
# midpoint oracle, eigenvalues from mpmath's dense symmetric solver
# (numpy agreed to 6e-14 at freeze time).
GOLDEN_KNORM_LL = 37.406218289536646
GOLDEN_OVERLAP1_LL = 37.371926252993589
GOLDEN_EIGS_LL_8 = [
    0.00012331941925924865,
    0.003168487945447134,
    0.013738767443848063,
    0.031906988444613558,
    0.043431483018851552,
    0.05977110877566439,
    0.075895596895705603,
    299.0217105643498,
]
GOLDEN_RHO_COSGAUSS_LL = {
    0.0: 5.0045054856715687,
    1.0: 4.777776653672305,
    2.5: 5.0590296257351524,
    5.0: 5.2971616730933606,
}


class TestEnumeration:
    def test_first_terms(self):
        assert rational_enumeration(1) == [0.0]
        assert rational_enumeration(3) == [0.0, 1.0, -1.0]
        assert rational_enumeration(7) == [0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0]

    def test_deterministic_and_duplicate_free(self):
        a = rational_enumeration(501)
        assert a == rational_enumeration(501)
        assert len(set(a)) == len(a)

    def test_signed_pairing(self):
        a = rational_enumeration(41)
        # after the leading zero, entries come in (q, -q) pairs
        for i in range(1, 40, 2):
            assert a[i] == -a[i + 1]
            assert a[i] > 0.0

    def test_enumerates_small_rationals(self):
        # every rational with numerator and denominator up to 4 shows up
        a = set(rational_enumeration(200))
        for p in range(1, 5):
            for q in range(1, 5):
                assert float(Fraction(p, q)) in a
                assert float(Fraction(-p, q)) in a

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            rational_enumeration(0)

    @pytest.mark.parametrize("n", [1, 2, 20_000, 20_001])
    def test_equals_the_exact_fraction_recurrence(self, n):
        got = rational_enumeration(n)
        assert [q.hex() for q in got] == [q.hex() for q in rational_enumeration_reference(n)]


class TestTranslateSystem:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TranslateSystem(KernelSpec(NN, 1.0), (0.0, 1.0, 1.0), W20)

    def test_rejects_an_empty_point_set(self):
        with pytest.raises(ValueError, match="at least one translation point"):
            TranslateSystem(KernelSpec(NN, 1.0), (), W20)

    def test_rejects_points_outside_middle_half(self):
        with pytest.raises(ValueError, match="middle half"):
            TranslateSystem(KernelSpec(NN, 1.0), (0.0, 15.0), W20)

    def test_outside_points_are_counted_not_listed(self):
        # the middle half of W20 is [-10, 10]: 20 points on each side lie beyond it
        with pytest.raises(ValueError) as info:
            TranslateSystem(KernelSpec(NN, 1.0), tuple(range(-30, 31)), W20)
        msg = str(info.value)
        assert msg == "40 translation points lie outside the window's middle half [-10.0, 10.0]; the first is -30.0"
        assert len(msg.encode()) < 200

    def test_accepts_enumeration_prefix(self):
        pts = tuple(rational_enumeration(8))
        sys_ = TranslateSystem(KernelSpec(LL, 1.0), pts, W20)
        assert sys_.points == pts


class TestGramMatrix:
    def test_single_translate(self):
        sys_ = TranslateSystem(KernelSpec(LL, 1.0), (0.0,), W20)
        rep = gram_matrix(sys_, tol=1e-10)
        assert rep.gram.shape == (1, 1)
        assert rep.min_eigenvalue == pytest.approx(rep.k_norm_sq, rel=1e-12)
        assert rep.max_eigenvalue == pytest.approx(rep.k_norm_sq, rel=1e-12)
        assert rep.tight_claim_gap == 0.0
        assert rep.k_norm_sq == pytest.approx(GOLDEN_KNORM_LL, rel=1e-9)

    def test_two_translates_overlap_positive(self):
        sys_ = TranslateSystem(KernelSpec(NN, 1.0), (0.0, 1.0), W20)
        rep = gram_matrix(sys_, tol=1e-10)
        off = rep.gram[0, 1]
        assert off > 0.0  # strictly positive kernels overlap
        assert rep.tight_claim_gap == off
        # eigenvalues of [[a, b], [b, a]] are a -/+ b
        assert rep.min_eigenvalue == pytest.approx(rep.k_norm_sq - off, abs=1e-8)
        assert rep.max_eigenvalue == pytest.approx(rep.k_norm_sq + off, abs=1e-8)

    def test_symmetry_and_diagonal_exact(self):
        pts = tuple(rational_enumeration(8))
        rep = gram_matrix(TranslateSystem(KernelSpec(LL, 1.0), pts, W20), tol=1e-10)
        assert np.array_equal(rep.gram, rep.gram.T)  # exact, single evaluation per pair
        assert np.all(rep.gram.diagonal() == rep.k_norm_sq)
        rel = np.abs(rep.gram.diagonal() / rep.k_norm_sq - 1.0)
        assert np.max(rel) <= 1e-10

    def test_positive_semidefinite(self):
        pts = tuple(rational_enumeration(8))
        rep = gram_matrix(TranslateSystem(KernelSpec(LL, 1.0), pts, W20), tol=1e-10)
        assert rep.min_eigenvalue >= -1e-10 * rep.max_eigenvalue

    def test_golden_eigenvalues_laplace_8(self):
        pts = tuple(rational_enumeration(8))
        rep = gram_matrix(TranslateSystem(KernelSpec(LL, 1.0), pts, W20), tol=1e-10)
        eigs = np.sort(np.linalg.eigvalsh(rep.gram))
        assert np.allclose(eigs, GOLDEN_EIGS_LL_8, rtol=0, atol=1e-8)
        assert rep.min_eigenvalue == pytest.approx(GOLDEN_EIGS_LL_8[0], abs=1e-8)
        assert rep.max_eigenvalue == pytest.approx(GOLDEN_EIGS_LL_8[-1], abs=1e-8)
        assert rep.gram[0, 1] == pytest.approx(GOLDEN_OVERLAP1_LL, rel=1e-9)

    def test_cusp_heavy_gram_refines_in_few_rounds(self, monkeypatch):
        # stable 0.7 x normal at n = 32 on the default window: splitting one
        # panel per integral per round took 204 integrand rounds and 18,912
        # panels; maximum marking took 20 rounds for 19,408 panels, all 147
        # displacements refining in one run; folding each integral about
        # s/2 refines one mirror half, in 19 rounds for 10,074 panels;
        # grading the panels at the cusps 0 and s takes 12 rounds for 4,258;
        # marking also every panel above 4 times its integral's equal share
        # of the tolerance takes 10 rounds for 4,330
        panels = []
        gk15 = quadrature._gk15
        monkeypatch.setattr(quadrature, "_gk15", lambda f, lo, *rest: panels.append(lo.size) or gk15(f, lo, *rest))
        k = KernelSpec(UnitDeviancePair(SymmetricStable(0.7, 1.0), Normal(1.0)), 1.0)
        gram_matrix(TranslateSystem(k, tuple(rational_enumeration(32)), Window()))
        assert (len(panels), sum(panels)) == (10, 4_330)
        assert len(panels) <= 0.4 * 204 and sum(panels) <= 1.15 * 18_912
        assert sum(panels) <= 0.55 * 19_408
        assert len(panels) <= 0.7 * 19 and sum(panels) <= 0.5 * 10_074

    @pytest.mark.parametrize("phi, psi, panels, digest", [
        (Normal(1.0), Normal(1.0), [732, 414, 344, 592, 586, 312],
         "3f6931c261033e506a1cc2b32b8bee47498ae681cd4402cf324e59cfe1e1818c"),
        (Laplace(1.0), Laplace(1.0), [732, 460, 382, 312, 298, 294, 98],
         "56c7c21b5b6d08e43637b5c0f2d785e79aea6b64693928292a7041c69466938a"),
        (Cauchy(1.0), Normal(1.0), [732, 364, 306, 594, 592, 48],
         "34d0e41cae1e5112168eac3731bd674b93d4006a5abe5444abf31d44370f8714"),
        (SymmetricNIG(1.0, 1.0), SymmetricNIG(1.0, 1.0), [732, 430, 584, 428, 330, 308],
         "aadd198b890958783c725f22ac166a7879ba660599df5cb2f2d7ee8dd65d0b67"),
    ], ids=["normal", "laplace", "cauchy_normal", "nig"])
    def test_pairs_without_a_fractional_exponent_keep_every_panel_and_bit(self, monkeypatch, phi, psi, panels,
                                                                         digest):
        # n = 32 on the default window: no round evaluates a graded panel,
        # and the panels of each round and the bytes of the matrix are those
        # of the marking rule alone
        rounds, grades = [], []
        gk15 = quadrature._gk15

        def counted(f, lo, hi, s, grade, named):
            rounds.append(lo.size)
            grades.append(grade)
            return gk15(f, lo, hi, s, grade, named)

        monkeypatch.setattr(quadrature, "_gk15", counted)
        k = KernelSpec(UnitDeviancePair(phi, psi), 1.0)
        gram = gram_matrix(TranslateSystem(k, tuple(rational_enumeration(32)), Window())).gram
        assert grades == [None] * len(rounds)
        assert rounds == panels
        assert hashlib.sha256(gram.tobytes()).hexdigest() == digest

    def test_a_kernel_subclass_sees_every_gram_abscissa(self, monkeypatch):
        # the fold evaluates the kernel only through eval: K(y) and K(s - y),
        # 15 abscissae each per panel, and the values are the plain kernel's
        pts = tuple(rational_enumeration(8))
        want = gram_matrix(TranslateSystem(KernelSpec(LL, 1.0), pts, W20)).gram
        seen, panels = [], []

        class Recording(KernelSpec):
            def eval(self, y):
                seen.append(np.size(y))
                return super().eval(y)

        gk15 = quadrature._gk15
        monkeypatch.setattr(quadrature, "_gk15", lambda f, lo, *rest: panels.append(lo.size) or gk15(f, lo, *rest))
        got = gram_matrix(TranslateSystem(Recording(LL, 1.0), pts, W20)).gram
        assert np.array_equal(got, want)
        assert sum(seen) == 2 * 15 * sum(panels) > 0

    def test_max_entry_error_bound_is_the_largest_displacement_bound(self):
        pts = tuple(rational_enumeration(8))
        k = KernelSpec(LL, 1.0)
        rep = gram_matrix(TranslateSystem(k, pts, W20), tol=1e-9)
        _, bounds = window_autoconvolve(k, np.unique(np.abs(np.subtract.outer(pts, pts))), W20, 1e-9)
        assert rep.max_entry_error_bound == bounds.max()
        assert 0.0 < rep.max_entry_error_bound <= 1e-9 + 1e-12  # the estimate plus the rounding floor


_FOLD_KERNELS = {
    "normal": KernelSpec(NN, 1.0),
    "stable07_normal": KernelSpec(UnitDeviancePair(SymmetricStable(0.7, 1.0), Normal(1.0)), 1.0),
}


@settings(max_examples=100, deadline=None)
@given(
    kernel=st.sampled_from(sorted(_FOLD_KERNELS)),
    lo=st.floats(-25.0, 15.0),
    width=st.floats(0.5, 40.0),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
@example(kernel="stable07_normal", lo=-20.0, width=40.0, fractions=[0.0, 0.0125, 0.5, 1.0])  # symmetric
@example(kernel="stable07_normal", lo=-12.0, width=32.0, fractions=[0.0, 0.25, 0.9])  # partial reflection
@example(kernel="normal", lo=1.0, width=29.0, fractions=[0.0, 0.05, 0.5])  # no overlap below s = 2
@example(kernel="normal", lo=3.265, width=12.806, fractions=[0.578])  # no kink in I, whose centre rounds off s/2
@example(kernel="stable07_normal", lo=-30.0, width=10.0, fractions=[0.3])  # window below 0: no overlap
def test_folded_gram_entries_agree_with_the_unfolded_integrals(kernel, lo, width, fractions):
    # G(s) folded about s/2 against the plain window convolution of K with
    # itself, graded at the same cusp s, for s in [0, width], within the
    # sum of the two error bounds
    k, w, tol = _FOLD_KERNELS[kernel], Window(lo, lo + width), 1e-10
    shifts = np.array(fractions) * w.width
    folded, folded_bounds = window_autoconvolve(k, shifts, w, tol)
    unfolded, unfolded_bounds, _ = integrate_shifts(lambda y, s: k.eval(y) * k.eval(s - y), w.lo, w.hi, shifts,
                                                    tol=tol, breakpoints=lambda s: (s, 0.0),
                                                    cusps=(lambda s: (s,)) if k.graded else None)
    assert np.array_equal(unfolded, window_convolve(k.eval, k, shifts, w, tol))
    for value, bound, plain, plain_bound in zip(folded, folded_bounds, unfolded, unfolded_bounds):
        assert abs(value - plain) <= bound + plain_bound


class TestFrameBounds:
    @pytest.mark.parametrize("pair, n", [(LL, 1), (NN, 2), (LL, 8)], ids=["laplace-1", "normal-2", "laplace-8"])
    def test_ratios_are_the_eigenvalues_over_k_norm_sq(self, pair, n):
        rep = gram_matrix(TranslateSystem(KernelSpec(pair, 1.0), tuple(rational_enumeration(n)), W20), tol=1e-10)
        bounds = rep.frame_bounds()
        assert list(bounds) == ["lower_over_k_norm_sq", "upper_over_k_norm_sq"]
        assert [x.hex() for x in bounds.values()] == [
            (rep.min_eigenvalue / rep.k_norm_sq).hex(), (rep.max_eigenvalue / rep.k_norm_sq).hex()]

    @pytest.mark.parametrize("phi", [Normal(1.0), SymmetricNIG(1.0, 1.0)], ids=["normal", "nig"])
    def test_vanishing_kernel_raises_naming_the_norm(self, phi):
        # at lambda = 1e100, K underflows at every node: no ratio is defined
        k = KernelSpec(UnitDeviancePair(phi, Normal(1.0)), 1e100)
        with pytest.raises(ValueError, match=r"^squared kernel norm over the window is 0\.0; no frame bound"):
            gram_matrix(TranslateSystem(k, (0.0, 1.0), W20))

    def test_single_translate_tight(self):
        rep = gram_matrix(TranslateSystem(KernelSpec(LL, 1.0), (0.0,), W20), tol=1e-10)
        lo, hi = rep.min_eigenvalue, rep.max_eigenvalue
        assert lo == hi == rep.k_norm_sq

    def test_two_translates_straddle_k_norm(self):
        rep = gram_matrix(TranslateSystem(KernelSpec(NN, 1.0), (0.0, 1.0), W20), tol=1e-10)
        lo, hi = rep.min_eigenvalue, rep.max_eigenvalue
        assert lo < rep.k_norm_sq < hi

    def test_nested_monotone_containment(self):
        pts = rational_enumeration(8)
        lowers, uppers = [], []
        for n in (1, 2, 4, 8):
            rep = gram_matrix(TranslateSystem(KernelSpec(LL, 1.0), tuple(pts[:n]), W20), tol=1e-10)
            lo, hi = rep.min_eigenvalue, rep.max_eigenvalue
            lowers.append(lo)
            uppers.append(hi)
        assert all(a >= b for a, b in zip(lowers, lowers[1:]))
        assert all(a <= b for a, b in zip(uppers, uppers[1:]))


class TestOrthogonalityResidual:
    def test_zero_perturbation_vanishes(self):
        rho = orthogonality_residual(Zero(), KernelSpec(LL, 1.0), [0.0, 1.0, -2.0], window=W20)
        assert np.array_equal(rho, np.zeros(3))

    def test_odd_perturbation_parity_null_at_center(self):
        tol = 1e-10
        rho = orthogonality_residual(
            OddGaussian(amplitude=1.0, width=2.0), KernelSpec(LL, 1.0), [0.0], tol=tol, window=W20
        )
        assert abs(rho[0]) <= 10.0 * tol

    def test_catalog_cosine_gaussian_golden_curve(self):
        k = KernelSpec(LL, 1.0)
        mus = sorted(GOLDEN_RHO_COSGAUSS_LL)
        rho = orthogonality_residual(CosineGaussian(), k, mus, tol=1e-10, window=W20)
        for mu, r in zip(mus, rho):
            assert r == pytest.approx(GOLDEN_RHO_COSGAUSS_LL[mu], abs=1e-8)
        assert np.all(rho > 0.0)  # nonnegative f against a positive kernel

    def test_matches_live_oracle(self):
        k = KernelSpec(LL, 1.0)
        f = CosineGaussian()
        for mu in (-3.0, 0.5):
            got = orthogonality_residual(f, k, [mu], tol=1e-10, window=W20)[0]
            oracle = midpoint_convolution(f.eval, k.eval, mu, -20.0, 20.0, n=4_000_000)
            assert got == pytest.approx(oracle, abs=1e-8)

    def test_cosgauss_probe_takes_few_integrand_calls(self):
        # the riesz command's probe, 21 mu on [-5, 5] in the default window:
        # maximum marking alone took 11 integrand calls for 830 panels;
        # marking by tolerance share as well takes 6 for 846
        calls = []

        class Recording(KernelSpec):
            def eval(self, y):
                calls.append(np.shape(y)[0])  # one row of 15 abscissae a panel
                return super().eval(y)

        rho = orthogonality_residual(CosineGaussian(), Recording(NN, 1.0), np.linspace(-5.0, 5.0, 21),
                                     tol=RESIDUAL_TOL, window=Window())
        assert np.all(rho > 0.0)
        assert (len(calls), sum(calls)) == (6, 846)
        assert len(calls) <= 6 and sum(calls) <= 1.03 * 830

    def test_grid_outside_window_rejected(self):
        with pytest.raises(ValueError):
            orthogonality_residual(Zero(), KernelSpec(LL, 1.0), [30.0], window=W20)

    def test_table_knots_are_panel_boundaries(self):
        # a knot inside a panel is a kink its error estimate misses: cut
        # only at 0 and the shift, this value is off by 1.4e-8 at tol 1e-8
        k = KernelSpec(NN, 1.0)
        f = TabulatedEven((0.0, 1.3, 2.7), (0.1, -0.05, 0.0))
        (reference,), _, _ = integrate_shifts(lambda y, s: f.eval(y) * k.eval(s - y), W20.lo, W20.hi, [1.1],
                                              tol=1e-14, breakpoints=lambda s: (s, 0.0, *f.critical_points(W20.lo, W20.hi)))
        rho = orthogonality_residual(f, k, [1.1], tol=1e-8, window=W20)
        assert abs(rho[0] - reference) <= 1e-8
