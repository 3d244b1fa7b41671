"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are pinned here and nowhere else.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from chardisp import cli
from chardisp.charfn import Cauchy, Laplace, Normal, SymmetricNIG, SymmetricStable
from chardisp.deviance import UnitDeviancePair, check_unit_deviance
from chardisp.model import DispersionModel, normalization_check, sample
from chardisp.normalizer import (
    CosineGaussian,
    KernelSpec,
    Window,
    fft_deconvolve_check,
    kernel_integral,
    perturbed_normalizer,
    trivial_normalizer,
)
from chardisp.quadrature import integrate
from chardisp.riesz import (
    TranslateSystem,
    gram_matrix,
    orthogonality_residual,
    rational_enumeration,
)

from oracles import cumulative_cdf, deviance_second_derivative_mpmath, ks_statistic, midpoint_convolution

NN = UnitDeviancePair(Normal(1.0), Normal(1.0))
LL = UnitDeviancePair(Laplace(1.0), Laplace(1.0))
W20 = Window(-20.0, 20.0, 1024)

# the seven catalog pairs under test
PAIRS = {
    "normal/normal": NN,
    "cauchy/normal": UnitDeviancePair(Cauchy(1.0), Normal(1.0)),
    "laplace/laplace": LL,
    "stable1.5/stable1.5": UnitDeviancePair(SymmetricStable(1.5, 1.0), SymmetricStable(1.5, 1.0)),
    "nig/nig": UnitDeviancePair(SymmetricNIG(1.0, 1.0), SymmetricNIG(1.0, 1.0)),
    "normal/laplace": UnitDeviancePair(Normal(1.0), Laplace(1.0)),
    "cauchy/cauchy": UnitDeviancePair(Cauchy(1.0), Cauchy(1.0)),
}

# frozen 1e7-point midpoint-oracle values (see oracles.py; stable to ~7e-15)
GOLDEN_INTEGRAL_NN = 39.327251983583842
GOLDEN_INTEGRAL_LL = 38.621340936110386


@contextmanager
def criterion(cid: str, desc: str):
    try:
        yield
    except BaseException:
        print(f"[{cid}] {desc}: FAIL")
        raise
    print(f"[{cid}] {desc}: PASS")


def test_c1_unit_deviance_axioms():
    with criterion("C1", "unit-deviance axioms for 7 catalog pairs on 101x101 grid"):
        grid = np.linspace(-5.0, 5.0, 101)
        t0 = time.perf_counter()
        for name, pair in PAIRS.items():
            rep = check_unit_deviance(pair, grid, grid)
            assert rep.max_abs_diagonal <= 1e-14, name
            assert rep.min_off_diagonal > 0.0, name
            assert rep.passed, name
        assert time.perf_counter() - t0 < 5.0


def test_c2_kernel_bounds_exact():
    with criterion("C2", "kernel bounds exp(-2 lam) <= K <= 1, K(0) = 1, exact"):
        ys = np.linspace(-50.0, 50.0, 10_000)
        for lam in (0.1, 1.0, 10.0):
            lower = np.exp(-2.0 * lam)
            for pair in PAIRS.values():
                k = KernelSpec(pair, lam)
                v = k.eval(ys)
                assert np.all(v >= lower)
                assert np.all(v <= 1.0)
                assert k.eval(0.0) == 1.0


def test_c3_trivial_normalizer_vs_midpoint_oracle():
    with criterion("C3", "quadrature matches 1e7-point midpoint oracle to 1e-8 relative"):
        got_nn = kernel_integral(KernelSpec(NN, 1.0), W20, tol=1e-10)
        got_ll = kernel_integral(KernelSpec(LL, 1.0), W20, tol=1e-10)
        assert abs(got_nn / GOLDEN_INTEGRAL_NN - 1.0) <= 1e-8
        assert abs(got_ll / GOLDEN_INTEGRAL_LL - 1.0) <= 1e-8


def test_c4_center_normalization_and_fft():
    with criterion("C4", "center residual <= 1e-8; FFT constant matches quadrature"):
        t0 = time.perf_counter()
        for pair in (NN, LL):
            k = KernelSpec(pair, 1.0)
            m = DispersionModel(k, trivial_normalizer(k, W20, tol=1e-10))
            assert abs(normalization_check(m, 0.0, tol=1e-10)) <= 1e-8

            w = Window(-20.0, 20.0, 4096)
            rep = fft_deconvolve_check(k, w)
            a_quad = trivial_normalizer(k, w, tol=1e-10).a_tilde
            assert abs(rep.dc_value / a_quad - 1.0) <= 1e-6
            assert rep.nonconstancy <= 1e-10 * rep.dc_value
        assert time.perf_counter() - t0 < 10.0


def test_c5_translation_substitution_invariance():
    with criterion("C5", "window-shift substitution invariance to 1e-12 relative"):
        k = KernelSpec(LL, 1.0)
        base = kernel_integral(k, W20, tol=1e-12)
        rng = np.random.default_rng(2024)
        for c in rng.uniform(-40.0, 40.0, size=5):
            shifted = integrate(
                lambda y: k.eval(y - c), W20.lo + c, W20.hi + c, tol=1e-12, breakpoints=(c,)
            ).value
            assert abs(shifted - base) <= 1e-12 * abs(base)


def test_c6_regularity_discrimination():
    with criterion("C6", "regularity: normal pair smooth, cauchy/normal kinked"):
        assert deviance_second_derivative_mpmath(NN) == pytest.approx(1.0, abs=1e-12)
        assert NN.regularity().kink_detected is False
        assert PAIRS["cauchy/normal"].regularity().kink_detected is True


def test_c7_riesz_probes():
    with criterion("C7", "Gram diagonals, interlacing, n=2 analytic bounds"):
        k = KernelSpec(LL, 1.0)
        pts = rational_enumeration(8)
        lowers, uppers = [], []
        for n in (1, 2, 4, 8):
            rep = gram_matrix(TranslateSystem(k, tuple(pts[:n]), W20), tol=1e-10)
            rel = np.abs(rep.gram.diagonal() / rep.k_norm_sq - 1.0)
            assert np.max(rel) <= 1e-10
            lo, hi = rep.min_eigenvalue, rep.max_eigenvalue
            lowers.append(lo)
            uppers.append(hi)
            if n == 2:
                off = rep.gram[0, 1]
                assert lo == pytest.approx(rep.k_norm_sq - off, abs=1e-8)
                assert hi == pytest.approx(rep.k_norm_sq + off, abs=1e-8)
        # interlacing monotonicity, exactly as computed
        assert all(a >= b for a, b in zip(lowers, lowers[1:]))
        assert all(a <= b for a, b in zip(uppers, uppers[1:]))


def test_c8_orthogonality_measurement_two_paths():
    with criterion("C8", "orthogonality residuals match brute-force oracle and second path"):
        k = KernelSpec(LL, 1.0)
        f = CosineGaussian()  # amplitude 1, frequency 3, width sqrt(5)
        mus = np.linspace(-5.0, 5.0, 11)
        rho = orthogonality_residual(f, k, mus, tol=1e-10, window=W20)

        # path one: independent brute-force convolution oracle
        for mu, r in zip(mus, rho):
            oracle = midpoint_convolution(f.eval, k.eval, mu, W20.lo, W20.hi, n=4_000_000)
            assert abs(r - oracle) <= 1e-8

        # path two: difference of normalization residuals
        base = trivial_normalizer(k, W20, tol=1e-10)
        m_triv = DispersionModel(k, base)
        m_pert = DispersionModel(k, perturbed_normalizer(base, f))
        for mu, r in zip(mus, rho):
            two_path = normalization_check(m_pert, mu, tol=1e-10) - normalization_check(
                m_triv, mu, tol=1e-10
            )
            assert abs(two_path - r) <= 1e-8


def test_c9_sampling():
    with criterion("C9", "sampling: mean symmetry, KS bound, byte-identical reruns"):
        k = KernelSpec(NN, 1.0)
        m = DispersionModel(k, trivial_normalizer(k, W20, tol=1e-10))
        n = 100_000
        draws = sample(m, 0.0, n, seed=42)
        assert abs(draws.mean()) <= 4.0 * draws.std() / np.sqrt(n)
        grid, cdf = cumulative_cdf(lambda y: m.density(y, 0.0), W20.lo, W20.hi)
        assert ks_statistic(draws, grid, cdf) <= 1.95 / np.sqrt(n)
        assert np.array_equal(draws, sample(m, 0.0, n, seed=42))


def test_c10_figure_data(tmp_path):
    with criterion("C10", "figure curves: symmetry, positivity, D/C ratio structure"):
        out = tmp_path / "figs"
        code = cli.run(["figures", "--lambda", "1", "--window", "-20", "20",
                        "--grid", "1024", "--out", str(out)])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"fig1A.csv", "fig1B.csv", "fig2C.csv", "fig2D.csv",
                         "reference_normal.csv", "reference_t3.csv"}

        def load(name):
            rows = [l.split(",") for l in (out / name).read_text().splitlines()[1:]]
            return (np.array([float(r[0]) for r in rows]),
                    np.array([float(r[1]) for r in rows]))

        curves = {}
        for name in ("fig1A.csv", "fig1B.csv", "fig2C.csv", "fig2D.csv"):
            ys, ps = load(name)
            curves[name] = (ys, ps)
            assert np.all(ps > 0.0), name
            # symmetry about mu = 0 to 1e-12 relative
            assert np.allclose(ps, ps[::-1], rtol=1e-12, atol=0), name

        # panel D differs from panel C by the perturbation weighting only:
        # p_D / p_C = (a_tilde + f(y)) / a_tilde pointwise
        ys, p_c = curves["fig2C.csv"]
        _, p_d = curves["fig2D.csv"]
        a_tilde = trivial_normalizer(KernelSpec(LL, 1.0), W20, tol=1e-10).a_tilde
        f_vals = CosineGaussian().eval(ys)
        expect = (a_tilde + f_vals) / a_tilde
        assert np.allclose(p_d / p_c, expect, rtol=1e-10, atol=0)
