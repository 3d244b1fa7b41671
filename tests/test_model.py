import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

from chardisp import model

from chardisp.charfn import Cauchy, Laplace, Normal, SymmetricNIG, SymmetricStable
from chardisp.deviance import UnitDeviancePair
from chardisp.model import (
    Classification,
    DispersionModel,
    DomainError,
    ENVELOPE_CELLS,
    EnvelopeError,
    GUIDE_BUCKETS,
    _guide_table,
    _pick_cells,
    _step_envelope,
    classify,
    diagnostics,
    normalization_check,
    sample,
)
from chardisp.normalizer import (
    CosineGaussian,
    KernelSpec,
    TabulatedEven,
    Window,
    Zero,
    perturbed_normalizer,
    trivial_normalizer,
)

from oracles import cumulative_cdf, ks_statistic, midpoint_integral

NN = UnitDeviancePair(Normal(1.0), Normal(1.0))
LL = UnitDeviancePair(Laplace(1.0), Laplace(1.0))
W20 = Window(-20.0, 20.0, 1024)

# residual of the trivial Normal/Normal model at mu = 0.45 * width, frozen
# from the midpoint oracle: the truncation drift the window introduces
GOLDEN_DRIFT_RESIDUAL_18 = 0.0013023618100804768
GOLDEN_RHO_COSGAUSS_LL_0 = 5.0045054856715687


def trivial_model(pair=NN, lam=1.0, window=W20, **kwargs):
    k = KernelSpec(pair, lam)
    return DispersionModel(k, trivial_normalizer(k, window, 1e-10), **kwargs)


def fig2d_model(k=None, window=W20):
    k = KernelSpec(LL, 1.0) if k is None else k
    base = trivial_normalizer(k, window, 1e-10)
    return DispersionModel(k, perturbed_normalizer(base, CosineGaussian()))


def sharp_model():
    # a kernel of width about 0.03, sharper than the envelope's 256 cells
    k = KernelSpec(UnitDeviancePair(Normal(1.0), Cauchy(0.01)), 1000.0)
    return DispersionModel(k, trivial_normalizer(k, Window()))


# mu midway between two scan points of the window grid
OFF_GRID_MU = 0.0048828125


class HiddenKnots(TabulatedEven):
    """A table whose knots are not declared critical."""

    def critical_points(self, lo, hi):
        return ()


def spike_model():
    # a spike narrower than the envelope grid spacing, at a point the
    # perturbation does not declare critical, escapes the supremum scan
    k = KernelSpec(NN, 1.0)
    base = trivial_normalizer(k, Window(-20.0, 20.0, 16))
    spike = HiddenKnots(knots=(0.0, 0.1, 0.2, 0.3), values=(0.0, 0.0, 100.0, 0.0))
    return DispersionModel(k, perturbed_normalizer(base, spike))


def whole_batch_sample(m, mu, n, seed):
    """sample() with each stream drawn and used as one whole-batch array and
    cells found by searchsorted: the reference its blocks must match bit
    for bit.  Returns the draws, or, when a proposal's density exceeds its
    height, that proposal's (index in its batch, y, density, height)."""
    edges, env, mass = _step_envelope(m, mu)
    width = edges[1] - edges[0]
    cdf = np.cumsum(env)
    acceptance = mass / (cdf[-1] * width)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    out, got = [], 0
    while got < n:
        batch = min(max(1024, math.ceil(1.1 * (n - got) / acceptance)), model.MAX_PROPOSAL_BATCH)
        cell = np.searchsorted(cdf, rng.random(batch), side="right")
        ys = np.minimum(edges[cell] + width * rng.random(batch), m.window.hi)
        height = env[cell]
        ps = m.density(ys, mu)
        bad = np.flatnonzero(ps > height)
        if bad.size:
            i = int(bad[0])
            return i, float(ys[i]), float(ps[i]), float(height[i])
        acc = ys[rng.random(batch) * height <= ps][:n - got]
        out.append(acc)
        got += acc.size
    return np.concatenate(out)


@dataclass
class Tally:
    abscissae: int = 0


@dataclass(frozen=True)
class CountingKernel(KernelSpec):
    """KernelSpec that counts the abscissae it is evaluated at."""

    tally: Tally = field(default_factory=Tally, compare=False, repr=False)

    def eval(self, y):
        self.tally.abscissae += int(np.size(y))
        return super().eval(y)


class TestDensity:
    def test_value_at_position_is_constant_part(self):
        m = trivial_model()
        assert m.density(0.3, 0.3) == m.normalizer.a_tilde

    def test_chain_value_matches_factor_oracle(self):
        # density at separation 2 equals a_tilde * exp(-lam * d(2)), with
        # each factor checked independently
        m = trivial_model()
        y, mu = 2.0, 0.0
        d = (1.0 - np.exp(-2.0)) * np.exp(-2.0)  # (1 - phi(2)) |psi(2)|
        expect = m.normalizer.a_tilde * np.exp(-d)
        assert m.density(y, mu) == pytest.approx(expect, rel=1e-14)

    def test_perturbed_value_at_origin(self):
        # a(0) = a_tilde + f(0) = a_tilde + 2 A, kernel factor exactly 1
        m = fig2d_model()
        assert m.density(0.0, 0.0) == pytest.approx(m.normalizer.a_tilde + 2.0, rel=1e-14)

    def test_strictly_positive_on_window(self):
        for m in (trivial_model(), fig2d_model()):
            ys = np.linspace(-20.0, 20.0, 4001)
            assert np.all(m.density(ys, 0.0) > 0.0)

    def test_symmetry_about_position_for_trivial_models(self):
        # mu + t and mu - t round independently, so agreement is to machine
        # precision rather than bitwise
        m = trivial_model()
        ts = np.linspace(0.0, 9.0, 301)
        mu = 1.0
        assert np.allclose(m.density(mu + ts, mu), m.density(mu - ts, mu), rtol=1e-13, atol=0)

    def test_domain_violations_rejected(self):
        m = trivial_model()
        with pytest.raises(DomainError):
            m.density(25.0, 0.0)
        with pytest.raises(DomainError):
            m.density(0.0, 15.0)  # default position domain is [-10, 10]

    def test_default_position_domain_is_middle_half(self):
        assert trivial_model().position_domain == (-10.0, 10.0)
        with pytest.raises(ValueError):
            trivial_model(position_domain=(-30.0, 0.0))


class TestNormalizationCheck:
    def test_center_residual_small_by_construction(self):
        tol = 1e-8
        assert abs(normalization_check(trivial_model(), 0.0, tol=tol)) <= 10.0 * tol

    def test_truncation_drift_at_offset_position(self):
        m = trivial_model(position_domain=(-19.0, 19.0))
        r = normalization_check(m, 18.0, tol=1e-10)
        assert r == pytest.approx(GOLDEN_DRIFT_RESIDUAL_18, abs=1e-8)
        assert abs(r) > 1e-4  # drift is real, not noise

    def test_cross_path_orthogonality_identity(self):
        # the perturbed residual minus the trivial residual is exactly the
        # perturbation-kernel inner product, computed by a separate code path
        rt = normalization_check(trivial_model(LL), 0.0, tol=1e-10)
        rp = normalization_check(fig2d_model(), 0.0, tol=1e-10)
        assert (rp - rt) == pytest.approx(GOLDEN_RHO_COSGAUSS_LL_0, abs=1e-8)

    def test_position_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            normalization_check(trivial_model(), 15.0)


class TestClassify:
    def test_trivial_is_pdm(self):
        assert classify(trivial_model()) is Classification.PDM

    def test_zero_perturbation_is_pdm(self):
        k = KernelSpec(LL, 1.0)
        base = trivial_normalizer(k, W20)
        m = DispersionModel(k, perturbed_normalizer(base, Zero()))
        assert classify(m) is Classification.PDM

    def test_cosine_gaussian_is_candidate(self):
        assert classify(fig2d_model()) is Classification.NSDM_CANDIDATE

    def test_invariant_under_lambda_scaling(self):
        for lam in (0.1, 1.0, 10.0):
            assert classify(trivial_model(lam=lam)) is Classification.PDM
            k = KernelSpec(LL, lam)
            base = trivial_normalizer(k, W20)
            m = DispersionModel(k, perturbed_normalizer(base, CosineGaussian()))
            assert classify(m) is Classification.NSDM_CANDIDATE


class TestSample:
    def test_zero_draws(self):
        assert sample(trivial_model(), 0.0, 0, seed=1).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample(trivial_model(), 0.0, -1, seed=1)

    def test_deterministic_under_seed(self):
        m = trivial_model()
        a = sample(m, 0.0, 5000, seed=42)
        b = sample(m, 0.0, 5000, seed=42)
        c = sample(m, 0.0, 5000, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_proposal_batches_are_capped(self, monkeypatch):
        m = trivial_model()
        monkeypatch.setattr("chardisp.model.MAX_PROPOSAL_BATCH", 1024)
        a = sample(m, 0.0, 5000, seed=42)
        assert a.size == 5000
        assert a.min() >= -20.0 and a.max() <= 20.0
        assert np.array_equal(a, sample(m, 0.0, 5000, seed=42))
        assert not np.array_equal(a, sample(m, 0.0, 5000, seed=43))

    def test_draws_respect_window(self):
        draws = sample(trivial_model(), 0.0, 20000, seed=3)
        assert draws.min() >= -20.0 and draws.max() <= 20.0

    def test_mean_symmetry(self):
        draws = sample(trivial_model(), 0.0, 100_000, seed=42)
        n = draws.size
        assert abs(draws.mean()) <= 4.0 * draws.std() / np.sqrt(n)

    def test_ks_against_integrated_cdf(self):
        m = trivial_model()
        draws = sample(m, 0.0, 100_000, seed=42)
        grid, cdf = cumulative_cdf(lambda y: m.density(y, 0.0), -20.0, 20.0)
        assert ks_statistic(draws, grid, cdf) <= 1.95 / np.sqrt(draws.size)

    def test_envelope_sees_critical_points(self):
        # a bump of width 0.002 between the envelope grid points (spacing
        # 0.0098): the envelope must scan the table's knots, as the
        # positivity check does, or the valid model cannot be sampled
        k = KernelSpec(NN, 1.0)
        bump = TabulatedEven((0.003, 0.004, 0.005, 1.0), (0.0, 1.0, 0.0, 0.0))
        m = DispersionModel(k, perturbed_normalizer(trivial_normalizer(k, Window()), bump))
        draws = sample(m, 0.0, 100_000, seed=0)
        assert draws.size == 100_000
        assert np.any(np.abs(np.abs(draws) - 0.004) < 0.001)

    @pytest.mark.parametrize(
        "model, mu",
        [
            (lambda: trivial_model(NN), 0.0),
            (lambda: trivial_model(LL), 0.0),
            (lambda: trivial_model(UnitDeviancePair(Cauchy(1.0), Normal(1.0))), 0.0),
            (lambda: trivial_model(UnitDeviancePair(SymmetricNIG(1.0, 1.0), SymmetricNIG(1.0, 1.0))), 0.0),
            (lambda: trivial_model(UnitDeviancePair(SymmetricStable(0.7, 1.0), Normal(1.0))), 0.0),
            (fig2d_model, 0.0),
            (fig2d_model, 1.3),
            # grids whose scan points are wider apart than a cell
            (lambda: fig2d_model(window=Window(-20.0, 20.0, 16)), 0.0),
            (lambda: fig2d_model(window=Window(-20.0, 20.0, 32)), 0.0),
            (lambda: fig2d_model(window=Window(-20.0, 20.0, 1000)), 0.0),
            (lambda: fig2d_model(window=Window(-20.0, 20.0, 2048)), 0.0),
            (sharp_model, OFF_GRID_MU),
        ],
        ids=["normal", "laplace", "cauchy_normal", "nig", "stable07_normal",
             "laplace_cosgauss", "laplace_cosgauss_mu1.3", "laplace_cosgauss_grid16",
             "laplace_cosgauss_grid32", "laplace_cosgauss_grid1000", "laplace_cosgauss_grid2048",
             "sharp_off_grid_mu"],
    )
    def test_step_envelope_bounds_the_density(self, model, mu):
        m = model()
        edges, env, _ = _step_envelope(m, mu)
        assert edges.size == ENVELOPE_CELLS + 1 and env.size == ENVELOPE_CELLS
        assert edges[0] == m.window.lo and edges[-1] == m.window.hi
        ys = np.linspace(m.window.lo, m.window.hi, 400_001)
        ps = m.density(ys, mu)
        # a point on an edge lies in both cells it bounds
        for side in ("left", "right"):
            cell = np.clip(np.searchsorted(edges, ys, side=side) - 1, 0, ENVELOPE_CELLS - 1)
            assert np.all(ps <= env[cell])

    def test_step_envelope_does_not_depend_on_the_grid(self):
        # the window grid sets output resolution only
        (edges, env, mass), *rest = (
            _step_envelope(fig2d_model(window=Window(-20.0, 20.0, n)), 1.3) for n in (16, 1000, 1024, 2048)
        )
        for other_edges, other_env, other_mass in rest:
            assert np.array_equal(other_edges, edges)
            assert np.array_equal(other_env, env)
            assert other_mass == mass

    def test_proposals_per_draw_for_a_perturbed_model(self):
        # the step envelope follows the cosine-gaussian's ripples; a flat
        # envelope under its peak needs about 13.7 proposals per draw
        k = CountingKernel(LL, 1.0)
        m = fig2d_model(k)
        n = 100_000
        k.tally.abscissae = 0
        _step_envelope(m, 0.0)
        envelope_points = k.tally.abscissae
        k.tally.abscissae = 0
        draws = sample(m, 0.0, n, seed=42)
        proposals = k.tally.abscissae - envelope_points
        assert draws.size == n
        assert proposals / n <= 1.3

    def test_ks_of_a_perturbed_model(self):
        m = fig2d_model()
        draws = sample(m, 0.0, 100_000, seed=42)
        grid, cdf = cumulative_cdf(lambda y: m.density(y, 0.0), -20.0, 20.0)
        assert ks_statistic(draws, grid, cdf) <= 1.95 / np.sqrt(draws.size)

    def test_envelope_sees_the_kernel_peak_at_mu(self):
        # a sharp kernel peaks at mu, midway between envelope grid points
        k = KernelSpec(UnitDeviancePair(Normal(1.0), Cauchy(0.01)), 1000.0)
        m = DispersionModel(k, trivial_normalizer(k, Window()))
        draws = sample(m, 0.0048828125, 1000, seed=0)
        assert draws.size == 1000
        assert np.all(np.abs(draws - 0.0048828125) < 20.0)

    def test_envelope_failure_aborts_with_diagnostics(self):
        # the spike escapes the envelope; sampling must notice and abort
        with pytest.raises(EnvelopeError) as exc:
            sample(spike_model(), 0.0, 500, seed=0)
        assert exc.value.density > exc.value.envelope
        assert 0.05 < abs(exc.value.y) < 0.35

    def test_envelope_failure_in_a_later_block_names_the_first_proposal(self, monkeypatch):
        m = spike_model()
        first, y, density, height = whole_batch_sample(m, 0.0, 500, seed=0)
        block = 8
        assert first >= 2 * block  # the culprit sits past the first two blocks
        monkeypatch.setattr(model, "SAMPLE_BLOCK", block)
        with pytest.raises(EnvelopeError) as exc:
            sample(m, 0.0, 500, seed=0)
        assert (exc.value.y, exc.value.density, exc.value.envelope) == (y, density, height)

    @pytest.mark.parametrize("block", [1000, 4097, None])
    @pytest.mark.parametrize("batch_cap", [30_000, None])
    def test_draws_do_not_depend_on_the_block_size(self, monkeypatch, block, batch_cap):
        # 30,000-proposal batches end in a partial block and take several
        # batches; the default cap takes one batch
        if block is not None:
            monkeypatch.setattr(model, "SAMPLE_BLOCK", block)
        if batch_cap is not None:
            monkeypatch.setattr(model, "MAX_PROPOSAL_BATCH", batch_cap)
        for m in (trivial_model(), fig2d_model()):
            draws = sample(m, 0.0, 100_000, seed=7)
            assert np.array_equal(draws, whole_batch_sample(m, 0.0, 100_000, seed=7))

    @pytest.mark.parametrize("make", [trivial_model, fig2d_model], ids=["normal", "laplace_cosgauss"])
    def test_working_memory_is_bounded(self, make):
        # the draws and one block's temporaries: under 2 x 8n bytes, as no
        # array of batch length is held
        m = make()
        n = 2 ** 20
        tracemalloc.start()
        try:
            sample(m, 0.0, n, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * n

    def test_position_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            sample(trivial_model(), 19.0, 10, seed=0)


def _cumulative(env):
    cdf = np.cumsum(np.asarray(env, dtype=float))
    cdf /= cdf[-1]  # as sample() normalizes it
    return cdf


_TINY = np.geomspace(1e-3, 1e-300, 200)
ADVERSARIAL_ENVELOPES = {
    # many tiny cells, down to 1e-300, inside one bucket between big ones
    "tiny_in_one_bucket": lambda: np.concatenate([np.ones(10), _TINY, np.ones(46)]),
    "tiny_then_one": lambda: np.concatenate([np.full(255, 1e-300), [1.0]]),
    "one_then_tiny": lambda: np.concatenate([[1.0], np.full(255, 1e-300)]),
    "zero_masses": lambda: np.where(np.arange(ENVELOPE_CELLS) % 3 == 0, 0.0, 1.0),
    "wide_lognormal": lambda: np.exp(np.random.default_rng(5).normal(0.0, 60.0, ENVELOPE_CELLS)),
    "uniform": lambda: np.ones(ENVELOPE_CELLS),
    "normal_model": lambda: _step_envelope(trivial_model(), 0.0)[1],
    "laplace_cosgauss_model": lambda: _step_envelope(fig2d_model(), 0.0)[1],
}


class TestGuidePick:
    @pytest.mark.parametrize("envelope", ADVERSARIAL_ENVELOPES.values(), ids=ADVERSARIAL_ENVELOPES.keys())
    def test_equals_searchsorted_right(self, envelope):
        cdf = _cumulative(envelope())
        assert cdf.size == ENVELOPE_CELLS
        edges = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
        exact = np.concatenate([cdf, edges, [0.0, 1.0 - 2.0 ** -53]])
        u = np.concatenate([
            exact,
            np.nextafter(exact, 0.0),
            np.nextafter(exact, 1.0),
            np.random.default_rng(0).random(100_000),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        scaled, guide = _guide_table(cdf)
        cell = _pick_cells(scaled, guide, u.copy())
        assert np.array_equal(cell, np.searchsorted(cdf, u, side="right"))
        assert cell.max() < ENVELOPE_CELLS

    def test_cumulative_mass_must_end_at_one(self):
        with pytest.raises(ValueError, match="end at exactly 1"):
            _guide_table(np.array([0.5, 1.0 - 2.0 ** -53]))


class TestDiagnostics:
    def test_report_for_trivial_model(self):
        m = trivial_model()
        rep = diagnostics(m, mu_grid=[-5.0, 0.0, 5.0], tol=1e-9)
        assert rep.classification is Classification.PDM
        assert rep.edm_excluded
        assert rep.regularity is not None and rep.regularity.is_regular
        assert set(rep.normalization_residuals) == {-5.0, 0.0, 5.0}
        assert rep.truncation_drift >= 0.0
        d = rep.to_dict()
        assert d["classification"] == "PDM"
        assert "edm_exclusion_note" in d

    def test_default_grid_is_nine_points_over_the_position_domain(self):
        m = trivial_model()
        rep = diagnostics(m, tol=1e-9)
        grid = np.linspace(*m.position_domain, 9)
        assert list(rep.normalization_residuals) == grid.tolist()
        assert rep.to_dict() == diagnostics(m, mu_grid=grid, tol=1e-9).to_dict()

    def test_empty_grid_is_refused_by_name(self):
        with pytest.raises(ValueError, match="mu_grid must hold at least one point"):
            diagnostics(trivial_model(), mu_grid=[])

    def test_report_for_perturbed_model(self):
        rep = diagnostics(fig2d_model(), mu_grid=[0.0, 2.0], tol=1e-8)
        assert rep.classification is Classification.NSDM_CANDIDATE
        # the cosine-gaussian is far from orthogonal to the kernel translates,
        # so the residuals are order one
        assert all(r > 1.0 for r in rep.normalization_residuals.values())

    def test_drift_matches_oracle_spread(self):
        m = trivial_model(position_domain=(-19.0, 19.0))
        rep = diagnostics(m, mu_grid=[0.0, 18.0], tol=1e-10)
        r18 = rep.normalization_residuals[18.0]
        r0 = rep.normalization_residuals[0.0]
        assert rep.truncation_drift == pytest.approx(abs(r18 - r0), abs=1e-15)
        oracle = m.normalizer.a_tilde * midpoint_integral(
            lambda y: m.kernel.eval(y - 18.0), -20.0, 20.0, n=2_000_000
        ) - 1.0
        assert r18 == pytest.approx(oracle, abs=1e-8)
