import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

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
    OddGaussian,
    PositivityError,
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


def perturbed_model(f, window=W20):
    k = KernelSpec(NN, 1.0)
    return DispersionModel(k, perturbed_normalizer(trivial_normalizer(k, window, 1e-10), f))


def sharp_model():
    # a kernel of width about 0.03, a few of the envelope's cells wide
    k = KernelSpec(UnitDeviancePair(Normal(1.0), Cauchy(0.01)), 1000.0)
    return DispersionModel(k, trivial_normalizer(k, Window()))


# mu midway between two scan points of the window grid
OFF_GRID_MU = 0.0048828125


class EndsOnlyTable(TabulatedEven):
    """A table whose bounds under-report it: between 0 and its values at an
    interval's ends, blind to a knot inside the interval."""

    def bounds(self, lo, hi):
        ends = self.eval(np.stack([lo, hi]))
        return np.minimum(ends.min(axis=0), 0.0), ends.max(axis=0)


def spike_model(height=100.0):
    # the spike's peak, the knot 0.2, lies inside the cell
    # [0.1953125, 0.205078125], whose ends its bounds read: the envelope
    # misses it, and sampling evaluates most proposals there
    k = KernelSpec(NN, 1.0)
    base = trivial_normalizer(k, Window(-20.0, 20.0, 16))
    spike = EndsOnlyTable(knots=(0.0, 0.1, 0.2, 0.3), values=(0.0, 0.0, height, 0.0))
    return DispersionModel(k, perturbed_normalizer(base, spike))


def cell_ends(m, edges):
    """The ends of each envelope cell, as ``_step_envelope`` bounds it: one
    row per cell."""
    return np.minimum(edges[:-1, None] + (edges[1] - edges[0]) * np.arange(2), m.window.hi)


def assert_envelope_holds(m, mu, edges, env, ys):
    """No density at ys exceeds its cell's height; a point on an edge lies
    in both cells it bounds."""
    ps = m.density(ys, mu)
    for side in ("left", "right"):
        cell = np.clip(np.searchsorted(edges, ys, side=side) - 1, 0, ENVELOPE_CELLS - 1)
        assert np.all(ps <= env[cell])


def draw_model(data):
    """A model and a position over catalog pairs, lam in [1e-2, 1e6], mu in
    the position domain, a window with and one without 0, and each
    perturbation family with amplitudes of either sign."""
    scales = st.floats(min_value=0.3, max_value=3.0)
    member = st.one_of(st.builds(Normal, scales), st.builds(Cauchy, scales), st.builds(Laplace, scales),
                       st.builds(SymmetricStable, st.floats(min_value=0.1, max_value=2.0), scales),
                       st.builds(SymmetricNIG, scales, scales))
    lam = 10.0 ** data.draw(st.floats(min_value=-2.0, max_value=6.0))
    k = KernelSpec(UnitDeviancePair(data.draw(member), data.draw(member)), lam)
    window = data.draw(st.sampled_from([W20, Window(1.0, 30.0, 1024)]))
    try:
        base = trivial_normalizer(k, window, 1e-10)
    except ValueError:  # a kernel too sharp for every quadrature node
        assume(False)
    a = base.a_tilde
    ratio = st.one_of(st.floats(min_value=-0.45, max_value=-0.05), st.floats(min_value=0.05, max_value=2.0))
    f = data.draw(st.one_of(
        st.builds(lambda r, w, s: CosineGaussian(r * a, w, s), ratio,
                  st.one_of(st.floats(min_value=-40.0, max_value=-0.5), st.floats(min_value=0.5, max_value=40.0)),
                  st.floats(min_value=0.5, max_value=100.0)),
        st.builds(lambda r, s: OddGaussian(r * a / s, s), ratio, st.floats(min_value=0.5, max_value=20.0)),
        st.builds(lambda r: TabulatedEven((0.0, 2.0, 5.0, 9.0), tuple(a * x for x in r)),
                  st.lists(ratio, min_size=4, max_size=4)),
        st.none(), st.just(Zero()),
    ))
    try:
        m = DispersionModel(k, base if f is None else perturbed_normalizer(base, f))
    except PositivityError:
        assume(False)
    lo, hi = m.position_domain
    return m, lo + (hi - lo) * data.draw(st.floats(min_value=0.0, max_value=1.0))


def whole_batch_sample(m, mu, n, seed):
    """sample() with each stream drawn and used as one whole-batch array and
    cells found by searchsorted: the reference its blocks must match bit
    for bit.  Returns the draws, or, when a proposal's density exceeds its
    height, that proposal's (index in its batch, y, density, height)."""
    edges, env, _, mass = _step_envelope(m, mu)
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
        # a bump of width 0.002 inside one of the envelope's cells
        # (width 0.0098): its bounds must read the table's knots, as the
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
        edges, env = _step_envelope(m, mu)[:2]
        assert edges.size == ENVELOPE_CELLS + 1 and env.size == ENVELOPE_CELLS
        assert edges[0] == m.window.lo and edges[-1] == m.window.hi
        assert_envelope_holds(m, mu, edges, env, np.linspace(m.window.lo, m.window.hi, 400_001))

    def test_step_envelope_does_not_depend_on_the_grid(self):
        # the window grid sets output resolution only
        (*arrays, mass), *rest = (
            _step_envelope(fig2d_model(window=Window(-20.0, 20.0, n)), 1.3) for n in (16, 1000, 1024, 2048)
        )
        for *other_arrays, other_mass in rest:
            assert all(np.array_equal(a, b) for a, b in zip(other_arrays, arrays))
            assert other_mass == mass

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_no_density_exceeds_its_cell_height(self, data):
        # over the models of draw_model, on a dense grid, each cell's ends
        # and mu
        m, mu = draw_model(data)
        edges, env = _step_envelope(m, mu)[:2]
        assert np.all(np.isfinite(env))
        assert_envelope_holds(m, mu, edges, env, np.concatenate([
            np.linspace(m.window.lo, m.window.hi, 200_001), cell_ends(m, edges).ravel(), [mu]]))

    @pytest.mark.parametrize("make", [trivial_model, fig2d_model, lambda: trivial_model(lam=1e6),
                                      lambda: trivial_model(lam=1e14)],
                             ids=["normal", "laplace_cosgauss", "lam1e6", "lam1e14"])
    def test_mass_estimate_lies_between_the_masses_of_the_bounds(self, make):
        # at lam = 1e14 the mass of L alone is 0
        m = make()
        edges, high, low, mass = _step_envelope(m, 0.0)
        w = np.diff(cell_ends(m, edges), axis=1).ravel()
        assert mass > 0.0
        assert np.sum(low * w) <= mass <= np.sum(high * w)

    @pytest.mark.parametrize("make, mu, least", [
        (trivial_model, 0.0, 0.9997899790525799),
        (fig2d_model, 0.0, 0.99012332659844),
        (lambda: trivial_model(UnitDeviancePair(SymmetricStable(0.7, 1.0), Normal(1.0))), 0.0, 0.9997450621070418),
        (lambda: perturbed_model(CosineGaussian(-0.01, 17.0, 100.0)), 0.0, 0.9670367855734029),
        (lambda: perturbed_model(OddGaussian(0.01, 1.0)), 0.0, 0.9995773032078612),
        (lambda: perturbed_model(CosineGaussian(-0.005, 17.0, 100.0), Window(1.0, 30.0)), 10.0, 0.9935080928495957),
        (lambda: trivial_model(lam=1e6), 0.0, 0.9990841121341132),
    ], ids=["normal", "laplace_cosgauss", "stable07_normal", "normal_cosgauss_negative", "normal_oddgauss",
            "offorigin_cosgauss", "normal_lam1e6"])
    def test_acceptance_is_no_lower_than_the_scanned_envelopes(self, make, mu, least):
        # the density's mass over the envelope's; ``least`` is that of the
        # envelope of 4,096 equal cells, each with its own height, as first
        # measured
        m = make()
        edges, env = _step_envelope(m, mu)[:2]
        ys = np.linspace(m.window.lo, m.window.hi, 4_000_001)
        ps = m.density(ys, mu)
        mass = np.sum(0.5 * (ps[1:] + ps[:-1]) * np.diff(ys))
        assert mass / (env.sum() * (edges[1] - edges[0])) >= least

    def test_proposals_per_draw_for_a_perturbed_model(self, monkeypatch):
        # the step envelope follows the cosine-gaussian's ripples; a flat
        # envelope under its peak needs about 13.7 proposals per draw.  Each
        # block's proposals pick their cells in one call.
        picked = []

        def pick(scaled, guide, u):
            picked.append(u.size)
            return _pick_cells(scaled, guide, u)

        monkeypatch.setattr(model, "_pick_cells", pick)
        n = 100_000
        draws = sample(fig2d_model(), 0.0, n, seed=42)
        assert draws.size == n
        assert sum(picked) / n <= 1.3

    @pytest.mark.parametrize("pair, perturb, most", [(NN, False, 0.002), (LL, True, 0.04)],
                             ids=["normal", "laplace_cosgauss"])
    def test_the_squeeze_leaves_few_densities_to_evaluate(self, pair, perturb, most):
        # the envelope evaluates no density, and its bounds decide all but a
        # few proposals: kernel abscissae per draw, which are above 1 when
        # every proposal is evaluated
        k = CountingKernel(pair, 1.0)
        m = fig2d_model(k) if perturb else DispersionModel(k, trivial_normalizer(k, W20, 1e-10))
        n = 100_000
        k.tally.abscissae = 0
        _step_envelope(m, 0.0)
        assert k.tally.abscissae == 0
        assert sample(m, 0.0, n, seed=3).size == n
        assert k.tally.abscissae / n <= most

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
        # bounds that under-report the spike leave it above the envelope;
        # sampling must notice and abort
        with pytest.raises(EnvelopeError) as exc:
            sample(spike_model(), 0.0, 500, seed=0)
        assert exc.value.density > exc.value.envelope
        assert 0.195 < abs(exc.value.y) < 0.206

    def test_envelope_failure_names_the_cell(self):
        with pytest.raises(EnvelopeError) as exc:
            sample(spike_model(), 0.0, 500, seed=0)
        lo, hi = exc.value.cell
        assert lo <= exc.value.y <= hi and hi - lo == pytest.approx(40.0 / ENVELOPE_CELLS)
        assert (f"of the cell [{lo!r}, {hi!r}]: the declared bounds of the kernel or the normalizing "
                f"function do not hold there" in str(exc.value))

    def test_envelope_failure_in_a_later_block_names_the_first_evaluated_proposal(self, monkeypatch):
        # the squeeze accepts some proposals above the envelope unevaluated,
        # so the error names the first evaluated one, which no block size
        # moves; a spike of height 1 stands less far above its cell's height
        # than one of 100, so the first such proposal comes later
        m = spike_model(height=1.0)
        with pytest.raises(EnvelopeError) as default:
            sample(m, 0.0, 500, seed=0)
        block = 8
        first = whole_batch_sample(m, 0.0, 500, seed=0)[0]
        assert first >= 2 * block  # no proposal above the envelope in the first two blocks
        monkeypatch.setattr(model, "SAMPLE_BLOCK", block)
        with pytest.raises(EnvelopeError) as exc:
            sample(m, 0.0, 500, seed=0)
        assert (exc.value.y, exc.value.density, exc.value.envelope, exc.value.cell) == (
            default.value.y, default.value.density, default.value.envelope, default.value.cell)

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

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_the_squeeze_decides_as_the_density_does(self, data):
        # bit for bit the reference that evaluates every proposal, or the
        # same EnvelopeError, over the models of draw_model
        m, mu = draw_model(data)
        # a kernel peak far narrower than a cell is sampled just as
        # exactly, but its envelope mass is far above the density's, so it
        # needs millions of proposals per draw: leave those out
        assume(m.kernel.eval(m.window.width / 40_000) > 1e-3)
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32))
        reference = whole_batch_sample(m, mu, 3000, seed)
        if isinstance(reference, tuple):
            with pytest.raises(EnvelopeError) as exc:
                sample(m, mu, 3000, seed)
            assert (exc.value.y, exc.value.density, exc.value.envelope) == reference[1:]
        else:
            assert np.array_equal(sample(m, mu, 3000, seed), reference)

    def test_an_index_parameter_beyond_the_slack_warns_nothing(self):
        # above lam ~ 4.8e13 the kernel's upper bound exp(slack (1 + lam))
        # would overflow, but it is capped at 1
        m = trivial_model(lam=1e14)
        assert np.array_equal(sample(m, 0.0, 1000, seed=0), whole_batch_sample(m, 0.0, 1000, seed=0))

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
    "tiny_in_one_bucket": lambda: np.concatenate([np.ones(10), _TINY, np.ones(ENVELOPE_CELLS - 210)]),
    "tiny_then_one": lambda: np.concatenate([np.full(ENVELOPE_CELLS - 1, 1e-300), [1.0]]),
    "one_then_tiny": lambda: np.concatenate([[1.0], np.full(ENVELOPE_CELLS - 1, 1e-300)]),
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
        assert rep.regularity is not None and rep.regularity.is_regular
        assert set(rep.normalization_residuals) == {-5.0, 0.0, 5.0}
        assert rep.truncation_drift >= 0.0
        d = rep.to_dict()
        assert d["classification"] == "PDM"
        assert set(d) == {"normalization_residuals", "classification", "regularity", "truncation_drift"}

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
