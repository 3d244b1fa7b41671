import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chardisp.charfn import T_CAP, Cauchy, InvalidSpecError, Laplace, Normal, SymmetricNIG, SymmetricStable
from chardisp.deviance import RegularityReport, UnitDeviancePair, check_unit_deviance
from chardisp.normalizer import KernelSpec

from oracles import deviance_second_derivative_mpmath

NN = UnitDeviancePair(Normal(1.0), Normal(1.0))
CN = UnitDeviancePair(Cauchy(1.0), Normal(1.0))
LL = UnitDeviancePair(Laplace(1.0), Laplace(1.0))

PAIRS = [
    NN,
    CN,
    LL,
    UnitDeviancePair(SymmetricStable(1.5, 1.0), SymmetricStable(1.5, 1.0)),
    UnitDeviancePair(SymmetricNIG(1.0, 1.0), SymmetricNIG(1.0, 1.0)),
    UnitDeviancePair(Normal(1.0), Laplace(1.0)),
    UnitDeviancePair(Cauchy(1.0), Cauchy(1.0)),
]


def test_pair_rejects_invalid_members():
    with pytest.raises(InvalidSpecError):
        UnitDeviancePair(SymmetricStable(2.5, 1.0), Normal(1.0))


def test_diagonal_is_exactly_zero():
    assert NN.deviance(3.7, 3.7) == 0.0
    for pair in PAIRS:
        assert pair.deviance(-1.25, -1.25) == 0.0


def test_normal_pair_maximum_value():
    # (1 - u) u over u = exp(-t^2/2) peaks at u = 1/2, value 1/4, reached at
    # t = sqrt(2 ln 2); confirmed by a brute-force scan
    t_star = math.sqrt(2.0 * math.log(2.0))
    assert NN.deviance(t_star, 0.0) == pytest.approx(0.25, abs=1e-15)
    ts = np.linspace(0.0, 10.0, 2_000_001)
    scan = NN.deviance(ts, 0.0)
    assert np.max(scan) == pytest.approx(0.25, abs=1e-12)
    assert ts[np.argmax(scan)] == pytest.approx(t_star, abs=1e-5)


def test_mixed_pair_pinned_value():
    # Cauchy/Normal at separation 1: (1 - e^-1) * e^-0.5
    expect = (1.0 - math.exp(-1.0)) * math.exp(-0.5)
    assert CN.deviance(1.0, 0.0) == pytest.approx(expect, rel=1e-15)
    assert expect == pytest.approx(0.383401, abs=1e-6)


def test_check_unit_deviance_passes_on_catalog():
    grid = np.linspace(-5.0, 5.0, 101)
    for pair in (NN, CN):
        rep = check_unit_deviance(pair, grid, grid)
        assert rep.passed
        assert rep.max_abs_diagonal <= 1e-14
        assert rep.min_off_diagonal > 0.0
        assert rep.n_diagonal == 101
        assert rep.n_off_diagonal == 101 * 101 - 101
        assert rep.violations == ()


def test_check_unit_deviance_catches_corruption():
    class Corrupted:
        def deviance(self, y, mu):
            return NN.deviance(y, mu) - 0.1

    grid = np.linspace(-5.0, 5.0, 21)
    rep = check_unit_deviance(Corrupted(), grid, grid)
    assert not rep.passed
    assert rep.min_off_diagonal < 0.0
    assert rep.violations  # carries offending (y, mu, value) witnesses
    assert any(val < 0.0 for _, _, val in rep.violations)


def test_check_unit_deviance_names_nan_entries():
    class NaNAtHalf:
        def deviance(self, y, mu):
            t = y - mu
            return np.where(np.abs(t) == 0.5, np.nan, t * t)

    grid = np.linspace(-1.0, 1.0, 5)
    rep = check_unit_deviance(NaNAtHalf(), grid, grid)
    assert not rep.passed
    # off-diagonal witnesses in row-major order, each with |y - mu| = 0.5
    assert [(y, mu) for y, mu, _ in rep.violations] == [
        (-1.0, -0.5), (-0.5, -1.0), (-0.5, 0.0), (0.0, -0.5), (0.0, 0.5), (0.5, 0.0), (0.5, 1.0), (1.0, 0.5)
    ]
    assert all(math.isnan(v) for _, _, v in rep.violations)


def test_check_unit_deviance_rejects_empty_grid():
    with pytest.raises(ValueError):
        check_unit_deviance(NN, [], [0.0])


def test_axiom_report_serializes():
    grid = np.linspace(-2.0, 2.0, 21)
    d = check_unit_deviance(NN, grid, grid).to_dict()
    assert d["passed"] is True
    assert isinstance(d["violations"], list)


def test_regularity_normal_pair():
    assert NN.regularity() == RegularityReport(is_regular=True, kink_detected=False, local_exponent=2.0)


def test_regularity_cauchy_normal_kink():
    # the |t| corner of the Cauchy factor
    assert CN.regularity() == RegularityReport(is_regular=False, kink_detected=True, local_exponent=1.0)


def test_regularity_laplace_pair():
    assert LL.regularity() == RegularityReport(is_regular=True, kink_detected=False, local_exponent=2.0)


@pytest.mark.parametrize(
    "phi, psi, exponent",
    [
        (Normal(1.0), Normal(1.0), 2.0),
        (Laplace(1.0), Laplace(1.0), 2.0),
        (SymmetricNIG(1.0, 1.0), SymmetricNIG(1.0, 1.0), 2.0),
        (Normal(1.0), Cauchy(1.0), 2.0),
        (Cauchy(1.0), Normal(1.0), 1.0),
        (SymmetricStable(0.7, 1.0), Normal(1.0), 0.7),
        (SymmetricStable(1.8, 1.0), Normal(1.0), 1.8),
        (SymmetricStable(1.9, 1.0), Normal(1.0), 1.9),
        (SymmetricStable(1.99, 1.0), Normal(1.0), 1.99),
        (Normal(3000.0), Normal(1.0), 2.0),
        (Normal(1e5), Normal(1.0), 2.0),
        (Laplace(1e5), Laplace(1.0), 2.0),
        (SymmetricStable(0.7, 1e-2), Normal(1.0), 0.7),
        (SymmetricStable(1.99, 1e3), Normal(1.0), 1.99),
    ],
)
def test_kink_detected_by_local_exponent(phi, psi, exponent):
    # d grows like |t|^beta off the diagonal, with phi's beta since
    # |psi(0)| = 1: beta = 2 is smooth, any smaller beta is a kink, however
    # close to 2, and at any scale
    rep = UnitDeviancePair(phi, psi).regularity()
    assert rep.local_exponent == exponent
    assert rep.kink_detected is (exponent < 2.0)


@pytest.mark.parametrize("scale", [1e-3, 1e-7])
def test_local_exponent_unresolved_at_rounding_level(scale):
    # 1 - phi(1e-5) is within a few rounding units of zero (exactly zero at
    # 1e-7), so no finite difference in floats resolves the exponent there;
    # the declared one holds at every scale
    rep = UnitDeviancePair(Normal(scale), Normal(1.0)).regularity()
    assert rep.local_exponent == 2.0
    assert rep.kink_detected is False


@pytest.mark.parametrize("alpha", [1.0, 333.0, 1000.0])
def test_nig_smooth_for_large_alpha(alpha):
    rep = UnitDeviancePair(SymmetricNIG(alpha, 1.0), Normal(1.0)).regularity()
    assert rep.local_exponent == 2.0
    assert rep.kink_detected is False


def test_second_derivative_positive_for_regular_pairs():
    # a regular pair is smooth at the diagonal with a positive curvature there
    for pair in PAIRS:
        if pair.is_regular():
            assert pair.regularity().local_exponent == 2.0
            assert deviance_second_derivative_mpmath(pair) > 0.0


@settings(max_examples=200)
@given(
    pair=st.sampled_from(PAIRS),
    y=st.floats(-50, 50),
    mu=st.floats(-50, 50),
    c=st.floats(-50, 50),
)
@example(pair=CN, y=-29.188240816602136, mu=-30.75, c=0.0)  # separations +-t round to different magnitudes
def test_property_translation_symmetry_bounds(pair, y, mu, c):
    d = pair.deviance(y, mu)
    assert 0.0 <= d <= 2.0
    # translation invariance: depends on y - mu only
    assert pair.deviance(y + c, mu + c) == pytest.approx(d, abs=1e-12)
    # symmetry in the separation, exactly: d is even in the displacement, and
    # the deviance at mu + t is d at the rounded separation (mu + t) - mu,
    # which need not mirror (mu - t) - mu
    t = y - mu
    assert pair.at(t) == pair.at(-t)
    assert pair.deviance(mu + t, mu) == pair.at((mu + t) - mu)


# Scales up to 1e300, past the 1e142 where the clamp tightens below T_CAP;
# a NIG member's clamp scale is sqrt(delta), so its delta reaches 1e300 too.
_SCALES = st.one_of(st.floats(1e-3, 1e3), st.floats(1e142, 1e300))
_MEMBERS = st.one_of(
    st.builds(Normal, _SCALES),
    st.builds(Cauchy, _SCALES),
    st.builds(Laplace, _SCALES),
    st.builds(SymmetricStable, st.floats(0.05, 2.0), _SCALES),
    st.builds(SymmetricNIG, st.floats(1e-3, 1e3), st.one_of(_SCALES, st.floats(1e284, 1e300))),
)
_BEYOND_CAP = st.floats(T_CAP, 1e300) | st.just(math.inf)
_DISPLACEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3),
    _BEYOND_CAP,
    _BEYOND_CAP.map(lambda t: -t),
    st.integers(-10**15, 10**15),
    st.floats(-1e12, 1e12).map(np.float64),
    st.floats(-1e12, 1e12).map(np.asarray),
    st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=5).map(np.array),
)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300)
@given(phi=_MEMBERS, psi=_MEMBERS, t=_DISPLACEMENTS, lam=st.floats(0.0, 10.0))
def test_at_is_the_deviance_at_a_displacement_bit_for_bit(phi, psi, t, lam):
    pair = UnitDeviancePair(phi, psi)
    d = pair.deviance(t, 0.0)
    assert _same_bits(pair.at(t), d)
    assert type(pair.at(t)) is type(d)
    assert _same_bits(KernelSpec(pair, lam).eval(t), np.exp(-lam * d))
