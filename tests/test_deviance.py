import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chardisp.charfn import Cauchy, InvalidSpecError, Laplace, Normal, SymmetricNIG, SymmetricStable
from chardisp.deviance import (
    UnitDeviancePair,
    check_unit_deviance,
    regularity_probe,
)

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


def test_check_unit_deviance_rejects_empty_grid():
    with pytest.raises(ValueError):
        check_unit_deviance(NN, [], [0.0])


def test_axiom_report_serializes():
    grid = np.linspace(-2.0, 2.0, 21)
    d = check_unit_deviance(NN, grid, grid).to_dict()
    assert d["passed"] is True
    assert isinstance(d["violations"], list)


def test_regularity_normal_pair():
    rep = regularity_probe(NN, mu=0.0, h=1e-4)
    assert rep.second_derivative_at_diagonal == pytest.approx(1.0, abs=1e-3)
    assert not rep.kink_detected
    assert rep.is_regular


def test_regularity_cauchy_normal_kink():
    rep = regularity_probe(CN, mu=0.0, h=1e-4)
    assert rep.kink_detected
    assert not rep.is_regular
    # slopes approach +-1: the |t| corner of the Cauchy factor
    assert rep.right_slope == pytest.approx(1.0, abs=1e-3)
    assert rep.left_slope == pytest.approx(-1.0, abs=1e-3)


def test_regularity_laplace_pair():
    rep = regularity_probe(LL, mu=0.0, h=1e-4)
    assert rep.is_regular
    assert not rep.kink_detected
    assert rep.second_derivative_at_diagonal > 0.0


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
    ],
)
def test_kink_detected_by_local_exponent(phi, psi, exponent):
    # d grows like |t|^alpha off the diagonal: alpha = 2 is smooth, any
    # smaller alpha is a kink, however close to 2
    rep = regularity_probe(UnitDeviancePair(phi, psi), mu=0.0, h=1e-4)
    assert rep.local_exponent == pytest.approx(exponent, abs=1e-3)
    assert rep.kink_detected is (exponent < 2.0)


@pytest.mark.parametrize("scale", [1e-3, 1e-7])
def test_local_exponent_unresolved_at_rounding_level(scale):
    # 1 - phi(h/10) is within a few rounding units of zero (exactly zero at
    # 1e-7), so the slope ratio cannot tell a kink from a smooth pair
    rep = regularity_probe(UnitDeviancePair(Normal(scale), Normal(1.0)), mu=0.0, h=1e-4)
    assert math.isnan(rep.local_exponent)
    assert rep.kink_detected is False


def test_regularity_probe_rejects_bad_step():
    with pytest.raises(ValueError):
        regularity_probe(NN, h=0.5)
    with pytest.raises(ValueError):
        regularity_probe(NN, h=0.0)


def test_second_derivative_positive_for_regular_pairs():
    for pair in PAIRS:
        if pair.is_regular():
            rep = regularity_probe(pair, mu=0.5, h=1e-3)
            assert rep.second_derivative_at_diagonal > 0.0


@settings(max_examples=200)
@given(
    pair=st.sampled_from(PAIRS),
    y=st.floats(-50, 50),
    mu=st.floats(-50, 50),
    c=st.floats(-50, 50),
)
def test_property_translation_symmetry_bounds(pair, y, mu, c):
    d = pair.deviance(y, mu)
    assert 0.0 <= d <= 2.0
    # translation invariance: depends on y - mu only
    assert pair.deviance(y + c, mu + c) == pytest.approx(d, abs=1e-12)
    # symmetry in the separation
    t = y - mu
    assert pair.deviance(mu + t, mu) == pytest.approx(pair.deviance(mu - t, mu), abs=1e-15)
