import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chardisp import charfn
from chardisp.charfn import (
    Cauchy,
    CharFn,
    InvalidSpecError,
    Laplace,
    Normal,
    SymmetricNIG,
    SymmetricStable,
    from_dict,
)
from chardisp.deviance import UnitDeviancePair
from chardisp.normalizer import PERTURBATION_FAMILIES, KernelSpec, TabulatedEven

from oracles import origin_exponent_mpmath, phi_mpmath

CATALOG = [
    Normal(1.0),
    Normal(0.3),
    Cauchy(1.0),
    Cauchy(2.0),
    Laplace(1.0),
    Laplace(0.5),
    SymmetricStable(1.5, 1.0),
    SymmetricStable(2.0, 1.0),
    SymmetricStable(0.7, 2.0),
    SymmetricNIG(1.0, 1.0),
    SymmetricNIG(2.0, 0.5),
]


def test_value_at_zero_is_one_exactly():
    for spec in CATALOG:
        assert spec.eval(0.0) == 1.0


def test_pinned_values():
    # Laplace b=1 at t=1: 1/(1+1)
    assert Laplace(1.0).eval(1.0) == pytest.approx(0.5, abs=1e-15)
    # Cauchy gamma=1 at t=-2: exp(-2)
    assert Cauchy(1.0).eval(-2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    # Normal sigma=1 at t=1: exp(-1/2)
    assert Normal(1.0).eval(1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
    # stable alpha=2 coincides with a Gaussian of variance 2c^2
    assert SymmetricStable(2.0, 1.0).eval(1.5) == pytest.approx(math.exp(-2.25), rel=1e-14)
    # NIG closed form
    assert SymmetricNIG(1.0, 1.0).eval(1.0) == pytest.approx(math.exp(1.0 - math.sqrt(2.0)), rel=1e-14)


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: f"{s.family}{s.params()}")
def test_grid_invariants(spec):
    t = np.linspace(-50.0, 50.0, 2001)
    v = spec.eval(t)
    assert np.array_equal(v, spec.eval(-t))  # evenness, bitwise
    assert np.all(np.abs(v) <= 1.0)
    assert v[np.searchsorted(t, 0.0)] == 1.0
    off = v[t != 0.0]
    assert np.all(off < 1.0)  # strict for non-lattice members
    assert np.all(np.isfinite(v))


def test_huge_arguments_clamped_not_nan():
    for spec in CATALOG:
        for t in (1e9, -1e12, 1e300):
            v = spec.eval(t)
            assert np.isfinite(v) and 0.0 <= v <= 1.0


# Each family with its scale parameter (delta for nig) at 1e300.
HUGE_SCALES = [
    Normal(1e300),
    Cauchy(1e300),
    Laplace(1e300),
    SymmetricStable(1.5, 1e300),
    SymmetricNIG(1.0, 1e300),
]


@pytest.mark.parametrize("spec", HUGE_SCALES, ids=lambda s: s.family)
def test_huge_scales_underflow_without_warnings(spec):
    # the clamp tightens with the scale, so no square or power overflows
    t = np.concatenate([[0.0, 1e-300, 1e-150, 1.0, 40.0, 1e8, 1e300, np.inf], -np.geomspace(1e-300, 1e300, 61)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = spec.eval(t)
    assert v[0] == 1.0
    assert np.all(np.isfinite(v)) and np.all((v >= 0.0) & (v <= 1.0))
    assert np.all(v[3:8] <= 1e-300)


def test_validation_of_parameter_domains():
    SymmetricStable(2.0, 1.0)  # Gaussian boundary admitted
    SymmetricNIG(1.0, 1.0)
    with pytest.raises(InvalidSpecError, match="2.5"):
        SymmetricStable(2.5, 1.0)
    with pytest.raises(InvalidSpecError, match=r"stable index alpha must lie in \(0, 2\], got 0.0"):
        SymmetricStable(0.0, 1.0)
    with pytest.raises(InvalidSpecError, match="normal scale must be positive and finite, got 0.0"):
        Normal(0.0)
    with pytest.raises(InvalidSpecError, match="normal scale must be positive and finite, got -1.0"):
        Normal(-1.0)
    with pytest.raises(InvalidSpecError, match="cauchy scale must be positive and finite, got nan"):
        Cauchy(float("nan"))
    with pytest.raises(InvalidSpecError, match="laplace scale must be positive and finite, got inf"):
        Laplace(float("inf"))
    with pytest.raises(InvalidSpecError, match="nig delta must be positive and finite, got -2.0"):
        SymmetricNIG(1.0, -2.0)


@pytest.mark.parametrize("alpha", [1e155, 1e200, 1e300])
def test_nig_alpha_whose_square_overflows_rejected(alpha):
    # eval squares alpha as a Python float, which raises OverflowError there
    with pytest.raises(InvalidSpecError, match=re.escape(f"nig alpha must have a finite square, got {alpha}")):
        SymmetricNIG(alpha, 1.0)
    SymmetricNIG(1e154, 1.0).eval(np.array([0.0, 1.0, 1e8]))  # the square 1e308 is finite


def test_require_valid_raises_descriptively():
    # Validation runs at construction; the error names the offending value.
    with pytest.raises(InvalidSpecError, match="2.5"):
        SymmetricStable(2.5, 1.0)


def test_second_moment_table():
    assert Normal(1.0).has_finite_second_moment()
    assert Laplace(1.0).has_finite_second_moment()
    assert SymmetricNIG(1.0, 1.0).has_finite_second_moment()
    assert SymmetricStable(2.0, 1.0).has_finite_second_moment()
    assert not Cauchy(1.0).has_finite_second_moment()
    assert not SymmetricStable(1.5, 1.0).has_finite_second_moment()


def test_origin_exponent_table():
    assert Normal(1.0).origin_exponent == Laplace(1.0).origin_exponent == SymmetricNIG(1.0, 1.0).origin_exponent == 2.0
    assert Cauchy(1.0).origin_exponent == 1.0
    assert SymmetricStable(0.7, 1.0).origin_exponent == 0.7
    assert SymmetricStable(2.0, 1.0).origin_exponent == 2.0


# the catalog holds stable alpha = 0.7, 1.5 and 2; alpha = 1 is added
@pytest.mark.parametrize("spec", CATALOG + [SymmetricStable(1.0, 1.0)], ids=repr)
def test_finite_variance_follows_the_origin_exponent(spec):
    assert spec.has_finite_second_moment() == (spec.origin_exponent == 2)


def test_a_family_declares_eval_and_an_exponent_other_than_two():
    # eval alone makes a smooth family of finite variance, whose kernels
    # are not graded; an origin exponent of 1.5 makes the variance infinite
    # and grades the kernel at its corner
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Smooth(CharFn):
        scale: float = 1.0
        family = "smooth_test"

        def eval(self, t):
            return np.exp(-0.5 * (self.scale * np.asarray(t, dtype=float)) ** 2)

    @dataclass(frozen=True)
    class Sharp(Smooth):
        family = "sharp_test"
        origin_exponent = 1.5

        def eval(self, t):
            return np.exp(-np.abs(self.scale * np.asarray(t, dtype=float)) ** 1.5)

    smooth, sharp = Smooth(1.0), Sharp(1.0)
    assert smooth.has_finite_second_moment() and not sharp.has_finite_second_moment()
    assert not KernelSpec(UnitDeviancePair(smooth, Normal(1.0))).graded
    assert KernelSpec(UnitDeviancePair(sharp, Normal(1.0))).graded


@pytest.mark.parametrize("spec", CATALOG, ids=repr)
def test_origin_exponent_is_the_slope_of_one_minus_phi(spec):
    # 1 - phi(t) ~ c |t|^beta at the origin: its log-log slope over
    # [1e-4, 1e-3] is the declared beta
    t = np.array([1e-4, 1e-3])
    gap = 1.0 - spec.eval(t)
    slope = math.log(gap[1] / gap[0]) / math.log(10.0)
    assert slope == pytest.approx(spec.origin_exponent, abs=0.01)


# phi(c t) for each family at scale c; nig's alpha is given at c = 1
SCALED_FAMILIES = {
    "normal": Normal,
    "cauchy": Cauchy,
    "laplace": Laplace,
    **{f"nig:{a:g}": (lambda c, a=a: SymmetricNIG(a / c, c)) for a in (1.0, 1000.0)},
    **{f"stable:{a:g}": (lambda c, a=a: SymmetricStable(a, c)) for a in (0.7, 1.5, 1.8, 1.9, 1.99)},
}


def test_every_family_has_its_exponent_measured():
    # the catalog is closed: each family's declaration is checked below
    assert {make(1.0).family for make in SCALED_FAMILIES.values()} == set(charfn.FAMILIES)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 3000.0, 1e5])
@pytest.mark.parametrize("name", SCALED_FAMILIES)
def test_origin_exponent_matches_the_mpmath_measurement(name, scale):
    # the declaration that grading, the second-moment rule and the
    # regularity report read, against 1 - phi's closed form in 50 digits
    spec = SCALED_FAMILIES[name](scale)
    assert origin_exponent_mpmath(spec) == pytest.approx(spec.origin_exponent, abs=1e-4)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 3000.0, 1e5])
@pytest.mark.parametrize("name", SCALED_FAMILIES)
def test_declared_non_increasing_in_abs_t(name, scale):
    # the declaration the kernel's bounds read, against phi's closed form
    # in 50 digits from 0 out to where |phi| is far below a float's range
    import mpmath as mp

    spec = SCALED_FAMILIES[name](scale)
    assert spec.non_increasing
    with mp.workdps(50):
        values = [phi_mpmath(spec, 0)] + [phi_mpmath(spec, mp.mpf(10) ** (k / mp.mpf(8)) / scale)
                                          for k in range(-96, 97)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] < values[0]


def test_serialization_round_trip():
    for spec in CATALOG:
        d = spec.to_dict()
        assert set(d) == {"family", "params"}
        assert from_dict(d) == spec


def test_from_dict_rejects_garbage():
    with pytest.raises(InvalidSpecError):
        from_dict({"family": "poisson", "params": {}})
    with pytest.raises(InvalidSpecError):
        from_dict({"params": {}})
    with pytest.raises(InvalidSpecError):
        from_dict({"family": "normal", "params": {"sigma": 1.0}})


@pytest.mark.parametrize(
    "registry, kind, family, params, name",
    [
        (charfn.FAMILIES, "characteristic function", "normal", {"scale": "x"}, "scale"),
        (charfn.FAMILIES, "characteristic function", "stable", {"alpha": None}, "alpha"),
        (charfn.FAMILIES, "characteristic function", "nig", {"delta": [1.0]}, "delta"),
        (charfn.FAMILIES, "characteristic function", "laplace", {"scale": True}, "scale"),
        (PERTURBATION_FAMILIES, "perturbation", "cosgauss", {"amplitude": "x"}, "amplitude"),
        (PERTURBATION_FAMILIES, "perturbation", "oddgauss", {"amplitude": {}}, "amplitude"),
        (PERTURBATION_FAMILIES, "perturbation", "custom", {"knots": [0, 1], "values": [0, "x"]}, "values"),
    ],
)
def test_build_rejects_non_number_parameters(registry, kind, family, params, name):
    with pytest.raises(InvalidSpecError, match=f"{family}.*{name}"):
        charfn.build(registry, kind, family, params)
    with pytest.raises(InvalidSpecError, match=f"{kind} family {family!r} parameter {name!r} must be a number"):
        registry[family](**params)


def test_build_accepts_table_fields():
    f = charfn.build(PERTURBATION_FAMILIES, "perturbation", "custom", {"knots": [0, 1], "values": [1, 0]})
    assert f == TabulatedEven((0, 1), (1, 0))


@given(
    spec=st.sampled_from(CATALOG),
    t=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
def test_property_even_and_bounded(spec, t):
    v = spec.eval(t)
    assert v == spec.eval(-t)
    # the exponentials may underflow to exactly 0.0 at the far end
    assert 0.0 <= v <= 1.0
    # strictness below 1 holds once 1 - phi(t) is representable; for tiny t
    # the exponentials round to 1.0 in double precision
    if abs(t) >= 1e-6:
        assert v < 1.0


@settings(max_examples=50)
@given(
    spec=st.sampled_from(CATALOG),
    t=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
)
def test_property_continuity_by_finite_difference(spec, t):
    # |phi(t + h) - phi(t)| vanishes as h does; the worst local modulus in
    # the catalog is the alpha=0.7 stable member, ~ h**0.7 near the origin
    assert abs(spec.eval(t + 1e-5) - spec.eval(t)) < 1e-2
    assert abs(spec.eval(t + 1e-7) - spec.eval(t)) < 1e-4


def test_package_exports_resolve():
    import chardisp

    for name in chardisp.__all__:
        assert hasattr(chardisp, name), name
    namespace = {}
    exec("from chardisp import *", namespace)
    assert set(chardisp.__all__) <= set(namespace)
