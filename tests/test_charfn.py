import math
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
    register_family,
)
from chardisp.normalizer import PERTURBATION_FAMILIES, TabulatedEven

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


def test_register_family_extension_point():
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Triangular(CharFn):
        # cf of the symmetric triangular-density family on [-1/w, 1/w]
        w: float = 1.0
        family = "triangular_test"

        def eval(self, t):
            tt = np.asarray(t, dtype=float)
            x = self.w * tt
            out = np.where(x == 0.0, 1.0, np.sin(x / 2) ** 2 / (x / 2) ** 2 * 2 / 2)
            return float(out) if np.ndim(t) == 0 else out

        def __post_init__(self):
            if not self.w > 0:
                raise InvalidSpecError(f"triangular w must be positive, got {self.w}")

        def has_finite_second_moment(self):
            return True

    try:
        register_family(Triangular)
        assert from_dict({"family": "triangular_test", "params": {"w": 2.0}}) == Triangular(2.0)
        with pytest.raises(InvalidSpecError, match="triangular w must be positive"):
            from_dict({"family": "triangular_test", "params": {"w": -1.0}})
    finally:
        charfn.FAMILIES.pop("triangular_test", None)
    with pytest.raises(TypeError):
        register_family(int)


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
