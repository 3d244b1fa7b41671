"""Catalog of real characteristic functions of symmetric non-lattice laws.

These are the building blocks for the unit deviances in
:mod:`chardisp.deviance`.  Every member evaluates to a real number, equals
1 at the origin, is even, and is strictly below 1 in modulus away from the
origin.  The catalog is closed: it holds five families, and each one's
declared ``origin_exponent`` is checked by the tests against a
high-precision measurement.  Every spec checks its parameters when it is
built.  :class:`Spec`, :func:`build` and :func:`parse_shorthand` serve the
perturbation catalog as well.
"""
from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

# Arguments are clamped to this magnitude before evaluation so that the
# exponentials underflow cleanly to 0.0 instead of producing NaN.
T_CAP = 1e8
# For scales above SCALED_CAP / T_CAP the clamp tightens to SCALED_CAP /
# scale, so that the scaled argument and its square (at most 1e300) stay
# finite and the exponentials underflow without an overflow on the way.
SCALED_CAP = 1e150


def abs_range(lo: ArrayLike, hi: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """The least and the largest |t| over each interval [lo, hi] of arrays
    lo <= hi: 0 where the interval holds 0.  Exact, as negation is."""
    return np.maximum(np.maximum(lo, -hi), 0.0), np.maximum(-lo, hi)


class InvalidSpecError(ValueError):
    """Raised when a spec is built with parameters outside its family's domain."""


def _clamp(t: ArrayLike, scale: float) -> np.ndarray:
    """t as float, clipped to +-min(T_CAP, SCALED_CAP / scale), a bound
    that is T_CAP for every scale below 1e142.  Two ufuncs, not
    ``np.clip`` or ``ndarray.clip``: the same bits, NaN and +-inf
    included, without the Python-level wrapper frame that every kernel
    evaluation would enter."""
    cap = min(T_CAP, SCALED_CAP / scale)
    return np.minimum(np.maximum(t, -cap, dtype=float), cap)


class Spec:
    """A member of a registered family: a frozen dataclass whose fields are
    its parameters, serialized as ``{"family": ..., "params": {...}}``."""

    family: str = ""
    kind: str = ""

    def __post_init__(self):
        """Every parameter must be a number, or a tuple of numbers for a table."""
        for name, v in self.params().items():
            if not all(map(is_number, v if isinstance(v, tuple) else (v,))):
                raise InvalidSpecError(
                    f"{self.kind} family {self.family!r} parameter {name!r} must be a number, got {v!r}"
                )

    def params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_dict(self) -> dict:
        """Serialize as ``{"family": ..., "params": {...}}``."""
        return {"family": self.family, "params": self.params()}


def is_number(v) -> bool:
    """True for a real number that converts to a float; False for a bool, a
    string, None, a list, an int too large for a float..."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def build(registry: dict, kind: str, family, params) -> Spec:
    """Instantiate ``registry[family](**params)``; errors name the ``kind``."""
    try:
        cls = registry[family]
    except (TypeError, KeyError):
        raise InvalidSpecError(f"unknown {kind} family {family!r}") from None
    try:
        return cls(**params)
    except TypeError as exc:
        raise InvalidSpecError(f"bad parameters for {kind} family {family!r}: {params!r}") from exc


def parse_shorthand(registry: dict, kind: str, token: str) -> Spec:
    """Parse FAMILY or FAMILY:P1,P2,... with the parameters given
    positionally in the order of the family's dataclass fields."""
    name, _, rest = token.partition(":")
    if name not in registry:
        raise InvalidSpecError(f"unknown {kind} family {name!r} in {token!r}")
    names = [f.name for f in fields(registry[name])]
    parts = rest.split(",") if rest else []
    if len(parts) > len(names):
        raise InvalidSpecError(f"too many parameters in {token!r} (expected at most {len(names)})")
    params = {}
    for pname, raw in zip(names, parts):
        try:
            params[pname] = float(raw)
        except ValueError:
            raise InvalidSpecError(f"bad numeric parameter {raw!r} in {token!r}") from None
    return build(registry, kind, name, params)


class CharFn(Spec, ABC):
    """A real, even characteristic function.

    A family declares ``eval``, and declares ``origin_exponent`` too when
    it is not 2.  The declaration is a contract: the quadrature's grading,
    :meth:`has_finite_second_moment` and the deviance's regularity report
    all read it, and none of them measures it.
    """

    kind = "characteristic function"
    # beta in 1 - phi(t) ~ c |t|^beta at the origin: the law has a finite
    # variance exactly when beta = 2, and the kernel of a deviance with this
    # phi has its corner there, as sharp as beta says.  The quadrature
    # grades the panels at such a corner when beta is not an integer.
    origin_exponent = 2.0
    # True declares phi non-increasing in |t|, up to rounding: the kernel's
    # bounds over an interval then come from its ends (see
    # UnitDeviancePair.bounds).  Undeclared, they are those of d in [0, 2].
    non_increasing = False

    def __post_init__(self):
        """By default, every parameter must be positive and finite."""
        super().__post_init__()
        for name, v in self.params().items():
            if not (np.isfinite(v) and v > 0):
                raise InvalidSpecError(f"{self.family} {name} must be positive and finite, got {v}")

    @abstractmethod
    def eval(self, t: ArrayLike) -> ArrayLike:
        """Evaluate the characteristic function at ``t``: a numpy float
        scalar for scalar ``t``, an array of the shape of ``t`` otherwise."""

    def has_finite_second_moment(self) -> bool:
        """True when the underlying law has finite first two moments, that
        is when ``origin_exponent`` is 2."""
        return self.origin_exponent == 2


@dataclass(frozen=True)
class Normal(CharFn):
    """Gaussian law with scale ``sigma``: exp(-sigma^2 t^2 / 2)."""

    scale: float = 1.0
    family = "normal"
    non_increasing = True

    def eval(self, t):
        return np.exp(-0.5 * (self.scale * _clamp(t, self.scale)) ** 2)


@dataclass(frozen=True)
class Cauchy(CharFn):
    """Cauchy law with scale ``gamma``: exp(-gamma |t|).  No finite moments."""

    scale: float = 1.0
    family = "cauchy"
    non_increasing = True
    origin_exponent = 1.0

    def eval(self, t):
        return np.exp(-self.scale * np.abs(_clamp(t, self.scale)))


@dataclass(frozen=True)
class Laplace(CharFn):
    """Laplace (double exponential) law with scale ``b``: 1 / (1 + b^2 t^2)."""

    scale: float = 1.0
    family = "laplace"
    non_increasing = True

    def eval(self, t):
        return 1.0 / (1.0 + (self.scale * _clamp(t, self.scale)) ** 2)


@dataclass(frozen=True)
class SymmetricStable(CharFn):
    """Symmetric alpha-stable law: exp(-|c t|^alpha), 0 < alpha <= 2.

    alpha = 2 is the Gaussian boundary; for alpha < 2 the variance is
    infinite, so the second moment is finite only at the boundary.
    """

    alpha: float = 1.5
    scale: float = 1.0
    family = "stable"
    non_increasing = True

    @property
    def origin_exponent(self) -> float:
        return self.alpha

    def eval(self, t):
        return np.exp(-np.abs(self.scale * _clamp(t, self.scale)) ** self.alpha)

    def __post_init__(self):
        # before the generic rule, so that alpha = 0 names the stable range
        if is_number(self.alpha) and not 0.0 < self.alpha <= 2.0:
            raise InvalidSpecError(f"stable index alpha must lie in (0, 2], got {self.alpha}")
        super().__post_init__()


@dataclass(frozen=True)
class SymmetricNIG(CharFn):
    """Normal inverse Gaussian law with zero asymmetry.

    Characteristic function exp(delta * (alpha - sqrt(alpha^2 + t^2))),
    evaluated as exp(-delta t^2 / (alpha + sqrt(alpha^2 + t^2))) so that
    the exponent does not cancel near t = 0.  All moments are finite.
    """

    alpha: float = 1.0
    delta: float = 1.0
    family = "nig"
    non_increasing = True

    def __post_init__(self):
        super().__post_init__()
        try:  # eval squares alpha as a Python float, which raises on overflow
            float(self.alpha) ** 2
        except OverflowError:
            raise InvalidSpecError(f"nig alpha must have a finite square, got {self.alpha}") from None

    def eval(self, t):
        t2 = _clamp(t, math.sqrt(self.delta)) ** 2  # delta * t2 stays finite
        return np.exp(-self.delta * t2 / (self.alpha + np.sqrt(self.alpha ** 2 + t2)))


FAMILIES: dict[str, type] = {cls.family: cls for cls in (Normal, Cauchy, Laplace, SymmetricStable, SymmetricNIG)}


def from_dict(d: dict) -> CharFn:
    """Inverse of :meth:`CharFn.to_dict`."""
    try:
        family = d["family"]
        params = d["params"]
    except (TypeError, KeyError) as exc:
        raise InvalidSpecError(f"{CharFn.kind} record needs 'family' and 'params': {d!r}") from exc
    return build(FAMILIES, CharFn.kind, family, params)
