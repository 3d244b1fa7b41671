"""Catalog of real characteristic functions of symmetric non-lattice laws.

These are the building blocks for the unit deviances in
:mod:`chardisp.deviance`.  Every member evaluates to a real number, equals
1 at the origin, is even, and is strictly below 1 in modulus away from the
origin.  The catalog holds five families; new ones can be added through
:func:`register_family`.  Every spec checks its parameters when it is
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


class InvalidSpecError(ValueError):
    """Raised when a spec is built with parameters outside its family's domain."""


def _clamp(t: ArrayLike, scale: float) -> np.ndarray:
    """t clipped to +-min(T_CAP, SCALED_CAP / scale): the bound is a Python
    float, so the clamp stays one numpy call, and it is T_CAP for every
    scale below 1e142."""
    cap = min(T_CAP, SCALED_CAP / scale)
    return np.clip(np.asarray(t, dtype=float), -cap, cap)


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
    """A real, even characteristic function with known moment behaviour."""

    kind = "characteristic function"

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

    @abstractmethod
    def has_finite_second_moment(self) -> bool:
        """True when the underlying law has finite first two moments."""


@dataclass(frozen=True)
class Normal(CharFn):
    """Gaussian law with scale ``sigma``: exp(-sigma^2 t^2 / 2)."""

    scale: float = 1.0
    family = "normal"

    def eval(self, t):
        return np.exp(-0.5 * (self.scale * _clamp(t, self.scale)) ** 2)

    def has_finite_second_moment(self):
        return True


@dataclass(frozen=True)
class Cauchy(CharFn):
    """Cauchy law with scale ``gamma``: exp(-gamma |t|).  No finite moments."""

    scale: float = 1.0
    family = "cauchy"

    def eval(self, t):
        return np.exp(-self.scale * np.abs(_clamp(t, self.scale)))

    def has_finite_second_moment(self):
        return False


@dataclass(frozen=True)
class Laplace(CharFn):
    """Laplace (double exponential) law with scale ``b``: 1 / (1 + b^2 t^2)."""

    scale: float = 1.0
    family = "laplace"

    def eval(self, t):
        return 1.0 / (1.0 + (self.scale * _clamp(t, self.scale)) ** 2)

    def has_finite_second_moment(self):
        return True


@dataclass(frozen=True)
class SymmetricStable(CharFn):
    """Symmetric alpha-stable law: exp(-|c t|^alpha), 0 < alpha <= 2.

    alpha = 2 is the Gaussian boundary; for alpha < 2 the variance is
    infinite, so the second moment is finite only at the boundary.
    """

    alpha: float = 1.5
    scale: float = 1.0
    family = "stable"

    def eval(self, t):
        return np.exp(-np.abs(self.scale * _clamp(t, self.scale)) ** self.alpha)

    def __post_init__(self):
        # before the generic rule, so that alpha = 0 names the stable range
        if is_number(self.alpha) and not 0.0 < self.alpha <= 2.0:
            raise InvalidSpecError(f"stable index alpha must lie in (0, 2], got {self.alpha}")
        super().__post_init__()

    def has_finite_second_moment(self):
        return self.alpha == 2.0


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

    def eval(self, t):
        t2 = _clamp(t, math.sqrt(self.delta)) ** 2  # delta * t2 stays finite
        return np.exp(-self.delta * t2 / (self.alpha + np.sqrt(self.alpha ** 2 + t2)))

    def has_finite_second_moment(self):
        return True


FAMILIES: dict[str, type] = {
    "normal": Normal,
    "cauchy": Cauchy,
    "laplace": Laplace,
    "stable": SymmetricStable,
    "nig": SymmetricNIG,
}


def register_family(cls: type) -> type:
    """Extension point: add a :class:`CharFn` subclass to the catalog."""
    if not (isinstance(cls, type) and issubclass(cls, CharFn)):
        raise TypeError(f"{cls!r} is not a CharFn subclass")
    if not cls.family:
        raise ValueError("family name must be a non-empty string")
    FAMILIES[cls.family] = cls
    return cls


def from_dict(d: dict) -> CharFn:
    """Inverse of :meth:`CharFn.to_dict`."""
    try:
        family = d["family"]
        params = d["params"]
    except (TypeError, KeyError) as exc:
        raise InvalidSpecError(f"characteristic function record needs 'family' and 'params': {d!r}") from exc
    return build(FAMILIES, "characteristic function", family, params)
