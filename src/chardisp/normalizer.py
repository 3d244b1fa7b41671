"""Kernels, normalizing functions, and the integral equation they solve.

A dispersion-model density needs a factor ``a(y)`` such that

    integral over the support of  a(y) * K(mu - y) dy  =  1   for all mu,

where ``K(y) = exp(-lambda * d(y; 0))`` is the kernel induced by a unit
deviance.  Because ``K`` tends to 1 at infinity (the characteristic
functions decay to zero), the full-line integral of ``K`` diverges; every
computation here therefore lives on a finite window and the mu-dependence
that the truncation introduces is measured and reported, never hidden.

On the window the equation has a constant solution ``a ~ 1/integral(K)``,
and adding a perturbation to that constant yields non-constant normalizing
functions whose residuals the rest of the package quantifies.
"""
from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .charfn import ArrayLike, InvalidSpecError, Spec, build, is_number
from .deviance import UnitDeviancePair
from .quadrature import DEFAULT_TOL, integrate_shifts

DEFAULT_WINDOW = (-20.0, 20.0)
POSITIVITY_OVERSAMPLE = 4
# Default absolute tolerance of the normalization residual integrals.
RESIDUAL_TOL = 1e-8


class PositivityError(ValueError):
    """A perturbed normalizing function is not finite, or dips to zero or
    below, on the window."""

    def __init__(self, y: float, value: float):
        self.y = y
        self.value = value
        what = "positive" if np.isfinite(value) else "finite"
        super().__init__(f"normalizing function is not {what}: value {value!r} at y={y!r}")


@dataclass(frozen=True)
class Window:
    """Truncated support [lo, hi] with a uniform grid size for discrete ops."""

    lo: float = DEFAULT_WINDOW[0]
    hi: float = DEFAULT_WINDOW[1]
    n_grid: int = 1024

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not (is_number(lo) and is_number(hi) and np.isfinite(lo) and np.isfinite(hi) and hi > lo):
            raise ValueError(f"window needs lo < hi, got [{lo}, {hi}]")
        if not (isinstance(self.n_grid, numbers.Integral) and self.n_grid >= 16):
            raise ValueError(f"n_grid must be at least 16, got {self.n_grid}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def grid(self, oversample: int = 1) -> np.ndarray:
        """Inclusive uniform grid with oversample * n_grid intervals."""
        return np.linspace(self.lo, self.hi, oversample * self.n_grid + 1)

    def periodic_grid(self) -> np.ndarray:
        """n_grid equispaced points, right endpoint excluded (circular)."""
        dy = self.width / self.n_grid
        return self.lo + dy * np.arange(self.n_grid)

    def middle_half(self) -> tuple[float, float]:
        q = 0.25 * self.width
        return (self.lo + q, self.hi - q)

    def contains(self, y: ArrayLike) -> bool:
        y = np.asarray(y, dtype=float)
        return bool(np.all((y >= self.lo) & (y <= self.hi)))


@dataclass(frozen=True)
class KernelSpec:
    """Kernel K(y) = exp(-lam * d(y; 0)) for a deviance pair and index lam.

    ``lam = 0`` is admitted as the flat-kernel boundary (K identically 1);
    dispersion models proper use lam > 0.
    """

    pair: UnitDeviancePair
    lam: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"index parameter lam must be >= 0, got {self.lam}")

    def eval(self, y: ArrayLike) -> ArrayLike:
        return np.exp(-self.lam * self.pair.deviance(y, 0.0))


def kernel_integral(k: KernelSpec, w: Window, tol: float = DEFAULT_TOL) -> float:
    """Adaptive quadrature of K over the window, absolute tolerance tol.

    K is even, so this is the window convolution of 1 with K at shift 0.
    Raises :class:`QuadratureError` (carrying the best estimate and its
    error bound) if the subdivision budget is exhausted first.
    """
    return float(window_convolve(np.ones_like, k, 0.0, w, tol))


# ---------------------------------------------------------------------------
# Perturbations of the constant normalizer
# ---------------------------------------------------------------------------

class Perturbation(Spec, ABC):
    """Square-integrable perturbation added to the constant normalizer.

    Even members (symmetric about zero) form the class from which
    non-constant normalizing functions are drawn; odd members are kept in
    the catalog as controls and flagged as outside that class.
    """

    # True when f(y) = f(-y) for all y.
    even = True
    kind = "perturbation"

    def __post_init__(self):
        super().__post_init__()
        # the Gaussian envelopes exp(-y^2 / (2 s^2)) need s > 0 (NaN fails)
        width = getattr(self, "width", 1.0)
        if not width > 0:
            raise InvalidSpecError(f"{self.family} width must be positive, got {width!r}")
        for name, v in self.params().items():
            if not np.all(np.isfinite(v)):
                raise InvalidSpecError(f"{self.family} {name} must be finite, got {v!r}")

    @abstractmethod
    def eval(self, y: ArrayLike) -> ArrayLike: ...

    def is_zero(self) -> bool:
        return isinstance(self, Zero)

    def critical_points(self) -> tuple[float, ...]:
        """Abscissae off any uniform grid where the minimum may sit, such as
        the corners of a piecewise-linear table; the positivity check
        evaluates them beside its grid."""
        return ()


@dataclass(frozen=True)
class Zero(Perturbation):
    """The trivial perturbation, identically zero."""

    family = "zero"

    def eval(self, y):
        return np.zeros(np.shape(y))[()]


@dataclass(frozen=True)
class CosineGaussian(Perturbation):
    """f(y) = A (cos(omega y) + 1) exp(-y^2 / (2 s^2)); even, nonnegative for A > 0."""

    amplitude: float = 1.0
    frequency: float = 3.0
    width: float = np.sqrt(5.0)
    family = "cosgauss"

    def eval(self, y):
        yy = np.asarray(y, dtype=float)
        return self.amplitude * (np.cos(self.frequency * yy) + 1.0) * np.exp(
            -yy ** 2 / (2.0 * self.width ** 2)
        )


@dataclass(frozen=True)
class OddGaussian(Perturbation):
    """f(y) = A y exp(-y^2 / (2 s^2)); odd, hence outside the even class."""

    amplitude: float = 1.0
    width: float = 1.0
    family = "oddgauss"
    even = False

    def eval(self, y):
        yy = np.asarray(y, dtype=float)
        # amplitude last: amplitude * y may overflow where the value does not
        return yy * np.exp(-yy ** 2 / (2.0 * self.width ** 2)) * self.amplitude


@dataclass(frozen=True)
class TabulatedEven(Perturbation):
    """Even perturbation given by a table on y >= 0, linearly interpolated.

    Evaluation reflects through the origin, so symmetry holds by
    construction; the function is zero beyond the last knot.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]
    family = "custom"

    def __post_init__(self):
        object.__setattr__(self, "knots", tuple(self.knots))
        object.__setattr__(self, "values", tuple(self.values))
        super().__post_init__()
        k = np.asarray(self.knots, dtype=float)
        if k.size < 2 or np.any(k < 0) or np.any(np.diff(k) <= 0):
            raise InvalidSpecError("knots must be >= 0, strictly increasing, with at least two entries")
        if len(self.values) != k.size:
            raise InvalidSpecError("knots and values must have equal length")

    def eval(self, y):
        return np.interp(np.abs(y), self.knots, self.values, right=0.0)

    def critical_points(self):
        return tuple(-k for k in self.knots) + self.knots


PERTURBATION_FAMILIES: dict[str, type] = {
    "zero": Zero,
    "cosgauss": CosineGaussian,
    "oddgauss": OddGaussian,
    "custom": TabulatedEven,
}


def perturbation_from_dict(d: dict) -> Perturbation:
    """Inverse of :meth:`Perturbation.to_dict`; ``params`` may be omitted."""
    try:
        family = d["family"]
    except (TypeError, KeyError):
        raise InvalidSpecError(f"unknown perturbation record {d!r}") from None
    return build(PERTURBATION_FAMILIES, "perturbation", family, d.get("params", {}))


# ---------------------------------------------------------------------------
# Normalizing functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizerSpec:
    """Normalizing function on a window: a constant, optionally perturbed.

    ``perturbation is None`` marks the trivial (constant) solution; a
    :class:`Zero` instance is a perturbed spec that happens to add nothing.
    """

    a_tilde: float
    window: Window
    perturbation: Optional[Perturbation] = None

    def __post_init__(self):
        if not (np.isfinite(self.a_tilde) and self.a_tilde > 0.0):
            raise ValueError(f"constant part a_tilde must be positive, got {self.a_tilde}")

    @property
    def kind(self) -> str:
        return "trivial" if self.perturbation is None else "perturbed"

    def value(self, y: ArrayLike) -> ArrayLike:
        if self.perturbation is None:
            return np.full(np.shape(y), self.a_tilde)[()]
        return self.a_tilde + self.perturbation.eval(y)

    def is_constant(self) -> bool:
        return self.perturbation is None or self.perturbation.is_zero()

    def critical_points(self) -> tuple[float, ...]:
        """The perturbation's critical points, where a(y) may have corners."""
        return () if self.perturbation is None else self.perturbation.critical_points()

    def scan_points(self) -> np.ndarray:
        """Where the extremes of a(y) are looked for: the window grid
        oversampled by ``POSITIVITY_OVERSAMPLE``, followed by the
        perturbation's critical points inside the window."""
        w = self.window
        extra = np.asarray(self.critical_points(), dtype=float)
        return np.concatenate([w.grid(POSITIVITY_OVERSAMPLE), extra[(extra >= w.lo) & (extra <= w.hi)]])

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "a_tilde": self.a_tilde,
            "window": {"lo": self.window.lo, "hi": self.window.hi, "n_grid": self.window.n_grid},
        }
        if self.perturbation is not None:
            d["perturbation"] = self.perturbation.to_dict()
        return d


def trivial_normalizer(k: KernelSpec, w: Window, tol: float = DEFAULT_TOL) -> NormalizerSpec:
    """Constant solution of the window-restricted integral equation."""
    integral = kernel_integral(k, w, tol)
    if not integral > 0.0:  # a kernel too sharp for every quadrature node
        raise ValueError(f"kernel integral over the window is {integral!r}; no constant normalizes it")
    return NormalizerSpec(a_tilde=1.0 / integral, window=w)


def perturbed_normalizer(base: NormalizerSpec, f: Perturbation) -> NormalizerSpec:
    """Attach a perturbation to a trivial normalizer, enforcing positivity.

    The sum a_tilde + f must be finite and positive at every one of its
    :meth:`NormalizerSpec.scan_points`; otherwise the abscissa of the first
    value that is not finite (an overflow, or NaN), or else of the smallest
    value, is raised in :class:`PositivityError`.  Its integrals against a
    kernel (at most 1) must stay finite too: a ValueError is raised when the
    largest scanned value times max(2, window width) overflows, since a
    Gauss-Kronrod panel sums weights up to 2 and the panels span the window.
    """
    if base.kind != "trivial":
        raise ValueError("base normalizer must be trivial (constant)")
    norm = NormalizerSpec(a_tilde=base.a_tilde, window=base.window, perturbation=f)
    ys = norm.scan_points()
    with np.errstate(over="ignore", invalid="ignore"):  # caught below as values that are not finite
        vals = norm.value(ys)
    i = int(np.argmin(np.where(np.isfinite(vals), vals, -np.inf)))  # the first value not finite, else the smallest
    if not (np.isfinite(vals[i]) and vals[i] > 0.0):
        raise PositivityError(float(ys[i]), float(vals[i]))
    top = int(np.argmax(vals))
    factor = max(2.0, base.window.width)
    if not math.isfinite(float(vals[top]) * factor):
        raise ValueError(
            f"normalizing function is too large to integrate: value {float(vals[top])!r} "
            f"at y={float(ys[top])!r} times {factor!r} overflows"
        )
    return norm


def window_convolve(g, k: KernelSpec, shifts, window: Window, tol: float, corners=()) -> np.ndarray:
    """Integral over the window of g(y) K(s - y) dy, for each shift s.

    ``g`` is a vectorized elementwise callable and ``shifts`` an array of
    any shape; the result has that shape.  The distinct shifts are
    integrated together by :func:`quadrature.integrate_shifts`, each cut at
    s (the corner of K(s - y)), at 0 and at ``corners`` (where ``g`` may
    have one, such as the knots of a table), so equal shifts share one
    value; an unconverged integral raises :class:`QuadratureError` naming
    its shift.
    """
    distinct, which = np.unique(np.asarray(shifts, dtype=float), return_inverse=True)
    results = integrate_shifts(
        lambda y, s: g(y) * k.eval(s - y), window.lo, window.hi, distinct, tol=tol, breakpoints=(0.0, *corners)
    )
    values = np.array([r.value for r in results])
    return values[which].reshape(np.shape(shifts))


def convolution_residual(
    norm: NormalizerSpec,
    k: KernelSpec,
    mu_grid,
    tol: float = RESIDUAL_TOL,
) -> np.ndarray:
    """Residual r(mu) = integral over the window of a(y) K(mu - y) dy - 1.

    A measurement, not an assertion: truncation makes the residual drift
    away from zero near the window edges, and non-orthogonal perturbations
    shift it everywhere.
    """
    mu_grid = np.atleast_1d(np.asarray(mu_grid, dtype=float))
    if not norm.window.contains(mu_grid):
        raise ValueError("mu grid must lie inside the window")
    return window_convolve(norm.value, k, mu_grid, norm.window, tol, norm.critical_points()) - 1.0


# ---------------------------------------------------------------------------
# Discrete deconvolution on the window grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DeconvolutionReport:
    """Solution of the periodized discrete convolution equation a * K = 1.

    The right-hand side is constant, so its transform is supported at
    frequency zero only and the discrete solution must be the constant
    1 / (dy * sum K).  ``nonconstancy`` (max - min of the solution) and the
    DC value let callers confirm that against the quadrature normalizer.
    ``n_guarded`` counts kernel transform bins too close to zero to divide
    by; the right-hand side is zero there, so the solution is unaffected.
    """

    ys: np.ndarray = field(repr=False)
    solution: np.ndarray = field(repr=False)
    dc_value: float = 0.0
    nonconstancy: float = 0.0
    n_guarded: int = 0

    def to_dict(self) -> dict:
        return {
            "dc_value": self.dc_value,
            "nonconstancy": self.nonconstancy,
            "n_guarded": self.n_guarded,
            "n_grid": int(self.solution.size),
        }


def fft_deconvolve_check(k: KernelSpec, w: Window) -> DeconvolutionReport:
    """Solve dy * (a circ-conv K) = 1 on the window grid by discrete Fourier
    transform and report how constant the solution is.

    Requires ``w.n_grid`` to be a power of two.  Kernel transform bins with
    magnitude below 1e-12 of the DC bin are guarded (set to zero in the
    quotient) and counted.
    """
    n = w.n_grid
    if n & (n - 1) != 0:
        raise ValueError(f"n_grid must be a power of two, got {n}")
    dy = w.width / n
    # Kernel sampled at signed circular displacements j*dy, j = -n/2..n/2-1.
    j = np.arange(n)
    disp = np.where(j <= n // 2, j, j - n) * dy
    kv = k.eval(disp)

    khat = np.fft.fft(kv)
    bhat = np.fft.fft(np.ones(n))
    guard = np.abs(khat) < 1e-12 * np.abs(khat[0])
    denom = np.where(guard, 1.0, dy * khat)
    ahat = np.where(guard, 0.0, bhat / denom)
    a = np.fft.ifft(ahat).real

    return DeconvolutionReport(
        ys=w.periodic_grid(),
        solution=a,
        dc_value=float(ahat[0].real / n),
        nonconstancy=float(a.max() - a.min()),
        n_guarded=int(guard.sum()),
    )
