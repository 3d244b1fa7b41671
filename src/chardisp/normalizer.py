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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charfn import ArrayLike, InvalidSpecError, Spec, abs_range, build, is_number
from .deviance import UnitDeviancePair
from .quadrature import DEFAULT_TOL, integrate_shifts

DEFAULT_WINDOW = (-20.0, 20.0)
POSITIVITY_OVERSAMPLE = 4
# Default absolute tolerance of the normalization residual integrals.
RESIDUAL_TOL = 1e-8
# Rounding slack of the ``bounds`` methods, 2^16 eps.  They bound each
# factor of a value by its values at an interval's ends or its exact
# extremes; at a float between the ends, rounding moves it further: exp(-x)
# by up to (3 x + 1) eps <= 2240 eps relative (x carries 3 eps, and is at
# most 745 above the subnormals), a cosine or a linear interpolant by a few
# eps of its scale, lam d by about 40 lam eps.  Each factor's bounds are widened by
# the slack (K's exponent by the slack times 1 + lam), 29 times the largest
# of these, and the rounding of the products and sums that combine the
# factors is monotone, so it keeps their order.
_SLACK = 2.0 ** -36


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
        if not math.isfinite(float(hi) - float(lo)):
            raise ValueError(f"window width overflows a float, got [{lo}, {hi}]")
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
        return np.exp(-self.lam * self.pair.at(y))

    def bounds(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds that hold :meth:`eval` at every float of each interval
        [lo, hi], from :meth:`UnitDeviancePair.bounds`.  The exponent is
        widened by the slack times 1 + lam, and the bounds by two subnormal
        steps, which exp's rounding can cross below 2^-1034.  The upper
        exponent is capped at 0, as the computed K = exp(-lam d) with
        lam d >= 0 is at most 1, so the upper bound is at most 1 for any
        lam."""
        d_lo, d_hi = self.pair.bounds(lo, hi)
        slack = _SLACK * (1.0 + self.lam)
        return (np.maximum(np.exp(-self.lam * d_hi - slack) - 2.0 ** -1073, 0.0),
                np.exp(np.minimum(slack - self.lam * d_lo, 0.0)) + 2.0 ** -1073)

    @property
    def graded(self) -> bool:
        """True when phi's exponent beta at the origin is not an integer:
        K then has a |y|^beta term at its corner 0, and the panels that end
        there are graded (see :func:`quadrature.integrate`).  Otherwise K
        is smooth on each side of 0 and every panel is plain."""
        return not float(self.pair.phi.origin_exponent).is_integer()


def kernel_integral(k: KernelSpec, w: Window, tol: float = DEFAULT_TOL) -> float:
    """Adaptive quadrature of K over the window, absolute tolerance tol.

    K is even, so this is the window convolution of 1 with K at shift 0.
    Raises :class:`QuadratureError` (carrying the best estimate and its
    error bound) if the subdivision budget is exhausted first.
    """
    return float(window_convolve(lambda y: 1.0, k, 0.0, w, tol))


# ---------------------------------------------------------------------------
# Perturbations of the constant normalizer
# ---------------------------------------------------------------------------

class Perturbation(Spec, ABC):
    """Square-integrable perturbation added to the constant normalizer.

    Parity does not mark the solutions: at a zero of the kernel's
    transform, a cosine of any phase solves the normalization equation as
    well as the even one does, so its odd part solves it too.  The catalog
    holds even members and one odd one, :class:`OddGaussian`.

    ``even`` declares the family's parity: True when f(-y) = f(y) for every
    member.  The kernel is even too, so on a symmetric window the residual
    curves of an even family are even, and each |mu| is integrated once
    (see :func:`window_convolve`).  A family that does not declare it is
    integrated at every mu.
    """

    kind = "perturbation"
    even = False

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
        """True when f(y) = 0 for every y."""
        return False

    @abstractmethod
    def bounds(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Finite bounds that hold :meth:`eval` at every float of each
        interval [lo, hi], rounding included; the sampling envelope is
        built from them."""

    def critical_points(self, lo: float, hi: float) -> tuple[float, ...]:
        """Abscissae that, with lo and hi, hold every extreme of f over the
        window [lo, hi] other than 0: its minimum when that is negative and
        its maximum when that is positive.  Each family declares them,
        stationary points of a smooth perturbation or corners of a
        piecewise-linear table; points outside the window are ignored.  The
        positivity check evaluates them beside a grid that holds lo and hi,
        so the smallest value scanned is the minimum of a(y) over the
        window, and :func:`window_convolve` cuts its integrals there."""
        return ()


def _gaussian(yy: np.ndarray, width: float) -> np.ndarray:
    """exp(-y^2 / (2 s^2)) at each y, without a warning at any float width
    s > 0: 0 or 1 where one of y^2 and 2 s^2 saturates to 0 or inf, and 1
    where both do alike (the 0/0 at y = 0 of a width whose 2 s^2 is 0)."""
    with np.errstate(all="ignore"):
        # np.float64's ** 2 rounds as a Python float's does, but it does not raise
        e = -yy ** 2 / (2.0 * np.float64(width) ** 2)
    return np.exp(np.fmin(e, 0.0))  # fmin takes 0.0 for a NaN


def _times_gaussian(x_lo, x_hi, lo, hi, width: float, amplitude: float):
    """Bounds of x g(y) A, in the order of the families' eval, over each
    interval [lo, hi] where x lies in [x_lo, x_hi] and g is
    :func:`_gaussian`: g lies between its values at the largest and the
    least |y|, each widened by the slack, and the rounded product between
    those of the four corners, as rounding is monotone in each factor."""
    near, far = abs_range(lo, hi)
    g_lo, g_hi = np.maximum(_gaussian(far, width) - _SLACK, 0.0), _gaussian(near, width) + _SLACK
    v = np.stack([x_lo * g_lo, x_lo * g_hi, x_hi * g_lo, x_hi * g_hi]) * amplitude
    return v.min(axis=0), v.max(axis=0)


@dataclass(frozen=True)
class Zero(Perturbation):
    """The trivial perturbation, identically zero."""

    family = "zero"
    even = True

    def eval(self, y):
        return np.zeros(np.shape(y))[()]

    def is_zero(self):
        return True

    def bounds(self, lo, hi):
        return np.zeros_like(lo), np.zeros_like(lo)


@dataclass(frozen=True)
class CosineGaussian(Perturbation):
    """f(y) = A (cos(omega y) + 1) exp(-y^2 / (2 s^2)); even, nonnegative for A > 0."""

    amplitude: float = 1.0
    frequency: float = 3.0
    width: float = np.sqrt(5.0)
    family = "cosgauss"
    even = True

    def eval(self, y):
        yy = np.asarray(y, dtype=float)
        # amplitude last, as in OddGaussian: amplitude * 2 may overflow where the value does not
        return (np.cos(self.frequency * yy) + 1.0) * _gaussian(yy, self.width) * self.amplitude

    def is_zero(self):
        return self.amplitude == 0

    def bounds(self, lo, hi):
        """cos(omega y) + 1 for omega y in [a, b]: 2 where sin turns from
        <= 0 to >= 0 (a peak of the cosine), 0 where it turns back (a
        trough), both where b - a is half a period or more, else between
        its values at a and b; widened by the slack and times the Gaussian
        (see :func:`_times_gaussian`)."""
        a, b = self.frequency * lo, self.frequency * hi
        a, b = np.minimum(a, b), np.maximum(a, b)  # a negative frequency reverses them
        (sa, sb), (ca, cb) = np.sin([a, b]), np.cos([a, b]) + 1.0
        span = b - a >= np.pi
        c_hi = np.where(span | (sa <= 0.0) & (sb >= 0.0), 2.0, np.maximum(ca, cb))
        c_lo = np.where(span | (sa >= 0.0) & (sb <= 0.0), 0.0, np.minimum(ca, cb))
        return _times_gaussian(c_lo - _SLACK, c_hi + _SLACK, lo, hi, self.width, self.amplitude)

    def critical_points(self, lo, hi):
        """0, where cos + 1 and the envelope both peak, when the window holds
        it or the frequency is 0.  Otherwise f = 2 A cos^2(omega y / 2)
        exp(-y^2 / (2 s^2)), whose factor cos^2 repeats with period
        2 pi / omega while the envelope falls away from 0, so the extreme
        of f farthest from 0 over the window lies within one period of the
        window's edge nearest 0: at that edge or at a root of
        omega tan(omega y / 2) = -y / s^2.  That period meets at most two
        tangent branches ((2k - 1) pi / omega, (2k + 1) pi / omega), each
        with one root, which is found by bisection on the sign of
        g(y) = s^2 omega sin(omega y / 2) + y cos(omega y / 2), the
        factor of f' that holds the root (written so that s^2 may
        underflow): the bracket is oriented by the signs of g at its ends
        and halved until its midpoint equals an end."""
        w, s = abs(self.frequency), self.width
        if w == 0.0 or lo <= 0.0 <= hi:
            return (0.0,)

        def g(y):
            t = 0.5 * w * y
            return w * s * s * math.sin(t) + y * math.cos(t)

        period = 2.0 * math.pi / w
        first = (min(abs(lo), abs(hi)) / period + 0.5) // 1.0  # the branch that holds the edge nearest 0
        points = [0.0]
        for k in (first, first + 1.0):
            a, b = (k - 0.5) * period, (k + 0.5) * period
            if not (k > 0.0 and math.isfinite(w * b)):  # branch 0's root is 0; sin and cos need finite arguments
                continue
            if g(a) > 0.0:
                a, b = b, a  # g <= 0 at the end a
            m = 0.5 * a + 0.5 * b
            while m != a and m != b:
                a, b = (a, m) if g(m) > 0.0 else (m, b)
                m = 0.5 * a + 0.5 * b
            points.append(m if lo > 0.0 else -m)
        return tuple(points)


@dataclass(frozen=True)
class OddGaussian(Perturbation):
    """f(y) = A y exp(-y^2 / (2 s^2)); odd."""

    amplitude: float = 1.0
    width: float = 1.0
    family = "oddgauss"

    def eval(self, y):
        yy = np.asarray(y, dtype=float)
        # amplitude last: amplitude * y may overflow where the value does not
        return yy * _gaussian(yy, self.width) * self.amplitude

    def is_zero(self):
        return self.amplitude == 0

    def bounds(self, lo, hi):
        """y between the interval's ends, times the Gaussian (see :func:`_times_gaussian`)."""
        return _times_gaussian(lo, hi, lo, hi, self.width, self.amplitude)

    def critical_points(self, lo, hi):
        return (-self.width, self.width)  # the minimum and the maximum


@dataclass(frozen=True)
class TabulatedEven(Perturbation):
    """Even perturbation given by a table on y >= 0, linearly interpolated.

    Evaluation reflects through the origin, so symmetry holds by
    construction; the function is zero beyond the last knot.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]
    family = "custom"
    even = True

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
        """(1 - t) v_j + t v_j+1 at t = (|y| - k_j) / (k_j+1 - k_j) in [0, 1]:
        no slope is formed, so knots closer than the values' difference
        divided by the largest float (where np.interp's slope overflows to
        inf) still interpolate between their values."""
        x = np.abs(np.asarray(y, dtype=float))
        k, v = np.asarray(self.knots), np.asarray(self.values)
        xc = np.clip(x, k[0], k[-1])
        j = np.minimum(np.searchsorted(k, xc, side="right") - 1, k.size - 2)
        t = (xc - k[j]) / (k[j + 1] - k[j])
        return np.where(x > k[-1], 0.0, (1.0 - t) * v[j] + t * v[j + 1])[()]

    def is_zero(self):
        return not any(self.values)

    def bounds(self, lo, hi):
        """Between the values at the ends, at each knot within the |y| of
        the interval and 0 where it reaches past the last knot: every
        extreme of the interpolant.  Widened by the slack times the largest
        |value|, which the interpolant's rounding stays within, plus the
        least normal number."""
        near, far = abs_range(lo, hi)
        ends = self.eval(np.stack([lo, hi]))
        f_lo, f_hi = ends.min(axis=0), ends.max(axis=0)
        for inside, v in zip([far > self.knots[-1], *((near <= k) & (k <= far) for k in self.knots)],
                             (0.0, *self.values)):
            f_lo, f_hi = np.where(inside, np.minimum(f_lo, v), f_lo), np.where(inside, np.maximum(f_hi, v), f_hi)
        pad = _SLACK * max(map(abs, self.values)) + 2.0 ** -1022
        return f_lo - pad, f_hi + pad

    def critical_points(self, lo, hi):
        return tuple(-k for k in self.knots) + self.knots


PERTURBATION_FAMILIES: dict[str, type] = {cls.family: cls for cls in (Zero, CosineGaussian, OddGaussian, TabulatedEven)}


def perturbation_from_dict(d: dict) -> Perturbation:
    """Inverse of :meth:`Perturbation.to_dict`; ``params`` may be omitted."""
    try:
        family = d["family"]
    except (TypeError, KeyError):
        raise InvalidSpecError(f"unknown {Perturbation.kind} record {d!r}") from None
    return build(PERTURBATION_FAMILIES, Perturbation.kind, family, d.get("params", {}))


# ---------------------------------------------------------------------------
# Normalizing functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizerSpec:
    """Normalizing function on a window: a constant, optionally perturbed.

    ``perturbation is None`` marks the trivial (constant) solution; a
    :class:`Zero` instance is a perturbed spec that happens to add nothing.

    A spec is scanned once, when it is built: a(y) must be finite and
    positive at every one of its :meth:`scan_points`, which hold the
    window's ends and every abscissa where a perturbation's extremes can
    sit (see :meth:`Perturbation.critical_points`), so the smallest scanned
    value is the minimum of a(y) over the window and the scan decides
    positivity exactly, between grid points too.  Otherwise the abscissa
    of the first value that is not finite (an overflow, or NaN), or else of
    the smallest value, is raised in :class:`PositivityError`.
    Its integrals against a kernel (at most 1) must stay finite too: a
    ValueError is raised when the largest scanned value times max(2, window
    width) overflows, since a Gauss-Kronrod panel sums weights up to 2 and
    the panels span the window.
    """

    a_tilde: float
    window: Window
    perturbation: Optional[Perturbation] = None

    def __post_init__(self):
        if not (np.isfinite(self.a_tilde) and self.a_tilde > 0.0):
            raise ValueError(f"constant part a_tilde must be positive, got {self.a_tilde}")
        ys = self.scan_points()
        with np.errstate(over="ignore", invalid="ignore"):  # caught below as values that are not finite
            vals = self.value(ys)
            i = int(np.argmin(np.where(np.isfinite(vals), vals, -np.inf)))  # the first value not finite, else the smallest
            if not (np.isfinite(vals[i]) and vals[i] > 0.0):
                raise PositivityError(float(ys[i]), float(vals[i]))
        top = int(np.argmax(vals))
        factor = max(2.0, self.window.width)
        if not math.isfinite(float(vals[top]) * factor):
            raise ValueError(
                f"normalizing function is too large to integrate: value {float(vals[top])!r} "
                f"at y={float(ys[top])!r} times {factor!r} overflows"
            )

    @property
    def kind(self) -> str:
        return "trivial" if self.perturbation is None else "perturbed"

    def value(self, y: ArrayLike) -> ArrayLike:
        if self.perturbation is None:
            return np.full(np.shape(y), self.a_tilde)[()]
        return self.a_tilde + self.perturbation.eval(y)

    def bounds(self, lo: np.ndarray, hi: np.ndarray):
        """Bounds that hold :meth:`value` at every float of each interval
        [lo, hi]: a_tilde plus the perturbation's (see
        :meth:`Perturbation.bounds`), as rounding of the sum is monotone."""
        if self.perturbation is None:
            return self.a_tilde, self.a_tilde
        f_lo, f_hi = self.perturbation.bounds(lo, hi)
        return self.a_tilde + f_lo, self.a_tilde + f_hi

    def is_constant(self) -> bool:
        return self.perturbation is None or self.perturbation.is_zero()

    def is_even(self) -> bool:
        """True when a(-y) = a(y): the spec is trivial or its perturbation's
        family is even (see :attr:`Perturbation.even`)."""
        return self.perturbation is None or self.perturbation.even

    def critical_points(self) -> tuple[float, ...]:
        """The perturbation's critical points over the window (see
        :meth:`Perturbation.critical_points`), where a(y) may have corners."""
        w = self.window
        return () if self.perturbation is None else self.perturbation.critical_points(w.lo, w.hi)

    def scan_points(self) -> np.ndarray:
        """Where the extremes of a(y) are looked for by the positivity
        check: the grid of a default :class:`Window` over the same span
        oversampled by ``POSITIVITY_OVERSAMPLE`` (4096 intervals whatever
        ``n_grid`` is, which sets only output resolution), followed by the
        perturbation's critical points inside the window.  A trivial spec's
        value is ``a_tilde`` everywhere, so it is scanned at the window's
        lower end alone."""
        w = self.window
        if self.perturbation is None:
            return np.array([w.lo])
        extra = np.asarray(self.critical_points(), dtype=float)
        grid = Window(w.lo, w.hi).grid(POSITIVITY_OVERSAMPLE)
        return np.concatenate([grid, extra[(extra >= w.lo) & (extra <= w.hi)]])

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
    """Attach a perturbation to a trivial normalizer; the new spec's scan
    (see :class:`NormalizerSpec`) enforces positivity."""
    if base.kind != "trivial":
        raise ValueError("base normalizer must be trivial (constant)")
    return NormalizerSpec(a_tilde=base.a_tilde, window=base.window, perturbation=f)


def window_convolve(g, k: KernelSpec, shifts, window: Window, tol: float, corners=(), even=False) -> np.ndarray:
    """Integral over the window of g(y) K(s - y) dy, for each shift s.

    ``g`` is a vectorized elementwise callable and ``shifts`` an array of
    any shape; the result has that shape.  The shifts are integrated
    together by :func:`quadrature.integrate_shifts`, each distinct one
    once, cut at s and 0 and at ``corners`` (where ``g`` may have one, such
    as the knots of a table), with K(s - y)'s corner s graded as a cusp
    when the kernel has one (see :attr:`KernelSpec.graded`); the cuts and
    cusps are given for the array of distinct shifts at once.  An
    unconverged integral raises :class:`QuadratureError` naming its shift.

    When ``even`` declares g even and the window is symmetric (lo == -hi),
    the integral at -s is that at s mirrored through y -> -y, K being even,
    so each shift is integrated at |s|: a value at s >= 0 is the one
    integrated for s alone, and the one at -s equals it, error bound
    included.
    """
    if even and window.lo == -window.hi:
        shifts = np.abs(shifts)
    return integrate_shifts(lambda y, s: g(y) * k.eval(s - y), window.lo, window.hi, shifts, tol=tol,
                            breakpoints=lambda s: (s, 0.0, *corners),
                            cusps=(lambda s: (s,)) if k.graded else None)[0]


def window_autoconvolve(k: KernelSpec, shifts, window: Window, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Integral over the window W = [lo, hi] of K(y) K(s - y) dy, and its
    error bound, for each shift s, each integral folded about s/2.

    The integrand h(y) = K(y) K(s - y) is symmetric about s/2, since
    h(s - y) = h(y).  On the reflected overlap I = W n (s - W) =
    [max(lo, s - hi), min(hi, s - lo)], whose midpoint is s/2, the part of
    the integral left of s/2 therefore equals the part right of it, and the
    integral is that of h times a factor: 2 on I right of s/2, 0 on I left
    of it, and 1 outside I (everywhere when I is empty, that is when s/2
    lies outside the window).  Each integral is cut at the kinks 0 and s of
    h, at s/2 and at the two edges of I (``np.maximum`` and ``np.minimum``
    of the array of distinct shifts), so every panel lies in one region,
    and a panel's factor is decided from one point strictly inside it,
    never from each abscissa: one rounded onto an edge keeps its panel's
    factor.  That point is column 7 of the panel's row of abscissae (see
    :func:`quadrature.integrate_shifts`): the midpoint of a plain panel, and
    c +- h/16 of a panel of width h graded at its cusp c.  It is in I when
    its distance from s/2 is below I's half-width min(hi - s/2, s/2 - lo),
    which is negative when I is empty.  Refinement thus works on one mirror
    half of I only, and on the kinks in that half.  When the kernel has a
    fractional exponent (:attr:`KernelSpec.graded`), the kinks 0 and s are
    marked as cusps, and the panels that end there are graded.

    ``shifts`` is an array of any shape; both results have that shape, and
    each distinct shift is integrated once by
    :func:`quadrature.integrate_shifts`.  The kernel is evaluated only
    through ``k.eval``.  An unconverged integral raises
    :class:`QuadratureError` naming its shift.
    """
    lo, hi = window.lo, window.hi

    def folded(y, s):
        half = 0.5 * s
        d = y[:, 7:8] - half  # a point inside each row's panel, from s/2
        return k.eval(y) * k.eval(s - y) * (1.0 + np.sign(d) * (np.abs(d) < np.minimum(hi - half, half - lo)))

    return integrate_shifts(folded, lo, hi, shifts, tol=tol,
                            breakpoints=lambda s: (s, 0.0, 0.5 * s, np.maximum(lo, s - hi), np.minimum(hi, s - lo)),
                            cusps=(lambda s: (s, 0.0)) if k.graded else None)[:2]


def convolution_residual(
    norm: NormalizerSpec,
    k: KernelSpec,
    mu_grid,
    tol: float = RESIDUAL_TOL,
) -> np.ndarray:
    """Residual r(mu) = integral over the window of a(y) K(mu - y) dy - 1.

    A measurement, not an assertion: truncation makes the residual drift
    away from zero near the window edges, and non-orthogonal perturbations
    shift it everywhere.  For an even a(y) (:meth:`NormalizerSpec.is_even`)
    on a symmetric window, r(-mu) = r(mu), and each |mu| is integrated once
    (see :func:`window_convolve`).
    """
    mu_grid = np.atleast_1d(np.asarray(mu_grid, dtype=float))
    if not norm.window.contains(mu_grid):
        raise ValueError("mu grid must lie inside the window")
    return window_convolve(norm.value, k, mu_grid, norm.window, tol, norm.critical_points(),
                           norm.is_even()) - 1.0


# ---------------------------------------------------------------------------
# Discrete deconvolution on the window grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeconvolutionReport:
    """Solution of the periodized discrete convolution equation a * K = 1.

    The right-hand side is constant, so its transform is n at frequency
    zero and exactly zero elsewhere: the solution is the DC constant
    ``dc_value`` = 1 / (dy * sum K) on every one of the ``n_grid`` grid
    points.  ``n_guarded`` counts kernel transform bins too close to zero
    to divide by; the right-hand side is zero there, so the solution is
    unaffected.
    """

    dc_value: float
    n_guarded: int
    n_grid: int

    def to_dict(self) -> dict:
        return dict(vars(self))


def fft_deconvolve_check(k: KernelSpec, w: Window) -> DeconvolutionReport:
    """Solve dy * (a circ-conv K) = 1 on the window grid by discrete Fourier
    transform.

    The right-hand side's transform is DC-only, so the solution is the
    constant 1 / (dy * khat[0]), with khat the kernel's transform; the
    other bins of the quotient are exactly zero.  No bin is divided by but
    the DC one, so any ``w.n_grid`` works.  Kernel transform bins with
    magnitude below 1e-12 of the DC bin are guarded (their quotient would
    be 0 / ~0) and counted.
    """
    n = w.n_grid
    dy = w.width / n
    # Kernel sampled at signed circular displacements j*dy, j = -n/2..n/2-1.
    j = np.arange(n)
    disp = np.where(j <= n // 2, j, j - n) * dy
    khat = np.fft.fft(k.eval(disp))
    guard = np.abs(khat) < 1e-12 * np.abs(khat[0])
    return DeconvolutionReport(
        dc_value=float(1.0 / (dy * khat[0].real)),
        n_guarded=int(guard.sum()),
        n_grid=int(n),
    )
