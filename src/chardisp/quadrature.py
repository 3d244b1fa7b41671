"""Globally adaptive panel quadrature with an embedded Gauss-Kronrod pair.

Every integral in this package runs through :func:`integrate`.  The scheme
is deliberately simple: the interval is cut at caller-supplied breakpoints
(kink locations must be panel boundaries, otherwise the error estimate is
useless there), each panel is evaluated with a 7-point Gauss rule embedded
in a 15-point Kronrod rule, and the panel with the largest error estimate
is bisected until the summed estimate drops below the absolute tolerance.
If the panel budget runs out first, :class:`QuadratureError` is raised, so
a returned :class:`QuadResult` is always converged.

The per-panel error estimate is the conservative ``|kronrod - gauss|``
difference.  For smooth integrands the Kronrod value is far more accurate
than this bound, so the reported ``error_bound`` safely dominates the true
error in practice.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

# 15-point Kronrod abscissae (positive half, descending) and weights, with
# the embedded 7-point Gauss weights.  Standard published values.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full 15-node layout on [-1, 1]; Gauss nodes sit at the odd positions.
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WEIGHTS_G = np.concatenate([_WG[:-1], _WG[::-1]])

DEFAULT_TOL = 1e-10
MAX_PANELS = 10_000


class QuadratureError(RuntimeError):
    """Adaptive subdivision exhausted its budget before reaching tolerance.

    Carries the best available estimate so callers can still report it.
    """

    def __init__(self, estimate: float, error_bound: float, message: str = ""):
        self.estimate = estimate
        self.error_bound = error_bound
        super().__init__(
            message
            or f"quadrature did not converge: estimate={estimate!r}, "
               f"error bound={error_bound!r}"
        )


class NonFiniteIntegrandError(QuadratureError):
    """The integrand returned NaN or an infinity, or a panel sum overflowed."""

    def __init__(self, x: float, value: float):
        self.x = x
        self.value = value
        super().__init__(math.nan, math.inf, f"integrand is not finite: value {value!r} at x={x!r}")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_bound: float
    n_panels: int


def _gk15(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """One Gauss-Kronrod panel: returns (kronrod value, error estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _NODES
    fx = np.asarray(f(x), dtype=float)
    k = half * float(fx @ _WEIGHTS_K)
    # The Kronrod sum is finite only if every sample is: check the sum, and
    # look for the culprit only on failure.
    if not math.isfinite(k):
        bad = np.flatnonzero(~np.isfinite(fx))
        i = int(bad[0]) if bad.size else int(np.argmax(np.abs(fx)))
        raise NonFiniteIntegrandError(float(x[i]), float(fx[i]))
    g = half * float(fx[1::2] @ _WEIGHTS_G)
    return k, abs(k - g)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    breakpoints: Iterable[float] = (),
    max_panels: int = MAX_PANELS,
) -> QuadResult:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Parameters
    ----------
    f : callable
        Vectorized integrand; receives an ndarray of abscissae.  A NaN or
        infinite value raises :class:`NonFiniteIntegrandError`.
    a, b : float
        Integration limits, ``a <= b``.
    tol : float
        Absolute error target for the summed panel estimates.
    breakpoints : iterable of float
        Points forced to be panel boundaries (kinks, corners).  Values
        outside ``(a, b)`` are ignored.
    max_panels : int
        Subdivision budget.  If it runs out before the summed bound drops
        to ``tol``, :class:`QuadratureError` is raised carrying the best
        estimate and bound.
    """
    if not tol > 0:  # NaN too
        raise ValueError(f"tol must be positive, got {tol}")
    if b < a:
        raise ValueError(f"integration limits out of order: [{a}, {b}]")
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    cuts = sorted({float(p) for p in breakpoints if a < p < b})
    edges = [a, *cuts, b]

    # Heap of panels ordered by decreasing error; entry ids break ties so
    # float payloads are never compared.
    heap: list[tuple[float, int, float, float, float, float]] = []
    total_val = 0.0
    total_err = 0.0
    count = 0
    # Panels too narrow to split further; their error stays in the total.
    stuck_err = 0.0
    span = b - a

    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk15(f, lo, hi)
        total_val += val
        total_err += err
        heapq.heappush(heap, (-err, count, lo, hi, val, err))
        count += 1

    n_panels = len(edges) - 1
    while total_err > tol and n_panels < max_panels and heap:
        neg_err, _, lo, hi, val, err = heapq.heappop(heap)
        if hi - lo < 64 * np.finfo(float).eps * max(abs(lo), abs(hi), span):
            stuck_err += err
            total_err -= err  # tracked separately, no longer splittable
            continue
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total_val += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, count, lo, mid, v1, e1))
        count += 1
        heapq.heappush(heap, (-e2, count, mid, hi, v2, e2))
        count += 1
        n_panels += 1

    bound = total_err + stuck_err
    if not bound <= tol:  # NaN from an overflowed panel bound counts too
        raise QuadratureError(total_val, bound)
    return QuadResult(total_val, bound, n_panels)
