"""Globally adaptive panel quadrature with an embedded Gauss-Kronrod pair.

Every integral in this package runs through one refinement engine.  The
scheme is deliberately simple: the interval is cut at caller-supplied
breakpoints (kink locations must be panel boundaries, otherwise the error
estimate is useless there), each panel is evaluated with a 7-point Gauss
rule embedded in a 15-point Kronrod rule, and the panel with the largest
error estimate is bisected until the summed estimate drops below the
absolute tolerance.  If the panel budget runs out first,
:class:`QuadratureError` is raised, so a returned :class:`QuadResult` is
always converged.

:func:`integrate_shifts` integrates a family ``f(x, s)`` for many shifts
``s`` at once.  Every shift keeps its own heap of panels, its own budget
and the bisection rule above; the engine advances them together in
rounds.  Each round pops the worst splittable panel of every unconverged
shift, bisects it, and evaluates all new panels in one integrand call on
an ``(m, 15)`` array of abscissae, with ``s`` broadcast per row.  Panel
sums are row-wise reductions, so a shift's value, bound and panel count
are bit-identical whether it is integrated alone or in a batch.  Shifts
are processed ``SHIFT_CHUNK`` at a time and a shift's heap is dropped as
soon as it converges, which bounds memory for any number of shifts.
:func:`integrate` is the one-integral case of the same engine.

The per-panel error estimate is the conservative ``|kronrod - gauss|``
difference.  For smooth integrands the Kronrod value is far more accurate
than this bound, so the reported ``error_bound`` safely dominates the true
error in practice.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

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
# Shifts advanced together by one run of rounds; bounds the heaps and the
# abscissa array held at once, whatever the number of shifts.
SHIFT_CHUNK = 64


class QuadratureError(RuntimeError):
    """Adaptive subdivision exhausted its budget before reaching tolerance.

    Carries the best available estimate so callers can still report it, and
    the shift whose integral failed when it came from :func:`integrate_shifts`
    (``None`` otherwise).
    """

    def __init__(self, estimate: float, error_bound: float, message: str = "", shift: Optional[float] = None):
        self.estimate = estimate
        self.error_bound = error_bound
        self.shift = shift
        where = "" if shift is None else f" at shift {shift!r}"
        super().__init__(
            message
            or f"quadrature did not converge{where}: estimate={estimate!r}, "
               f"error bound={error_bound!r}"
        )


class NonFiniteIntegrandError(QuadratureError):
    """The integrand returned NaN or an infinity, or a panel sum overflowed."""

    def __init__(self, x: float, value: float):
        self.x = x
        self.value = value
        if math.isfinite(value):  # _gk15 names the largest sample when all are finite
            what = "panel sum overflowed: every sample is finite, the largest in magnitude is"
        else:
            what = "integrand is not finite: value"
        super().__init__(math.nan, math.inf, f"{what} {value!r} at x={x!r}")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_bound: float
    n_panels: int


def _gk15(f, lo: list, hi: list, s: np.ndarray):
    """Gauss-Kronrod panels [lo[r], hi[r]] of the integrand f(x, s[r]):
    returns (kronrod values, error estimates) as lists."""
    lo, hi = np.array(lo), np.array(hi)
    mid = (0.5 * (lo + hi))[:, None]
    half = 0.5 * (hi - lo)
    x = mid + half[:, None] * _NODES
    fx = np.asarray(f(x, s[:, None]), dtype=float)
    # Row-wise sums, not a matrix product, so that a row's value does not
    # depend on how many rows share the call.
    k = half * (fx * _WEIGHTS_K).sum(axis=1)
    # The Kronrod sum is finite only if every sample is: check the sums,
    # and look for the culprit only on failure.
    if not np.isfinite(k).all():
        r = int(np.flatnonzero(~np.isfinite(k))[0])
        bad = np.flatnonzero(~np.isfinite(fx[r]))
        i = int(bad[0]) if bad.size else int(np.argmax(np.abs(fx[r])))
        raise NonFiniteIntegrandError(float(x[r, i]), float(fx[r, i]))
    g = half * (fx[:, 1::2] * _WEIGHTS_G).sum(axis=1)
    return k.tolist(), np.abs(k - g).tolist()


def _rounds(f, a: float, b: float, shifts: np.ndarray, cuts: list, tol: float, max_panels: int,
            named: bool) -> list[QuadResult]:
    """Adaptive refinement of one chunk of integrals, advanced together."""
    n = len(cuts)
    span = b - a
    narrow = 64 * np.finfo(float).eps
    # Per integral: heap of panels ordered by decreasing error (entry ids
    # break ties so float payloads are never compared), running value and
    # error sums, the error of panels too narrow to split (it stays in the
    # bound), entry ids used and panels made.
    heaps: list = [[] for _ in range(n)]
    total_val = [0.0] * n
    total_err = [0.0] * n
    stuck_err = [0.0] * n
    count = [0] * n
    n_panels = [0] * n
    results: list = [None] * n

    owner, los, his = [], [], []
    for i, c in enumerate(cuts):
        edges = [a, *sorted({float(p) for p in c if a < p < b}), b]
        owner += [i] * (len(edges) - 1)
        los += edges[:-1]
        his += edges[1:]
        n_panels[i] = len(edges) - 1
    vals, errs = _gk15(f, los, his, shifts[owner])
    for i, lo, hi, val, err in zip(owner, los, his, vals, errs):
        total_val[i] += val
        total_err[i] += err
        heapq.heappush(heaps[i], (-err, count[i], lo, hi, val))
        count[i] += 1

    active = range(n)
    while active:
        split, los, his, parents = [], [], [], []
        for i in active:
            heap = heaps[i]
            while total_err[i] > tol and n_panels[i] < max_panels and heap:
                neg_err, _, lo, hi, val = heapq.heappop(heap)
                err = -neg_err
                if hi - lo < narrow * max(abs(lo), abs(hi), span):
                    stuck_err[i] += err
                    total_err[i] -= err  # tracked separately, no longer splittable
                    continue
                mid = 0.5 * (lo + hi)
                split.append(i)
                los += (lo, mid)
                his += (mid, hi)
                parents.append((val, err))
                break
            else:
                bound = total_err[i] + stuck_err[i]
                if not bound <= tol:  # NaN from an overflowed panel bound counts too
                    raise QuadratureError(total_val[i], bound, shift=float(shifts[i]) if named else None)
                results[i] = QuadResult(total_val[i], bound, n_panels[i])
                heaps[i] = None
        if not split:
            break
        vals, errs = _gk15(f, los, his, shifts[np.repeat(split, 2)])
        for j, i in enumerate(split):
            val, err = parents[j]
            v1, v2 = vals[2 * j], vals[2 * j + 1]
            e1, e2 = errs[2 * j], errs[2 * j + 1]
            lo, mid, hi = los[2 * j], his[2 * j], his[2 * j + 1]
            total_val[i] += (v1 + v2) - val
            total_err[i] += (e1 + e2) - err
            heapq.heappush(heaps[i], (-e1, count[i], lo, mid, v1))
            heapq.heappush(heaps[i], (-e2, count[i] + 1, mid, hi, v2))
            count[i] += 2
            n_panels[i] += 1
        active = split
    return results


def _adapt(f, a: float, b: float, shifts: np.ndarray, cuts: list, tol: float, max_panels: int,
           named: bool) -> list[QuadResult]:
    """Integral i of ``f(x, shifts[i])``, cut at ``cuts[i]``, for every i, in
    chunks of ``SHIFT_CHUNK``; ``named`` puts the shift in budget errors."""
    if not tol > 0:  # NaN too
        raise ValueError(f"tol must be positive, got {tol}")
    if b < a:
        raise ValueError(f"integration limits out of order: [{a}, {b}]")
    if a == b:
        return [QuadResult(0.0, 0.0, 0) for _ in cuts]
    results = []
    for start in range(0, len(cuts), SHIFT_CHUNK):
        chunk = slice(start, start + SHIFT_CHUNK)
        results += _rounds(f, a, b, shifts[chunk], cuts[chunk], tol, max_panels, named)
    return results


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
        Vectorized elementwise integrand; receives an ndarray of abscissae
        (of shape ``(m, 15)``).  A NaN or infinite value raises
        :class:`NonFiniteIntegrandError`.
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
    (result,) = _adapt(lambda x, s: f(x), a, b, np.zeros(1), [tuple(breakpoints)], tol, max_panels, False)
    return result


def integrate_shifts(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float,
    b: float,
    shifts: Iterable[float],
    tol: float = DEFAULT_TOL,
    breakpoints: Iterable[float] = (),
    max_panels: int = MAX_PANELS,
) -> list[QuadResult]:
    """Integrate ``f(x, s)`` over ``[a, b]`` for every shift ``s``.

    ``f`` is called on an ``(m, 15)`` array of abscissae and an ``(m, 1)``
    column holding each row's shift, and must act elementwise.  Each
    integral is cut at ``breakpoints`` and at its own shift, and refines as
    :func:`integrate` would refine it alone, with the same ``tol`` and
    ``max_panels``: the results (one per shift, in order) are bit-identical
    to those one-shift integrals.  The first integral to exhaust its budget
    raises :class:`QuadratureError` naming its shift.
    """
    shifts = np.asarray(shifts, dtype=float).ravel()
    fixed = tuple(breakpoints)
    cuts = [(s, *fixed) for s in shifts.tolist()]
    return _adapt(f, a, b, shifts, cuts, tol, max_panels, True)
