"""Globally adaptive panel quadrature with an embedded Gauss-Kronrod pair.

Every integral in this package runs through one refinement engine.  The
interval is cut at caller-supplied breakpoints (kink locations must be
panel boundaries, otherwise the error estimate is useless there), and each
panel is evaluated with a 7-point Gauss rule embedded in a 15-point Kronrod
rule.  Refinement runs in rounds of maximum marking: while an integral's
summed error estimate exceeds the absolute tolerance, every splittable
panel whose estimate is at least ``MARK_FRACTION`` times the largest
splittable estimate of that integral is bisected.  Panels too narrow to
split keep their error in the bound.  If the panel budget runs out first,
:class:`QuadratureError` is raised, so a returned :class:`QuadResult` is
always converged.

:func:`integrate_shifts` integrates a family ``f(x, s)`` for many shifts
``s`` at once.  The live panels of all unconverged integrals sit in flat
arrays, grouped by integral and ordered by position.  A round takes each
integral's bound and largest error from per-integral reductions, marks
panels by the rule above, evaluates every child panel in one integrand call
on an ``(m, 15)`` array of abscissae, with ``s`` broadcast per row, and
puts each split panel's two children in its place.  Panel sums are
row-wise and every reduction stays within one integral, so a shift's
value, bound and panel count are bit-identical whether it is integrated
alone or in a batch.  Shifts are processed ``SHIFT_CHUNK`` at a time and a
shift's panels are dropped as soon as it converges, which bounds memory
for any number of shifts.  :func:`integrate` is the one-integral case of
the same engine.

The per-panel error estimate is the conservative ``|kronrod - gauss|``
difference.  For smooth integrands the Kronrod value is far more accurate
than this bound, so the reported ``error_bound`` safely dominates the true
error in practice.
"""
from __future__ import annotations

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
# Shifts advanced together by one run of rounds; bounds the panel arrays
# and the abscissa array held at once, whatever the number of shifts.
SHIFT_CHUNK = 64
# A round bisects every splittable panel whose error estimate is at least
# this share of its integral's largest splittable estimate.  Lower values
# split more panels per round: fewer rounds, more panels.
MARK_FRACTION = 0.25
# An integral's rounding floor is this many eps times the sum of its |panel
# values|: the Kronrod and Gauss sums of a panel each carry a few eps of
# relative rounding, so estimates below the floor are rounding, not error.
ROUNDING_ULPS = 32


class QuadratureError(RuntimeError):
    """Adaptive subdivision exhausted its budget before reaching tolerance.

    Carries the best available estimate so callers can still report it, and
    the shift whose integral failed when it came from :func:`integrate_shifts`
    (``None`` otherwise).  ``floor`` is the integral's rounding floor when the
    bound had already reached it, so that no budget could have met the
    tolerance (``None`` otherwise).
    """

    def __init__(self, estimate: float, error_bound: float, message: str = "", shift: Optional[float] = None,
                 floor: Optional[float] = None):
        self.estimate = estimate
        self.error_bound = error_bound
        self.shift = shift
        self.floor = floor
        where = "" if shift is None else f" at shift {shift!r}"
        if floor is None:
            what = "quadrature did not converge"
        else:
            what = f"quadrature tolerance is below the integral's rounding floor {floor!r}"
        super().__init__(message or f"{what}{where}: estimate={estimate!r}, error bound={error_bound!r}")


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


def _gk15(f, lo: np.ndarray, hi: np.ndarray, s: np.ndarray):
    """Gauss-Kronrod panels [lo[r], hi[r]] of the integrand f(x, s[r]):
    returns (kronrod values, error estimates)."""
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
    return k, np.abs(k - g)


def _rounds(f, a: float, b: float, shifts: np.ndarray, edges: list, tol: float, max_panels: int,
            named: bool) -> list[QuadResult]:
    """Adaptive refinement of one chunk of integrals, integral i starting
    from the panels between ``edges[i]``, advanced together in rounds of
    maximum marking (see the module docstring)."""
    results: list = [None] * len(edges)
    count, lo, hi = [], [], []
    for e in edges:
        count.append(len(e) - 1)
        lo += e[:-1]
        hi += e[1:]
    # Live panels, grouped by integral and ordered by lo within a group:
    # group j is the count[j] panels of integral ids[j], and s holds each
    # panel's shift.
    ids, count = np.arange(len(edges)), np.array(count)
    lo, hi, s = np.array(lo, dtype=float), np.array(hi, dtype=float), np.repeat(shifts, count)
    val, err = _gk15(f, lo, hi, s)
    while True:
        start = np.cumsum(count) - count
        bound = np.add.reduceat(err, start)
        # Panels too narrow to bisect keep their error in the bound.
        splittable = hi - lo >= 64 * np.finfo(float).eps * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), b - a)
        worst = np.maximum.reduceat(np.where(splittable, err, -np.inf), start)
        done = bound <= tol
        failed = ~done & ((count >= max_panels) | (worst == -np.inf))
        if failed.any():
            j = int(np.flatnonzero(failed)[0])
            seg = slice(start[j], start[j] + count[j])
            floor = float(ROUNDING_ULPS * np.finfo(float).eps * np.abs(val[seg]).sum())
            raise QuadratureError(float(val[seg].sum()), float(bound[j]), shift=float(s[seg.start]) if named else None,
                                  floor=floor if bound[j] <= floor else None)
        if done.any():
            value = np.add.reduceat(val, start)
            for j in np.flatnonzero(done).tolist():
                results[ids[j]] = QuadResult(float(value[j]), float(bound[j]), int(count[j]))
            if done.all():
                return results
        mark = splittable & (err >= np.repeat(np.where(done, np.inf, MARK_FRACTION * worst), count))
        room = max_panels - count
        marked = np.add.reduceat(mark, start)
        for j in np.flatnonzero(marked > room).tolist():  # the largest errors fill what budget is left
            seg = start[j] + np.flatnonzero(mark[start[j]:start[j] + count[j]])
            mark[seg[np.argsort(-err[seg], kind="stable")[room[j]:]]] = False
        # Each live panel once, each marked one twice: the two copies become
        # its children in place, so grouping and order hold.
        rep = np.repeat(~done, count) * (1 + mark)
        ids, count = ids[~done], (count + np.minimum(marked, room))[~done]
        kids = np.repeat(mark, rep)
        lo, hi, val, err, s = (np.repeat(v, rep) for v in (lo, hi, val, err, s))
        first = np.flatnonzero(kids)[::2]
        hi[first] = lo[first + 1] = 0.5 * (lo[first] + hi[first])
        val[kids], err[kids] = _gk15(f, lo[kids], hi[kids], s[kids])


def _adapt(f, a: float, b: float, shifts: np.ndarray, cuts: list, tol: float, max_panels: int,
           named: bool) -> list[QuadResult]:
    """Integral i of ``f(x, shifts[i])``, cut at ``cuts[i]``, for every i, in
    chunks of ``SHIFT_CHUNK``; ``named`` puts the shift in budget errors.
    Cuts that force more than ``max_panels`` panels are refused before any
    evaluation."""
    if not tol > 0:  # NaN too
        raise ValueError(f"tol must be positive, got {tol}")
    if b < a:
        raise ValueError(f"integration limits out of order: [{a}, {b}]")
    if a == b:
        return [QuadResult(0.0, 0.0, 0) for _ in cuts]
    edges = [[a, *sorted({float(p) for p in c if a < p < b}), b] for c in cuts]
    for s, e in zip(shifts.tolist(), edges):
        if len(e) - 1 > max_panels:
            where = f" at shift {s!r}" if named else ""
            raise ValueError(f"breakpoints force {len(e) - 1} panels{where}, more than max_panels={max_panels}")
    results = []
    for start in range(0, len(cuts), SHIFT_CHUNK):
        chunk = slice(start, start + SHIFT_CHUNK)
        results += _rounds(f, a, b, shifts[chunk], edges[chunk], tol, max_panels, named)
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
        Subdivision budget.  Breakpoints that force more panels than this
        raise ValueError before any evaluation.  Refinement never takes an
        integral past it: when a round marks more panels than the budget
        has room for, those with the largest estimates are bisected.  If it runs out before the
        summed bound drops to ``tol``, :class:`QuadratureError` is raised
        carrying the best estimate and bound, and the integral's rounding
        floor when the bound had reached it.
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
    integral is cut at ``breakpoints`` and at its own shift.  All integrals
    refine together in rounds; in each, every unconverged integral bisects
    each splittable panel whose estimate is at least ``MARK_FRACTION`` times
    its own largest one.  An integral's marking depends on its own panels
    only, so it refines as :func:`integrate` would refine it alone, with the
    same ``tol`` and ``max_panels``: the results (one per shift, in order)
    are bit-identical to those one-shift integrals.  The first integral to
    exhaust its budget raises :class:`QuadratureError` naming its shift.
    """
    shifts = np.asarray(shifts, dtype=float).ravel()
    fixed = tuple(breakpoints)
    cuts = [(s, *fixed) for s in shifts.tolist()]
    return _adapt(f, a, b, shifts, cuts, tol, max_panels, True)
