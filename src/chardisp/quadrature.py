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
panels by the rule above, evaluates the child panels ``PANEL_BLOCK`` at a
time, each block in one integrand call on an ``(m, 15)`` array of
abscissae with ``s`` broadcast per row, and puts each split panel's two
children in its place.  Panel sums are row-wise and every reduction stays
within one integral, so a shift's value, bound and panel count are
bit-identical whether it is integrated alone or in a batch, and whatever
the block.  Shifts are processed ``SHIFT_CHUNK`` at a time and a shift's
panels are dropped as soon as it converges, so a run holds one block's
temporaries plus about 100 B of state per live panel, whatever the number
of shifts.  :func:`integrate` is the one-integral case of the same engine.

The per-panel error estimate is the conservative ``|kronrod - gauss|``
difference, and an integral converges when the sum of its estimates is at
most the tolerance.  That sum measures truncation only: where the Kronrod
and Gauss sums agree to the bit it is zero, yet the value still carries
the rounding of its weighted sums.  So the reported ``error_bound`` is the
summed estimate plus the integral's rounding floor, ``ROUNDING_ULPS`` eps
times the sum of its |panel values|.

Many rounds evaluate only a few dozen panels, so their cost is mostly
Python overhead.  Every numpy call made once per round or once per block
therefore goes straight to a ufunc, a ufunc method or an ndarray method
implemented in C (``v.repeat``, ``np.add.accumulate``,
``np.logical_or.reduce``, ``np.add.reduce``, ``.nonzero()``), not to
numpy's Python-level wrappers (``np.repeat``, ``np.cumsum``,
``ndarray.any``, ``ndarray.sum``, ``np.flatnonzero``), which compute the
same bits and add 1-2 us a call.  Paths that only raise keep the wrappers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

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
# Panels evaluated per integrand call: caps each (m, 15) temporary of a
# round at 7,680 abscissae (61 KB of float64), so the temporaries stay in
# cache however many panels a round splits.
PANEL_BLOCK = 512
# Shifts advanced together by one run of rounds.  A live panel costs about
# 100 B of state (bounds, shift, value, estimate and a round's copies of
# them).  Were a round evaluated in one integrand call, its (m, 15)
# temporaries would add about 850 B per panel (a stable-kernel
# convolution), about 1 KB per live panel, and 64 shifts would be the most
# that keep a run within 64 x MAX_PANELS x 1 KB = 640 MB.  Blocks keep that
# bound for 64 x 1 KB / 100 B = 640 shifts, rounded down to 512 (512 MB).
SHIFT_CHUNK = 512
# A round bisects every splittable panel whose error estimate is at least
# this share of its integral's largest splittable estimate.  Lower values
# split more panels per round: fewer rounds, more panels.
MARK_FRACTION = 0.25
# An integral's rounding floor is this many eps times the sum of its |panel
# values|: the Kronrod and Gauss sums of a panel each carry a few eps of
# relative rounding, so estimates below the floor are rounding, not error,
# and the floor is added to every returned error bound.
ROUNDING_ULPS = 32
# Read once: np.finfo is a Python-level call.
_EPS = np.finfo(float).eps


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
    """The integrand returned NaN or an infinity, or a panel sum overflowed.

    ``x`` and ``value`` are the first sample that is not finite.  When every
    sample is finite but a panel's weighted sum overflowed, they are the
    largest sample in magnitude (``part="sample"``); when every panel is
    finite but an integral's sum over them overflowed, the midpoint and
    value of its largest panel (``part="panel"``).  ``shift`` is the failing
    integral's shift when it came from :func:`integrate_shifts`.
    """

    def __init__(self, x: float, value: float, shift: Optional[float] = None, part: str = "sample"):
        self.x = x
        self.value = value
        if math.isfinite(value):
            what = f"panel sum overflowed: every {part} is finite, the largest in magnitude is"
        else:
            what = "integrand is not finite: value"
        where = "" if shift is None else f" for shift {shift!r}"
        super().__init__(math.nan, math.inf, f"{what} {value!r} at x={x!r}{where}", shift=shift)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_bound: float
    n_panels: int


def _gk15(f, lo: np.ndarray, hi: np.ndarray, s: np.ndarray, named: bool):
    """Gauss-Kronrod panels [lo[r], hi[r]] of the integrand f(x, s[r]):
    returns (kronrod values, error estimates).  The panels are evaluated
    ``PANEL_BLOCK`` at a time, one integrand call each; ``named`` puts the
    shift in a non-finite error."""
    k, err = np.empty(lo.size), np.empty(lo.size)
    for start in range(0, lo.size, PANEL_BLOCK):
        rows = slice(start, start + PANEL_BLOCK)
        mid = (0.5 * lo[rows] + 0.5 * hi[rows])[:, None]
        half = 0.5 * (hi[rows] - lo[rows])
        x = mid + half[:, None] * _NODES
        fx = np.asarray(f(x, s[rows, None]), dtype=float)
        # Row-wise sums, not a matrix product, so that a row's value does not
        # depend on how many rows share the call.  A sum that is not finite
        # is raised below, so numpy's warnings about it are not wanted.
        with np.errstate(over="ignore", invalid="ignore"):
            kb = half * np.add.reduce(fx * _WEIGHTS_K, axis=1)
            eb = np.abs(kb - half * np.add.reduce(fx[:, 1::2] * _WEIGHTS_G, axis=1))
        # The estimate is finite only if every sample and both sums are:
        # check it, and look for the culprit only on failure.
        if not np.logical_and.reduce(np.isfinite(eb)):
            r = int(np.flatnonzero(~np.isfinite(eb))[0])
            bad = np.flatnonzero(~np.isfinite(fx[r]))
            i = int(bad[0]) if bad.size else int(np.argmax(np.abs(fx[r])))
            raise NonFiniteIntegrandError(float(x[r, i]), float(fx[r, i]), float(s[start + r]) if named else None)
        k[rows] = kb
        err[rows] = eb
    return k, err


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
    lo, hi, s = np.array(lo, dtype=float), np.array(hi, dtype=float), shifts.repeat(count)
    val, err = _gk15(f, lo, hi, s, named)
    while True:
        start = np.add.accumulate(count) - count
        # Sums over finite panels may overflow: a bound that does keeps
        # refining, a total of |values| that does is raised, and a value's
        # sum is bounded by that total.
        with np.errstate(over="ignore"):
            bound = np.add.reduceat(err, start)
            total = np.add.reduceat(np.abs(val), start)
        if not np.logical_and.reduce(np.isfinite(total)):
            j = int(np.flatnonzero(~np.isfinite(total))[0])
            p = start[j] + int(np.argmax(np.abs(val[start[j]:start[j] + count[j]])))
            raise NonFiniteIntegrandError(0.5 * float(lo[p]) + 0.5 * float(hi[p]), float(val[p]),
                                          float(s[p]) if named else None, part="panel")
        floor = ROUNDING_ULPS * _EPS * total
        # Panels too narrow to bisect keep their error in the bound.
        splittable = hi - lo >= 64 * _EPS * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), b - a)
        worst = np.maximum.reduceat(np.where(splittable, err, -np.inf), start)
        done = bound <= tol
        failed = ~done & ((count >= max_panels) | (worst == -np.inf))
        if np.logical_or.reduce(failed):
            j = int(np.flatnonzero(failed)[0])
            seg = slice(start[j], start[j] + count[j])
            raise QuadratureError(float(val[seg].sum()), float(bound[j]), shift=float(s[seg.start]) if named else None,
                                  floor=float(floor[j]) if bound[j] <= floor[j] else None)
        if np.logical_or.reduce(done):
            value = np.add.reduceat(val, start)
            for j in done.nonzero()[0].tolist():
                results[ids[j]] = QuadResult(float(value[j]), float(bound[j] + floor[j]), int(count[j]))
            if np.logical_and.reduce(done):
                return results
        mark = splittable & (err >= np.where(done, np.inf, MARK_FRACTION * worst).repeat(count))
        room = max_panels - count
        marked = np.add.reduceat(mark, start)
        for j in (marked > room).nonzero()[0].tolist():  # the largest errors fill what budget is left
            seg = start[j] + mark[start[j]:start[j] + count[j]].nonzero()[0]
            mark[seg[np.argsort(-err[seg], kind="stable")[room[j]:]]] = False
        # Each live panel once, each marked one twice: the two copies become
        # its children in place, so grouping and order hold.
        rep = (~done).repeat(count) * (1 + mark)
        ids, count = ids[~done], (count + np.minimum(marked, room))[~done]
        kids = mark.repeat(rep)
        lo, hi, val, err, s = (v.repeat(rep) for v in (lo, hi, val, err, s))
        first = kids.nonzero()[0][::2]
        hi[first] = lo[first + 1] = 0.5 * lo[first] + 0.5 * hi[first]
        val[kids], err[kids] = _gk15(f, lo[kids], hi[kids], s[kids], named)


def _adapt(f, a: float, b: float, shifts: np.ndarray, cuts: list, tol: float, max_panels: int,
           named: bool) -> list[QuadResult]:
    """Integral i of ``f(x, shifts[i])``, cut at ``cuts[i]``, for every i, in
    chunks of ``SHIFT_CHUNK``; ``named`` puts the shift in budget errors.
    A chunk holds ``PANEL_BLOCK`` panels' temporaries plus about 100 B per
    live panel, at most ``SHIFT_CHUNK x max_panels`` of them.  Chunks run in
    order, so a budget failure names the first shift, in order, of those
    that fail in the earliest failing round of the first chunk with a
    failure.  Inputs that cannot be integrated are refused before any
    evaluation: a tolerance that is not positive and finite, limits that
    are not finite or out of order or whose width overflows, a NaN shift,
    and cuts that force more than ``max_panels`` panels (naming the first
    such shift)."""
    if not 0 < tol < math.inf:  # NaN too
        raise ValueError(f"tol must be positive and finite, got {tol}")
    a, b = float(a), float(b)  # so that b - a overflows to inf, unwarned
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration limits must be finite: [{a}, {b}]")
    if b < a:
        raise ValueError(f"integration limits out of order: [{a}, {b}]")
    if not math.isfinite(b - a):
        raise ValueError(f"integration width overflows a float: [{a}, {b}]")
    nan = np.flatnonzero(np.isnan(shifts))
    if nan.size:
        raise ValueError(f"shifts[{int(nan[0])}] is NaN")
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
        (of shape ``(m, 15)``, ``m`` at most ``PANEL_BLOCK``).  A NaN or
        infinite value, or a panel sum that overflows, raises
        :class:`NonFiniteIntegrandError`.
    a, b : float
        Integration limits: finite, ``a <= b``, and ``b - a`` finite.
    tol : float
        Absolute error target for the summed panel estimates, positive and
        finite.  Limits or a ``tol`` outside these ranges raise ValueError
        before any evaluation.  The returned ``error_bound`` is that sum
        plus the rounding floor (see ``ROUNDING_ULPS``), so it may exceed
        ``tol`` for a large integral.
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
    breakpoints: Union[Iterable[float], Callable[[float], Iterable[float]]] = (),
    max_panels: int = MAX_PANELS,
) -> list[QuadResult]:
    """Integrate ``f(x, s)`` over ``[a, b]`` for every shift ``s``.

    ``f`` is called on an ``(m, 15)`` array of abscissae and an ``(m, 1)``
    column holding each row's shift, ``m`` at most ``PANEL_BLOCK``.  Row r
    holds the 15 abscissae of one panel in increasing order, the middle one
    (column 7) at its midpoint, so ``f`` may act elementwise or decide a
    factor per row from the panel it holds.  Each integral is cut at its
    own shift and at ``breakpoints``: a fixed iterable for every shift, or
    a callable returning the cuts of the integral at shift ``s``.  All
    integrals refine together in rounds; in each, every unconverged integral bisects each splittable panel whose estimate is at
    least ``MARK_FRACTION`` times its own largest one.  An integral's
    marking depends on its own panels only, so it refines as
    :func:`integrate` would refine it alone, with the same ``tol`` and
    ``max_panels``: the results (one per shift, in order) are bit-identical
    to those one-shift integrals.  A NaN shift raises ValueError before any
    evaluation.  An integral that exhausts its budget, or whose integrand
    or panel sums are not finite, raises :class:`QuadratureError` naming
    its shift: among the shifts of the first ``SHIFT_CHUNK``-shift chunk
    with a failure, the first in order of those failing in the earliest
    failing round.
    """
    shifts = np.asarray(shifts, dtype=float).ravel()
    if not callable(breakpoints):
        fixed = tuple(breakpoints)
        breakpoints = lambda s: fixed
    cuts = [(s, *breakpoints(s)) for s in shifts.tolist()]
    return _adapt(f, a, b, shifts, cuts, tol, max_panels, True)
