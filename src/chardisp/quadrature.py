"""Globally adaptive panel quadrature with an embedded Gauss-Kronrod pair.

Every integral in this package runs through one refinement engine.  The
interval is cut at caller-supplied breakpoints and nowhere else (kink
locations must be panel boundaries, otherwise the error estimate is
useless there, and only the caller knows where they are), and each
panel is evaluated with a 7-point Gauss rule embedded in a 15-point Kronrod
rule.  Refinement runs in rounds: while an integral's summed error
estimate exceeds the absolute tolerance, a round bisects every splittable
panel whose estimate is at least ``MARK_FRACTION`` times the largest
splittable estimate of that integral (maximum marking; QUADPACK's QAG,
Piessens et al. 1983, bisects only the largest), and also every one whose
estimate is at least 1 / ``MARK_FRACTION`` times the integral's equal
share tol / count of the tolerance, count being its live panels.  So the
panels that cannot stay within the tolerance are bisected together, not
one round at a time.  Panels too narrow to split keep their error in the
bound.  If the panel budget runs out first, :class:`QuadratureError` is
raised, so a returned value is always converged.

A cut may also be marked as a cusp: a point c where the integrand has a
term |x - c|^beta with beta not an integer, such as the corner of a
stable kernel.  Plain bisection resolves such a point only with panels
down to widths near 5e-5 (beta = 0.7).  So every panel with a cusp as an
endpoint is graded (the graded meshes of QUADPACK's QAWS, Piessens et al.
1983, treat the same endpoint singularities): its nodes are
x = c +- h u^GRADING_POWER, with u the Kronrod nodes mapped to [0, 1] and
h the panel's width, and its weights carry the map's Jacobian.  When a
graded panel is bisected, the child that keeps the cusp keeps the map and
the other child is plain; a panel between two cusps is first cut at its
midpoint.  A row of abscissae lists its panel's nodes in increasing
order, and its column 7 is a point strictly inside the panel: the
midpoint of a plain panel, c +- h/16 of a graded one.

:func:`integrate_shifts` integrates a family ``f(x, s)`` for an array of
shifts ``s`` of any shape, each distinct shift once, and returns the
values, error bounds and panel counts as arrays of that shape.  It is
the one home of that bookkeeping: the window integrals of
:mod:`chardisp.normalizer` are each one call of it.  The live panels of
all unconverged integrals sit in flat
arrays, grouped by integral and ordered by position.  A round takes each
integral's bound and largest error from per-integral reductions, marks
panels by the rule above, evaluates the child panels ``PANEL_BLOCK`` at a
time, each block in one integrand call on an ``(m, 15)`` array of
abscissae with ``s`` broadcast per row, and puts each split panel's two
children in its place.  A block of a run with cusps takes each row's
nodes and weights from tables indexed by the panel's grade, row 0 the
plain rule; a run without cusps broadcasts the plain rule.  Panel sums
are row-wise and every reduction stays within one integral, so a shift's
value, bound and panel count are bit-identical whether it is integrated
alone or in a batch, and whatever the block: a plain row is computed by
the same operations on the same values whether or not graded rows share
its block.  Shifts are processed ``SHIFT_CHUNK`` at a
time and a shift's panels are dropped as soon as it converges, so a run
holds one block's temporaries plus about 100 B of state per live panel,
whatever the number of shifts.  A converged integral's value, bound and panel count are
written by index into the result arrays; :func:`integrate` is the
one-integral case of the same engine and wraps its entry in a
:class:`QuadResult`.

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
``np.logical_or.reduce``, ``np.add.reduce``, ``.nonzero()``, ``.argsort``,
``.take``, assignment through a boolean index), not to numpy's
Python-level wrappers and dispatchers (``np.repeat``, ``np.cumsum``,
``ndarray.any``, ``ndarray.sum``, ``np.flatnonzero``, ``np.argsort``,
``np.where``), which compute the same bits and add 1-2 us a call.  Paths
that only raise keep the wrappers.
For the same reason numpy's error state is entered once per run, around
all its rounds, and not once per round or block.
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
# this share of its integral's largest splittable estimate, or at least its
# inverse times the integral's equal share tol / count of the tolerance
# (count live panels).  Lower values split more panels per round: fewer
# rounds, more panels.
MARK_FRACTION = 0.25
# An integral's rounding floor is this many eps times the sum of its |panel
# values|: the Kronrod and Gauss sums of a panel each carry a few eps of
# relative rounding, so estimates below the floor are rounding, not error,
# and the floor is added to every returned error bound.
ROUNDING_ULPS = 32
# A panel with a cusp at one endpoint c (see ``cusps``) is integrated
# under y = c +- h u^p, p = GRADING_POWER, u in [0, 1], h its width: the
# map clusters the nodes at c and turns a |y - c|^beta term of the
# integrand into a smoother u^(p beta + p - 1) one.  Of p = 2-6 and 8, 4 takes
# the fewest Gram panels for stable 0.7 x normal at n = 32.
GRADING_POWER = 4
# Read once: np.finfo is a Python-level call.
_EPS = np.finfo(float).eps

# Node and weight tables on [-1, 1], indexed by a panel's grade: 0 plain,
# 1 graded at its lower end (lo + h u^p = mid + half (2 u^p - 1)), 2 at its
# upper end (the mirror image).  A graded row's weights carry the Jacobian
# p u^(p-1) of u = (1 + x) / 2, so every row's nodes are mid + half * nodes
# and its value is half * sum(f * weights).
_U = 0.5 + 0.5 * _NODES
_JACOBIAN = GRADING_POWER * _U ** (GRADING_POWER - 1)
_GRADED_NODES = np.array([_NODES, 2.0 * _U ** GRADING_POWER - 1.0, 1.0 - 2.0 * (_U ** GRADING_POWER)[::-1]])
_GRADED_WEIGHTS_K = np.array([_WEIGHTS_K, _WEIGHTS_K * _JACOBIAN, (_WEIGHTS_K * _JACOBIAN)[::-1]])
_GRADED_WEIGHTS_G = np.array([_WEIGHTS_G, _WEIGHTS_G * _JACOBIAN[1::2], (_WEIGHTS_G * _JACOBIAN[1::2])[::-1]])


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


def _gk15(f, lo: np.ndarray, hi: np.ndarray, s: np.ndarray, grade: Optional[np.ndarray], named: bool):
    """Gauss-Kronrod panels [lo[r], hi[r]] of the integrand f(x, s[r]):
    returns (kronrod values, error estimates).  ``grade[r]`` is 1 or 2 for
    a panel graded at its lower or upper end and 0 for a plain one;
    ``grade`` None makes every panel plain.  The panels are evaluated
    ``PANEL_BLOCK`` at a time, one integrand call each; ``named`` puts the
    shift in a non-finite error."""
    k, err = np.empty(lo.size), np.empty(lo.size)
    for start in range(0, lo.size, PANEL_BLOCK):
        rows = slice(start, start + PANEL_BLOCK)
        mid = (0.5 * lo[rows] + 0.5 * hi[rows])[:, None]
        half = 0.5 * (hi[rows] - lo[rows])
        # A graded run takes each row's nodes and weights from the grade
        # tables, whose row 0 is the plain rule; a run without cusps
        # broadcasts that rule.  Either way a plain row is computed by the
        # same operations on the same values, so its bits are the same.
        if grade is None:
            nodes, wk, wg = _NODES, _WEIGHTS_K, _WEIGHTS_G
        else:
            g = grade[rows]
            nodes = _GRADED_NODES.take(g, axis=0)
            wk, wg = _GRADED_WEIGHTS_K.take(g, axis=0), _GRADED_WEIGHTS_G.take(g, axis=0)
        x = mid + half[:, None] * nodes
        fx = np.asarray(f(x, s[rows, None]), dtype=float)
        # Row-wise sums, not a matrix product, so that a row's value does not
        # depend on how many rows share the call.
        kb = half * np.add.reduce(fx * wk, axis=1)
        gb = half * np.add.reduce(fx[:, 1::2] * wg, axis=1)
        eb = np.abs(kb - gb)
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


def _rounds(f, a: float, b: float, shifts: np.ndarray, edges: list, grades: Optional[list], tol: float,
            max_panels: int, named: bool, out: list) -> None:
    """Adaptive refinement of one chunk of integrals, integral i starting
    from the panels between ``edges[i]``, of grades ``grades[i]`` (see
    :func:`_gk15`; None when no panel is graded), advanced together in
    rounds that mark by the rule of the module docstring.  Integral i's
    value, error bound and panel count are written to index i of the three
    ``out`` arrays as it converges."""
    value, error_bound, n_panels = out
    count, lo, hi = [], [], []
    for e in edges:
        count.append(len(e) - 1)
        lo += e[:-1]
        hi += e[1:]
    # Live panels, grouped by integral and ordered by lo within a group:
    # group j is the count[j] panels of integral ids[j], s holds each
    # panel's shift and grade, unless None, its grade.
    ids, count = np.arange(len(edges)), np.array(count)
    lo, hi, s = np.array(lo, dtype=float), np.array(hi, dtype=float), shifts.repeat(count)
    grade = None if grades is None else np.array([g for gs in grades for g in gs], dtype=np.intp)
    val, err = _gk15(f, lo, hi, s, grade, named)
    while True:
        start = np.add.accumulate(count) - count
        # Sums over finite panels may overflow: a bound that does keeps
        # refining, a total of |values| that does is raised, and a value's
        # sum is bounded by that total.
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
        masked = err.copy()
        masked[~splittable] = -np.inf
        worst = np.maximum.reduceat(masked, start)
        done = bound <= tol
        failed = ~done & ((count >= max_panels) | (worst == -np.inf))
        if np.logical_or.reduce(failed):
            j = int(np.flatnonzero(failed)[0])
            seg = slice(start[j], start[j] + count[j])
            raise QuadratureError(float(val[seg].sum()), float(bound[j]), shift=float(s[seg.start]) if named else None,
                                  floor=float(floor[j]) if bound[j] <= floor[j] else None)
        if np.logical_or.reduce(done):
            j = ids[done]
            value[j] = np.add.reduceat(val, start)[done]
            error_bound[j] = (bound + floor)[done]
            n_panels[j] = count[done]
            if np.logical_and.reduce(done):
                return
        threshold = np.minimum(MARK_FRACTION * worst, tol / (MARK_FRACTION * count))
        threshold[done] = np.inf
        mark = splittable & (err >= threshold.repeat(count))
        room = max_panels - count
        marked = np.add.reduceat(mark, start)
        for j in (marked > room).nonzero()[0].tolist():  # the largest errors fill what budget is left
            seg = start[j] + mark[start[j]:start[j] + count[j]].nonzero()[0]
            mark[seg[(-err[seg]).argsort(kind="stable")[room[j]:]]] = False
        # Each live panel once, each marked one twice: the two copies become
        # its children in place, so grouping and order hold.
        rep = (~done).repeat(count) * (1 + mark)
        ids, count = ids[~done], (count + np.minimum(marked, room))[~done]
        kids = mark.repeat(rep)
        lo, hi, val, err, s = (v.repeat(rep) for v in (lo, hi, val, err, s))
        first = kids.nonzero()[0][::2]
        hi[first] = lo[first + 1] = 0.5 * lo[first] + 0.5 * hi[first]
        if grade is not None:
            # The child that keeps a graded panel's cusp keeps its map; the
            # other child is plain.
            grade = grade.repeat(rep)
            grade[first] &= 1
            grade[first + 1] &= 2
        val[kids], err[kids] = _gk15(f, lo[kids], hi[kids], s[kids], None if grade is None else grade[kids], named)


def _grade(e: list, cusps: Iterable[float]) -> list:
    """Cut the sorted edges ``e`` of an integral also at its ``cusps``, and
    between two adjacent cusps at their midpoint, in place; return the
    grades of the panels between them (see :func:`_gk15`).  Cusps outside
    the limits ``e[0]`` and ``e[-1]`` are ignored."""
    a, b = e[0], e[-1]
    k = {float(p) for p in cusps if a <= p <= b}
    if not k.issubset(e):
        e[1:-1] = sorted(k.union(e[1:-1]).difference((a, b)))
    grade = [0] * (len(e) - 1)
    for c in k:
        i = e.index(c)
        if i < len(grade):
            grade[i] += 1
        if i:
            grade[i - 1] += 2
    if 3 in grade:  # a panel between two cusps
        for i in reversed([i for i, g in enumerate(grade) if g == 3]):
            mid = 0.5 * e[i] + 0.5 * e[i + 1]
            if e[i] < mid < e[i + 1]:
                e.insert(i + 1, mid)
                grade[i:i + 1] = [1, 2]
            else:  # one ulp wide: graded at its lower end only
                grade[i] = 1
    return grade


def _adapt(f, a: float, b: float, shifts: np.ndarray, cuts: list, cusps: Optional[list], tol: float,
           max_panels: int, named: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integral i of ``f(x, shifts[i])``, cut at ``cuts[i]`` and at
    ``cusps[i]``, whose panels are graded (see :func:`_grade`), for every
    i, in chunks of ``SHIFT_CHUNK``: returns the arrays (values, error
    bounds, panel counts), entry i for integral i.  ``cusps`` None grades
    no panel.  ``named`` puts the shift in errors.  A chunk holds
    ``PANEL_BLOCK`` panels' temporaries plus about 100 B per live panel, at
    most ``SHIFT_CHUNK x max_panels`` of them.
    Chunks run in order, so a failure names the first shift, in order, of
    those that fail in the earliest failing round of the first chunk with
    a failure.  Inputs that cannot be integrated are refused before any
    evaluation: a tolerance that is not positive and finite, limits that
    are not finite or out of order or whose width overflows, and cuts that
    force more than ``max_panels`` panels (naming the first such shift).

    numpy's overflow and invalid-value warnings are silenced once for the
    whole run, integrand calls included: a sample or a panel sum that is
    not finite is raised as :class:`NonFiniteIntegrandError`, and a bound
    that overflows keeps refining, so the warnings would say nothing more.
    """
    if not 0 < tol < math.inf:  # NaN too
        raise ValueError(f"tol must be positive and finite, got {tol}")
    a, b = float(a), float(b)  # so that b - a overflows to inf, unwarned
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration limits must be finite: [{a}, {b}]")
    if b < a:
        raise ValueError(f"integration limits out of order: [{a}, {b}]")
    if not math.isfinite(b - a):
        raise ValueError(f"integration width overflows a float: [{a}, {b}]")
    out = np.zeros(len(cuts)), np.zeros(len(cuts)), np.zeros(len(cuts), dtype=int)
    if a == b:
        return out
    edges = [[a, *sorted({float(p) for p in c if a < p < b}), b] for c in cuts]
    grades = None if cusps is None else [_grade(e, k) for e, k in zip(edges, cusps)]
    for s, e in zip(shifts.tolist(), edges):
        if len(e) - 1 > max_panels:
            where = f" at shift {s!r}" if named else ""
            raise ValueError(f"breakpoints force {len(e) - 1} panels{where}, more than max_panels={max_panels}")
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(cuts), SHIFT_CHUNK):
            chunk = slice(start, start + SHIFT_CHUNK)
            _rounds(f, a, b, shifts[chunk], edges[chunk], None if grades is None else grades[chunk], tol,
                    max_panels, named, [v[chunk] for v in out])
    return out


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    breakpoints: Iterable[float] = (),
    max_panels: int = MAX_PANELS,
    cusps: Iterable[float] = (),
) -> QuadResult:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Each round of refinement bisects every splittable panel whose estimate
    is at least ``MARK_FRACTION`` times the largest, or at least
    1 / ``MARK_FRACTION`` times ``tol`` over the number of panels, until
    the summed estimate is at most ``tol`` (see the module docstring).

    Parameters
    ----------
    f : callable
        Vectorized elementwise integrand; receives an ndarray of abscissae
        (of shape ``(m, 15)``, ``m`` at most ``PANEL_BLOCK``).  A NaN or
        infinite value, or a panel sum that overflows, raises
        :class:`NonFiniteIntegrandError`; numpy's overflow and
        invalid-value warnings are silenced while ``f`` runs.
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
        has room for, those with the largest estimates are bisected.  If it
        runs out before the summed bound drops to ``tol``,
        :class:`QuadratureError` is raised carrying the best estimate and
        bound, and the integral's rounding floor when the bound had reached
        it.
    cusps : iterable of float
        Points in ``[a, b]`` where ``f`` has a term |x - c|^beta of
        non-integer beta: each is a cut too, and the panels that end there
        are graded (see the module docstring).  Values outside ``[a, b]``
        are ignored.
    """
    cusps = tuple(cusps)
    value, bound, panels = _adapt(lambda x, s: f(x), a, b, np.zeros(1), [tuple(breakpoints)],
                                  [cusps] if cusps else None, tol, max_panels, False)
    return QuadResult(float(value[0]), float(bound[0]), int(panels[0]))


def integrate_shifts(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float,
    b: float,
    shifts,
    tol: float = DEFAULT_TOL,
    breakpoints: Callable[[float], Iterable[float]] = lambda s: (),
    max_panels: int = MAX_PANELS,
    cusps: Optional[Callable[[float], Iterable[float]]] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate ``f(x, s)`` over ``[a, b]`` for every shift ``s``.

    ``shifts`` is an array of any shape.  Returns the arrays ``(values,
    error_bounds, n_panels)``, each of that shape.  Each distinct shift is
    integrated once, so equal shifts share one result.

    ``f`` is called on an ``(m, 15)`` array of abscissae and an ``(m, 1)``
    column holding each row's shift, ``m`` at most ``PANEL_BLOCK``.  Row r
    holds the 15 abscissae of one panel in increasing order, the middle one
    (column 7) strictly inside it: at its midpoint for a plain panel, at
    c +- h/16 for a panel of width h graded at its cusp c.  So ``f`` may
    act elementwise or decide a factor per row from the panel it holds.
    ``breakpoints(s)`` returns the cuts of the integral at shift ``s``; no
    other cut is made, so a corner of ``f`` that moves with ``s`` must be
    named there.  ``cusps(s)``, if given, returns the points where the
    integrand at shift ``s`` has a term |x - c|^beta of non-integer beta;
    they are cuts too, and the panels that end there are graded (see the
    module docstring).  All integrals refine together in rounds; in each,
    every unconverged integral bisects each splittable panel whose estimate
    is at least ``MARK_FRACTION`` times its own largest one, or at least
    1 / ``MARK_FRACTION`` times tol / count, count being its own live
    panels.  An integral's marking depends on its own panels only, so it
    refines as :func:`integrate` would refine it alone, with the same cuts,
    ``tol`` and ``max_panels``: each result is bit-identical to that
    one-shift integral.  numpy's overflow and invalid-value warnings are
    silenced while the integrals run.

    A NaN shift raises ValueError, naming its flat index, before any
    evaluation.  An integral that exhausts its budget, or whose integrand
    or panel sums are not finite, raises :class:`QuadratureError` naming
    its shift.  The distinct shifts run in sorted order, ``SHIFT_CHUNK`` at
    a time, and the one named is, among the shifts of the first chunk with
    a failure, the smallest of those failing in the earliest failing
    round.
    """
    shifts = np.asarray(shifts, dtype=float)
    nan = np.flatnonzero(np.isnan(shifts))
    if nan.size:
        raise ValueError(f"shifts[{int(nan[0])}] is NaN")
    distinct, which = np.unique(shifts, return_inverse=True)
    cuts = [breakpoints(s) for s in distinct.tolist()]
    marks = None if cusps is None else [cusps(s) for s in distinct.tolist()]
    which = which.reshape(shifts.shape)
    return tuple(v[which] for v in _adapt(f, a, b, distinct, cuts, marks, tol, max_panels, True))
