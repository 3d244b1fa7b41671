"""Numerical probes of kernel-translate systems on the window.

The translates K(. - mu) of a kernel span a subspace whose finite sections
can be examined exactly: the Gram matrix of n translates gives, through its
extreme eigenvalues, the best possible frame constants for that finite
system.  Two claims about the infinite system are treated here as
hypotheses under measurement rather than facts:

* tightness of the frame bounds, probed through ``tight_claim_gap`` (the
  largest off-diagonal inner product, which would vanish if distinct
  translates were orthogonal; for strictly positive kernels it cannot);
* orthogonality of even perturbations to every translate, probed through
  the inner products f against K(mu - .), reported as residual curves.

Inner products of translates depend only on the displacement between the
translation points, so each Gram entry is computed in the displaced
coordinate over the window.  That makes the diagonal exactly equal to the
squared kernel norm, at the price of working with the window attached to
the relative coordinate rather than to a fixed absolute frame.  Each entry
is one integral folded about the midpoint of its integrand's symmetry
(see :func:`gram_matrix`), which halves the panels the quadrature refines.
The largest bound of a matrix is reported as ``max_entry_error_bound``.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .normalizer import KernelSpec, Perturbation, Window, window_autoconvolve, window_convolve
from .quadrature import DEFAULT_TOL


def rational_enumeration(n: int) -> list[float]:
    """First n terms of a fixed enumeration of the rationals.

    Zero first, then each positive rational in Calkin-Wilf order followed
    immediately by its negative: 0, 1, -1, 1/2, -1/2, 2, -2, 1/3, -1/3,
    3/2, -3/2, ...  Deterministic and duplicate-free.

    The current rational q = a/b is carried as two integers and stepped by
    q -> 1 / (2 floor(q) - q + 1), i.e. (a, b) -> (b, 2 (a // b) b - a + b);
    ``a / b`` of two ints is the correctly rounded float of the fraction.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = [0.0]
    a, b = 1, 1
    while len(out) < n:
        q = a / b
        out.append(q)
        if len(out) < n:
            out.append(-q)
        a, b = b, 2 * (a // b) * b - a + b
    return out[:n]


@dataclass(frozen=True)
class TranslateSystem:
    """Finitely many kernel translates K(. - p) over a common window.

    There must be at least one translation point.  The points must be
    pairwise distinct and stay in the middle half of the window so the
    translated kernels keep their mass away from the truncation edges.
    """

    kernel: KernelSpec
    points: tuple[float, ...]
    window: Window

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("a translate system needs at least one translation point")
        if len(set(pts)) != len(pts):
            raise ValueError("translation points must be pairwise distinct")
        lo, hi = self.window.middle_half()
        outside = [p for p in pts if not lo <= p <= hi]
        if outside:
            raise ValueError(
                f"{len(outside)} translation points lie outside the window's middle half "
                f"[{lo}, {hi}]; the first is {outside[0]}"
            )


@dataclass(frozen=True, eq=False)
class GramReport:
    """Gram matrix of a translate system with its eigenvalue range.

    ``min_eigenvalue`` and ``max_eigenvalue`` are the best Riesz (frame)
    constants of the finite system, and :meth:`frame_bounds` their ratios
    to ``k_norm_sq``, the claimed tight constant (both ratios equal 1 only
    for an exactly orthogonal system).  ``tight_claim_gap`` is the largest
    off-diagonal magnitude: the distance of the finite system from an
    exactly orthogonal (tight) one.  ``max_entry_error_bound`` is the
    largest quadrature error bound (summed estimate plus rounding floor) of
    the entries, over the distinct displacements.
    """

    gram: np.ndarray = field(repr=False)
    min_eigenvalue: float = 0.0
    max_eigenvalue: float = 0.0
    k_norm_sq: float = 0.0
    tight_claim_gap: float = 0.0
    max_entry_error_bound: float = 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "gram": self.gram.tolist()}

    def frame_bounds(self) -> dict:
        """The frame bounds over the squared kernel norm, as ``riesz.json`` holds them."""
        return {
            "lower_over_k_norm_sq": self.min_eigenvalue / self.k_norm_sq,
            "upper_over_k_norm_sq": self.max_eigenvalue / self.k_norm_sq,
        }


def gram_matrix(sys: TranslateSystem, tol: float = DEFAULT_TOL) -> GramReport:
    """Pairwise inner products of the translates, one quadrature per distinct
    displacement.

    Entry (i, j) is the integral over the window of K(u) K(u - (p_i - p_j)),
    the inner product of the two translates written in the coordinate of
    the first one; K is even, so that is K convolved with itself at shift
    s = |p_i - p_j|.  Entries with equal |displacement| (the whole diagonal in
    particular) share a single computed value, so the matrix is symmetric
    exactly as stored and the diagonal is constant by construction.

    The integrand h(y) = K(y) K(s - y) satisfies h(s - y) = h(y), so each
    entry is computed by :func:`normalizer.window_autoconvolve` as one
    folded integral: on I = W n (s - W), whose midpoint is s/2, h counts
    twice right of s/2 and not at all left of it, and once outside I.  The
    integral is cut at 0, s, s/2 and the edges of I, and each panel takes
    the factor of a point inside it, so only one mirror half of I (and only
    its kink) is refined.  For a stable phi with alpha other than 1 and 2,
    the panels that end at the kinks 0 and s are graded.

    A kernel whose squared norm (the diagonal) is 0, as when K underflows
    at every node, raises ValueError: the frame bounds are ratios to it.
    """
    k = sys.kernel
    pts = np.asarray(sys.points)
    n = pts.size
    gram, bounds = window_autoconvolve(k, np.abs(np.subtract.outer(pts, pts)), sys.window, tol)
    if not gram[0, 0] > 0.0:
        raise ValueError(f"squared kernel norm over the window is {float(gram[0, 0])!r}; no frame bound is measured")

    eigs = np.linalg.eigvalsh(gram)
    off_gap = 0.0
    if n > 1:
        off = np.abs(gram[~np.eye(n, dtype=bool)])
        off_gap = float(off.max())
    return GramReport(
        gram=gram,
        min_eigenvalue=float(eigs[0]),
        max_eigenvalue=float(eigs[-1]),
        k_norm_sq=float(gram[0, 0]),
        tight_claim_gap=off_gap,
        max_entry_error_bound=float(bounds.max()),
    )


def orthogonality_residual(
    f: Perturbation,
    k: KernelSpec,
    mu_grid,
    tol: float = DEFAULT_TOL,
    *,
    window: Window,
) -> np.ndarray:
    """Inner products rho(mu) of the perturbation against each translate.

    rho(mu) = integral over the window of f(y) K(mu - y) dy.  These are the
    quantities whose vanishing would make the perturbation orthogonal to
    the translate span; they are emitted as measurements and never asserted
    to be zero.  For nonnegative even f and a strictly positive kernel they
    are strictly positive.
    """
    mu_grid = np.atleast_1d(np.asarray(mu_grid, dtype=float))
    if not window.contains(mu_grid):
        raise ValueError("mu grid must lie inside the window")
    return window_convolve(f.eval, k, mu_grid, window, tol, f.critical_points(window.lo, window.hi))
