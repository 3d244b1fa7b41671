"""Unit deviances built from pairs of characteristic functions.

The discrepancy between an observation ``y`` and a position ``mu`` is

    d(y; mu) = (1 - phi(y - mu)) * |psi(y - mu)|

for two catalog characteristic functions ``phi`` and ``psi``.  Because
both factors are strictly positive off the origin and vanish (resp. equal
one) at it, ``d`` vanishes exactly on the diagonal and is positive
elsewhere, which is what makes it a unit deviance.  The module also
provides grid-based axiom checks and a finite-difference regularity probe:
pairs whose laws lack a second moment produce a corner of ``|t|^alpha``
type on the diagonal, which the probe flags through the local exponent of
the one-sided slopes.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .charfn import ArrayLike, CharFn

DIAGONAL_TOL = 1e-14
MAX_WITNESSES = 10


@dataclass(frozen=True)
class UnitDeviancePair:
    """Ordered pair (phi, psi) defining d(y;mu) = (1 - phi(t)) |psi(t)|.

    ``phi`` sits inside the ``1 - phi`` factor, ``psi`` inside the modulus
    factor.  The two are kept distinct even when equal, since mixed pairs
    (for example Cauchy with Normal) are first-class citizens.
    """

    phi: CharFn
    psi: CharFn

    def at(self, t: ArrayLike) -> ArrayLike:
        """d(mu + t; mu) = (1 - phi(t)) |psi(t)|, the deviance at displacement
        ``t`` from the position, which does not depend on mu.

        The one home of the formula: :meth:`deviance` calls it on ``y - mu``
        and the kernel on ``y`` itself, so both give the same bits for the
        same displacement.  ``t`` is anything the members' ``eval`` accepts
        (a number or an array); the result is a numpy float scalar for a
        scalar ``t`` and an array of the shape of ``t`` otherwise.
        """
        return (1.0 - self.phi.eval(t)) * np.abs(self.psi.eval(t))

    def deviance(self, y: ArrayLike, mu: ArrayLike) -> ArrayLike:
        return self.at(np.asarray(y, dtype=float) - np.asarray(mu, dtype=float))

    def is_regular(self) -> bool:
        """Both members have finite first and second moments."""
        return self.phi.has_finite_second_moment() and self.psi.has_finite_second_moment()

    def to_dict(self) -> dict:
        return {"phi": self.phi.to_dict(), "psi": self.psi.to_dict()}


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the grid check of the unit-deviance axioms."""

    passed: bool
    max_abs_diagonal: float
    min_off_diagonal: float
    n_diagonal: int
    n_off_diagonal: int
    diagonal_tol: float = DIAGONAL_TOL
    violations: tuple = field(default_factory=tuple)  # (y, mu, value) triples

    def to_dict(self) -> dict:
        return {**asdict(self), "violations": [list(v) for v in self.violations]}


def check_unit_deviance(pair, y_grid, mu_grid) -> AxiomReport:
    """Verify |d(mu;mu)| <= DIAGONAL_TOL and d(y;mu) > 0 on the grid y_grid x mu_grid.

    Accepts any object with a ``deviance(y, mu)`` method, so deliberately
    corrupted evaluators can be fed in to confirm the check bites.
    Violations are reported, not raised; the report carries up to
    ``MAX_WITNESSES`` offending (y, mu, value) triples.
    """
    y = np.asarray(y_grid, dtype=float)
    mu = np.asarray(mu_grid, dtype=float)
    if y.size == 0 or mu.size == 0:
        raise ValueError("grids must be nonempty")

    d = np.asarray(pair.deviance(y[:, None], mu[None, :]), dtype=float)
    diag = y[:, None] == mu[None, :]

    off = ~diag
    # Written as failures of the axioms, so that NaN entries are witnesses.
    witnesses = []
    for bad in (diag & ~(np.abs(d) <= DIAGONAL_TOL), off & ~(d > 0.0)):
        ii, jj = np.nonzero(bad)
        for i, j in zip(ii[:MAX_WITNESSES], jj[:MAX_WITNESSES]):
            witnesses.append((float(y[i]), float(mu[j]), float(d[i, j])))

    return AxiomReport(
        passed=not witnesses,
        max_abs_diagonal=float(np.max(np.abs(d[diag]))) if diag.any() else 0.0,
        min_off_diagonal=float(np.min(d[off])) if off.any() else np.inf,
        n_diagonal=int(diag.sum()),
        n_off_diagonal=int(off.sum()),
        violations=tuple(witnesses[:MAX_WITNESSES]),
    )


# A smooth deviance grows like h^2 off the diagonal (local exponent 2); a
# corner of |t|^alpha type grows like h^alpha.  Exponents below 2 by more
# than this margin are kinks: at the default h the smooth catalog pairs
# read within 1e-4 of 2, and stable alpha = 1.99 reads 1.990.
EXPONENT_MARGIN = 5e-3


@dataclass(frozen=True)
class RegularityReport:
    """Finite-difference picture of d(y;mu) across the diagonal at fixed y."""

    second_derivative_at_diagonal: float
    left_slope: float
    right_slope: float
    is_regular: bool
    kink_detected: bool
    h: float
    local_exponent: float


def regularity_probe(pair: UnitDeviancePair, mu: float = 0.0, h: float = 1e-4) -> RegularityReport:
    """Probe smoothness of mu' -> d(mu; mu') at mu' = mu with step h.

    Central second difference plus one-sided first differences.  The moment
    criterion (both members with finite second moments) determines
    ``is_regular``.  ``local_exponent`` is 1 + log10(s(h) / s(h/10)), with
    s the mean magnitude of the two one-sided slopes: it reads alpha where
    d grows like |mu' - mu|^alpha, so 2 for a smooth pair.  An exponent
    below ``2 - EXPONENT_MARGIN`` sets ``kink_detected``.  Where d(h/10)
    is too close to rounding level to resolve the margin, the exponent is
    NaN and no kink is flagged.
    """
    if not 0.0 < h <= 1e-2:
        raise ValueError(f"step h must lie in (0, 1e-2], got {h}")
    d0 = pair.deviance(mu, mu)
    dp = pair.deviance(mu, mu + h)
    dm = pair.deviance(mu, mu - h)
    second = (dp - 2.0 * d0 + dm) / h ** 2
    right = (dp - d0) / h
    left = (d0 - dm) / h
    fine = h / 10.0
    fine_rises = (abs(pair.deviance(mu, mu + fine) - d0), abs(d0 - pair.deviance(mu, mu - fine)))
    # Rounding in 1 - phi moves d by about eps, which shifts the exponent
    # by more than the margin once d(h/10) falls below eps / margin.
    exponent = np.nan
    if min(fine_rises) * EXPONENT_MARGIN > np.finfo(float).eps:
        # Mean slope magnitude at h over that at h/10: 10^(exponent - 1).
        exponent = 1.0 + np.log10((abs(left) + abs(right)) * fine / sum(fine_rises))
    return RegularityReport(
        second_derivative_at_diagonal=second,
        left_slope=left,
        right_slope=right,
        is_regular=pair.is_regular(),
        kink_detected=bool(exponent < 2.0 - EXPONENT_MARGIN),
        h=h,
        local_exponent=exponent,
    )
