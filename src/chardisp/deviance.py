"""Unit deviances built from pairs of characteristic functions.

The discrepancy between an observation ``y`` and a position ``mu`` is

    d(y; mu) = (1 - phi(y - mu)) * |psi(y - mu)|

for two catalog characteristic functions ``phi`` and ``psi``.  Because
both factors are strictly positive off the origin and vanish (resp. equal
one) at it, ``d`` vanishes exactly on the diagonal and is positive
elsewhere, which is what makes it a unit deviance.  The module also
provides grid-based axiom checks and the regularity report.  Since
|psi(0)| = 1, d grows like c |t|^beta off the diagonal, with beta the
``origin_exponent`` that phi's family declares: 2 for a smooth pair, and
below 2, a corner of ``|t|^alpha`` type, when phi's law lacks a second
moment.  The declaration is a contract, which the tests hold against a
high-precision measurement of 1 - phi for every family in the catalog, so
the report reads it rather than measuring it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charfn import ArrayLike, CharFn, abs_range

DIAGONAL_TOL = 1e-14
MAX_WITNESSES = 10


@dataclass(frozen=True)
class RegularityReport:
    """How d(y; mu) behaves across the diagonal: d ~ c |t|^local_exponent."""

    is_regular: bool
    kink_detected: bool
    local_exponent: float


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

    def bounds(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds of :meth:`at` over the displacements of each interval
        [lo, hi]: when both members declare ``non_increasing``, 1 - phi rises
        and |psi| falls in |t|, so d lies between (1 - phi) |psi| with phi at
        the least |t| and psi at the largest, and the converse; else [0, 2]."""
        if not (self.phi.non_increasing and self.psi.non_increasing):
            return np.zeros_like(lo), np.full_like(lo, 2.0)
        near, far = abs_range(lo, hi)
        phi, psi = self.phi.eval(np.stack([near, far])), np.abs(self.psi.eval(np.stack([far, near])))
        d_lo, d_hi = (1.0 - phi) * psi
        return d_lo, d_hi

    def deviance(self, y: ArrayLike, mu: ArrayLike) -> ArrayLike:
        return self.at(np.asarray(y, dtype=float) - np.asarray(mu, dtype=float))

    def is_regular(self) -> bool:
        """Both members have finite first and second moments."""
        return self.phi.has_finite_second_moment() and self.psi.has_finite_second_moment()

    def regularity(self) -> RegularityReport:
        """The exponent of d at the diagonal, phi's declared origin exponent,
        with a kink wherever it is below 2, beside :meth:`is_regular`."""
        exponent = float(self.phi.origin_exponent)
        return RegularityReport(is_regular=self.is_regular(), kink_detected=exponent < 2.0, local_exponent=exponent)

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
        return {**vars(self), "violations": [list(v) for v in self.violations]}


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
