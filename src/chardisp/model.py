"""Assembled dispersion-model densities: evaluation, diagnostics, sampling.

A model is a kernel plus a normalizing function on a shared window,

    p(y; mu) = a(y) * exp(-lam * d(y; mu)),

with the position parameter restricted to an interval well inside the
window so truncation effects stay small.  Models with a constant
normalizing function are proper dispersion models (PDM); perturbed
normalizing functions produce candidates for models that are neither
proper nor exponential dispersion models (see :func:`classify`).  Draws
come by exact rejection from a step envelope whose equal cells each carry
a certified height and squeeze (see :func:`sample`).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .charfn import ArrayLike
from .deviance import RegularityReport
from .normalizer import RESIDUAL_TOL, KernelSpec, NormalizerSpec, convolution_residual

# Equal cells of sample()'s step envelope, each with its own height and
# squeeze, whatever the window grid.
ENVELOPE_CELLS = 4096
# Largest proposal batch in sample(): fixes which uniforms each proposal
# reads; bounds the proposals decided after the n-th acceptance (each by
# the density bounds or, where they leave it open, by the density).
MAX_PROPOSAL_BATCH = 2 ** 21
# Proposals per block of sample()'s one pass over a batch; bounds its working memory.
SAMPLE_BLOCK = 65536
# Buckets of sample()'s guide table, one per envelope cell; a power of two,
# so u * GUIDE_BUCKETS is exact.
GUIDE_BUCKETS = 4096


class Classification(str, enum.Enum):
    PDM = "PDM"
    NSDM_CANDIDATE = "NSDM_candidate"


class DomainError(ValueError):
    """Evaluation requested outside the window or the position domain."""


class EnvelopeError(RuntimeError):
    """Rejection sampling evaluated a density value above its envelope,
    which the declared ``bounds`` of the kernel or the normalizing function
    should have ruled out."""

    def __init__(self, y: float, density: float, envelope: float, cell: tuple[float, float]):
        self.y = y
        self.density = density
        self.envelope = envelope
        self.cell = cell
        super().__init__(
            f"density {density!r} at y={y!r} exceeds the rejection envelope {envelope!r} "
            f"of the cell [{cell[0]!r}, {cell[1]!r}]: the declared bounds of the kernel or "
            f"the normalizing function do not hold there"
        )


@dataclass(frozen=True)
class DispersionModel:
    """Density a(y) exp(-lam d(y; mu)) on a window, mu in position_domain.

    The position domain defaults to the middle half of the window, mirroring
    an open position space strictly inside the support.
    """

    kernel: KernelSpec
    normalizer: NormalizerSpec
    position_domain: Optional[tuple[float, float]] = None

    def __post_init__(self):
        w = self.normalizer.window
        if self.position_domain is None:
            object.__setattr__(self, "position_domain", w.middle_half())
        lo, hi = self.position_domain
        if not (w.lo < lo < hi < w.hi):
            raise ValueError(
                f"position domain ({lo}, {hi}) must lie strictly inside the window "
                f"[{w.lo}, {w.hi}]"
            )

    @property
    def window(self):
        return self.normalizer.window

    def _check_position(self, mu: float):
        lo, hi = self.position_domain
        if not lo <= mu <= hi:
            raise DomainError(f"position mu={mu} outside position domain ({lo}, {hi})")

    def density(self, y: ArrayLike, mu: float) -> ArrayLike:
        """p(y; mu); strictly positive on the window."""
        mu = float(mu)
        self._check_position(mu)
        if not self.window.contains(y):
            raise DomainError("observation values fall outside the window")
        yv = np.asarray(y, dtype=float)
        return self.normalizer.value(yv) * self.kernel.eval(yv - mu)

    def to_dict(self) -> dict:
        return {
            "kernel": {"pair": self.kernel.pair.to_dict(), "lam": self.kernel.lam},
            "normalizer": self.normalizer.to_dict(),
            "position_domain": list(self.position_domain),
        }


def normalization_check(m: DispersionModel, mu: float, tol: float = RESIDUAL_TOL) -> float:
    """Residual of the unit-mass condition at mu: integral of p(.; mu) - 1.

    A measurement; nonzero drift is expected near the window edges and for
    perturbed normalizers.
    """
    m._check_position(mu)
    return float(convolution_residual(m.normalizer, m.kernel, [mu], tol=tol)[0])


def classify(m: DispersionModel) -> Classification:
    """PDM when the normalizing function is constant in y, else a candidate
    non-standard model.  The tag is structural: a non-constant a(y) is a
    candidate whether or not it solves the integral equation, which is not
    checked (a cosine normalizer solves it at a zero of the kernel's
    transform, so at one lam only).  No model here is an exponential
    dispersion model, whose unit deviance is y f(mu) + g(mu) + h(y):
    d(y; mu) = D(y - mu) would make D'' constant, and d <= 2 rules out a
    nonzero quadratic."""
    if m.normalizer.is_constant():
        return Classification.PDM
    return Classification.NSDM_CANDIDATE


def _step_envelope(m: DispersionModel, mu: float):
    """The step envelope that :func:`sample` proposes from, and the bounds
    L <= density <= U that decide its proposals.

    The window is cut into ``ENVELOPE_CELLS`` equal cells.  Cell c is
    bounded on [edges[c], min(edges[c] + width, hi)]: the proposal's own
    expression at p = 1, monotone in p, so every proposal in the cell lies
    there.  L and U are the products of the normalizer's and the kernel's
    ``bounds``, which hold the computed factors (see ``normalizer._SLACK``),
    and rounding of the product is monotone.  Returns the cell edges, each
    cell's height U and squeeze L, and the estimate sum (L + U) / 2 * width
    of the density's mass, which lies between the masses of L and of U.
    """
    edges = np.linspace(m.window.lo, m.window.hi, ENVELOPE_CELLS + 1)
    lo = edges[:-1]
    hi = np.minimum(lo + (edges[1] - edges[0]), m.window.hi)
    (a_lo, a_hi), (k_lo, k_hi) = m.normalizer.bounds(lo, hi), m.kernel.bounds(lo - mu, hi - mu)
    low, high = a_lo * k_lo, a_hi * k_hi
    mass = float(np.sum((0.5 * low + 0.5 * high) * (hi - lo)))
    return edges, high, low, mass


def _guide_table(cdf: np.ndarray):
    """The guide table of :func:`_pick_cells` for a cumulative mass ``cdf``
    that ends at exactly 1: ``scaled = cdf * GUIDE_BUCKETS`` (exact, a
    power of two) and ``guide[b]``, the number of scaled masses <= b, for
    each bucket b."""
    scaled = cdf * GUIDE_BUCKETS
    if scaled[-1] != GUIDE_BUCKETS:  # else the stepping in _pick_cells could run past the end
        raise ValueError(f"cumulative mass must end at exactly 1, got {cdf[-1]!r}")
    guide = np.searchsorted(scaled, np.arange(GUIDE_BUCKETS), side="right")
    return scaled, guide


def _pick_cells(scaled: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` for uniforms u in [0, 1),
    from ``_guide_table(cdf)``; scales u by ``GUIDE_BUCKETS`` in place.

    Bucket b = floor(u * GUIDE_BUCKETS) starts at the first cell whose
    scaled mass exceeds b, and each pick steps forward while the scaled
    mass of its cell is <= u * GUIDE_BUCKETS.  Both products are exact, so
    this is the cell searchsorted returns, and it stays below ``cdf.size``
    because the last scaled mass is GUIDE_BUCKETS > u * GUIDE_BUCKETS.
    """
    u *= GUIDE_BUCKETS
    cell = guide.take(u.astype(np.intp))  # the bucket, truncated as u >= 0
    step = np.flatnonzero(scaled.take(cell) <= u)
    while step.size:
        cell[step] += 1
        step = step[scaled.take(cell[step]) <= u[step]]
    return cell


def _stream_at(seed: int, offset: int) -> np.random.Generator:
    """``default_rng(seed)`` past its first ``offset`` uniforms (one PCG64 output each)."""
    bits = np.random.PCG64(seed)
    bits.advance(offset)
    return np.random.Generator(bits)


def sample(m: DispersionModel, mu: float, n: int, seed: int) -> np.ndarray:
    """Draw n values by rejection from a step envelope over the window.

    A proposal picks one of the envelope's cells (see :func:`_step_envelope`)
    in proportion to its envelope mass, then a point uniformly inside it,
    and is accepted when u * U <= density for a uniform u, U the cell's
    height.  U bounds the density over the cell, so rejection is exact in
    law (Devroye 1986, ch. II.3).  The density is evaluated only where the
    cell's squeeze L (Marsaglia 1977; Devroye 1986, ch. II) leaves that
    open: a proposal with u * U <= L is accepted, as its density would
    decide, since L <= density <= U holds for the computed density: the
    bounds carry a rounding margin, 2^-36 per factor and 2^-36 (1 + lam) in
    K's exponent, derived at ``normalizer._SLACK``.  An evaluated density
    above its cell's height can only come from declared bounds that are
    wrong; it aborts with :class:`EnvelopeError` naming the first such
    proposal evaluated.  A batch holds 1.1 times the proposals the missing
    draws need at the expected acceptance (the mass estimate of
    :func:`_step_envelope` over the envelope's mass), at least 1024 and at
    most ``MAX_PROPOSAL_BATCH``.

    A batch of B proposals reads the uniforms of ``default_rng(seed)`` in
    three runs, each from its own generator (:func:`_stream_at`): [d, d+B)
    pick the cells, [d+B, d+2B) place the points and [d+2B, d+3B) accept
    them, where d counts the uniforms of earlier batches.  So each block of
    ``SAMPLE_BLOCK`` proposals is picked, placed, decided and kept in one
    pass, the draws do not depend on the block size, and beside the n
    draws (8 bytes each) only one block's temporaries are alive.  The draws
    are those of evaluating every proposal.  Deterministic for a fixed seed.
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    mu = float(mu)
    m._check_position(mu)
    if n == 0:
        return np.empty(0)

    edges, high, low, mass = _step_envelope(m, mu)
    width = edges[1] - edges[0]
    cdf = np.cumsum(high)
    acceptance = mass / (cdf[-1] * width)
    cdf /= cdf[-1]  # ends at exactly 1, as _guide_table requires
    scaled, guide = _guide_table(cdf)

    out = np.empty(n)
    got = drawn = 0
    while got < n:
        batch = min(max(1024, math.ceil(1.1 * (n - got) / acceptance)), MAX_PROPOSAL_BATCH)
        cells, positions, accepts = (_stream_at(seed, drawn + k * batch) for k in range(3))
        drawn += 3 * batch
        for start in range(0, batch, SAMPLE_BLOCK):
            size = min(SAMPLE_BLOCK, batch - start)
            cell = _pick_cells(scaled, guide, cells.random(size))
            # rounding may carry a point of the last cell an ulp past the window
            y = np.minimum(edges.take(cell) + width * positions.random(size), m.window.hi)
            uh = accepts.random(size) * high.take(cell)
            accept = uh <= low.take(cell)
            check = np.flatnonzero(~accept)
            ps = m.density(y.take(check), mu)
            too_high = ps > high.take(cell.take(check))
            if too_high.any():
                j = int(np.argmax(too_high))
                i, c = check[j], cell[check[j]]
                raise EnvelopeError(float(y[i]), float(ps[j]), float(high[c]), (float(edges[c]), float(edges[c + 1])))
            accept[check] = uh.take(check) <= ps
            acc = y[accept]
            take = min(n - got, acc.size)
            out[got:got + take] = acc[:take]
            got += take
    return out


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    """Everything the verify pipeline measures about one model."""

    normalization_residuals: dict = field(repr=False)  # mu -> residual
    classification: Classification = Classification.PDM
    regularity: Optional[RegularityReport] = None
    truncation_drift: float = 0.0

    def to_dict(self) -> dict:
        return {
            "normalization_residuals": {str(k): v for k, v in self.normalization_residuals.items()},
            "classification": self.classification.value,
            "regularity": None if self.regularity is None else dict(vars(self.regularity)),
            "truncation_drift": self.truncation_drift,
        }


def diagnostics(
    m: DispersionModel,
    mu_grid=None,
    tol: float = RESIDUAL_TOL,
) -> DiagnosticsReport:
    """Assemble the full diagnostics report for a model.

    ``truncation_drift`` is the spread (max - min) of the normalization
    residual over the probe grid: the mu-dependence that the finite window
    introduces into an equation whose exact solutions are mu-independent.
    """
    if mu_grid is None:
        lo, hi = m.position_domain
        mu_grid = np.linspace(lo, hi, 9)
    mu_grid = np.atleast_1d(np.asarray(mu_grid, dtype=float))
    if mu_grid.size == 0:
        raise ValueError("mu_grid must hold at least one point")
    residuals = convolution_residual(m.normalizer, m.kernel, mu_grid, tol=tol)
    return DiagnosticsReport(
        normalization_residuals={float(mu): float(r) for mu, r in zip(mu_grid, residuals)},
        classification=classify(m),
        regularity=m.kernel.pair.regularity(),
        truncation_drift=float(residuals.max() - residuals.min()),
    )
