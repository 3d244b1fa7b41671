"""Assembled dispersion-model densities: evaluation, diagnostics, sampling.

A model is a kernel plus a normalizing function on a shared window,

    p(y; mu) = a(y) * exp(-lam * d(y; mu)),

with the position parameter restricted to an interval well inside the
window so truncation effects stay small.  Models with a constant
normalizing function are proper dispersion models (PDM); perturbed
normalizing functions produce candidates for models that are neither
proper nor of the additive exponential-family form.  The latter exclusion
is structural: a deviance of the product form used here never decomposes
as y f(mu) + g(mu) + h(y), so the flag is a constant tag rather than a
fitted test.
"""
from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .charfn import ArrayLike
from .deviance import RegularityReport, regularity_probe
from .normalizer import RESIDUAL_TOL, KernelSpec, NormalizerSpec, convolution_residual

ENVELOPE_SAFETY = 1.01
# Equal cells of sample()'s step envelope; the normalizer's scan puts 16 of
# its 4096 intervals in each, whatever the window grid.
ENVELOPE_CELLS = 256
# Largest proposal batch in sample(): fixes which uniforms each proposal
# reads; bounds the proposals checked after the n-th acceptance.
MAX_PROPOSAL_BATCH = 2 ** 21
# Proposals per block of sample()'s one pass over a batch; bounds its working memory.
SAMPLE_BLOCK = 65536
# Buckets of sample()'s guide table; a power of two, so u * GUIDE_BUCKETS is exact.
GUIDE_BUCKETS = 1024
EDM_EXCLUSION_NOTE = (
    "unit deviances of the product form (1 - phi)|psi| do not decompose "
    "into the additive form y*f(mu) + g(mu) + h(y)"
)


class Classification(str, enum.Enum):
    PDM = "PDM"
    NSDM_CANDIDATE = "NSDM_candidate"


class DomainError(ValueError):
    """Evaluation requested outside the window or the position domain."""


class EnvelopeError(RuntimeError):
    """Rejection sampling saw a density value above its envelope."""

    def __init__(self, y: float, density: float, envelope: float):
        self.y = y
        self.density = density
        self.envelope = envelope
        super().__init__(
            f"density {density!r} at y={y!r} exceeds the rejection envelope "
            f"{envelope!r}; the envelope grid is too coarse"
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
    non-standard model.  Independent of the index parameter."""
    if m.normalizer.is_constant():
        return Classification.PDM
    return Classification.NSDM_CANDIDATE


def _step_envelope(m: DispersionModel, mu: float):
    """The step envelope that :func:`sample` proposes from.

    The window is cut into ``ENVELOPE_CELLS`` equal cells.  A cell's height
    is ``ENVELOPE_SAFETY`` times the largest density at the scan points
    inside it or bounding it (the last at or left of its left edge, the
    first at or right of its right edge).  The scan points are the
    normalizer's :meth:`~NormalizerSpec.scan_points`, where its positivity
    was checked (a fixed grid of 16 intervals per cell, whatever the
    window's ``n_grid``, and the critical points), and mu, where the
    kernel peaks.  Returns the cell edges, the cell heights and the
    trapezoid mass of the density on the scan points.
    """
    w = m.window
    edges = np.linspace(w.lo, w.hi, ENVELOPE_CELLS + 1)
    ys = np.sort(np.append(m.normalizer.scan_points(), mu))
    ps = m.density(ys, mu)
    first = np.searchsorted(ys, edges[:-1], side="right") - 1
    last = np.searchsorted(ys, edges[1:], side="left")
    env = ENVELOPE_SAFETY * np.array([ps[i:j + 1].max() for i, j in zip(first, last)])
    mass = float(np.sum(0.5 * (ps[1:] + ps[:-1]) * np.diff(ys)))
    return edges, env, mass


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
    and is accepted when u * height <= density for a uniform u.  A density
    above its own cell's height aborts with :class:`EnvelopeError` naming
    the first such proposal.  A batch holds 1.1 times the proposals the
    missing draws need at the expected acceptance (the density's mass over
    the envelope's), at least 1024 and at most ``MAX_PROPOSAL_BATCH``.

    A batch of B proposals reads the uniforms of ``default_rng(seed)`` in
    three runs, each from its own generator (:func:`_stream_at`): [d, d+B)
    pick the cells, [d+B, d+2B) place the points and [d+2B, d+3B) accept
    them, where d counts the uniforms of earlier batches.  So each block of
    ``SAMPLE_BLOCK`` proposals is picked, placed, checked and accepted in
    one pass, the draws do not depend on the block size, and beside the n
    draws (8 bytes each) only one block's temporaries are alive.  Every
    proposal of a batch is checked.  Deterministic for a fixed seed.
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    mu = float(mu)
    m._check_position(mu)
    if n == 0:
        return np.empty(0)

    edges, env, mass = _step_envelope(m, mu)
    width = edges[1] - edges[0]
    cdf = np.cumsum(env)
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
            y = np.minimum(edges[cell] + width * positions.random(size), m.window.hi)
            height = env[cell]
            ps = m.density(y, mu)
            too_high = ps > height
            if too_high.any():
                i = int(np.argmax(too_high))
                raise EnvelopeError(float(y[i]), float(ps[i]), float(height[i]))
            acc = y[accepts.random(size) * height <= ps]
            take = min(n - got, acc.size)
            out[got:got + take] = acc[:take]
            got += take
    return out


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    """Everything the verify pipeline measures about one model."""

    normalization_residuals: dict = field(repr=False)  # mu -> residual
    classification: Classification = Classification.PDM
    edm_excluded: bool = True
    edm_exclusion_note: str = EDM_EXCLUSION_NOTE
    regularity: Optional[RegularityReport] = None
    truncation_drift: float = 0.0

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "normalization_residuals": {str(k): v for k, v in self.normalization_residuals.items()},
            "classification": self.classification.value,
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
        edm_excluded=True,
        regularity=regularity_probe(m.kernel.pair, mu=0.0),
        truncation_drift=float(residuals.max() - residuals.min()),
    )
