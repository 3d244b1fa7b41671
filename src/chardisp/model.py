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
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .charfn import ArrayLike
from .deviance import RegularityReport, regularity_probe
from .normalizer import (
    POSITIVITY_OVERSAMPLE,
    KernelSpec,
    NormalizerSpec,
    convolution_residual,
)

ENVELOPE_SAFETY = 1.01
# Largest proposal batch in sample(): bounds its working memory for large n.
MAX_PROPOSAL_BATCH = 2 ** 21
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


def normalization_check(m: DispersionModel, mu: float, tol: float = 1e-8) -> float:
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


def sample(m: DispersionModel, mu: float, n: int, seed: int) -> np.ndarray:
    """Draw n values by rejection from a uniform proposal on the window.

    The envelope is the density supremum over an oversampled grid times a
    small safety factor; seeing a density above it aborts with
    :class:`EnvelopeError`.  Proposals come in batches of at most
    ``MAX_PROPOSAL_BATCH``.  Deterministic for a fixed seed.
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    mu = float(mu)
    m._check_position(mu)
    w = m.window
    if n == 0:
        return np.empty(0)

    grid = w.grid(POSITIVITY_OVERSAMPLE)
    envelope = ENVELOPE_SAFETY * float(np.max(m.density(grid, mu)))

    rng = np.random.default_rng(seed)
    out = np.empty(n)
    got = 0
    batch = min(max(1024, 2 * n), MAX_PROPOSAL_BATCH)
    while got < n:
        ys = rng.uniform(w.lo, w.hi, size=batch)
        us = rng.uniform(0.0, envelope, size=batch)
        ps = m.density(ys, mu)
        too_high = ps > envelope
        if too_high.any():
            i = int(np.argmax(ps))
            raise EnvelopeError(float(ys[i]), float(ps[i]), envelope)
        acc = ys[us <= ps]
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
    tol: float = 1e-8,
    h: float = 1e-4,
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
    residuals = convolution_residual(m.normalizer, m.kernel, mu_grid, tol=tol)
    return DiagnosticsReport(
        normalization_residuals={float(mu): float(r) for mu, r in zip(mu_grid, residuals)},
        classification=classify(m),
        edm_excluded=True,
        regularity=regularity_probe(m.kernel.pair, mu=0.0, h=h),
        truncation_drift=float(residuals.max() - residuals.min()),
    )
