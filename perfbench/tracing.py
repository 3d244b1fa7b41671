"""Traced replay of workload commands through the layers' public functions.

A replay makes the same layer calls that ``chardisp.cli`` makes for a
command, with a timing span around each call, named after the time metric
it feeds.  Kernel evaluations are
counted by :class:`CountingKernel`, a ``KernelSpec`` subclass whose
``eval`` tallies calls and abscissae; every quadrature in the package
reaches the kernel through ``KernelSpec.eval``, so the tally is the
integrand work.  A replay with ``traced=False`` makes the same calls with
the plain ``KernelSpec`` and no spans; the difference between the two is
the tracing overhead.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
import numpy as np

from chardisp import cli
from chardisp.charfn import Cauchy, Laplace, Normal
from chardisp.deviance import UnitDeviancePair, check_unit_deviance
from chardisp.model import DispersionModel, diagnostics, sample
from chardisp.normalizer import (
    POSITIVITY_OVERSAMPLE,
    CosineGaussian,
    KernelSpec,
    fft_deconvolve_check,
    perturbed_normalizer,
    trivial_normalizer,
)
from chardisp.riesz import TranslateSystem, gram_matrix, orthogonality_residual, rational_enumeration

from workloads import Command

GK15_POINTS = 15


class TraceError(RuntimeError):
    """A traced call broke an invariant of the trace itself."""


@dataclass
class Tally:
    calls: int = 0
    abscissae: int = 0


@dataclass(frozen=True)
class CountingKernel(KernelSpec):
    """KernelSpec that counts its evaluations; values are unchanged."""

    tally: Tally = field(default_factory=Tally, compare=False, repr=False)

    def eval(self, y):
        self.tally.calls += 1
        self.tally.abscissae += int(np.size(y))
        return super().eval(y)


@dataclass(frozen=True)
class Span:
    name: str
    command: str
    seconds: float
    kernel_calls: int
    abscissae: int
    quadrature: bool


class Tracer:
    """Collects spans for one replayed pass.  With ``traced=False`` it
    records nothing and hands out plain kernels.  ``clock`` times the
    spans; set it to a clock that stops while other instrumentation runs."""

    def __init__(self, traced: bool, clock=time.perf_counter):
        self.traced = traced
        self.clock = clock
        self.spans: list[Span] = []
        self.command = ""
        self._tally = Tally()

    def kernel(self, pair: UnitDeviancePair, lam: float) -> KernelSpec:
        if self.traced:
            return CountingKernel(pair, lam, tally=self._tally)
        return KernelSpec(pair, lam)

    @contextmanager
    def span(self, name: str, quadrature: bool = False):
        """Time one layer call.  A quadrature-driven call that records no
        kernel abscissae means the kernel was bypassed and the counts would
        silently read zero, so it fails the trace."""
        if not self.traced:
            yield
            return
        calls0, absc0 = self._tally.calls, self._tally.abscissae
        t0 = self.clock()
        yield
        seconds = self.clock() - t0
        calls = self._tally.calls - calls0
        absc = self._tally.abscissae - absc0
        if quadrature and absc == 0:
            raise TraceError(f"{self.command}: quadrature-driven call {name} recorded zero kernel abscissae")
        self.spans.append(Span(name, self.command, seconds, calls, absc, quadrature))


def _config(cmd: Command) -> cli.RunConfig:
    """The RunConfig the CLI builds for this command (defaults included)."""
    return cli.build_config(cli.build_parser().parse_args(cmd.argv()))


def _model(tr: Tracer, k: KernelSpec, cfg: cli.RunConfig, perturb=None) -> DispersionModel:
    with tr.span("normalizer.trivial_normalizer_s", quadrature=True):
        norm = trivial_normalizer(k, cfg.window, cfg.tol)
    if perturb is not None:
        with tr.span("normalizer.perturbed_normalizer_s"):
            norm = perturbed_normalizer(norm, perturb)
    return DispersionModel(k, norm)


def _replay_riesz(tr: Tracer, cmd: Command, cfg: cli.RunConfig) -> dict:
    k = tr.kernel(cfg.pair(), cfg.lam)
    system = TranslateSystem(k, tuple(rational_enumeration(cfg.n)), cfg.window)
    with tr.span(f"riesz.gram_matrix_s.{cmd.pair}", quadrature=True):
        report = gram_matrix(system, tol=cfg.tol)
    half = cfg.window.middle_half()
    mu_grid = np.linspace(max(half[0], -5.0), min(half[1], 5.0), 21)
    f = cfg.perturb if cfg.perturb is not None else CosineGaussian()
    with tr.span("riesz.orthogonality_residual_s", quadrature=True):
        rho = orthogonality_residual(f, k, mu_grid, tol=cfg.residual_tol, window=cfg.window)
    return {"gram": report.gram, "rho": rho}


def _replay_verify(tr: Tracer, cmd: Command, cfg: cli.RunConfig) -> dict:
    k = tr.kernel(cfg.pair(), cfg.lam)
    m = _model(tr, k, cfg, cfg.perturb)
    lo, hi = m.position_domain
    grid = np.linspace(lo, hi, 101)
    with tr.span("deviance.check_unit_deviance_s"):
        check_unit_deviance(k.pair, grid, grid)
    with tr.span("model.diagnostics_s", quadrature=True):
        diagnostics(m, mu_grid=np.linspace(lo, hi, 21), tol=cfg.residual_tol)
    with tr.span("normalizer.fft_deconvolve_s"):
        fft_deconvolve_check(k, cfg.window)
    return {}


def _replay_density(tr: Tracer, cmd: Command, cfg: cli.RunConfig) -> dict:
    m = _model(tr, tr.kernel(cfg.pair(), cfg.lam), cfg, cfg.perturb)
    ys = np.linspace(cfg.window.lo, cfg.window.hi, cfg.window.n_grid + 1)
    with tr.span("model.density_s"):
        m.density(ys, cfg.mu)
    return {}


# The showcase models of ``chardisp figures``: (phi, psi, perturbed).
_FIGURE_MODELS = (
    (Normal(1.0), Normal(1.0), False),
    (Cauchy(1.0), Normal(1.0), False),
    (Laplace(1.0), Laplace(1.0), False),
    (Laplace(1.0), Laplace(1.0), True),
)


def _replay_figures(tr: Tracer, cmd: Command, cfg: cli.RunConfig) -> dict:
    ys = np.linspace(cfg.window.lo, cfg.window.hi, cfg.window.n_grid + 1)
    for phi, psi, perturbed in _FIGURE_MODELS:
        k = tr.kernel(UnitDeviancePair(phi, psi), cfg.lam)
        m = _model(tr, k, cfg, CosineGaussian() if perturbed else None)
        with tr.span("model.density_s"):
            m.density(ys, 0.0)
    return {}


def _replay_sample(tr: Tracer, cmd: Command, cfg: cli.RunConfig) -> dict:
    m = _model(tr, tr.kernel(cfg.pair(), cfg.lam), cfg, cfg.perturb)
    with tr.span("model.sample_s"):
        draws = sample(m, cfg.mu, cfg.n, cfg.seed)
    if not tr.traced:
        return {}
    # sample evaluates the density once on its envelope grid, then once per
    # proposal batch: the remaining abscissae are the proposals.
    envelope = cfg.window.grid(POSITIVITY_OVERSAMPLE).size
    return {"draws": int(draws.size), "proposals": tr.spans[-1].abscissae - int(envelope)}


_REPLAY = {
    "riesz": _replay_riesz,
    "verify": _replay_verify,
    "density": _replay_density,
    "figures": _replay_figures,
    "sample": _replay_sample,
}


def replay(tr: Tracer, cmd: Command) -> dict:
    """Replay one command's layer calls; returns values the caller may check."""
    tr.command = cmd.name
    return _REPLAY[cmd.sub](tr, cmd, _config(cmd))
