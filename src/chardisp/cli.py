"""Command-line front end: construction, verification, probes, figure data.

Subcommands
-----------
density   emit one density curve as CSV (y,density)
verify    full diagnostics: axiom check, regularity, normalization residuals
riesz     Gram matrix, frame bounds, orthogonality residual curve
sample    draws from a model, one value per line
figures   the four showcase model curves plus normal and t3 reference curves

All numeric output uses 17 significant digits so runs are reproducible
byte for byte.  Outputs are accumulated in memory and written only after
every computation has succeeded; a failing run leaves no partial files.
Exit codes: 0 success, 1 validation or configuration error, 2 numerical
failure (quadrature budget, sampling envelope).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import charfn
from .charfn import CharFn, InvalidSpecError
from .deviance import UnitDeviancePair, check_unit_deviance
from .model import DispersionModel, DomainError, EnvelopeError, diagnostics, sample
from .normalizer import (
    PERTURBATION_FAMILIES,
    CosineGaussian,
    KernelSpec,
    Perturbation,
    PositivityError,
    Window,
    fft_deconvolve_check,
    perturbation_from_dict,
    perturbed_normalizer,
    trivial_normalizer,
)
from .quadrature import QuadratureError
from .riesz import (
    TranslateSystem,
    frame_bounds_estimate,
    gram_matrix,
    orthogonality_residual,
    rational_enumeration,
)

FMT = "{:.17g}"


def parse_charfn(token: str) -> CharFn:
    """Parse FAMILY or FAMILY:P1,P2 shorthand, e.g. normal:1 or stable:1.5,1."""
    return charfn.parse_shorthand(charfn.FAMILIES, "characteristic function", token)


def parse_perturbation(token: str) -> Perturbation:
    """Parse zero | cosgauss[:A,OMEGA,WIDTH] | oddgauss[:A,WIDTH] shorthand."""
    return charfn.parse_shorthand(PERTURBATION_FAMILIES, "perturbation", token)


@dataclass
class RunConfig:
    """Everything a subcommand needs, merged from config file and flags."""

    subcommand: str
    phi: Optional[CharFn] = None
    psi: Optional[CharFn] = None
    lam: float = 1.0
    window: Window = field(default_factory=Window)
    mu: float = 0.0
    perturb: Optional[Perturbation] = None
    tol: float = 1e-10
    residual_tol: float = 1e-8  # follows tol only when tol is set explicitly
    seed: int = 0
    n: Optional[int] = None  # sample draws (default 1000) / translate points (default 8)
    out: Optional[str] = None

    def pair(self) -> UnitDeviancePair:
        if self.phi is None or self.psi is None:
            raise InvalidSpecError("both --phi and --psi are required for this subcommand")
        return UnitDeviancePair(self.phi, self.psi)

    def kernel(self) -> KernelSpec:
        return KernelSpec(self.pair(), self.lam)

    def model(self) -> DispersionModel:
        k = self.kernel()
        norm = trivial_normalizer(k, self.window, self.tol)
        if self.perturb is not None:
            norm = perturbed_normalizer(norm, self.perturb)
        return DispersionModel(k, norm)


def _load_config_file(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidSpecError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(f"malformed config file {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidSpecError(f"config file {path!r} must hold a JSON object")
    return doc


def _window_from_config(value) -> Window:
    if isinstance(value, dict):
        return Window(**value)
    if isinstance(value, (list, tuple)) and len(value) in (2, 3):
        return Window(*value)
    raise InvalidSpecError(f"bad window record {value!r}")


# Config-file key -> the RunConfig fields it sets, given (config so far,
# value).  Applied in this order: "window" before "grid", and "perturbation"
# after "perturb" so that it wins.  "tol" carries "residual_tol" with it.
_FILE_KEYS = {
    "phi": lambda c, v: {"phi": charfn.from_dict(v)},
    "psi": lambda c, v: {"psi": charfn.from_dict(v)},
    "lambda": lambda c, v: {"lam": float(v)},
    "window": lambda c, v: {"window": _window_from_config(v)},
    "grid": lambda c, v: {"window": Window(c.window.lo, c.window.hi, int(v))},
    "perturb": lambda c, v: {"perturb": perturbation_from_dict(v)},
    "perturbation": lambda c, v: {"perturb": perturbation_from_dict(v)},
    "mu": lambda c, v: {"mu": float(v)},
    "tol": lambda c, v: {"tol": float(v), "residual_tol": float(v)},
    "seed": lambda c, v: {"seed": int(v)},
    "n": lambda c, v: {"n": int(v)},
    "out": lambda c, v: {"out": str(v)},
}
# The same for flags, keyed by argparse dest; argparse has typed the values.
_FLAG_KEYS = {
    "phi": lambda c, v: {"phi": parse_charfn(v)},
    "psi": lambda c, v: {"psi": parse_charfn(v)},
    "lam": lambda c, v: {"lam": v},
    "window": lambda c, v: {"window": Window(v[0], v[1], c.window.n_grid)},
    "grid": lambda c, v: {"window": Window(c.window.lo, c.window.hi, v)},
    "mu": lambda c, v: {"mu": v},
    "perturb": lambda c, v: {"perturb": parse_perturbation(v)},
    "tol": lambda c, v: {"tol": v, "residual_tol": v},
    "seed": lambda c, v: {"seed": v},
    "n": lambda c, v: {"n": v},
    "out": lambda c, v: {"out": v},
}


def _merge(cfg: RunConfig, keys: dict, values: dict) -> RunConfig:
    for key, update in keys.items():
        if key in values:
            cfg = replace(cfg, **update(cfg, values[key]))
    return cfg


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge the optional config file with flags; flags win."""
    cfg = RunConfig(subcommand=args.subcommand)
    if args.config:
        doc = _load_config_file(args.config)
        unknown = set(doc) - set(_FILE_KEYS)
        if unknown:
            raise InvalidSpecError(f"unknown config keys {sorted(unknown)!r}")
        cfg = _merge(cfg, _FILE_KEYS, doc)
    flags = {key: value for key, value in vars(args).items() if value is not None}
    return _merge(cfg, _FLAG_KEYS, flags)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(FMT.format(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _symmetric_grid(w: Window, n: int) -> np.ndarray:
    """Inclusive grid with n intervals; mirrored halves on symmetric windows
    so even densities come out exactly symmetric."""
    if w.lo == -w.hi and n % 2 == 0:
        half = np.linspace(0.0, w.hi, n // 2 + 1)
        return np.concatenate([-half[:0:-1], half])
    return np.linspace(w.lo, w.hi, n + 1)


class _Emitter:
    """Collects outputs and writes them only when the run has succeeded."""

    def __init__(self, out: Optional[str], multi: bool):
        self.out = out
        self.multi = multi  # out names a directory rather than a file
        self.items: list[tuple[Optional[str], str]] = []

    def add(self, name: Optional[str], text: str):
        self.items.append((name, text))

    def flush(self):
        for name, text in self.items:
            if self.out is None:
                sys.stdout.write(text)
                continue
            base = Path(self.out)
            path = base / name if self.multi else base
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_density(cfg: RunConfig) -> _Emitter:
    m = cfg.model()
    ys = _symmetric_grid(cfg.window, cfg.window.n_grid)
    ps = m.density(ys, cfg.mu)
    em = _Emitter(cfg.out, multi=False)
    em.add(None, _csv("y,density", zip(ys, ps)))
    return em


def _cmd_verify(cfg: RunConfig) -> _Emitter:
    m = cfg.model()
    lo, hi = m.position_domain
    span = np.linspace(lo, hi, 101)
    axioms = check_unit_deviance(m.kernel.pair, span, span)
    mu_grid = np.linspace(lo, hi, 21)
    diag = diagnostics(m, mu_grid=mu_grid, tol=cfg.residual_tol)
    fft = fft_deconvolve_check(m.kernel, cfg.window)

    doc = {
        "model": m.to_dict(),
        "axioms": axioms.to_dict(),
        "diagnostics": diag.to_dict(),
        "fft_deconvolution": fft.to_dict(),
    }
    em = _Emitter(cfg.out, multi=True)
    em.add("verify.json", json.dumps(doc, indent=2) + "\n")
    em.add(
        "residuals.csv",
        _csv("mu,residual", diag.normalization_residuals.items()),
    )
    em.add(
        "deconvolution.csv",
        _csv("index,y,value", zip(range(fft.solution.size), fft.ys, fft.solution)),
    )
    return em


def _cmd_riesz(cfg: RunConfig) -> _Emitter:
    k = cfg.kernel()
    points = rational_enumeration(cfg.n if cfg.n is not None else 8)
    system = TranslateSystem(k, tuple(points), cfg.window)
    report = gram_matrix(system, tol=cfg.tol)
    bounds = frame_bounds_estimate(report)

    f = cfg.perturb if cfg.perturb is not None else CosineGaussian()
    half = cfg.window.middle_half()
    mu_lo, mu_hi = max(half[0], -5.0), min(half[1], 5.0)
    mu_grid = np.linspace(mu_lo, mu_hi, 21)
    rho = orthogonality_residual(f, k, mu_grid, tol=cfg.residual_tol, window=cfg.window)

    doc = {
        "points": points,
        "gram_report": report.to_dict(),
        "frame_bounds": {
            "lower": bounds.lower,
            "upper": bounds.upper,
            "lower_over_k_norm_sq": bounds.lower / report.k_norm_sq,
            "upper_over_k_norm_sq": bounds.upper / report.k_norm_sq,
        },
        "perturbation": f.to_dict(),
    }
    em = _Emitter(cfg.out, multi=True)
    em.add("riesz.json", json.dumps(doc, indent=2) + "\n")
    em.add("orthogonality.csv", _csv("mu,residual", zip(mu_grid, rho)))
    return em


def _cmd_sample(cfg: RunConfig) -> _Emitter:
    m = cfg.model()
    draws = sample(m, cfg.mu, cfg.n if cfg.n is not None else 1000, cfg.seed)
    em = _Emitter(cfg.out, multi=False)
    em.add(None, _csv("value", ((v,) for v in draws)))
    return em


def _std_normal_pdf(y: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)


def _t3_pdf(y: np.ndarray) -> np.ndarray:
    return 2.0 / (math.sqrt(3.0) * math.pi * (1.0 + y * y / 3.0) ** 2)


def _cmd_figures(cfg: RunConfig) -> _Emitter:
    """The four showcase models at the configured index parameter, plus the
    standard normal and t (3 degrees of freedom) reference densities."""
    ys = _symmetric_grid(cfg.window, cfg.window.n_grid)

    def curve(phi, psi, perturb=None):
        return replace(cfg, phi=phi, psi=psi, perturb=perturb).model().density(ys, 0.0)

    curves = {
        "fig1A.csv": curve(charfn.Normal(1.0), charfn.Normal(1.0)),
        "fig1B.csv": curve(charfn.Cauchy(1.0), charfn.Normal(1.0)),
        "fig2C.csv": curve(charfn.Laplace(1.0), charfn.Laplace(1.0)),
        "fig2D.csv": curve(charfn.Laplace(1.0), charfn.Laplace(1.0), CosineGaussian()),
        "reference_normal.csv": _std_normal_pdf(ys),
        "reference_t3.csv": _t3_pdf(ys),
    }
    em = _Emitter(cfg.out if cfg.out is not None else "figures", multi=True)
    for name, ps in curves.items():
        em.add(name, _csv("y,density", zip(ys, ps)))
    return em


# Subcommand -> (handler, help text).
_COMMANDS = {
    "density": (_cmd_density, "emit a density curve as CSV"),
    "verify": (_cmd_verify, "run axiom, regularity and normalization diagnostics"),
    "riesz": (_cmd_riesz, "Gram matrix, frame bounds, orthogonality residuals"),
    "sample": (_cmd_sample, "draw from a model"),
    "figures": (_cmd_figures, "emit the four showcase curves plus reference densities"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chardisp",
        description="Construct and probe dispersion models built from characteristic functions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--phi", help="characteristic function FAMILY[:PARAMS], e.g. normal:1")
        p.add_argument("--psi", help="characteristic function FAMILY[:PARAMS], e.g. laplace:1")
        p.add_argument("--lambda", dest="lam", type=float, help="index parameter (default 1)")
        p.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"))
        p.add_argument("--grid", type=int, help="window grid size (default 1024)")
        p.add_argument("--mu", type=float, help="position parameter (default 0)")
        p.add_argument("--perturb", help="perturbation FAMILY[:PARAMS], e.g. cosgauss:1,3,2.236")
        p.add_argument("--tol", type=float, help="quadrature tolerance (default 1e-10)")
        p.add_argument("--seed", type=int, help="random seed (default 0)")
        p.add_argument("--n", type=int, help="count: draws to sample / translate points (default 1000/8)")
        p.add_argument("--out", help="output file (density, sample) or directory (verify, riesz, figures)")
        p.add_argument("--config", help="JSON config file; flags override its entries")
    return parser


def run(argv: list[str]) -> int:
    """Entry point used by tests: returns the exit code instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse signals --help with 0 and bad usage with 2; bad usage is a
        # validation error here.
        return 0 if exc.code == 0 else 1
    try:
        cfg = build_config(args)
        emitter = _COMMANDS[cfg.subcommand][0](cfg)
    except (InvalidSpecError, PositivityError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureError, EnvelopeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    emitter.flush()
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
