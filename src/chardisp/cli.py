"""Command-line front end: construction, verification, probes, figure data.

Subcommands
-----------
density   emit one density curve as CSV (y,density)
verify    full diagnostics: axiom check, regularity, normalization residuals
riesz     Gram matrix, frame bounds, orthogonality residual curve
sample    draws from a model, one value per line
figures   the four showcase model curves plus normal and t3 reference curves

All five take the same flags, from one parser: ``chardisp --help`` lists
the subcommands and every flag, and flags may come before or after the
subcommand.  A value that starts with ``-`` and a digit is a number, so
negative exponents such as ``--mu -1e-3`` are accepted.  The process keeps
one parser, built on the first :func:`run`; a successful run leaves no
reference cycles, so all it makes is freed by reference counting.

Numeric output is reproducible byte for byte.  A JSON document is strict
JSON, exactly what ``json.dumps(doc, indent=2)`` prints, so a JSON number
is Python's shortest round-tripping repr (``"h": 0.0001``); ``_json``
renders it with a small encoder of its own that prints each distinct
float once per document, through a memo that lives for that one call,
and joins each list of nonzero floats in one call.  Every CSV cell
carries at most 17 significant digits (``0.5`` prints as ``0.5``): it is
exactly what ``"%.17g" % value`` prints; :mod:`chardisp.g17` formats
each chunk's array at once, from exact integer digits where ``%g`` uses
fixed notation and through ``%`` itself for the rest, and a table of
fewer than ``g17.SMALL_TABLE_CELLS`` cells through one ``%``.  Every
number a subcommand outputs is computed, and every CSV column converted
to a float array, before any file is opened, so a failing run leaves no
partial files.  The text is then rendered while it is written: a CSV
file one ASCII chunk of ``CSV_CHUNK_ROWS`` rows at a time, so the text
held at once is about two chunks whatever the size of the file, and no
file is ever joined into one string or encoded twice.
Exit codes: 0 success, 1 validation, configuration or output error, or a
request too large for memory (``--n`` or ``--grid``), 2 numerical failure
(quadrature budget, sampling envelope).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import re
import sys
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import charfn, g17
from .charfn import CharFn, InvalidSpecError
from .deviance import UnitDeviancePair, check_unit_deviance
from .model import DispersionModel, EnvelopeError, diagnostics, sample
from .normalizer import (
    PERTURBATION_FAMILIES,
    RESIDUAL_TOL,
    CosineGaussian,
    KernelSpec,
    Perturbation,
    Window,
    fft_deconvolve_check,
    perturbation_from_dict,
    perturbed_normalizer,
    trivial_normalizer,
)
from .quadrature import DEFAULT_TOL, QuadratureError
from .riesz import (
    TranslateSystem,
    gram_matrix,
    orthogonality_residual,
    rational_enumeration,
)

# Rows rendered per step in _csv: bounds the arrays and bytes of one chunk.
# Rendering takes about 200 bytes a cell, so a one-column chunk's working
# set is about 6.5 MB, below the 8 MB of the draws of `sample --n 1048576`.
CSV_CHUNK_ROWS = 32768


def parse_charfn(token: str) -> CharFn:
    """Parse FAMILY or FAMILY:P1,P2 shorthand, e.g. normal:1 or stable:1.5,1."""
    return charfn.parse_shorthand(charfn.FAMILIES, CharFn.kind, token)


def parse_perturbation(token: str) -> Perturbation:
    """Parse zero | cosgauss[:A,OMEGA,WIDTH] | oddgauss[:A,WIDTH] shorthand."""
    return charfn.parse_shorthand(PERTURBATION_FAMILIES, Perturbation.kind, token)


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
    tol: float = DEFAULT_TOL
    residual_tol: float = RESIDUAL_TOL  # follows tol only when tol is set explicitly
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


def _window(cfg: RunConfig, value) -> Window:
    """A window from [LO, HI(, N_GRID)] or {"lo", "hi"(, "n_grid")}; the
    configured n_grid stays unless the value gives one."""
    if isinstance(value, (list, tuple)) and len(value) in (2, 3):
        value = dict(zip(("lo", "hi", "n_grid"), value))
    if not isinstance(value, dict):
        raise InvalidSpecError(f"bad window record {value!r}")
    return Window(**{"n_grid": cfg.window.n_grid, **value})


def _number(value) -> float:
    if not charfn.is_number(value):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _seed(value) -> int:
    if _integer(value) < 0:
        raise TypeError(f"expected a non-negative integer, got {value!r}")
    return int(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


# Setting -> the RunConfig fields it sets, given (config so far, value, the
# source's (charfn, perturbation) spec readers).  Config keys and flag dests
# share these names; "perturbation" is a config-file alias of "perturb".
# Applied in this order: "window" before "grid", and "perturbation" after
# "perturb" so that it wins.  "tol" carries "residual_tol" with it.
_KEYS = {
    "phi": lambda c, v, read: {"phi": read[0](v)},
    "psi": lambda c, v, read: {"psi": read[0](v)},
    "lambda": lambda c, v, read: {"lam": _number(v)},
    "window": lambda c, v, read: {"window": _window(c, v)},
    "grid": lambda c, v, read: {"window": replace(c.window, n_grid=_integer(v))},
    "perturb": lambda c, v, read: {"perturb": read[1](v)},
    "perturbation": lambda c, v, read: {"perturb": read[1](v)},
    "mu": lambda c, v, read: {"mu": _number(v)},
    "tol": lambda c, v, read: {"tol": _number(v), "residual_tol": _number(v)},
    "seed": lambda c, v, read: {"seed": _seed(v)},
    "n": lambda c, v, read: {"n": _integer(v)},
    "out": lambda c, v, read: {"out": _string(v)},
}


def _merge(cfg: RunConfig, values: dict, read: tuple) -> RunConfig:
    for key, update in _KEYS.items():
        if key in values:
            try:
                cfg = replace(cfg, **update(cfg, values[key], read))
            except TypeError as exc:
                raise InvalidSpecError(f"bad value for {key!r}: {exc}") from exc
    return cfg


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge the optional config file with flags; flags win."""
    cfg = RunConfig(subcommand=args.subcommand)
    if args.config:
        doc = _load_config_file(args.config)
        unknown = set(doc) - set(_KEYS)
        if unknown:
            raise InvalidSpecError(f"unknown config keys {sorted(unknown)!r}")
        cfg = _merge(cfg, doc, (charfn.from_dict, perturbation_from_dict))
    flags = {key: value for key, value in vars(args).items() if value is not None}
    return _merge(cfg, flags, (parse_charfn, parse_perturbation))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _csv(header: str, *columns) -> Iterator[bytes]:
    """The header line, then row i holding entry i of every column, each
    value printed exactly as ``"%.17g"`` prints the float, as ASCII byte
    chunks: the header's, then one per ``CSV_CHUNK_ROWS`` rows.  The columns
    are converted now, so a bad one fails before any file is opened; each
    chunk is stacked from their slices and rendered only when it is read."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    return _csv_chunks(header, columns)


def _csv_chunks(header: str, columns: list) -> Iterator[bytes]:
    yield header.encode("ascii") + b"\n"
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        # `chunk` keeps the previous chunk alive while the next is rendered.
        # Freed first, it leaves the top of the heap free, glibc trims it,
        # and rendering faults the same pages back in on every chunk: in a
        # fresh process, `sample --n 1000000` then took 64k minor faults
        # instead of 15k, and 40 % more wall time.
        chunk = g17.csv_text(np.column_stack([c[start:start + CSV_CHUNK_ROWS] for c in columns]))
        yield chunk


def _float_text(x: float) -> str:
    if not math.isfinite(x):  # NaN and the infinities are not JSON: json's own ValueError
        json.dumps(x, indent=2, allow_nan=False)
        raise AssertionError(f"json.dumps(allow_nan=False) wrote {x!r}")
    return float.__repr__(x)


class _FloatMemo(dict):
    """float -> its JSON text, made on first lookup; one per document."""

    def __missing__(self, x: float) -> str:
        text = self[x] = _float_text(x)
        return text


def _json(doc: dict) -> list[bytes]:
    """The document as indented strict JSON, ending in a newline, in one
    chunk: byte for byte what ``json.dumps(doc, indent=2, allow_nan=False)
    + "\\n"`` gives, from the same checks in the same order, but a key must
    be a str.  Each distinct float is printed once per document (a zero
    each time, since -0.0 == 0.0), and a list of nonzero plain floats is
    one join over those texts."""
    out = []
    _put(doc, "\n", out, _FloatMemo())
    return [("".join(out) + "\n").encode("ascii")]


def _put(o, indent: str, out: list, memo: _FloatMemo) -> None:
    """Append the JSON text of ``o``, at ``indent``, to ``out``."""
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None or o is True or o is False:
        out.append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(memo[o] if o else float.__repr__(o))
    elif not isinstance(o, (list, tuple, dict)):
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    elif not o:
        out.append("{}" if isinstance(o, dict) else "[]")
    elif isinstance(o, dict):
        inner, sep = indent + "  ", "{"
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.extend((sep, inner, _encode_str(key), ": "))
            _put(value, inner, out, memo)
            sep = ","
        out.extend((indent, "}"))
    else:
        inner, sep = indent + "  ", "["
        if set(map(type, o)) == {float} and 0.0 not in o:
            out.extend((sep, inner, ("," + inner).join(map(memo.__getitem__, o))))
        else:
            for item in o:
                out.extend((sep, inner))
                _put(item, inner, out, memo)
                sep = ","
        out.extend((indent, "]"))


def _symmetric_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Inclusive grid of [lo, hi] with n intervals; mirrored halves when
    lo == -hi and n is even, so even curves come out exactly symmetric."""
    if lo == -hi and n % 2 == 0:
        half = np.linspace(0.0, hi, n // 2 + 1)
        return np.concatenate([-half[:0:-1], half])
    return np.linspace(lo, hi, n + 1)


def _write(out: Optional[str], files: dict) -> None:
    """Write each file's byte chunks to out/name, or to out itself when name
    is None; everything goes to stdout when out is None.  A CSV file's
    chunks are rendered here, one at a time, as they are written."""
    for name, chunks in files.items():
        if out is None:
            sys.stdout.writelines(chunk.decode("ascii") for chunk in chunks)
            continue
        path = Path(out) if name is None else Path(out) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            fh.writelines(chunks)


# ---------------------------------------------------------------------------
# Subcommands: each returns {file name: byte chunks}, name None for the single
# file; every number is computed before they return, the CSV text is not
# ---------------------------------------------------------------------------

def _cmd_density(cfg: RunConfig) -> dict:
    m = cfg.model()
    ys = _symmetric_grid(cfg.window.lo, cfg.window.hi, cfg.window.n_grid)
    return {None: _csv("y,density", ys, m.density(ys, cfg.mu))}


def _cmd_verify(cfg: RunConfig) -> dict:
    m = cfg.model()
    lo, hi = m.position_domain
    span = np.linspace(lo, hi, 101)
    axioms = check_unit_deviance(m.kernel.pair, span, span)
    mu_grid = _symmetric_grid(lo, hi, 20)
    diag = diagnostics(m, mu_grid=mu_grid, tol=cfg.residual_tol)
    residuals = diag.normalization_residuals
    fft = fft_deconvolve_check(m.kernel, cfg.window)

    doc = {
        "model": m.to_dict(),
        "axioms": axioms.to_dict(),
        "diagnostics": diag.to_dict(),
        "fft_deconvolution": fft.to_dict(),
    }
    return {
        "verify.json": _json(doc),
        "residuals.csv": _csv("mu,residual", list(residuals), list(residuals.values())),
        "deconvolution.csv": _csv("index,y,value", np.arange(fft.n_grid), cfg.window.periodic_grid(),
                                  np.full(fft.n_grid, fft.dc_value)),
    }


def _cmd_riesz(cfg: RunConfig) -> dict:
    k = cfg.kernel()
    points = rational_enumeration(cfg.n if cfg.n is not None else 8)
    system = TranslateSystem(k, tuple(points), cfg.window)
    report = gram_matrix(system, tol=cfg.tol)

    f = cfg.perturb if cfg.perturb is not None else CosineGaussian()
    half = cfg.window.middle_half()
    mu_lo, mu_hi = max(half[0], -5.0), min(half[1], 5.0)
    mu_grid = _symmetric_grid(mu_lo, mu_hi, 20)
    rho = orthogonality_residual(f, k, mu_grid, tol=cfg.residual_tol, window=cfg.window)

    doc = {
        "points": [float(p) for p in points],
        "gram_report": report.to_dict(),
        "frame_bounds": report.frame_bounds(),
        "perturbation": f.to_dict(),
    }
    return {
        "riesz.json": _json(doc),
        "orthogonality.csv": _csv("mu,residual", mu_grid, rho),
    }


def _cmd_sample(cfg: RunConfig) -> dict:
    m = cfg.model()
    draws = sample(m, cfg.mu, cfg.n if cfg.n is not None else 1000, cfg.seed)
    return {None: _csv("value", draws)}


def _std_normal_pdf(y: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)


def _t3_pdf(y: np.ndarray) -> np.ndarray:
    return 2.0 / (math.sqrt(3.0) * math.pi * (1.0 + y * y / 3.0) ** 2)


def _cmd_figures(cfg: RunConfig) -> dict:
    """The four showcase models at the configured index parameter, plus the
    standard normal and t (3 degrees of freedom) reference densities."""
    ys = _symmetric_grid(cfg.window.lo, cfg.window.hi, cfg.window.n_grid)

    def model(phi, psi):
        return replace(cfg, phi=phi, psi=psi, perturb=None).model()

    # fig2D perturbs fig2C's normalizer, so the Laplace kernel is integrated once.
    laplace = model(charfn.Laplace(1.0), charfn.Laplace(1.0))
    perturbed = DispersionModel(laplace.kernel, perturbed_normalizer(laplace.normalizer, CosineGaussian()))
    curves = {
        "fig1A.csv": model(charfn.Normal(1.0), charfn.Normal(1.0)).density(ys, 0.0),
        "fig1B.csv": model(charfn.Cauchy(1.0), charfn.Normal(1.0)).density(ys, 0.0),
        "fig2C.csv": laplace.density(ys, 0.0),
        "fig2D.csv": perturbed.density(ys, 0.0),
        "reference_normal.csv": _std_normal_pdf(ys),
        "reference_t3.csv": _t3_pdf(ys),
    }
    return {name: _csv("y,density", ys, ps) for name, ps in curves.items()}


# Subcommand -> (handler, help text, default --out).
_COMMANDS = {
    "density": (_cmd_density, "emit a density curve as CSV", None),
    "verify": (_cmd_verify, "run axiom, regularity and normalization diagnostics", None),
    "riesz": (_cmd_riesz, "Gram matrix, frame bounds, orthogonality residuals", None),
    "sample": (_cmd_sample, "draw from a model", None),
    "figures": (_cmd_figures, "emit the four showcase curves plus reference densities", "figures"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chardisp",
        description="Construct and probe dispersion models built from characteristic functions.",
        epilog="subcommands:\n" + "\n".join(f"  {name:<9} {text}" for name, (_, text, _) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser._negative_number_matcher = re.compile(r"^-\.?\d")  # no flag looks like a number: -1e-3 is a value
    parser.add_argument("subcommand", choices=_COMMANDS, help="one of the subcommands below")
    parser.add_argument("--phi", help="characteristic function FAMILY[:PARAMS], e.g. normal:1")
    parser.add_argument("--psi", help="characteristic function FAMILY[:PARAMS], e.g. laplace:1")
    parser.add_argument("--lambda", type=float, metavar="LAM", help="index parameter (default 1)")
    parser.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"))
    parser.add_argument("--grid", type=int, help="output and FFT grid size (default 1024)")
    parser.add_argument("--mu", type=float, help="position parameter (default 0)")
    parser.add_argument("--perturb", help="perturbation FAMILY[:PARAMS], e.g. cosgauss:1,3,2.236")
    parser.add_argument("--tol", type=float, help=f"quadrature tolerance (default {DEFAULT_TOL:g})")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--n", type=int, help="count: draws to sample / translate points (default 1000/8)")
    parser.add_argument("--out", help="output file (density, sample) or directory (verify, riesz, figures)")
    parser.add_argument("--config", help="JSON config file; flags override its entries")
    return parser


# The parser every run uses, built on first use: parsing leaves no state in it.
_parser = functools.cache(build_parser)


def run(argv: list[str]) -> int:
    """Entry point used by tests: returns the exit code instead of exiting."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse signals --help with 0 and bad usage with 2; bad usage is a
        # validation error here.
        return 0 if exc.code == 0 else 1
    try:
        cfg = build_config(args)
        handler, _, default_out = _COMMANDS[cfg.subcommand]
        _write(cfg.out if cfg.out is not None else default_out, handler(cfg))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureError, EnvelopeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
