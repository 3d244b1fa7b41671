"""Independent reference values for the reference seed's outputs.

Nothing here uses ``chardisp``: the characteristic functions are written
out again from their closed forms, and every integral goes through SciPy's
QUADPACK ``quad``, one QAGS call per piece between the kernel corners (its
extrapolation is built for corners at the ends of an interval), at an
absolute tolerance far below the tolerance the CLI commands ask for.  An
integral whose summed error estimate exceeds ``ORACLE_MAX_ERROR`` aborts
the build rather than storing a weak reference.

    python3 perfbench/oracle.py        # rewrites perfbench/references.json

The checks in ``checks.py`` compare the benchmark's outputs for
``workloads.REFERENCE_SEED`` against that file, and use ``kernel`` below
for seed-independent invariants.
"""
from __future__ import annotations

import json
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

WINDOW = (-20.0, 20.0)
ORACLE_EPSABS = 1e-14
ORACLE_LIMIT = 2000
ORACLE_MAX_ERROR = 1e-11  # a tenth of the tightest tolerance checked


def charfn(token: str):
    """Closed-form characteristic function for FAMILY:PARAMS shorthand."""
    family, _, rest = token.partition(":")
    p = [float(v) for v in rest.split(",")] if rest else []
    if family == "normal":
        (s,) = p
        return lambda t: math.exp(-0.5 * (s * t) ** 2)
    if family == "cauchy":
        (s,) = p
        return lambda t: math.exp(-s * abs(t))
    if family == "laplace":
        (s,) = p
        return lambda t: 1.0 / (1.0 + (s * t) ** 2)
    if family == "stable":
        a, s = p
        return lambda t: math.exp(-abs(s * t) ** a)
    if family == "nig":
        a, d = p
        return lambda t: math.exp(d * (a - math.sqrt(a * a + t * t)))
    raise ValueError(f"unknown family {family!r}")


def kernel(phi_token: str, psi_token: str, lam: float = 1.0):
    """K(y) = exp(-lam (1 - phi(y)) |psi(y)|) as a scalar function."""
    phi, psi = charfn(phi_token), charfn(psi_token)
    return lambda y: math.exp(-lam * (1.0 - phi(y)) * abs(psi(y)))


def cosgauss(y: float, amplitude=1.0, frequency=3.0, width=math.sqrt(5.0)) -> float:
    return amplitude * (math.cos(frequency * y) + 1.0) * math.exp(-y * y / (2.0 * width * width))


def quad(f, points=()) -> float:
    from scipy.integrate import IntegrationWarning, quad as _quad

    lo, hi = WINDOW
    edges = [lo, *sorted({p for p in points if lo < p < hi}), hi]
    value = error = 0.0
    with warnings.catch_warnings():
        # QUADPACK warns when 1e-14 is out of reach; the summed error
        # estimate is checked below instead.
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            v, e = _quad(f, a, b, epsabs=ORACLE_EPSABS, epsrel=0.0, limit=ORACLE_LIMIT)
            value += v
            error += e
    if error > ORACLE_MAX_ERROR:
        raise RuntimeError(f"oracle integral error estimate {error!r} exceeds {ORACLE_MAX_ERROR!r}")
    return value


def rational_points(n: int) -> list[float]:
    """0, 1, -1, 1/2, -1/2, 2, -2, ...: Calkin-Wilf order with negatives."""
    out, q = [0.0], Fraction(1)
    while len(out) < n:
        out += [float(q), float(-q)]
        q = 1 / (2 * math.floor(q) - q + 1)
    return out[:n]


def residual_grid() -> np.ndarray:
    """Shifts of the verify residuals: the window's middle half, 21 points."""
    q = 0.25 * (WINDOW[1] - WINDOW[0])
    return np.linspace(WINDOW[0] + q, WINDOW[1] - q, 21)


def orthogonality_grid() -> np.ndarray:
    return np.linspace(-5.0, 5.0, 21)


def a_tilde(k) -> float:
    return 1.0 / quad(k, (0.0,))


def riesz_reference(phi: str, psi: str, n: int) -> dict:
    k = kernel(phi, psi)
    pts = rational_points(n)
    deltas = sorted({abs(p - q) for p in pts for q in pts})
    overlaps = [[d, quad(lambda u, d=d: k(u) * k(u - d), (0.0, d))] for d in deltas]
    rho = [quad(lambda y, mu=mu: cosgauss(y) * k(mu - y), (0.0, mu)) for mu in orthogonality_grid()]
    return {"points": pts, "overlaps": overlaps, "rho": rho}


def verify_reference(phi: str, psi: str, perturbed: bool) -> dict:
    k = kernel(phi, psi)
    a = a_tilde(k)
    norm = (lambda y: a + cosgauss(y)) if perturbed else (lambda y: a)
    residuals = [quad(lambda y, mu=mu: norm(y) * k(mu - y), (0.0, mu)) - 1.0 for mu in residual_grid()]
    return {"a_tilde": a, "residuals": residuals}


FIGURES = {
    "fig1A.csv": ("normal:1", "normal:1", False),
    "fig1B.csv": ("cauchy:1", "normal:1", False),
    "fig2C.csv": ("laplace:1", "laplace:1", False),
    "fig2D.csv": ("laplace:1", "laplace:1", True),
}


def build(seed: int) -> dict:
    sys.path.insert(0, str(HERE))
    import workloads

    refs = {"seed": seed, "commands": {}}
    out = refs["commands"]
    for wl in workloads.WORKLOADS:
        for cmd in workloads.commands(wl, seed):
            if cmd.name in out:
                continue
            if cmd.sub == "riesz":
                out[cmd.name] = riesz_reference(cmd.phi, cmd.psi, cmd.n)
            elif cmd.sub == "verify":
                out[cmd.name] = verify_reference(cmd.phi, cmd.psi, cmd.perturb is not None)
            elif cmd.sub == "density":
                out[cmd.name] = {"a_tilde": a_tilde(kernel(cmd.phi, cmd.psi))}
            elif cmd.sub == "figures":
                out[cmd.name] = {name: {"a_tilde": a_tilde(kernel(phi, psi))}
                                 for name, (phi, psi, _) in FIGURES.items()}
    return refs


def main() -> None:
    sys.path.insert(0, str(HERE))
    import workloads

    refs = build(workloads.REFERENCE_SEED)
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {REFERENCES}")


if __name__ == "__main__":
    main()
