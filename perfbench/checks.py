"""Output checks, run outside the timed region on the files a pass wrote.

Invariants hold for every seed; for ``workloads.REFERENCE_SEED`` the
numbers are also compared with ``references.json`` (see ``oracle.py``).
Each number must agree within the tolerance the command asked for
(the CLI defaults: ``tol`` 1e-10 for the kernel integral and the Gram
entries, 1e-8 for residuals and orthogonality curves).  Quantities derived
from many integrals get a stated factor:

* Gram eigenvalues: a symmetric perturbation E moves each eigenvalue by at
  most ||E||_2 <= n max|E_ij|, so the check allows n * tol.
* ``a_tilde = 1 / integral(K)``: an error of tol in the integral moves it
  by about tol * a_tilde**2; the check allows twice that.
* verify residuals integrate a_tilde + f against K, so the a_tilde error
  adds at most tol * a_tilde * integral(K) = tol; the check allows
  residual_tol + tol.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle
from workloads import Command

TOL = 1e-10           # cli default --tol
RESIDUAL_TOL = 1e-8   # cli default residual tolerance when --tol is not given
KS_MIN_PVALUE = 1e-6
GRID = 1025           # default window grid: 1024 intervals, inclusive


def _csv(path: Path, header: str, cols: int) -> np.ndarray:
    with path.open() as fh:
        head = fh.readline().rstrip("\n")
        if head != header:
            raise AssertionError(f"{path.name}: header {head!r}, expected {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != cols or not np.all(np.isfinite(data)):
        raise AssertionError(f"{path.name}: expected {cols} finite columns")
    return data


def _close(what: str, got, want, tol: float):
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    if not err <= tol:
        raise AssertionError(f"{what}: off by {err:.3g}, allowed {tol:.3g}")


def _kernel_on(cmd_phi: str, cmd_psi: str, ys: np.ndarray) -> np.ndarray:
    k = oracle.kernel(cmd_phi, cmd_psi)
    return np.array([k(float(y)) for y in ys])


def _check_riesz(cmd: Command, path: Path, ref):
    doc = json.loads((path / "riesz.json").read_text())
    rep = doc["gram_report"]
    g = np.array(rep["gram"], dtype=float)
    n = cmd.n
    if g.shape != (n, n) or not np.all(np.isfinite(g)):
        raise AssertionError(f"gram matrix shape {g.shape}, expected ({n}, {n}) finite")
    if not np.array_equal(g, g.T):
        raise AssertionError("gram matrix is not symmetric")
    d = g[0, 0]
    if not (np.all(np.diag(g) == d) and d == rep["k_norm_sq"]):
        raise AssertionError("gram diagonal is not constant k_norm_sq")
    off = np.abs(g[~np.eye(n, dtype=bool)])
    if off.max() > d + 2 * TOL:
        raise AssertionError(f"Cauchy-Schwarz fails: off-diagonal {off.max()!r} > diagonal {d!r}")
    # Translates of a nonzero kernel are linearly independent, so the exact
    # Gram matrix is positive definite; the computed one may lose that by no
    # more than its eigenvalue error bound n * tol.  For smooth kernels at
    # n = 32 the smallest eigenvalue sits at the rounding floor (~1e-14, also
    # in the oracle's matrix), so strict positivity is not checkable there.
    eigs = np.linalg.eigvalsh(g)
    if eigs[0] < -n * TOL:
        raise AssertionError(f"gram matrix is not positive definite: eigenvalue {eigs[0]!r}")
    _close("reported eigenvalues", [rep["min_eigenvalue"], rep["max_eigenvalue"]],
           [eigs[0], eigs[-1]], 1e-12 * eigs[-1])
    rho = _csv(path / "orthogonality.csv", "mu,residual", 2)
    _close("orthogonality grid", rho[:, 0], oracle.orthogonality_grid(), 1e-15)
    if ref is None:
        return
    overlap = {delta: v for delta, v in ref["overlaps"]}
    pts = ref["points"]
    want = np.array([[overlap[abs(p - q)] for q in pts] for p in pts])
    _close("gram entries vs oracle", g, want, TOL)
    ref_eigs = np.linalg.eigvalsh(want)
    _close("gram eigenvalues vs oracle", [eigs[0], eigs[-1]], [ref_eigs[0], ref_eigs[-1]], n * TOL)
    _close("orthogonality residuals vs oracle", rho[:, 1], ref["rho"], RESIDUAL_TOL)


def _check_verify(cmd: Command, path: Path, ref):
    doc = json.loads((path / "verify.json").read_text())
    if not doc["axioms"]["passed"]:
        raise AssertionError("unit deviance axioms failed")
    diag = doc["diagnostics"]
    want_class = "PDM" if cmd.perturb is None else "NSDM_candidate"
    if diag["classification"] != want_class:
        raise AssertionError(f"classification {diag['classification']!r}, expected {want_class!r}")
    res = _csv(path / "residuals.csv", "mu,residual", 2)
    _close("residual grid", res[:, 0], oracle.residual_grid(), 1e-15)
    if diag["truncation_drift"] != res[:, 1].max() - res[:, 1].min():
        raise AssertionError("truncation drift disagrees with the residuals")
    dec = _csv(path / "deconvolution.csv", "index,y,value", 3)
    fft = doc["fft_deconvolution"]
    n = fft["n_grid"]
    if dec.shape[0] != n:
        raise AssertionError(f"deconvolution has {dec.shape[0]} rows, expected {n}")
    # The discrete solution is the constant 1 / (dy * sum K) over circular
    # displacements; summing K directly is independent of the FFT route.
    dy = (oracle.WINDOW[1] - oracle.WINDOW[0]) / n
    j = np.arange(n)
    kv = _kernel_on(cmd.phi, cmd.psi, np.where(j <= n // 2, j, j - n) * dy)
    _close("fft dc value vs direct sum", fft["dc_value"], 1.0 / (dy * kv.sum()), TOL)
    if ref is None:
        return
    a_ref = ref["a_tilde"]
    _close("a_tilde vs oracle", doc["model"]["normalizer"]["a_tilde"], a_ref, 2 * TOL * a_ref ** 2)
    _close("normalization residuals vs oracle", res[:, 1], ref["residuals"], RESIDUAL_TOL + TOL)


def _check_curve(name: str, data: np.ndarray, phi: str, psi: str, a_ref, perturbed: bool):
    ys, ps = data[:, 0], data[:, 1]
    if ys.size != GRID or not np.all(ps > 0):
        raise AssertionError(f"{name}: expected {GRID} positive density values")
    _close(f"{name} grid", ys, np.linspace(*oracle.WINDOW, GRID), 1e-13)
    kv = _kernel_on(phi, psi, ys)
    if a_ref is None:
        ratio = ps / kv  # a trivial normalizer makes the density proportional to K
        if not (perturbed or (ratio.max() - ratio.min()) <= 1e-12 * ratio.mean()):
            raise AssertionError(f"{name}: density is not proportional to the kernel")
        return
    norm = a_ref + (np.array([oracle.cosgauss(float(y)) for y in ys]) if perturbed else 0.0)
    _close(f"{name} vs oracle", ps, norm * kv, TOL)


def _check_figures(cmd: Command, path: Path, ref):
    for name, (phi, psi, perturbed) in oracle.FIGURES.items():
        data = _csv(path / name, "y,density", 2)
        _check_curve(name, data, phi, psi, ref[name]["a_tilde"] if ref else None, perturbed)
    ys = np.linspace(*oracle.WINDOW, GRID)
    normal = _csv(path / "reference_normal.csv", "y,density", 2)
    _close("reference_normal.csv", normal[:, 1], np.exp(-0.5 * ys * ys) / math.sqrt(2 * math.pi), 1e-15)
    t3 = _csv(path / "reference_t3.csv", "y,density", 2)
    _close("reference_t3.csv", t3[:, 1], 2.0 / (math.sqrt(3.0) * math.pi * (1.0 + ys * ys / 3.0) ** 2), 1e-15)


def _check_density(cmd: Command, path: Path, ref):
    data = _csv(path, "y,density", 2)
    _check_curve(path.name, data, cmd.phi, cmd.psi, ref["a_tilde"] if ref else None,
                 cmd.perturb is not None)


def _check_sample(cmd: Command, path: Path, ref):
    from scipy.stats import kstwobign

    from chardisp import cli
    from chardisp.model import DispersionModel

    draws = _csv(path, "value", 1)[:, 0]
    lo, hi = oracle.WINDOW
    if draws.size != cmd.n or draws.min() < lo or draws.max() > hi:
        raise AssertionError(f"expected {cmd.n} draws inside [{lo}, {hi}]")
    # The model's numerical CDF: trapezoid rule on a fine grid, rescaled to 1.
    cfg = cli.build_config(cli.build_parser().parse_args(cmd.argv()))
    m: DispersionModel = cfg.model()
    xs = np.linspace(lo, hi, 400_001)
    ps = m.density(xs, cfg.mu)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (ps[1:] + ps[:-1]) * np.diff(xs))])
    cdf /= cdf[-1]
    fx = np.interp(np.sort(draws), xs, cdf)
    i = np.arange(1, draws.size + 1)
    stat = max(np.max(i / draws.size - fx), np.max(fx - (i - 1) / draws.size))
    pvalue = float(kstwobign.sf(stat * math.sqrt(draws.size)))
    if pvalue < KS_MIN_PVALUE:
        raise AssertionError(f"KS test against the model CDF: D={stat:.3g}, p={pvalue:.3g}")


_CHECKS = {
    "riesz": _check_riesz,
    "verify": _check_verify,
    "figures": _check_figures,
    "density": _check_density,
    "sample": _check_sample,
}


def check_output(cmd: Command, path: Path, ref) -> str:
    """Return '' when the output passes, else a one-line reason."""
    try:
        _CHECKS[cmd.sub](cmd, path, ref)
    except (AssertionError, OSError, ValueError, KeyError) as exc:
        return f"{cmd.name}: {exc}"
    return ""
