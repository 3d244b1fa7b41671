"""Independent numerical oracles used to pin expected values.

Nothing here touches the package's adaptive quadrature or FFT paths; these
are deliberately dumb reference computations (midpoint Riemann sums,
cumulative trapezoids, direct Jacobi-style eigensolves via mpmath, the
rational enumeration in exact fractions, the three-transform discrete
deconvolution, the catalog's closed forms in 50-digit mpmath) so the two
routes can disagree when the library is wrong.
It also counts the frames a call enters in numpy's Python-level wrappers,
for the tests that keep them out of the quadrature's hot paths.
"""
from __future__ import annotations

import os
import sys

import numpy as np

# numpy's modules of Python-level wrappers around ufuncs and ndarray methods
# (np.repeat, np.clip, np.cumsum, np.flatnonzero, ndarray.sum/any/all...),
# by basename: numpy 1.x keeps them in numpy/core, 2.x in numpy/_core.
NUMPY_WRAPPER_FILES = ("fromnumeric.py", "numeric.py", "_methods.py")


def midpoint_integral(f, a: float, b: float, n: int = 10_000_000, chunk: int = 1_000_000) -> float:
    """Plain midpoint Riemann sum with n panels, evaluated in chunks."""
    h = (b - a) / n
    total = 0.0
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        xs = a + h * (np.arange(start, stop) + 0.5)
        total += float(np.sum(f(xs)))
    return total * h


def midpoint_convolution(f, g, mu: float, a: float, b: float, n: int = 4_000_000) -> float:
    """Midpoint value of the integral over [a, b] of f(y) g(mu - y) dy."""
    return midpoint_integral(lambda y: np.asarray(f(y)) * np.asarray(g(mu - y)), a, b, n=n)


def cumulative_cdf(density, a: float, b: float, n: int = 200_001):
    """Trapezoid CDF of an unnormalized density on [a, b].

    Returns (grid, cdf) with the cdf rescaled to end at exactly 1 so KS
    comparisons measure shape, not truncation mass.
    """
    xs = np.linspace(a, b, n)
    ps = np.asarray(density(xs), dtype=float)
    steps = 0.5 * (ps[1:] + ps[:-1]) * np.diff(xs)
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    return xs, cdf / cdf[-1]


def dense_minimum(f, a: float, b: float, n: int = 20_001, rounds: int = 8) -> float:
    """Smallest value of the vectorized f found on [a, b]: f on n equispaced
    points, then around every local minimum of those (and the smallest),
    ``rounds`` rounds that each evaluate f at 65 equispaced points over the
    two intervals beside the smallest value found there so far and narrow
    the intervals to the spacing of those points, 32-fold a round."""
    ys = np.linspace(a, b, n)
    vals = np.asarray(f(ys), dtype=float)
    inner = vals[1:-1]
    dips = (inner <= vals[:-2]) & (inner <= vals[2:]) & ((inner < vals[:-2]) | (inner < vals[2:]))
    centre = ys[np.union1d(np.flatnonzero(dips) + 1, [np.argmin(vals)])]
    h = np.full(centre.shape, ys[1] - ys[0])
    best = float(vals.min())
    for _ in range(rounds):
        t = np.clip(centre[:, None] + h[:, None] * np.linspace(-1.0, 1.0, 65), a, b)
        v = np.asarray(f(t), dtype=float)
        j = np.argmin(v, axis=1)
        centre, h = t[np.arange(t.shape[0]), j], h / 32.0
        best = min(best, float(v.min()))
    return best


def ks_statistic(samples: np.ndarray, grid: np.ndarray, cdf: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance of samples to a tabulated CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    fx = np.interp(xs, grid, cdf)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - fx), np.max(fx - (i - 1) / n)))


def eigvalsh_mpmath(matrix: np.ndarray, dps: int = 30) -> np.ndarray:
    """Symmetric eigenvalues through mpmath's independent dense solver."""
    import mpmath as mp

    with mp.workdps(dps):
        m = mp.matrix(matrix.tolist())
        eigs, _ = mp.eigsy(m)
        return np.array(sorted(float(e) for e in eigs))


def phi_mpmath(spec, t):
    """The closed form of a catalog characteristic function at ``t``, in
    mpmath at the working precision, from the spec's family and parameters
    alone (none of the package's ``eval``)."""
    import mpmath as mp

    p = {k: mp.mpf(v) for k, v in spec.params().items()}
    t = mp.mpf(t)
    if spec.family == "normal":
        return mp.exp(-(p["scale"] * t) ** 2 / 2)
    if spec.family == "cauchy":
        return mp.exp(-p["scale"] * abs(t))
    if spec.family == "laplace":
        return 1 / (1 + (p["scale"] * t) ** 2)
    if spec.family == "stable":
        return mp.exp(-abs(p["scale"] * t) ** p["alpha"])
    if spec.family == "nig":
        return mp.exp(p["delta"] * (p["alpha"] - mp.sqrt(p["alpha"] ** 2 + t ** 2)))
    raise KeyError(f"no closed form for family {spec.family!r}")


def origin_exponent_mpmath(spec, gap: float = 1e-12, dps: int = 50) -> float:
    """beta in 1 - phi(t) ~ c |t|^beta, measured in ``dps``-digit mpmath:
    h is bisected in log h until 1 - phi(h) is about ``gap``, and beta is
    log10((1 - phi(h)) / (1 - phi(h / 10))).  The gap is far above the
    working precision's rounding and far below 1, where the next term of
    1 - phi moves the ratio by about ``gap``, whatever the scale."""
    import mpmath as mp

    with mp.workdps(dps):
        lo, hi = mp.mpf(-60), mp.mpf(20)  # log10 h; 1 - phi is increasing on h > 0
        for _ in range(100):
            mid = (lo + hi) / 2
            if 1 - phi_mpmath(spec, mp.power(10, mid)) < gap:
                lo = mid
            else:
                hi = mid
        h = mp.power(10, hi)
        return float(mp.log10((1 - phi_mpmath(spec, h)) / (1 - phi_mpmath(spec, h / 10))))


def deviance_second_derivative_mpmath(pair, h: float = 1e-15, dps: int = 50) -> float:
    """d''(0) for d(t) = (1 - phi(t)) |psi(t)|, a central second difference
    of the closed forms at step h in ``dps``-digit mpmath: its truncation
    error is O(h^2) and its rounding 10^-dps / h^2, both far below a float's
    resolution."""
    import mpmath as mp

    with mp.workdps(dps):
        def d(t):
            return (1 - phi_mpmath(pair.phi, t)) * abs(phi_mpmath(pair.psi, t))

        h = mp.mpf(h)
        return float((d(h) - 2 * d(0) + d(-h)) / h ** 2)


def rational_enumeration_reference(n: int) -> list[float]:
    """The signed Calkin-Wilf enumeration 0, q1, -q1, q2, -q2, ... through
    exact ``Fraction`` arithmetic: q -> 1 / (2 floor(q) - q + 1) from q = 1."""
    from fractions import Fraction
    from math import floor

    out = [0.0]
    q = Fraction(1)
    while len(out) < n:
        out += [float(q), float(-q)]
        q = 1 / (2 * floor(q) - q + 1)
    return out[:n]


def fft_deconvolve_reference(kernel, lo: float, hi: float, n: int):
    """Solve dy * (a circ-conv K) = 1 on n periodic points of [lo, hi] with
    three transforms: the kernel's, the constant right-hand side's and the
    inverse of their quotient, with kernel bins below 1e-12 of the DC bin
    set to zero in the quotient.

    ``kernel`` is the elementwise kernel K.  Returns (solution, dc_value,
    n_guarded).
    """
    dy = (hi - lo) / n
    j = np.arange(n)
    khat = np.fft.fft(kernel(np.where(j <= n // 2, j, j - n) * dy))
    bhat = np.fft.fft(np.ones(n))
    guard = np.abs(khat) < 1e-12 * np.abs(khat[0])
    ahat = np.where(guard, 0.0, bhat / np.where(guard, 1.0, dy * khat))
    a = np.fft.ifft(ahat).real
    return a, float(ahat[0].real / n), int(guard.sum())


def numpy_wrapper_frames(call, files=NUMPY_WRAPPER_FILES, callers=None) -> int:
    """Python frames entered in numpy's modules named ``files`` (None: in
    any of numpy's modules) while ``call()`` runs, counted as ``call``
    events under ``sys.setprofile``.  With ``callers``, a collection of
    code objects, only the frames called directly from one of them count."""
    root = os.path.dirname(np.__file__) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        path = frame.f_code.co_filename
        if (event == "call" and path.startswith(root) and (files is None or os.path.basename(path) in files)
                and (callers is None or frame.f_back.f_code in callers)):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return count
