"""Independent numerical oracles used to pin expected values.

Nothing here touches the package's adaptive quadrature or FFT paths; these
are deliberately dumb reference computations (midpoint Riemann sums,
cumulative trapezoids, direct Jacobi-style eigensolves via mpmath, the
rational enumeration in exact fractions, the three-transform discrete
deconvolution) so the two routes can disagree when the library is wrong.
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
    nonconstancy, n_guarded).
    """
    dy = (hi - lo) / n
    j = np.arange(n)
    khat = np.fft.fft(kernel(np.where(j <= n // 2, j, j - n) * dy))
    bhat = np.fft.fft(np.ones(n))
    guard = np.abs(khat) < 1e-12 * np.abs(khat[0])
    ahat = np.where(guard, 0.0, bhat / np.where(guard, 1.0, dy * khat))
    a = np.fft.ifft(ahat).real
    return a, float(ahat[0].real / n), float(a.max() - a.min()), int(guard.sum())


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
