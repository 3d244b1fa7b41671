"""Draw from a dispersion model and verify the draws against the density.

Rejection sampling proposes from a step envelope: the window is cut into
4096 equal cells, a cell is picked in proportion to its height times its
width, and a point is drawn uniformly inside it.  Each cell has its own
height and squeeze, the upper and lower bounds of the density over the
cell from the monotone characteristic functions and the perturbation's
own bounds, so the envelope follows the density's shape and most
proposals are accepted.  The density itself is rarely evaluated: a
proposal under its cell's squeeze is accepted, as the density would
accept it, and only the few others are decided by the density.
Proposal i reads the i-th uniform of three streams spawned from the
seed, so the draws are the first n accepted proposals of one sequence:
fewer draws are a prefix of more.  The draws are checked against the
numerically integrated distribution function.
"""
import numpy as np

from chardisp import (
    DispersionModel,
    KernelSpec,
    Normal,
    UnitDeviancePair,
    Window,
    sample,
    trivial_normalizer,
)

window = Window(-20.0, 20.0, 1024)
k = KernelSpec(UnitDeviancePair(Normal(1.0), Normal(1.0)), 1.0)
model = DispersionModel(k, trivial_normalizer(k, window, tol=1e-10))

n = 100_000
draws = sample(model, 0.0, n, seed=42)
print(f"{n} draws: mean={draws.mean():+.5f}  std={draws.std():.5f}")
print(f"mean-symmetry bound 4*std/sqrt(n) = {4 * draws.std() / np.sqrt(n):.5f}")

# empirical vs integrated distribution function
grid = np.linspace(window.lo, window.hi, 200_001)
dens = model.density(grid, 0.0)
cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
cdf /= cdf[-1]

xs = np.sort(draws)
fx = np.interp(xs, grid, cdf)
i = np.arange(1, n + 1)
ks = max(np.max(i / n - fx), np.max(fx - (i - 1) / n))
print(f"KS distance to the integrated distribution: {ks:.5f} "
      f"(1.95/sqrt(n) = {1.95 / np.sqrt(n):.5f})")

# determinism: the same seed reproduces the draws bit for bit
again = sample(model, 0.0, n, seed=42)
print("byte-identical rerun under the same seed:", np.array_equal(draws, again))
print("sample(n=1000) equals the first 1000 of these draws:",
      np.array_equal(sample(model, 0.0, 1000, seed=42), draws[:1000]))

# a coarse histogram shows the dip-and-shoulders shape of the density
edges = np.linspace(-20.0, 20.0, 21)
hist, _ = np.histogram(draws, bins=edges, density=True)
print("\ncoarse histogram vs density at bin centers:")
centers = 0.5 * (edges[1:] + edges[:-1])
for c, hval in zip(centers[::4], hist[::4]):
    print(f"  y={c:+6.1f}: empirical={hval:.5f}  density={model.density(float(c), 0.0):.5f}")
