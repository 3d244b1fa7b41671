"""Measure how well the normalizing functions actually normalize.

Three probes:

1. the convolution residual r(mu) = integral of a(y) K(mu - y) dy - 1,
   which is ~0 at the window center for the constant solution and drifts
   near the edges because of truncation;
2. the discrete Fourier route: solving the periodized convolution equation
   on the grid must reproduce the quadrature constant;
3. the same residual for a perturbed normalizer, where the gap is exactly
   the inner product of the perturbation with the translated kernel.
"""
import numpy as np

from chardisp import (
    CosineGaussian,
    DispersionModel,
    KernelSpec,
    Laplace,
    Normal,
    UnitDeviancePair,
    Window,
    convolution_residual,
    fft_deconvolve_check,
    normalization_check,
    perturbed_normalizer,
    trivial_normalizer,
)

window = Window(-20.0, 20.0, 4096)
k = KernelSpec(UnitDeviancePair(Normal(1.0), Normal(1.0)), 1.0)
norm = trivial_normalizer(k, window, tol=1e-10)

# --- residual across the window ---------------------------------------------

mus = np.array([0.0, 5.0, 10.0, 15.0, 18.0, 19.0])
res = convolution_residual(norm, k, mus, tol=1e-10)
print("normalization residual of the constant solution across the window:")
for mu, r in zip(mus, res):
    print(f"  mu={mu:5.1f}: residual={r:+.3e}")
print("truncation drift grows as mu approaches the window edge.")

# --- discrete Fourier cross-check -------------------------------------------

rep = fft_deconvolve_check(k, window)
print(f"\nFFT deconvolution: dc={rep.dc_value:.12f}  quadrature={norm.a_tilde:.12f}")
print(f"  relative gap: {abs(rep.dc_value / norm.a_tilde - 1.0):.2e}")
print(f"  guarded spectrum bins: {rep.n_guarded}")

# --- perturbed normalizer: residual = orthogonality defect ------------------

kL = KernelSpec(UnitDeviancePair(Laplace(1.0), Laplace(1.0)), 1.0)
wL = Window(-20.0, 20.0, 1024)
base = trivial_normalizer(kL, wL, tol=1e-10)
pert = perturbed_normalizer(base, CosineGaussian())
m_triv = DispersionModel(kL, base)
m_pert = DispersionModel(kL, pert)

print("\nresidual of the perturbed normalizer (laplace kernel, cosine-gaussian f):")
for mu in (0.0, 1.0, 2.5, 5.0):
    r_t = normalization_check(m_triv, mu, tol=1e-10)
    r_p = normalization_check(m_pert, mu, tol=1e-10)
    print(f"  mu={mu:4.1f}: trivial={r_t:+.3e}  perturbed={r_p:+.6f}  gap={r_p - r_t:+.6f}")
print("the gap is the inner product of f with the kernel translate: far from")
print("zero here, so this perturbation is not orthogonal to the translates on")
print("the truncated window, and the perturbed density needs rescaling before")
print("use as a probability density.")
