"""Probe finite systems of kernel translates: Gram matrices, frame bounds,
and the orthogonality question for even perturbations.

The translates K(. - p) over rational points p form, in the idealized
infinite picture, a system whose synthesis operator is bounded above and
below.  Finite sections make those bounds computable exactly: they are the
extreme eigenvalues of the Gram matrix.  Because the kernel is strictly
positive, distinct translates overlap heavily, the off-diagonal entries
are large, and the empirical bounds spread far apart as points accumulate:
the tight (equal-bounds) idealization is measured here, not assumed.
"""
from chardisp import (
    CosineGaussian,
    KernelSpec,
    Laplace,
    OddGaussian,
    TranslateSystem,
    UnitDeviancePair,
    Window,
    Zero,
    gram_matrix,
    orthogonality_residual,
    rational_enumeration,
)

window = Window(-20.0, 20.0, 1024)
k = KernelSpec(UnitDeviancePair(Laplace(1.0), Laplace(1.0)), 1.0)

# --- the enumeration of translation points ---------------------------------

print("first 11 translation points:", rational_enumeration(11))

# --- nested Gram matrices and their eigen-bounds ----------------------------

points = rational_enumeration(8)
print("\nframe bounds of nested translate systems (laplace kernel, lam = 1):")
print(f"  {'n':>2}  {'lower':>12}  {'upper':>12}  {'lower/|K|^2':>12}  {'upper/|K|^2':>12}")
for n in (1, 2, 4, 8):
    rep = gram_matrix(TranslateSystem(k, tuple(points[:n]), window), tol=1e-10)
    ratios = rep.frame_bounds()
    print(f"  {n:>2}  {rep.min_eigenvalue:12.6f}  {rep.max_eigenvalue:12.6f}  "
          f"{ratios['lower_over_k_norm_sq']:12.6f}  {ratios['upper_over_k_norm_sq']:12.6f}")

rep8 = gram_matrix(TranslateSystem(k, tuple(points), window), tol=1e-10)
print(f"\n|K|^2 on the window: {rep8.k_norm_sq:.6f}")
print(f"largest off-diagonal inner product: {rep8.tight_claim_gap:.6f}")
print("the overlaps are nearly as large as the diagonal, so the finite")
print("systems are very far from tight: lower bounds collapse towards zero")
print("while upper bounds grow roughly like n * |K|^2.")

# --- orthogonality of perturbations to the translates -----------------------

print("\ninner products of perturbations with kernel translates:")
for name, f in [
    ("zero", Zero()),
    ("odd gaussian", OddGaussian(1.0, 2.0)),
    ("cosine gaussian", CosineGaussian()),
]:
    rho = orthogonality_residual(f, k, [0.0, 1.0, 5.0], tol=1e-10, window=window)
    vals = ", ".join(f"{r:+.6f}" for r in rho)
    print(f"  {name:>16}: rho(0), rho(1), rho(5) = {vals}")

print("\nonly parity makes the odd perturbation vanish at mu = 0; the even,")
print("nonnegative cosine-gaussian has strictly positive inner products with")
print("every translate of a positive kernel, so it is measurably not in the")
print("orthogonal complement of the translate span on the window.")
