"""Dispersion models built from characteristic functions.

Pipeline: pick two catalog characteristic functions, form the unit
deviance d(y;mu) = (1 - phi(y-mu)) |psi(y-mu)|, exponentiate into a kernel
K = exp(-lam d), normalize on a finite window (constant solution, plus
optional perturbations), and probe the result: deviance axioms,
regularity, normalization residuals, Riesz frame bounds of kernel
translates, orthogonality defects, and rejection sampling.
"""

from .charfn import (
    Cauchy,
    CharFn,
    InvalidSpecError,
    Laplace,
    Normal,
    SymmetricNIG,
    SymmetricStable,
    from_dict,
)
from .deviance import (
    AxiomReport,
    RegularityReport,
    UnitDeviancePair,
    check_unit_deviance,
)
from .model import (
    Classification,
    DiagnosticsReport,
    DispersionModel,
    DomainError,
    EnvelopeError,
    classify,
    diagnostics,
    normalization_check,
    sample,
)
from .normalizer import (
    CosineGaussian,
    DeconvolutionReport,
    KernelSpec,
    NormalizerSpec,
    OddGaussian,
    Perturbation,
    PositivityError,
    TabulatedEven,
    Window,
    Zero,
    convolution_residual,
    fft_deconvolve_check,
    kernel_integral,
    perturbed_normalizer,
    trivial_normalizer,
)
from .quadrature import QuadratureError, QuadResult, integrate
from .riesz import (
    GramReport,
    TranslateSystem,
    gram_matrix,
    orthogonality_residual,
    rational_enumeration,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "Cauchy",
    "CharFn",
    "Classification",
    "CosineGaussian",
    "DeconvolutionReport",
    "DiagnosticsReport",
    "DispersionModel",
    "DomainError",
    "EnvelopeError",
    "GramReport",
    "InvalidSpecError",
    "KernelSpec",
    "Laplace",
    "Normal",
    "NormalizerSpec",
    "OddGaussian",
    "Perturbation",
    "PositivityError",
    "QuadratureError",
    "QuadResult",
    "RegularityReport",
    "SymmetricNIG",
    "SymmetricStable",
    "TabulatedEven",
    "TranslateSystem",
    "UnitDeviancePair",
    "Window",
    "Zero",
    "check_unit_deviance",
    "classify",
    "convolution_residual",
    "diagnostics",
    "fft_deconvolve_check",
    "from_dict",
    "gram_matrix",
    "integrate",
    "kernel_integral",
    "normalization_check",
    "orthogonality_residual",
    "perturbed_normalizer",
    "rational_enumeration",
    "sample",
    "trivial_normalizer",
]
