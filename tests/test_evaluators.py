"""The evaluation contract shared by every pointwise evaluator: a scalar in
gives a numpy float scalar (0-d, and a ``float``); an array in gives an
array of the same shape, equal bit for bit to the scalar calls."""
from dataclasses import dataclass

import numpy as np
import pytest

from chardisp.charfn import Cauchy, Laplace, Normal, SymmetricNIG, SymmetricStable
from chardisp.deviance import UnitDeviancePair, regularity_probe
from chardisp.model import DispersionModel
from chardisp.normalizer import (
    CosineGaussian,
    KernelSpec,
    NormalizerSpec,
    OddGaussian,
    TabulatedEven,
    Window,
    Zero,
)


@dataclass(frozen=True)
class PythonFloatNormal(Normal):
    """A family whose ``eval`` returns Python floats for scalar input."""

    family = "python_float_normal_test"

    def eval(self, t):
        out = super().eval(t)
        return float(out) if np.ndim(t) == 0 else out


CN = UnitDeviancePair(Cauchy(1.2), Normal(0.8))
PYTHON_FLOAT_PAIR = UnitDeviancePair(PythonFloatNormal(1.0), Cauchy(1.0))
KERNEL = KernelSpec(CN, 1.5)
TRIVIAL = NormalizerSpec(0.05, Window())
PERTURBED = NormalizerSpec(0.05, Window(), CosineGaussian(0.01, 2.0, 1.5))

EVALUATORS = {
    "normal": Normal(0.8).eval,
    "cauchy": Cauchy(1.2).eval,
    "laplace": Laplace(0.9).eval,
    "stable": SymmetricStable(0.7, 1.1).eval,
    "nig": SymmetricNIG(1.5, 0.5).eval,
    "zero": Zero().eval,
    "cosgauss": CosineGaussian().eval,
    "oddgauss": OddGaussian(0.5, 1.0).eval,
    "custom": TabulatedEven((0.0, 1.0, 2.5), (0.3, -0.1, 0.2)).eval,
    "deviance": lambda y: CN.deviance(y, 0.3),
    "deviance_python_float_member": lambda y: PYTHON_FLOAT_PAIR.deviance(y, 0.3),
    "kernel": KERNEL.eval,
    "normalizer_trivial": TRIVIAL.value,
    "normalizer_perturbed": PERTURBED.value,
    "density": lambda y: DispersionModel(KERNEL, PERTURBED).density(y, 0.5),
}

YS = np.linspace(-4.0, 4.0, 12).reshape(3, 4)


@pytest.mark.parametrize("name", EVALUATORS)
@pytest.mark.parametrize(
    "y", [0.7, 2, np.float64(-1.5), np.array(0.0)], ids=["float", "int", "float64", "0d"]
)
def test_scalar_in_numpy_float_scalar_out(name, y):
    out = EVALUATORS[name](y)
    assert np.ndim(out) == 0
    assert isinstance(out, float) and isinstance(out, np.floating)


@pytest.mark.parametrize("name", EVALUATORS)
def test_array_in_same_shape_out_equal_to_scalar_calls(name):
    ev = EVALUATORS[name]
    out = ev(YS)
    assert isinstance(out, np.ndarray)
    assert out.shape == YS.shape
    pointwise = np.array([ev(float(y)) for y in YS.flat]).reshape(YS.shape)
    assert out.tobytes() == pointwise.tobytes()


def test_kink_flag_is_a_python_bool():
    for pair in (CN, UnitDeviancePair(Normal(1.0), Normal(1.0))):
        assert type(regularity_probe(pair).kink_detected) is bool
