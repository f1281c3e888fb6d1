"""Every frozen dataclass of the package keeps its fields in slots, with no per-instance __dict__."""

import dataclasses
import importlib
import pkgutil
from fractions import Fraction

import twistsum
from twistsum.bernoulli_euler import TwistSpec, WeightVector
from twistsum.euler_maclaurin import EMResult, SmoothFunction
from twistsum.exact import CyclotomicNumber, PolynomialX, TruncatedSeries
from twistsum.powersum import SumSpec
from twistsum.twisted_c import CPolySpec
from twistsum.verify import PropertyResult
from twistsum.zeta import ContinuationReport, DecayReport, ZetaSpec


def frozen_dataclasses():
    for info in pkgutil.iter_modules(twistsum.__path__):
        module = importlib.import_module(f"twistsum.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and dataclasses.is_dataclass(value)
                and value.__dataclass_params__.frozen
            ):
                yield value


SAMPLES = [
    CyclotomicNumber.one(5),
    PolynomialX.from_coeffs([1, Fraction(1, 2)]),
    TruncatedSeries.one(3),
    TwistSpec(3, 1),
    WeightVector.of(1, 2),
    SumSpec.of((1, 2), (3, 4), Fraction(1, 2), 2, 3, 1),
    CPolySpec(2, 3, 1),
    SmoothFunction.exponential(0.5),
    EMResult(1j, 2j, 3j, 4j),
    ZetaSpec.of(0.5, 1.0, 3, 1, (1, 2)),
    ContinuationReport(1j, 1j, True, 2j, False),
    DecayReport(((1.0, 0.5), (2.0, 0.25)), -1.0, -0.5, False),
    PropertyResult("name", True),
]


def test_every_frozen_dataclass_has_a_sample():
    assert set(frozen_dataclasses()) == {type(value) for value in SAMPLES}


def test_instances_have_no_dict():
    for value in SAMPLES:
        assert "__slots__" in vars(type(value)), type(value)
        assert not hasattr(value, "__dict__"), type(value)
