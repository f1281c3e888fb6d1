"""Exact twisted/alternating power sums, twisted Euler-Maclaurin summation,
and generalized Euler-zeta asymptotics.

``import twistsum`` loads no submodule.  Each exported name is imported from
its defining module on first access (PEP 562), so a caller pays only for the
modules that the names it uses need.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: defining module -> the names exported from it
_EXPORTS = {
    "bernoulli_euler": (
        "SingularTwistError",
        "TwistSpec",
        "WeightVector",
        "bernoulli_numbers",
        "bernoulli_poly",
        "classical_euler_numbers",
        "classical_euler_poly",
        "gen_euler_numbers",
        "gen_euler_poly",
        "periodic_bernoulli",
    ),
    "euler_maclaurin": (
        "EMResult",
        "SmoothFunction",
        "em_sum_scaled",
        "em_sum_unit",
        "quad_remainder",
    ),
    "exact": (
        "CyclotomicNumber",
        "PolynomialX",
        "TruncatedSeries",
        "cyc_root",
        "cyclotomic_polynomial",
        "euler_phi",
        "parse_rational",
    ),
    "oracles": (
        "c_star_multi_gf_check",
        "check_derivative_consistency",
        "gen_euler_numbers_by_convolution",
        "gen_euler_poly_partition_check",
        "zero_box_check",
    ),
    "powersum": (
        "SumSpec",
        "alternating_sum",
        "brute_sum",
        "closed_sum",
        "closed_sum_trace",
    ),
    "twisted_c": (
        "CPolySpec",
        "c_poly",
        "c_star",
        "c_star_multi",
        "c_star_s",
        "c_star_s_exact",
        "c_tilde",
        "em_constant",
        "general_binomial",
        "pochhammer",
    ),
    "zeta": (
        "AccelerationError",
        "ContinuationReport",
        "DecayReport",
        "ZetaSpec",
        "continuation_check",
        "decay_probe",
        "finite_sum_asymptotic",
        "finite_sum_direct",
        "zeta_accelerated",
        "zeta_asymptotic",
        "zeta_direct",
    ),
}
#: the runtime modules, exported under their own names
_SUBMODULES = ("bernoulli_euler", "euler_maclaurin", "exact", "powersum", "twisted_c", "zeta")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
