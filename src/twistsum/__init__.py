"""Exact twisted/alternating power sums, twisted Euler-Maclaurin summation,
and generalized Euler-zeta asymptotics."""

from .bernoulli_euler import (
    SingularTwistError,
    TwistSpec,
    WeightVector,
    bernoulli_numbers,
    bernoulli_poly,
    classical_euler_numbers,
    classical_euler_poly,
    gen_euler_numbers,
    gen_euler_numbers_by_convolution,
    gen_euler_poly,
    gen_euler_poly_partition_check,
    periodic_bernoulli,
)
from .euler_maclaurin import (
    EMResult,
    SmoothFunction,
    check_derivative_consistency,
    em_sum_scaled,
    em_sum_unit,
    quad_remainder,
)
from .exact import (
    CyclotomicNumber,
    PolynomialX,
    TruncatedSeries,
    cyc_root,
    cyclotomic_polynomial,
    euler_phi,
    parse_rational,
)
from .powersum import (
    SumSpec,
    alternating_sum,
    brute_sum,
    closed_sum,
    closed_sum_trace,
    zero_box_check,
)
from .twisted_c import (
    CPolySpec,
    c_poly,
    c_star,
    c_star_multi,
    c_star_multi_gf_check,
    c_star_s,
    c_star_s_exact,
    c_tilde,
    em_constant,
    general_binomial,
    pochhammer,
)
from .zeta import (
    AccelerationError,
    ContinuationReport,
    DecayReport,
    ZetaSpec,
    decay_probe,
    finite_sum_asymptotic,
    finite_sum_direct,
    continuation_check,
    zeta_accelerated,
    zeta_asymptotic,
    zeta_direct,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
