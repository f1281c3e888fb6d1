"""Independent checks of the library's identities.

Each checker evaluates one identity of the paper by a second path and
returns whether it holds (exactly, or to a stated tolerance for floats):
the generalized Euler numbers by multinomial convolution of single weights,
the partition identity of the generalized Euler polynomials, the twisted
Bernoulli polynomials and the starred values against products of truncated
power series (one builder of each per-weight factor), the closed form on the
empty box, and the derivative evaluators of a smooth function.  The star
table by the multinomial convolution of per-weight tables of Bernoulli-value
sums (:func:`_star_table`) is the independent reference of the runtime's
table, which is read off the generalized Euler numbers.  The binomial
convolution itself (:func:`binomial_convolve`) lives here: no runtime table
multiplies two exponential generating functions.

Only :mod:`twistsum.verify` and the tests import this module; no runtime
module does, so a refactor of the code under check cannot merge an oracle
into it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .bernoulli_euler import (
    TwistSpec,
    WeightVector,
    _as_weights,
    gen_euler_numbers,
    gen_euler_poly,
)
from .euler_maclaurin import SmoothFunction
from .exact import (
    CyclotomicNumber,
    RationalLike,
    TruncatedSeries,
    _sum_products,
    as_fraction,
    cyc_root,
)
from .powersum import SumSpec, closed_sum
from .twisted_c import CPolySpec, _c_number, _periodic_stars, c_poly


def binomial_convolve(left: Sequence, right: Sequence) -> list:
    """out[m] = sum_i C(m, i) left[i] right[m-i], for m below the shorter length.

    This is the product of two exponential generating functions (EGFs)
    sum_m v_m z^m/m!, read back in the same convention, on Fractions or on
    numbers of one order.  Each out[m] is one sum of products, reduced once
    modulo Phi_k (``exact._sum_products``).
    """
    return [
        _sum_products([(math.comb(m, i), left[i], right[m - i]) for i in range(m + 1)])
        for m in range(min(len(left), len(right)))
    ]


def _c_star_nonperiodic(m: int, k: int, a: int, t: int) -> CyclotomicNumber:
    """C_{m,k}(0; t a) * a^{m-1}: the star built on the polynomial value."""
    return _c_number(m, k, t * a) * Fraction(a) ** (m - 1)


def _star_table(single, m_max: int, k: int, A, t: int) -> list[CyclotomicNumber]:
    """[C*_{0,k}(A_r), ..., C*_{m_max,k}(A_r)] from the stars single(l, k, a, t), uncached.

    Entry m is the sum over l_1+..+l_r = m of multinomial(m; l..) times
    prod_i single(l_i, k, a_i, t): the per-weight tables binomially convolved.
    ``_c_star_nonperiodic`` checks no twist, so its callers check it first.
    """
    tables = [[single(l, k, a, t) for l in range(m_max + 1)] for a in _as_weights(A)]
    return functools.reduce(binomial_convolve, tables)


def gen_euler_numbers_by_convolution(
    m_max: int, twist: TwistSpec, A
) -> list[CyclotomicNumber]:
    """Same values as :func:`gen_euler_numbers`, via the multinomial convolution
    over the single-entry weight vectors.  Exists as an independent cross-check
    path: E_m(j, A_r) = sum multinomial(m; l_1..l_r) prod_i E_{l_i}(j, a_i).
    """
    A = _as_weights(A)
    A.require_admissible(twist)
    acc = gen_euler_numbers(m_max, twist, WeightVector.of(A.entries[0]))
    for a in A.entries[1:]:
        acc = binomial_convolve(acc, gen_euler_numbers(m_max, twist, WeightVector.of(a)))
    return acc


def gen_euler_poly_partition_check(
    m: int,
    twist: TwistSpec,
    A,
    parts: Sequence[Sequence[int]],
    x_parts: Sequence[RationalLike],
) -> bool:
    """Check the partition identity for E_m(x, j; A_r) at rational points.

    ``parts`` must partition the entries of A (as a multiset) and ``x_parts``
    must have the same length; x = sum of x_parts.  The identity equates
    E_m(x, j; A_r) with the binomially weighted convolution of the
    E_{l_i}(x_i, j; A'_i).
    """
    A = _as_weights(A)
    part_vectors = [_as_weights(p) for p in parts]
    if len(part_vectors) != len(x_parts):
        raise ValueError("parts and x_parts must have the same length")
    merged = sorted(a for p in part_vectors for a in p.entries)
    if merged != sorted(A.entries):
        raise ValueError("parts do not form a partition of the weight vector")

    x_total = sum(as_fraction(xp) for xp in x_parts)
    lhs = gen_euler_poly(m, twist, A).eval_exact(x_total)

    values = [
        [gen_euler_poly(l, twist, p).eval_exact(as_fraction(xp)) for l in range(m + 1)]
        for p, xp in zip(part_vectors, x_parts)
    ]
    acc = values[0]
    for vals in values[1:]:
        acc = binomial_convolve(acc, vals)
    return acc[m] == lhs


def _twisted_exp(k: int, u: int, rate: int, trunc: int) -> TruncatedSeries:
    """zeta^u e^{rate w} - 1 through w^trunc.

    Its constant term zeta^u - 1 vanishes only when k divides u: u = 0 gives
    the numerator e^{rate w} - 1, an admissible u an invertible denominator.
    """
    root = cyc_root(k, u)
    coeffs = [root - CyclotomicNumber.one(k)]
    coeffs += [root * Fraction(rate**n, math.factorial(n)) for n in range(1, trunc + 1)]
    return TruncatedSeries.from_coeffs(coeffs, trunc, k)


def _closed_factor(k: int, a: int, u: int, trunc: int) -> TruncatedSeries:
    """[k w/(e^{akw}-1)] * [(e^{-akw}-1)/(zeta^u e^{-aw}-1)] through w^trunc.

    With w = z/k this is the per-weight factor
    [z/(e^{az}-1)] * [(e^{-az}-1)/(zeta^u e^{-az/k}-1)] of the twisted
    Bernoulli generating functions: working in w keeps the substitution
    z -> z/k inside integer-exponent series arithmetic.
    """
    stripped = TruncatedSeries.from_coeffs(  # (e^{akw}-1)/(akw)
        [Fraction((a * k) ** n, math.factorial(n + 1)) for n in range(trunc + 1)], trunc, k
    )
    numerator = _twisted_exp(k, 0, -a * k, trunc)  # e^{-akw}-1
    return stripped.inverse().scale(Fraction(1, a)) * numerator * _twisted_exp(k, u, -a, trunc).inverse()


def c_poly_gf_check(k: int, a: int, order_cap: int) -> bool:
    """Check C_{n,k}(x;a), n <= order_cap, against its generating function, exactly.

    The x-free part z/(e^z-1) * (e^{-z}-1)/(zeta^a e^{-z/k}-1) is the closed
    factor of weight 1 and twist a; e^{xz} is multiplied in at order_cap + 1
    distinct rational x = p/3 - 1, which fix every polynomial in x of
    degree <= order_cap.
    """
    x_free = _closed_factor(k, 1, a, order_cap)
    polys = [c_poly(CPolySpec(n, k, a)) for n in range(order_cap + 1)]
    for x in (Fraction(p, 3) - 1 for p in range(order_cap + 1)):
        product = x_free * TruncatedSeries.exp_linear(k * x, order_cap, k)
        for n, poly in enumerate(polys):
            if product.coeff(n) * Fraction(math.factorial(n), k**n) != poly.eval_exact(x):
                return False
    return True


def c_star_multi_gf_check(m_max: int, k: int, A) -> bool:
    """Cross-check the starred values against their generating functions.

    Two identities are verified through order ``m_max``, both exactly.  The
    periodic star table C*_{0..m_max,k}(A_r) (``twisted_c._periodic_stars``)
    must match the product of the per-weight series
    z/(zeta^{-a} e^{az/k} - 1); the multinomial convolution of the
    non-periodic stars must match the product of the closed factors
    (:func:`_closed_factor`, twist u = a)

        prod_p [z/(e^{a_p z}-1)] * [(e^{-a_p z}-1)/(zeta^{a_p} e^{-a_p z/k}-1)].

    Both products are built in w = z/k, and their coefficients rescaled afterwards.
    """
    A = _as_weights(A)
    periodic_stars = _periodic_stars(m_max, k, A)  # refuses m_max < 0 and a bad twist first
    trunc = m_max
    periodic_prod = closed_prod = TruncatedSeries.one(trunc, k)
    for a in A:
        # (k w)/(zeta^{-a} e^{aw} - 1)
        numerator = TruncatedSeries.from_coeffs([0, k], trunc, k)
        periodic_prod = periodic_prod * numerator * _twisted_exp(k, -a, a, trunc).inverse()
        closed_prod = closed_prod * _closed_factor(k, a, a, trunc)

    closed_stars = _star_table(_c_star_nonperiodic, m_max, k, A, 1)
    for m in range(m_max + 1):
        scale = Fraction(math.factorial(m), k**m)
        if periodic_prod.coeff(m) * scale != periodic_stars[m]:
            return False
        if closed_prod.coeff(m) * scale != closed_stars[m]:
            return False
    return True


def zero_box_check(x: RationalLike, m: int, twist: TwistSpec, A) -> bool:
    """True iff the closed form with N = 0 collapses to x^m exactly."""
    A = _as_weights(A)
    spec = SumSpec(A, (0,) * len(A), as_fraction(x), m, twist)
    return closed_sum(spec) == as_fraction(x) ** m


def check_derivative_consistency(
    f: SmoothFunction, points: Sequence[float], rtol: float = 1e-5
) -> bool:
    """Spot-check that evaluator l+1 is the derivative of evaluator l.

    Uses central differences with a step tuned for ~1e-8 truncation error;
    intended for randomized validation, not for every construction.
    """
    h = 1e-5
    for l in range(f.max_order):
        g, dg = f.deriv(l), f.deriv(l + 1)
        for x in points:
            approx = (g(x + h) - g(x - h)) / (2 * h)
            exact = dg(x)
            if abs(approx - exact) > rtol * (1 + abs(exact)):
                return False
    return True
