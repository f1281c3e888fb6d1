"""Bernoulli numbers/polynomials and (generalized) Euler numbers/polynomials.

The classical objects come from the generating functions z/(e^z - 1),
z e^{xz}/(e^z - 1), 2/(e^z + 1) and 2 e^{xz}/(e^z + 1).  The generalized
Euler numbers E_m(j, A_r) and polynomials E_m(x, j; A_r) attach a root-of-
unity twist e^{a j} to each of r denominator factors:

    2^r e^{xz} / prod_l (1 - zeta^{t a_l} e^{a_l z}),   zeta = zeta_k, j = 2*pi*i*t/k.

Values are m!-scaled Taylor coefficients (the sum E_m z^m/m! convention), and
E_0 is whatever the generating function produces at z = 0 -- it is not forced
to 1.  Twists are restricted to roots of unity so that every coefficient lives
in Q(zeta_k) and all identities can be checked exactly.

Every table of numbers is the reciprocal of an exponential generating
function (EGF) sum_n v_n z^n/n!, computed from the Taylor values v_n by the
binomial recurrence :func:`twistsum.exact.binomial_inverse`; no series is
built.  For the generalized Euler numbers that EGF is the twisted product
expanded over the corner subsets S of the weights,
2^{-r} sum_S (-1)^{|S|} zeta^{t d_S} e^{d_S z} with d_S = sum_{l in S} a_l --
the inclusion-exclusion that the closed form of :mod:`twistsum.powersum`
walks -- and it is inverted once.  The x-dependence of every generating
function above is the factor e^{xz} alone, so each polynomial is the binomial
assembly of its numbers,

    P_m(x) = sum_i C(m, i) P_{m-i} x^i.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (
    CyclotomicNumber,
    PolynomialX,
    RationalLike,
    as_fraction,
    binomial_convolve,
    binomial_inverse,
    cyc_root,
)


class SingularTwistError(ValueError):
    """Raised when a twist makes a generating-function factor singular at z=0."""


@dataclass(frozen=True, slots=True)
class TwistSpec:
    """The twist j = 2*pi*i*t/k; the alternating case is k=2, t=1."""

    k: int
    t: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        object.__setattr__(self, "t", self.t % self.k)

    @staticmethod
    def alternating() -> TwistSpec:
        return TwistSpec(2, 1)

    def root(self, power: int = 1) -> CyclotomicNumber:
        """zeta_k^(t*power) as an exact cyclotomic number."""
        return cyc_root(self.k, self.t * power)

    def admits(self, a: int) -> bool:
        """True when e^{a j} != 1, i.e. k does not divide t*a."""
        return (self.t * a) % self.k != 0


@dataclass(frozen=True, slots=True)
class WeightVector:
    """The positive integer weights A_r = (a_1, ..., a_r)."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise ValueError("weight vector must have at least one entry")
        if any(a < 1 for a in self.entries):
            raise ValueError("weights must be positive integers")

    @staticmethod
    def of(*entries: int) -> WeightVector:
        return WeightVector(tuple(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def corners(self, N: Sequence[int]):
        """Yield (indices, A_S.(N_S+1), (-1)^{|S|}) for every subset S of the axes.

        These are the 2^r corner terms of inclusion-exclusion over the box
        0 <= M <= N; subsets come in bitmask order, the empty one first.
        """
        r = len(self.entries)
        for mask in range(1 << r):
            indices = tuple(i for i in range(r) if mask >> i & 1)
            shift = sum(self.entries[i] * (N[i] + 1) for i in indices)
            yield indices, shift, -1 if len(indices) % 2 else 1

    def dot_counts(self, N: Sequence[int]) -> list[int]:
        """counts[d] = #{M : 0 <= M <= N, A.M = d} for d = 0..A.N.

        The coefficients of prod_i (1 - y^{a_i (N_i+1)})/(1 - y^{a_i}), built
        one axis at a time: multiplying by an axis's factor is a sliding-window
        sum of width N_i + 1 along each residue class mod a_i.  A class's
        window sums are its prefix sums P, held at their last value for the
        N_i places past the input, minus P taken N_i + 1 places back.
        """
        if len(N) != len(self.entries):
            raise ValueError("limits and weights must have the same length")
        if any(n < 0 for n in N):
            raise ValueError("limits must be nonnegative")
        counts = [1]
        for a, n in zip(self.entries, N):
            out = [0] * (len(counts) + a * n)
            for start in range(min(a, len(counts))):
                prefix = list(itertools.accumulate(counts[start::a]))
                window = prefix + [prefix[-1]] * n
                window[n + 1 :] = map(operator.sub, window[n + 1 :], prefix)
                out[start::a] = window
            counts = out
        return counts

    def admissible_for(self, twist: TwistSpec) -> bool:
        return all(twist.admits(a) for a in self.entries)

    def require_admissible(self, twist: TwistSpec) -> None:
        for a in self.entries:
            if not twist.admits(a):
                raise SingularTwistError(
                    f"singular twist: k={twist.k} divides t*a = {twist.t}*{a}"
                )


def _as_weights(A) -> WeightVector:
    if isinstance(A, WeightVector):
        return A
    return WeightVector(tuple(int(a) for a in A))


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials
# ---------------------------------------------------------------------------

_bernoulli_cache: list[Fraction] = []
_bernoulli_lock = threading.Lock()


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0..B_n_max, the EGF inverse of (e^z - 1)/z, whose Taylor values are 1/(n+1).

    The cache only grows, at least doubling, and is guarded by a lock, so
    concurrent callers see deterministic values.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    with _bernoulli_lock:
        if len(_bernoulli_cache) <= n_max:
            trunc = max(n_max, 2 * len(_bernoulli_cache), 8)
            _bernoulli_cache[:] = binomial_inverse([Fraction(1, n + 1) for n in range(trunc + 1)])
        return _bernoulli_cache[: n_max + 1]


def _binomial_assembly(numbers: Sequence, order: int = 1) -> PolynomialX:
    """sum_i C(m, i) numbers[m-i] x^i with m = len(numbers) - 1.

    The polynomial whose generating function is e^{xz} times the one of
    ``numbers``: the m!-scaled z^m coefficient of sum_n numbers[n] z^n/n! * e^{xz}.
    """
    m = len(numbers) - 1
    return PolynomialX.from_coeffs(
        [numbers[m - i] * math.comb(m, i) for i in range(m + 1)], order
    )


def bernoulli_poly(n: int) -> PolynomialX:
    """The degree-n Bernoulli polynomial, B_n(y) = sum_k C(n,k) B_{n-k} y^k."""
    return _binomial_assembly(bernoulli_numbers(n))


def _bernoulli_value(n: int, y: Fraction) -> Fraction:
    """B_n(y) at a rational y, by Horner over sum_i C(n, i) B_{n-i} y^i in rationals."""
    numbers = bernoulli_numbers(n)
    acc = Fraction(0)
    for i in range(n, -1, -1):
        acc *= y
        if numbers[n - i]:  # B_j = 0 for odd j >= 3
            acc += math.comb(n, i) * numbers[n - i]
    return acc


def periodic_bernoulli(n: int, x: RationalLike) -> Fraction:
    """B_n({x}) with {x} in [0,1) the fractional part (exact, rational x)."""
    xq = as_fraction(x)
    return _bernoulli_value(n, xq - math.floor(xq))


# ---------------------------------------------------------------------------
# classical Euler polynomials
# ---------------------------------------------------------------------------

def classical_euler_poly(n: int) -> PolynomialX:
    """E_n(x) from the generating function 2 e^{xz}/(e^z + 1)."""
    return _binomial_assembly(classical_euler_numbers(n))


def classical_euler_numbers(n_max: int) -> list[Fraction]:
    """E_0..E_n_max with E_n = E_n(0) (coefficients of 2/(e^z + 1)).

    The EGF inverse of (e^z + 1)/2, whose Taylor values are 1, 1/2, 1/2, ...
    """
    if n_max < 0:
        raise ValueError("truncation order must be nonnegative")
    return binomial_inverse([Fraction(1)] + [Fraction(1, 2)] * n_max)


# ---------------------------------------------------------------------------
# generalized Euler numbers and polynomials
# ---------------------------------------------------------------------------

# Shared by the two public builders so that a polynomial build does not run
# (and is not timed or counted) as a nested call of gen_euler_numbers.
def _gen_euler_values(m_max: int, twist: TwistSpec, A) -> list[CyclotomicNumber]:
    """E_0..E_m_max: Taylor values of 2^r / prod_l (1 - zeta^{t a_l} e^{a_l z}).

    The halved product 2^{-r} prod_l (1 - zeta^{t a_l} e^{a_l z}) is expanded
    over the corner subsets S of the weights, the inclusion-exclusion that the
    closed form walks (``corners`` of the zero box): it equals
    2^{-r} sum_S (-1)^{|S|} zeta^{t d_S} e^{d_S z} with d_S = sum_{l in S} a_l,
    so its Taylor values are D_n = 2^{-r} sum_S (-1)^{|S|} zeta^{t d_S} d_S^n.
    The numbers are the EGF inverse of the D_n, whose only field inverse is 1/D_0.
    """
    A = _as_weights(A)
    A.require_admissible(twist)
    if m_max < 0:
        raise ValueError("truncation order must be nonnegative")
    values = [CyclotomicNumber.zero(twist.k)] * (m_max + 1)
    for _, d, sign in A.corners((0,) * len(A)):
        root = twist.root(d) * Fraction(sign, 2 ** len(A))
        values = [v + root * d**n for n, v in enumerate(values)]
    return binomial_inverse(values)


def gen_euler_numbers(m_max: int, twist: TwistSpec, A) -> list[CyclotomicNumber]:
    """E_0(j,A_r)..E_m_max(j,A_r), the EGF inverse of 2^{-r} prod_l (1 - zeta^{t a_l} e^{a_l z})."""
    return _gen_euler_values(m_max, twist, A)


def gen_euler_poly(m: int, twist: TwistSpec, A) -> PolynomialX:
    """E_m(x, j; A_r), binomially assembled from E_0(j,A_r)..E_m(j,A_r)."""
    return _binomial_assembly(_gen_euler_values(m, twist, A), twist.k)


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
