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
walks -- and it is inverted once.  2^r times each Taylor value of that EGF
is an integer combination of the k-th roots of unity, so it is summed in
integers, one accumulator per power of zeta, reduced once modulo Phi_k and
scaled once by 2^{-r}.  The build sees the twist and the weights only
through the pairs (a, t a mod k) of :func:`_twist_pairs`, and the memo
of :mod:`twistsum.twisted_c`, from which its stars and exact integer orders
are read, is the same build at the conjugate twist.  The x-dependence of every generating function above
is the factor e^{xz} alone, so each polynomial is the binomial assembly of
its numbers,

    P_m(x) = sum_i C(m, i) P_{m-i} x^i.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (
    CyclotomicNumber,
    PolynomialX,
    RationalLike,
    _root_sum,
    as_fraction,
    binomial_inverse,
    cyc_root,
)


class SingularTwistError(ValueError):
    """Raised when a twist makes a generating-function factor singular at z=0."""


def _check_twist(k: int, t: int, a: int) -> None:
    """The admissibility rule of every entry: k >= 2 and k does not divide t*a.

    The factor 1 - zeta_k^{t a} e^{a z} of the generating function has a pole
    at z = 0 exactly when k | t*a, and k = 1 makes every factor singular.
    """
    if k < 2:
        raise ValueError("modulus k must be at least 2")
    if t * a % k == 0:
        raise SingularTwistError(
            f"singular twist: k={k} divides t*a = {t}*{a}, so weight {a} is inadmissible"
        )


def _twist_pairs(k: int, t: int, A) -> tuple[tuple[int, int], ...]:
    """The sorted pairs (a, t a mod k) of the weights, each checked by :func:`_check_twist`.

    A twisted product prod_l (1 - zeta^{t a_l} e^{a_l z}) depends on (t, A)
    only through these pairs, and not on their order, so they are the key of
    every build of one: the generalized Euler numbers here and, conjugated,
    the memo of :mod:`twistsum.twisted_c`.
    """
    A = _as_weights(A)
    for a in A:
        _check_twist(k, t, a)
    return tuple(sorted((a, t * a % k) for a in A))


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
        """True when e^{a j} != 1, i.e. k does not divide t*a (:func:`_check_twist`)."""
        try:
            _check_twist(self.k, self.t, a)
        except ValueError:
            return False
        return True


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

    def corners(self, N: Sequence[int]) -> list[tuple[tuple[int, ...], int, int]]:
        """(indices, A_S.(N_S+1), (-1)^{|S|}) for every subset S of the axes.

        These are the 2^r corner terms of inclusion-exclusion over the box
        0 <= M <= N; subsets come in bitmask order, the empty one first.  The
        limits are checked as by :meth:`dot_counts`, before any corner is made.
        """
        self._require_limits(N)
        r = len(self.entries)
        out = []
        for mask in range(1 << r):
            indices = tuple(i for i in range(r) if mask >> i & 1)
            shift = sum(self.entries[i] * (N[i] + 1) for i in indices)
            out.append((indices, shift, -1 if len(indices) % 2 else 1))
        return out

    def _require_limits(self, N: Sequence[int]) -> None:
        if len(N) != len(self.entries):
            raise ValueError("limits and weights must have the same length")
        if any(n < 0 for n in N):
            raise ValueError("limits must be nonnegative")

    def dot_counts(self, N: Sequence[int]) -> list[int]:
        """counts[d] = #{M : 0 <= M <= N, A.M = d} for d = 0..A.N.

        The coefficients of prod_i (1 - y^{a_i (N_i+1)})/(1 - y^{a_i}), built
        one axis at a time: multiplying by an axis's factor is a sliding-window
        sum of width N_i + 1 along each residue class mod a_i.  A class's
        window sums are its prefix sums P, held at their last value for the
        N_i places past the input, minus P taken N_i + 1 places back.
        """
        self._require_limits(N)
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
        _twist_pairs(twist.k, twist.t, self)


def _as_weights(A) -> WeightVector:
    if isinstance(A, WeightVector):
        return A
    return WeightVector(tuple(int(a) for a in A))


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials
# ---------------------------------------------------------------------------

def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0..B_n_max, the EGF inverse of (e^z - 1)/z, whose Taylor values are 1/(n+1).

    A fresh list, sliced from the memoized table B_0..B_{2^b - 1} with b the
    bit length of max(n_max, 15) (:func:`_bernoulli_table`): each table is
    built once for every order up to its length.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return list(_bernoulli_table(max(n_max, 15).bit_length())[: n_max + 1])


@functools.lru_cache(maxsize=128)
def _bernoulli_table(bits: int) -> tuple[Fraction, ...]:
    """B_0..B_{2^bits - 1}, every table a power-of-two length of at least 16."""
    return tuple(binomial_inverse([Fraction(1, n + 1) for n in range(1 << bits)]))


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
    """B_n(y) at a rational y = a/b, by Horner's rule in integers.

    With L and c_i the integer row of order n (:func:`_bernoulli_row`),
    B_n(a/b) = N / (L b^n), where N is the integer sum_i c_i a^i b^{n-i},
    accumulated by Horner's rule from i = n down.
    """
    a, b = y.numerator, y.denominator
    common, row = _bernoulli_row(n)
    acc, scale = 0, 1  # scale = b^{n-i}
    for i in range(n, -1, -1):
        acc *= a
        if row[i]:  # B_j = 0 for odd j >= 3
            acc += row[i] * scale
        scale *= b
    return Fraction(acc, common * (scale // b))


@functools.lru_cache(maxsize=128)
def _bernoulli_row(n: int) -> tuple[int, tuple[int, ...]]:
    """(L, (c_0, ..., c_n)) with L B_n(y) = sum_i c_i y^i, so c_i = C(n, i) L B_{n-i}.

    L is the common denominator of B_0..B_n, so every c_i is an integer.  A
    row depends on its order alone and is built once; the cache keeps the
    most recent 128 orders, so a sweep over high orders cannot grow it
    without bound.
    """
    numbers = bernoulli_numbers(n)
    common = math.lcm(*(c.denominator for c in numbers))
    return common, tuple(
        math.comb(n, i) * c.numerator * (common // c.denominator)
        for i, c in enumerate(reversed(numbers))
    )


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
# (and is not timed or counted) as a nested call of gen_euler_numbers; the
# memo of twisted_c, at the conjugate twist, is built on it too.
def _gen_euler_values(m_max: int, k: int, pairs) -> list[CyclotomicNumber]:
    """E_0..E_m_max: Taylor values of 2^r / prod_l (1 - zeta^{u_l} e^{a_l z}), pairs (a_l, u_l).

    ``pairs`` are the admissible pairs (a, t a mod k) of :func:`_twist_pairs`.
    The halved product 2^{-r} prod_l (1 - zeta^{u_l} e^{a_l z}) is expanded
    over the corner subsets S of the weights, the inclusion-exclusion that the
    closed form walks (``corners`` of the zero box): it equals
    2^{-r} sum_S (-1)^{|S|} zeta^{u_S} e^{d_S z} with d_S = sum_{l in S} a_l
    and u_S = sum_{l in S} u_l mod k, so its Taylor values are
    D_n = 2^{-r} sum_S (-1)^{|S|} zeta^{u_S} d_S^n.
    For each n the integers (-1)^{|S|} d_S^n are added into the accumulator
    of the power zeta^{u_S}; the k accumulators are reduced once
    modulo Phi_k (``exact._root_sum``) and each coordinate is scaled by
    2^{-r}, so no root of unity is built and no field product is taken.
    The numbers are the EGF inverse of the D_n, whose only field inverse is 1/D_0.
    """
    if m_max < 0:
        raise ValueError("truncation order must be nonnegative")
    scale = Fraction(1, 2 ** len(pairs))
    zero_box = WeightVector(tuple(a for a, _ in pairs)).corners((0,) * len(pairs))
    corners = [(sum(pairs[i][1] for i in S) % k, d, sign) for S, d, sign in zero_box]
    values = []
    for n in range(m_max + 1):
        residues = [0] * k
        for e, d, sign in corners:
            residues[e] += sign * d**n
        total = _root_sum(k, enumerate(residues))
        values.append(CyclotomicNumber(k, tuple(c * scale for c in total.coeffs)))
    return binomial_inverse(values)


def gen_euler_numbers(m_max: int, twist: TwistSpec, A) -> list[CyclotomicNumber]:
    """E_0(j,A_r)..E_m_max(j,A_r), the EGF inverse of 2^{-r} prod_l (1 - zeta^{t a_l} e^{a_l z})."""
    return _gen_euler_values(m_max, twist.k, _twist_pairs(twist.k, twist.t, A))


def gen_euler_poly(m: int, twist: TwistSpec, A) -> PolynomialX:
    """E_m(x, j; A_r), binomially assembled from E_0(j,A_r)..E_m(j,A_r)."""
    values = _gen_euler_values(m, twist.k, _twist_pairs(twist.k, twist.t, A))
    return _binomial_assembly(values, twist.k)
