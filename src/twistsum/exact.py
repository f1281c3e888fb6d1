"""Exact arithmetic kernels.

Provides the scalar tower used everywhere else: arbitrary-precision
rationals (stdlib ``fractions.Fraction``), elements of the cyclotomic field
Q(zeta_k) in canonical form modulo the k-th cyclotomic polynomial, and dense
univariate polynomials with cyclotomic coefficients.  x enters every
generating function of the package only through the factor e^{xz}, so every
polynomial is assembled binomially from its numbers, its values at x = 0 (see
:mod:`twistsum.bernoulli_euler`).  There is no polynomial arithmetic: a
:class:`PolynomialX` is a value that is read, compared and evaluated.

Every number table is the reciprocal of an exponential generating function
(EGF) sum_n v_n z^n/n!, and is computed from the values v_n alone by
:func:`binomial_inverse`, the recurrence that makes the product of the two
EGFs equal to 1.  No runtime table multiplies two EGFs; the binomial
convolution that does is :func:`twistsum.oracles.binomial_convolve`.  The
truncated formal power series of :class:`TruncatedSeries` are the type of
the checks' independent references, not of any computed table.

A field product is the plain polynomial product of the two coordinate
vectors, reduced modulo Phi_k through a cached table of the integer rows
x^j mod Phi_k (Phi_k is monic with integer coefficients): each coefficient of
degree j >= phi(k) is added into the low coordinates along its row.  A sum
of products is reduced once: every product is added into one raw coordinate
list first (:func:`_sum_products`, which the EGF inverse uses).  A root of
unity zeta^e acts by rotating coordinates, moving the coordinate at zeta^i
to zeta^{(e+i) mod k}, so a sum of numbers times roots is one raw sum over
the k powers of zeta and one reduction, with no field product
(:func:`_root_sum`).  A single product is the same kernel on one term, and
a single root is the same rotation on one rational.  A polynomial is
evaluated at a rational p/q by Horner's rule on integer vectors, over the
common denominator of all its coordinates and the powers of q, with one
division per coordinate at the end
(:meth:`PolynomialX.eval_exact`): evaluation takes no field product and
builds no number until its value.

Nothing divides polynomials.  Phi_k is built in integers, by synthetic
division of x^k - 1 by the monic Phi_d of the proper divisors d of k.  The
field inverse is the product of the other Galois conjugates, taken in
integers in Z[x]/(x^k - 1), over the integer norm.

All values are immutable after construction and every operation is a pure
function, so objects may be shared freely between threads.  The only global
state is the memoized tables of cyclotomic polynomials, of their reduction
rows, of Euler's phi and of numeric roots of unity.  Each memo keeps its
latest 128 orders, so no sweep over k grows it without bound, and an evicted
table is rebuilt on its next use.

Every value lives in one field Q(zeta_k), the field of its twist's modulus
k, and no computation combines two cyclotomic fields.  Rationals are
scalars: an int, a Fraction or a rational-valued number acts coefficientwise
on a number of any order, and two irrational numbers of different orders do
not combine.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int]


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


@functools.lru_cache(maxsize=128)
def roots_of_unity(k: int) -> tuple[complex, ...]:
    """exp(2*pi*i*n/k) for n = 0..k-1: every numeric k-th root of unity is read here."""
    return tuple(cmath.exp(2j * cmath.pi * n / k) for n in range(k))


@functools.lru_cache(maxsize=128)
def euler_phi(k: int) -> int:
    if k < 1:
        raise ValueError("k must be positive")
    n, result, p = k, k, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


@functools.lru_cache(maxsize=128)
def _cyclotomic_coeffs(k: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_k: x^k - 1 divided by Phi_d for each proper divisor d of k.

    Each Phi_d is monic with integer coefficients, so every division is an
    integer synthetic division, and it must leave no remainder.  A divisor's
    Phi_d evicted from the memo is rebuilt by the same recursion.
    """
    if k < 1:
        raise ValueError("k must be positive")
    quot = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d:
            continue
        den = _cyclotomic_coeffs(d)
        m = len(den) - 1
        rem, quot = quot, [0] * (len(quot) - m)
        for i in range(len(quot) - 1, -1, -1):
            c = quot[i] = rem[i + m]
            if c:
                for j in range(m):
                    rem[i + j] -= c * den[j]
        if any(rem[:m]):
            raise ArithmeticError(f"cyclotomic division left a remainder for k={k}")
    return tuple(quot)


@functools.lru_cache(maxsize=128)
def _reduction_rows(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Sparse integer rows of x^j mod Phi_k for phi(k) <= j, through max(2 phi(k) - 2, k - 1).

    ``rows[j - phi]`` lists the pairs (i, c), c != 0, of x^j = sum c x^i
    modulo Phi_k.  The rows reach 2 phi - 2, the degree of a product of two
    reduced numbers, and k - 1, the degree of a raw sum over all k-th roots
    (``cyc_root``, ``_root_sum``).  Phi_k is monic with integer
    coefficients, so x^{j+1} = x * x^j folds its top term back with integers.
    """
    top = _cyclotomic_coeffs(k)
    phi = len(top) - 1
    fold = [-c for c in top[:phi]]  # x^phi = -sum_{i<phi} Phi_k[i] x^i
    rows = [fold]
    for _ in range(phi + 1, max(2 * phi - 2, k - 1) + 1):
        prev = rows[-1]
        lead = prev[-1]
        rows.append([lead * f + p for f, p in zip(fold, [0] + prev[:-1])])
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in rows)


def _reduce_mod_cyclotomic(coeffs: Sequence, k: int) -> tuple:
    """Canonical phi(k) coordinates of sum_j coeffs[j] x^j modulo Phi_k.

    Each coefficient of degree j >= phi is added into the low coordinates
    along the integer row x^j mod Phi_k of :func:`_reduction_rows`, so an
    entry of +-1 costs one addition and no division is done.  The input
    holds Fractions or ints and may have any length up to max(2 phi - 1, k).
    """
    phi = euler_phi(k)
    out = list(coeffs[:phi])
    out += [Fraction(0)] * (phi - len(out))
    if len(coeffs) > phi:
        rows = _reduction_rows(k)
        for j in range(phi, len(coeffs)):
            c = coeffs[j]
            if not c:
                continue
            for i, e in rows[j - phi]:
                if e == 1:
                    out[i] += c
                elif e == -1:
                    out[i] -= c
                else:
                    out[i] += e * c
    return tuple(out)


# ---------------------------------------------------------------------------
# cyclotomic field elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CyclotomicNumber:
    """An element of Q(zeta_k), reduced modulo Phi_k.

    ``coeffs`` has length phi(k) and holds the coordinates in the power basis
    1, zeta, zeta^2, ...  Two numbers of the same order combine by field
    arithmetic, and are equal when their representations are.  A rational
    (an int, a Fraction or a number whose value is rational) acts on a number
    of another order coefficientwise, from either side, and the result keeps
    that number's order.  Two irrational numbers of different orders do not
    combine: arithmetic raises TypeError and ``==`` is False.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be a positive integer")
        if len(self.coeffs) != euler_phi(self.order):
            raise ValueError(
                f"need {euler_phi(self.order)} coefficients for order {self.order}, "
                f"got {len(self.coeffs)}"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value: RationalLike, order: int = 1) -> CyclotomicNumber:
        q = as_fraction(value)
        coeffs = [Fraction(0)] * euler_phi(order)
        coeffs[0] = q
        return CyclotomicNumber(order, tuple(coeffs))

    @staticmethod
    def zero(order: int = 1) -> CyclotomicNumber:
        return CyclotomicNumber.from_rational(0, order)

    @staticmethod
    def one(order: int = 1) -> CyclotomicNumber:
        return CyclotomicNumber.from_rational(1, order)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def _scalar_pair(self, other):
        """(number, q) when one operand is a rational q that acts on the other, else None.

        For any pair other than two numbers of one order.  Of two rational
        numbers the one of lower order is q, so the result keeps the larger
        order.
        """
        if isinstance(other, (int, Fraction)):
            return self, other
        if not isinstance(other, CyclotomicNumber):
            return None
        if other.is_rational() and (other.order < self.order or not self.is_rational()):
            return self, other.coeffs[0]
        if self.is_rational() and (self.order < other.order or not other.is_rational()):
            return other, self.coeffs[0]
        return None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> CyclotomicNumber:
        if isinstance(other, CyclotomicNumber) and other.order == self.order:
            return CyclotomicNumber(self.order, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))
        pair = self._scalar_pair(other)
        if pair is None:
            return NotImplemented
        number, q = pair
        return CyclotomicNumber(number.order, (number.coeffs[0] + q,) + number.coeffs[1:])

    __radd__ = __add__

    def __neg__(self) -> CyclotomicNumber:
        return CyclotomicNumber(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> CyclotomicNumber:
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.__add__(-other)
        return NotImplemented

    def __rsub__(self, other) -> CyclotomicNumber:
        return (-self).__add__(other)

    def __mul__(self, other) -> CyclotomicNumber:
        if isinstance(other, CyclotomicNumber) and other.order == self.order:
            return _sum_products(((1, self, other),))
        pair = self._scalar_pair(other)
        if pair is None:
            return NotImplemented
        number, q = pair
        return CyclotomicNumber(number.order, tuple(c * q for c in number.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicNumber:
        """Field inverse: the product c of the other conjugates, over the norm.

        With L the common denominator of the coordinates, b = L a has integer
        coordinates.  sigma_j (zeta -> zeta^j) moves b's coordinate at zeta^i
        to zeta^{ij mod k}, so the conjugates sigma_j(b), j prime to k and
        j != 1, multiply out in integers in Z[x]/(x^k - 1), which Phi_k
        divides.  c is that product reduced modulo Phi_k, N = b c is the
        nonzero integer norm of b, and a^{-1} = c L / N.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if self.is_rational():
            return CyclotomicNumber.from_rational(1 / self.coeffs[0], self.order)
        k = self.order
        scale = math.lcm(*(c.denominator for c in self.coeffs))
        base = [(i, c.numerator * (scale // c.denominator)) for i, c in enumerate(self.coeffs) if c]

        def times_conjugate(left: list, j: int) -> list:
            out = [0] * k
            for i, b in base:
                shift = i * j % k
                for e, v in enumerate(left):
                    if v:
                        m = shift + e
                        out[m - k if m >= k else m] += v * b
            return out

        conj = [1] + [0] * (k - 1)
        for j in range(2, k):
            if math.gcd(j, k) == 1:
                conj = times_conjugate(conj, j)
        norm = _reduce_mod_cyclotomic(times_conjugate(conj, 1), k)
        if any(norm[1:]):
            raise ArithmeticError(f"the norm of {self} is not rational")
        return CyclotomicNumber(
            k, tuple(Fraction(c * scale, norm[0]) for c in _reduce_mod_cyclotomic(conj, k))
        )

    def __truediv__(self, other) -> CyclotomicNumber:
        if isinstance(other, CyclotomicNumber):
            return self.__mul__(other.inverse())
        if isinstance(other, (int, Fraction)):
            return self.__mul__(Fraction(1, other))
        return NotImplemented

    def __rtruediv__(self, other) -> CyclotomicNumber:
        return self.inverse().__mul__(other)

    def __pow__(self, exponent: int) -> CyclotomicNumber:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicNumber.one(self.order)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicNumber) and other.order == self.order:
            return self.coeffs == other.coeffs
        pair = self._scalar_pair(other)
        if pair is None:
            return NotImplemented
        number, q = pair
        return number.is_rational() and number.coeffs[0] == q

    def __hash__(self) -> int:
        # a rational number equals the Fraction of its value at every order
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    # -- numerics and serialization -----------------------------------------

    def embed(self) -> complex:
        """Numeric image under zeta_k -> exp(2*pi*i/k)."""
        roots = roots_of_unity(self.order)
        total = 0j
        for i, c in enumerate(self.coeffs):
            if c:
                total += float(c) * roots[i]
        return total

    def to_json_obj(self) -> dict:
        return {"k": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json_obj(obj: dict) -> CyclotomicNumber:
        return CyclotomicNumber(int(obj["k"]), tuple(parse_rational(c) for c in obj["coeffs"]))

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
                terms.append(f"{c!s}*{z}")
        return " + ".join(terms) if terms else "0"

    __repr__ = __str__


def _root_sum(k: int, terms: Iterable[tuple]) -> CyclotomicNumber:
    """sum zeta_k^e v over the pairs (e, v) of ``terms``, each v a rational or a number of order k.

    zeta^e v is v's coordinate vector moved e places modulo k: its coordinate
    at zeta^i is added into the raw coordinate of zeta^{(e + i) mod k}.  The
    raw sum over the powers 1, ..., zeta^{k-1} is reduced once modulo Phi_k,
    so the sum takes no field product.
    """
    raw = [Fraction(0)] * k
    for e, value in terms:
        if isinstance(value, CyclotomicNumber):
            if value.order != k:
                raise TypeError(f"a number of order {value.order} in a sum over the {k}-th roots")
            coords = value.coeffs
        else:
            coords = (value,)
        e %= k
        for i, c in enumerate(coords):
            if c:
                j = e + i
                raw[j - k if j >= k else j] += c
    return CyclotomicNumber(k, _reduce_mod_cyclotomic(raw, k))


def cyc_root(k: int, t: int) -> CyclotomicNumber:
    """zeta_k^t in canonical form (t reduced mod k, then mod Phi_k)."""
    if k < 1:
        raise ValueError("k must be positive")
    return _root_sum(k, ((t, Fraction(1)),))


# ---------------------------------------------------------------------------
# polynomials in a formal variable x over Q(zeta_k)
# ---------------------------------------------------------------------------

def _as_cyclotomic(value, order: int) -> CyclotomicNumber:
    """``value`` as a number of ``order``; a number of another order must be rational."""
    if isinstance(value, CyclotomicNumber):
        if value.order == order:
            return value
        if not value.is_rational():
            raise TypeError(f"a number of order {value.order} as a coefficient of order {order}")
        value = value.coeffs[0]
    return CyclotomicNumber.from_rational(value, order)


@dataclass(frozen=True, slots=True)
class PolynomialX:
    """Dense univariate polynomial with CyclotomicNumber coefficients.

    ``coeffs[i]`` is the coefficient of x^i; the tuple carries no trailing
    zeros, and the zero polynomial is the empty tuple.  A value type: it is
    built from its coefficients and then read or evaluated, never combined.
    """

    order: int
    coeffs: tuple[CyclotomicNumber, ...]

    @staticmethod
    def from_coeffs(values: Sequence, order: int = 1) -> PolynomialX:
        """The polynomial sum_i values[i] x^i of the field Q(zeta_order).

        Each value is a rational or a number; a number of another order is
        re-expressed at ``order`` when it is rational, and raises TypeError
        when it is not.
        """
        cs = [_as_cyclotomic(v, order) for v in values]
        while cs and cs[-1].is_zero():
            cs.pop()
        return PolynomialX(order, tuple(cs))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> CyclotomicNumber:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return CyclotomicNumber.zero(self.order)

    def eval_exact(self, x: RationalLike) -> CyclotomicNumber:
        """The value at a rational x = p/q, by Horner's rule in integers, in Q(zeta_k).

        With L the common denominator of every coordinate of every
        coefficient c_i and d the degree, q^d L P(p/q) = sum_i (L c_i) p^i
        q^{d-i} has integer coordinates: Horner runs acc <- acc p +
        (L c_i) q^{d-i} on integer vectors, and each coordinate is divided
        once by L q^d.  No number is built until the value.
        """
        xq = as_fraction(x)
        if not self.coeffs:
            return CyclotomicNumber.zero(self.order)
        p, q = xq.numerator, xq.denominator
        scale = math.lcm(*(c.denominator for coeff in self.coeffs for c in coeff.coeffs))
        acc = [0] * len(self.coeffs[0].coeffs)
        q_power = 1
        for coeff in reversed(self.coeffs):
            lift = scale * q_power
            acc = [a * p + c.numerator * (lift // c.denominator) for a, c in zip(acc, coeff.coeffs)]
            q_power *= q
        denominator = scale * (q_power // q)
        return CyclotomicNumber(self.order, tuple(Fraction(a, denominator) for a in acc))

    def eval_complex(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c.embed()
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolynomialX):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and all(
            x == y for x, y in zip(self.coeffs, other.coeffs)
        )

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            term = f"({c})"
            if i == 1:
                term += "*x"
            elif i > 1:
                term += f"*x^{i}"
            parts.append(term)
        return " + ".join(parts)

    __repr__ = __str__


# @dataclass(frozen=True) replaces an in-class ``__hash__ = None`` with a field hash
PolynomialX.__hash__ = None  # type: ignore[assignment]


def cyclotomic_polynomial(k: int) -> PolynomialX:
    """The k-th cyclotomic polynomial Phi_k as a polynomial with rational coefficients."""
    return PolynomialX.from_coeffs(list(_cyclotomic_coeffs(k)), 1)


# ---------------------------------------------------------------------------
# truncated formal power series over Q(zeta_k)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TruncatedSeries:
    """Formal power series in z, truncated at order ``trunc`` (inclusive).

    ``coeffs[n]`` is the coefficient of z^n, a :class:`CyclotomicNumber` of
    order ``order``.  All ring operations agree with full formal-series
    arithmetic through order ``trunc``.
    """

    trunc: int
    order: int
    coeffs: tuple[CyclotomicNumber, ...]

    def __post_init__(self):
        if self.trunc < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(self.coeffs) != self.trunc + 1:
            raise ValueError("coefficient list must have length trunc+1")

    @staticmethod
    def from_coeffs(values: Sequence, trunc: int, order: int = 1) -> TruncatedSeries:
        cs = [_as_cyclotomic(v, order) for v in values[: trunc + 1]]
        cs += [CyclotomicNumber.zero(order)] * (trunc + 1 - len(cs))
        return TruncatedSeries(trunc, order, tuple(cs))

    @staticmethod
    def one(trunc: int, order: int = 1) -> TruncatedSeries:
        return TruncatedSeries.from_coeffs([1], trunc, order)

    @staticmethod
    def exp_linear(scale: RationalLike, trunc: int, order: int = 1) -> TruncatedSeries:
        """exp(scale*z) truncated, for a rational ``scale``."""
        sq = as_fraction(scale)
        coeffs = []
        power = Fraction(1)
        for n in range(trunc + 1):
            coeffs.append(power / math.factorial(n))
            power *= sq
        return TruncatedSeries.from_coeffs(coeffs, trunc, order)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        if (self.trunc, self.order) != (other.trunc, other.order):
            raise ValueError("series differ in truncation order or field")
        out = [CyclotomicNumber.zero(self.order)] * (self.trunc + 1)
        b_terms = [(j, bj) for j, bj in enumerate(other.coeffs) if not bj.is_zero()]
        for i, ai in enumerate(self.coeffs):
            if ai.is_zero():
                continue
            for j, bj in b_terms:
                if i + j > self.trunc:
                    break
                out[i + j] = out[i + j] + ai * bj
        return TruncatedSeries(self.trunc, self.order, tuple(out))

    def scale(self, factor) -> TruncatedSeries:
        return TruncatedSeries(self.trunc, self.order, tuple(c * factor for c in self.coeffs))

    def inverse(self) -> TruncatedSeries:
        """Multiplicative inverse through order ``trunc``.

        Requires a nonzero constant term; uses the standard recursion
        b_n = -b_0 * sum_{i=1..n} a_i b_{n-i}.
        """
        a0 = self.coeffs[0]
        if a0.is_zero():
            raise ValueError("constant term must be nonzero")
        inv0 = a0.inverse()
        neg_inv0 = -inv0
        terms = [(i, ai) for i, ai in enumerate(self.coeffs) if i and not ai.is_zero()]
        b = [inv0]
        for n in range(1, self.trunc + 1):
            acc = CyclotomicNumber.zero(self.order)
            for i, ai in terms:
                if i > n:
                    break
                acc = acc + ai * b[n - i]
            b.append(acc * neg_inv0)
        return TruncatedSeries(self.trunc, self.order, tuple(b))

    def coeff(self, n: int) -> CyclotomicNumber:
        return self.coeffs[n]

    def taylor_value(self, n: int) -> CyclotomicNumber:
        """n! times the z^n coefficient (the Taylor-convention value)."""
        return self.coeffs[n] * math.factorial(n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs


TruncatedSeries.__hash__ = None  # type: ignore[assignment]


def _sum_products(terms: Sequence[tuple]):
    """sum c a b over the triples (c, a, b) of ``terms``.

    c is an integer; a and b are Fractions or numbers of one order.  For
    numbers of order k every c a_i b_j is added into one raw coordinate
    list of degree 2 phi(k) - 2, which is reduced once modulo Phi_k: a sum of
    n products costs one reduction, not n.  Fractions are summed plainly.
    """
    if not isinstance(terms[0][1], CyclotomicNumber):
        return sum(a * b * c for c, a, b in terms)
    k = terms[0][1].order
    raw = [Fraction(0)] * (2 * euler_phi(k) - 1)
    for c, a, b in terms:
        if a.order != k or b.order != k:
            raise TypeError(f"numbers of orders {a.order} and {b.order} in a sum of order {k}")
        b_terms = [(j, bj) for j, bj in enumerate(b.coeffs) if bj]
        for i, ai in enumerate(a.coeffs):
            if ai:
                ai *= c
                for j, bj in b_terms:
                    raw[i + j] += ai * bj
    return CyclotomicNumber(k, _reduce_mod_cyclotomic(raw, k))


def binomial_inverse(values: Sequence) -> list:
    """The values of the reciprocal of sum_n values[n] z^n/n!, through the same order.

    out[n] = -values[0]^{-1} sum_{i<n} C(n, i) values[n-i] out[i], so that
    sum_{i<=n} C(n, i) values[n-i] out[i] is 1 at n = 0 and 0 beyond: the
    product of the two EGFs is 1.  The values are Fractions or numbers of one
    order; values[0] must be nonzero, and its inverse is the only field
    inverse taken.  Each sum over i is reduced once
    modulo Phi_k (:func:`_sum_products`) and then takes one field product by
    -values[0]^{-1}, so n outputs cost about 2n reductions.
    """
    inv0 = 1 / values[0]
    neg_inv0 = -inv0
    out = [inv0]
    for n in range(1, len(values)):
        acc = _sum_products([(math.comb(n, i), values[n - i], out[i]) for i in range(n)])
        out.append(acc * neg_inv0)
    return out
