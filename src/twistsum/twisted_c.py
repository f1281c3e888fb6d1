"""Twisted Bernoulli-type values.

The basic object is

    C_{n,k}(x;a) = sum_{l=0}^{k-1} B_n(x - l/k) zeta_k^{a l},      k does not divide a,

together with its periodic companion C~_{n,k}(x;a) built from B_n({.}).
Two evaluations at x = 0 occur and they differ:

* the polynomial value C_{n,k}(0;a), which is what the generating function
  (z e^{xz}/(e^z-1)) * (e^{-z}-1)/(zeta^a e^{-z/k}-1) produces, and
* the periodic value C~_{n,k}(0;a), which is the constant that actually
  appears in the twisted Euler-Maclaurin formula (its l=1 case has the
  closed form -(1 + sum_q (q/k) zeta^{aq})).

The polynomial is assembled from its numbers C_{m,k}(0;a), m <= n, as every
polynomial in the package is: B_m(x + y) = sum_i C(m,i) B_{m-i}(y) x^i gives
C_{n,k}(x;a) = sum_i C(n,i) C_{n-i,k}(0;a) x^i, and each number is a sum of
Bernoulli values at the rationals -l/k.  No polynomial arithmetic is done.

``em_constant`` returns the periodic one, and the single-weight star
C*_{m,k}(a) = C_{m,k}(t a) a^{m-1} of ``c_star`` is built on it.
``c_star``, ``c_star_s`` and ``c_star_s_exact`` take the twist numerator t
of the root zeta^{t a} (default 1); the constant sees only t a, the weight
scaling a^{m-1} the raw weight.

The multinomial stars C*_{m,k}(A_r) and the complex-order combination
C*_{s,m,k}(x;A_r) that the zeta asymptotics need are read from one memo of
generalized Euler numbers, behind ``c_star_multi`` and the two evaluators
of the combination: ``c_star_s`` in floats and ``c_star_s_exact`` in
Q(zeta_k).  The float combination is one loop, ``_star_sum``: the stars
below C*_r are zero, so the factor (s-r+1)_r of every binomial C(s, j)
cancels out of it, and the sum has no pole.  ``c_star_s`` multiplies that
factor back, and the main term ``zeta.zeta_asymptotic``, whose prefactor
divides by it, does not, so it holds at every order.  ``_star_sum``
refuses an overflowing first power and a depth m > 171 before the memo is
read, so neither builds an entry.  The stars' generating function is the
generalized Euler one at the conjugate twist, so C*_j is E_{j-r}(k, -t; A_r)
scaled (``_stars``).

The memo (``_euler_memo``) keeps, for the latest 128 keys, one build of
those numbers by ``bernoulli_euler._gen_euler_values`` and the float image
of each nonzero star, which ``_star_sum`` reads with no exact arithmetic;
a star out of the float range keeps its OverflowError message instead,
so only ``_star_sum`` fails on it, and only where its sum reaches it.
The float images are of the stars and not of the numbers: at r = 1,
|E_i| = 2 k^i / (i+1) |C*_{i+1}|, so the numbers leave the float range at
a lower order than the stars.
Its key is the order, k and the sorted conjugate pairs (a, -t a mod k) of
``bernoulli_euler._twist_pairs``, so permuted weights and twists that agree
on every t a mod k share one entry.  The star table is a view:
``_periodic_stars`` scales the exact stars from the numbers when it is
called, and ``c_star_multi`` scales only the one number its star needs.
The exact readers, ``c_star_s_exact`` and the integer orders of
``zeta_accelerated``, call one reader, ``_euler_sum``, which reads the
numbers and sums them in one integer pass, and never scale a star.
``_euler_entry`` is the one gate of every memo read: it refuses m < 0 and
an inadmissible twist before the lookup.  The twist rule itself is
``bernoulli_euler._check_twist``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .bernoulli_euler import (
    _bernoulli_row,
    _bernoulli_value,
    _binomial_assembly,
    _check_twist,
    _gen_euler_values,
    _twist_pairs,
    periodic_bernoulli,
)
from .exact import (
    CyclotomicNumber,
    PolynomialX,
    RationalLike,
    _reduce_mod_cyclotomic,
    _root_sum,
    as_fraction,
    roots_of_unity,
)


@dataclass(frozen=True, slots=True)
class CPolySpec:
    """Index (n, k, a) with k >= 2 and k not dividing a."""

    n: int
    k: int
    a: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("degree index n must be nonnegative")
        _check_twist(self.k, 1, self.a)


def _c_number(m: int, k: int, a: int) -> CyclotomicNumber:
    """C_{m,k}(0;a) = sum_{l<k} zeta^{al} B_m(-l/k), exact."""
    return _root_sum(k, ((a * l, _bernoulli_value(m, Fraction(-l, k))) for l in range(k)))


def c_poly(spec: CPolySpec) -> PolynomialX:
    """C_{n,k}(x;a) as an exact polynomial over Q(zeta_k), assembled from its numbers."""
    return _binomial_assembly(
        [_c_number(m, spec.k, spec.a) for m in range(spec.n + 1)], spec.k
    )


def c_tilde(spec: CPolySpec, x: Union[RationalLike, float]) -> Union[CyclotomicNumber, complex]:
    """C~_{n,k}(x;a): exact cyclotomic for rational x, complex for float x."""
    if isinstance(x, (int, Fraction)):
        xq = as_fraction(x)
        return _root_sum(
            spec.k,
            ((spec.a * l, periodic_bernoulli(spec.n, xq - Fraction(l, spec.k))) for l in range(spec.k)),
        )
    return _periodic_kernel(spec.n, spec.k, spec.a % spec.k)(float(x))


class _PeriodicKernel:
    """Float evaluator for C~_{q,k}(x;a); smooth between consecutive j/k.

    Its callers (``c_tilde``, ``euler_maclaurin.quad_remainder``) check the twist.
    """

    def __init__(self, n: int, k: int, residue: int):
        self.n, self.k = n, k
        common, row = _bernoulli_row(n)
        self._bcoeffs = [c / common for c in row]  # correctly rounded C(n, i) B_{n-i}
        self._roots = [roots_of_unity(k)[residue * l % k] for l in range(k)]

    def _bern(self, x: float) -> float:
        frac = x - math.floor(x)
        acc = 0.0
        for c in reversed(self._bcoeffs):
            acc = acc * frac + c
        return acc

    def __call__(self, x: float) -> complex:
        total = 0j
        for l in range(self.k):
            total += self._roots[l] * self._bern(x - l / self.k)
        return total


@functools.lru_cache(maxsize=128)
def _periodic_kernel(n: int, k: int, residue: int) -> _PeriodicKernel:
    """The kernel for C~_{n,k}(.;a), keyed on residue = a % k; the latest 128 keys are kept.

    The kernel depends on a only through a % k, so callers must reduce a
    before the call: a raw a gives the same values but takes a second key.
    """
    return _PeriodicKernel(n, k, residue)


def em_constant(l: int, k: int, a: int) -> CyclotomicNumber:
    """The Euler-Maclaurin constant C_{l,k}(a) := C~_{l,k}(0;a)."""
    CPolySpec(l, k, a)  # validate before a is reduced mod k
    return _em_constant(l, k, a % k)


@functools.lru_cache(maxsize=128)
def _em_constant(l: int, k: int, residue: int) -> CyclotomicNumber:
    """:func:`em_constant`, keyed and bounded like :func:`_periodic_kernel`."""
    return c_tilde(CPolySpec(l, k, residue), Fraction(0))


def c_star(m: int, k: int, a: int, t: int = 1) -> CyclotomicNumber:
    """C*_{m,k}(a) = C_{m,k}(t a) * a^{m-1} (exact; m=0 divides by a)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return em_constant(m, k, t * a) * Fraction(a) ** (m - 1)


def _euler_entry(m_max: int, k: int, A, t: int = 1) -> tuple[tuple, tuple]:
    """The memo entry of the stars C*_{0..m_max,k}(A_r): E_0..E_{m_max-r}(k, -t; A_r) and star floats.

    The gate of every memo read: m_max and the twist are checked on every
    call, so a bad one raises before the lookup and is never cached.
    """
    if m_max < 0:
        raise ValueError("m must be nonnegative")
    pairs = _twist_pairs(k, t, A)
    return _euler_memo(m_max - len(pairs), k, tuple([(a, -u % k) for a, u in pairs]))


@functools.lru_cache(maxsize=128)
def _euler_memo(order: int, k: int, conjugate: tuple) -> tuple[tuple, tuple]:
    """E_0..E_order on the conjugate pairs (a, -t a mod k), and the (j, float) of each nonzero star.

    The numbers are one build of the private ``bernoulli_euler._gen_euler_values``,
    so the public Euler entries count no memo build and never read the memo.
    A negative order, a star depth below r, holds no number and only zero
    stars.  The float image of each star C*_j is ``embed`` of the exact
    star, taken once here; the latest 128 keys are kept.  A star out of the
    float range keeps the message of the OverflowError that ``embed`` raised
    in place of its image, so an exact reader of the entry never fails on
    it, and ``_star_sum`` raises that error when its sum reaches the star.
    Every build pays for the images, also one that only the exact readers
    read; scaling and embedding the stars is about 1% of the Euler build
    (3.6 of 472 ms at order 120, k = 7, A = (2, 3)).
    """
    numbers = tuple(_gen_euler_values(order, k, conjugate)) if order >= 0 else ()
    images = []
    for j, star in enumerate(_stars(numbers, k, len(conjugate))):
        if star.is_zero():
            continue
        try:
            images.append((j, star.embed()))
        except OverflowError as err:
            images.append((j, str(err)))
    return numbers, tuple(images)


def _stars(numbers, k: int, r: int) -> tuple[CyclotomicNumber, ...]:
    """C*_0, C*_1, ... from E_0, E_1, ... = E_n(k, -t; A_r).

    The stars' generating function is the Euler one at the conjugate twist:
    sum_j C*_j z^j/j! = prod_l z/(zeta^{-t a_l} e^{a_l z/k} - 1)
    = (-1)^r 2^{-r} z^r sum_n E_n(k, -t; A_r) (z/k)^n/n!, so

        C*_{j,k}(A_r) = (-1)^r j! / ((j-r)! 2^r k^{j-r}) E_{j-r}(k, -t; A_r),   j >= r,

    and C*_j = 0 for j < r.
    """
    return (CyclotomicNumber.zero(k),) * r + tuple(e * _star_scale(n, k, r) for n, e in enumerate(numbers))


def _star_scale(n: int, k: int, r: int) -> Fraction:
    """(-1)^r (n+r)! / (n! 2^r k^n), the factor of E_n in the star C*_{n+r} (:func:`_stars`)."""
    return Fraction((-1) ** r * math.factorial(n + r), math.factorial(n) * 2**r * k**n)


def _periodic_stars(m_max: int, k: int, A, t: int = 1) -> tuple[CyclotomicNumber, ...]:
    """[C*_{0,k}(A_r), ..., C*_{m_max,k}(A_r)] as a tuple, scaled from the memo's numbers.

    :func:`_euler_entry` refuses m_max < 0 and a bad twist first.
    """
    return _stars(_euler_entry(m_max, k, A, t)[0], k, len(A))[: m_max + 1]


def _euler_sum(
    m_max: int, k: int, A, t: int, degree: int, y: Fraction, rotation: int, scale: Fraction
) -> CyclotomicNumber:
    """scale zeta^rotation sum_i (-1)^i C(degree, i) E_i y^{degree-i}, the exact readers' one pass.

    The E_i are the memo's numbers of the stars C*_{0..m_max,k}(A_r), read
    through the gate :func:`_euler_entry`; with none (m_max < r) the sum is
    zero.  With y = p/q and L the common denominator of their coordinates,
    the coordinate at zeta^j of each L E_i is an integer; times
    (-1)^i C(degree, i) p^{degree-i} q^i it is added into the raw integer
    coordinate of zeta^{rotation + j}.  The raw sum is reduced once modulo
    Phi_k, and each coordinate is scaled once, by scale / (L q^degree).
    """
    numbers = _euler_entry(m_max, k, A, t)[0]
    if not numbers:
        return CyclotomicNumber.zero(k)
    p, q = y.numerator, y.denominator
    common = math.lcm(*[c.denominator for e in numbers for c in e.coeffs])
    raw = [0] * k
    for i, e in enumerate(numbers):
        weight = (-1) ** i * math.comb(degree, i) * p ** (degree - i) * q**i
        for j, c in enumerate(e.coeffs):
            if c:
                raw[(rotation + j) % k] += c.numerator * (common // c.denominator) * weight
    num, den = scale.numerator, scale.denominator * common * q**degree
    return CyclotomicNumber(k, tuple([Fraction(c * num, den) for c in _reduce_mod_cyclotomic(raw, k)]))


def c_star_multi(m: int, k: int, A) -> CyclotomicNumber:
    """C*_{m,k}(A_r): the memo's last number E_{m-r}, scaled as in :func:`_stars`; zero when m < r.

    :func:`_euler_entry` refuses m < 0 and a bad twist first.
    """
    numbers = _euler_entry(m, k, A)[0]
    if not numbers:
        return CyclotomicNumber.zero(k)
    r = len(A)
    return numbers[-1] * _star_scale(m - r, k, r)


# ---------------------------------------------------------------------------
# complex-order machinery
# ---------------------------------------------------------------------------

def pochhammer(s: complex, r: int) -> complex:
    """Rising factorial (s)_r = s (s+1) ... (s+r-1), with (s)_0 = 1.

    Computed as the explicit product, never via gamma quotients, so integer
    arguments at poles of gamma are unproblematic.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    acc: complex = 1.0
    for i in range(r):
        acc *= s + i
    return acc


def general_binomial(s: complex, j: int) -> complex:
    """Binomial coefficient C(s, j) = s (s-1) ... (s-j+1) / j! for complex s."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    return pochhammer(s - j + 1, j) / math.factorial(j)


def _star_sum(sigma: complex, m: int, k: int, y: float, A, t: int = 1, scale: complex = 1) -> complex:
    """scale sum_{r<=j<=m} (-k)^j sigma^(j-r falling)/j! C*_{j,k}(A_r) y^{sigma+r-j}, principal branch.

    The star combination C*_{sigma+r,m,k}(y;A_r) with its factor
    (sigma+1)_r cancelled from every binomial C(sigma+r, j), so it has no
    pole: ``c_star_s`` scales it by that factor and ``zeta.zeta_asymptotic``
    by its prefactor.  It reads the float image of each nonzero star from
    the memo entry, so a warm call does no exact arithmetic.  The refusals
    come in this order.  y must be positive.  When m >= r the first nonzero
    term, at C*_r, takes the power y^sigma; it is taken first, so an order
    at which it overflows raises that OverflowError.  A depth m > 171 is
    refused next: the term at C*_j divides by j!, which leaves the float
    range at j = 171, and a table this deep holds a nonzero star at j = 171
    or 172 on every key checked (k <= 12, r <= 3).  Neither of these builds
    a memo entry.  The terms are then taken in order of j, each as (-k)^j
    times its coefficient, times the star, times y^{sigma+r-j}, and the
    first of these steps to overflow raises: a star out of the float range
    raises the OverflowError of its ``embed``.  A non-finite scaled total
    raises ArithmeticError.
    """
    if not (y > 0):
        raise ValueError("x must be positive (principal branch)")
    r = len(A)
    if m >= r:
        complex(y) ** sigma  # the first term's power, which may overflow
    if m > 171:  # 171! > sys.float_info.max
        raise OverflowError("int too large to convert to float")
    total = 0j
    for j, image in _euler_entry(m, k, A, t)[1]:
        term = (-k) ** j * (pochhammer(sigma - (j - r) + 1, j - r) / math.factorial(j))
        if isinstance(image, str):  # the star is out of the float range
            raise OverflowError(image)
        total += term * image * complex(y) ** (sigma + r - j)
    total *= scale
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise ArithmeticError("non-finite value in C* evaluation")
    return total


def c_star_s(s: complex, m: int, k: int, x: float, A, t: int = 1) -> complex:
    """C*_{s,m,k}(x;A_r) = sum_{j<=m} (-k)^j C(s,j) C*_{j,k}(A_r) x^{s-j}.

    Principal branch for x^{s-j}; requires x > 0.  The stars below C*_r are
    zero, and C(s, j) = (s-r+1)_r (s-r)^(j-r falling)/j! for j >= r, so the
    value is (s-r+1)_r times the pole-free sum :func:`_star_sum` at
    sigma = s - r, with its refusals.
    """
    r = len(A)
    return _star_sum(s - r, m, k, x, A, t, pochhammer(s - r + 1, r))


def c_star_s_exact(n: int, m: int, k: int, x: RationalLike, A, t: int = 1) -> CyclotomicNumber:
    """C*_{n,m,k}(x;A_r) exactly in Q(zeta_k), for integer order n >= m and rational x.

    The one exact evaluator of the star combination.  With the star scaling
    cancelled it is, for E_i = E_i(k, -t; A_r) read from the memo,

        k^r n! / (2^r (n-r)!) sum_{i <= m-r} (-1)^i C(n-r, i) E_i x^{n-r-i},

    and zero when m < r: one integer pass (:func:`_euler_sum`), one
    reduction modulo Phi_k and one scaling.  The gate refuses m < 0 and a
    bad twist also when m < r.
    """
    if n < m:
        raise ValueError("integer order n must be at least the truncation m")
    r = len(A)
    falling = math.prod(range(n - r + 1, n + 1))  # n!/(n-r)!; unlike math.perm, lets a negative n reach the gate
    return _euler_sum(m, k, A, t, n - r, as_fraction(x), 0, Fraction(k**r * falling, 2**r))
