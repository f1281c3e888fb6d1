"""Reference values computed apart from twistsum.

Nothing here imports ``twistsum``.  Exact values live in the group ring
Q[C_k] = Q[z]/(z^k - 1): a length-k vector whose entry j is the coefficient
of zeta_k^j.  Multiplying by a root of unity is a rotation, and the final
projection to Q(zeta_k) reduces each z^j modulo the cyclotomic polynomial
Phi_k with sympy.  Program values are compared after the same projection,
so a match is literal equality in Q(zeta_k).

An exact program value is handed to the checkers as ``(order, coeffs)``,
the power-basis coordinates of an element of Q(zeta_order); ``order`` must
divide the modulus of the problem.

Run ``python3 perfbench/refs.py`` to run the self-tests: each checker must
accept a value computed by the program and reject a corrupted copy.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

Exact = tuple  # (order, tuple of Fractions)


# sympy and mpmath load on first use, after the timed loop, so that the
# workload's peak resident memory holds the program and not its references

def _sympy():
    import sympy

    return sympy


def _mpmath():
    import mpmath

    mpmath.mp.dps = 25
    return mpmath


# ---------------------------------------------------------------------------
# Q(zeta_k) through the group ring and sympy's cyclotomic polynomial
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def power_table(k: int) -> tuple[tuple[int, ...], ...]:
    """Row j holds the coordinates of zeta_k^j mod Phi_k, for j in 0..k-1."""
    sympy = _sympy()
    z = sympy.Symbol("z")
    phi = sympy.Poly(sympy.cyclotomic_poly(k, z), z)
    deg = phi.degree()
    rows = []
    for j in range(k):
        rem = sympy.Poly(z**j, z).rem(phi).all_coeffs()[::-1]
        rows.append(tuple(int(c) for c in rem) + (0,) * (deg - len(rem)))
    return tuple(rows)


def project(raw: Sequence, k: int) -> tuple[Fraction, ...]:
    """Image in Q(zeta_k) of a group-ring vector, as power-basis coordinates."""
    table = power_table(k)
    out = [Fraction(0)] * len(table[0])
    for j, c in enumerate(raw):
        if c:
            for i, e in enumerate(table[j]):
                if e:
                    out[i] += c * e
    return tuple(out)


def lift(value: Exact, k: int) -> list[Fraction]:
    """Group-ring vector of a program value of order dividing k."""
    order, coeffs = value
    if k % order:
        raise ValueError(f"value of order {order} does not live in Q(zeta_{k})")
    step = k // order
    raw = [Fraction(0)] * k
    for i, c in enumerate(coeffs):
        raw[(i * step) % k] += Fraction(c)
    return raw


def same_exact(value: Exact, raw: Sequence, k: int) -> bool:
    return project(lift(value, k), k) == project(raw, k)


def rotate(vec: Sequence, e: int) -> list:
    """Multiply a group-ring vector by zeta^e."""
    k = len(vec)
    e %= k
    return list(vec[-e:]) + list(vec[:-e]) if e else list(vec)


def exact_from_json(obj) -> Exact:
    """Parse the CLI's exact serialization: "p/q" or {"k": ..., "coeffs": [...]}."""
    if isinstance(obj, str):
        return (1, (Fraction(obj),))
    return (int(obj["k"]), tuple(Fraction(c) for c in obj["coeffs"]))


# ---------------------------------------------------------------------------
# lattice sums, counted by dot value
# ---------------------------------------------------------------------------

def dot_counts(A: Sequence[int], N: Sequence[int]) -> np.ndarray:
    """counts[d] = number of M in the box 0 <= M <= N with A.M = d."""
    counts = np.ones(1, dtype=np.int64)
    for a, n in zip(A, N):
        axis = np.zeros(a * n + 1, dtype=np.int64)
        axis[::a] = 1
        counts = np.convolve(counts, axis)
    return counts


def box_sum_raw(A, N, x: Fraction, s: int, k: int, t: int) -> list[Fraction]:
    """sum_{0<=M<=N} (A.M + x)^s zeta_k^{t A.M} as a group-ring vector.

    Terms are grouped by residue of t*(A.M) mod k; with x = p/q every term is
    the integer (q d + p)^s over the shared denominator q^s.
    """
    p, q = x.numerator, x.denominator
    buckets = [0] * k
    counts = dot_counts(A, N)
    for d in np.flatnonzero(counts).tolist():
        buckets[(t * d) % k] += int(counts[d]) * (q * d + p) ** s
    den = q**s
    return [Fraction(b, den) for b in buckets]


def check_box_sum(value: Exact, A, N, x: Fraction, s: int, k: int, t: int) -> bool:
    return same_exact(value, box_sum_raw(A, N, x, s, k, t), k)


def box_sum_float(A, N, s: complex, x: float, k: int, t: int) -> tuple[complex, float]:
    """sum_{0<=M<=N} zeta_k^{t A.M} (A.M + x)^(-s), summed by dot value.

    Returns the value and the sum of absolute terms, the scale of the
    rounding error a term-by-term float sum may carry.
    """
    mpmath = _mpmath()
    counts = dot_counts(A, N)
    re, im, scale = [], [], []
    for d in np.flatnonzero(counts).tolist():
        size = int(counts[d]) * mpmath.power(mpmath.mpf(d) + x, -mpmath.mpmathify(s))
        term = mpmath.expjpi(mpmath.mpf(2 * ((t * d) % k)) / k) * size
        re.append(term.real)
        im.append(term.imag)
        scale.append(abs(size))
    return complex(mpmath.fsum(re), mpmath.fsum(im)), float(mpmath.fsum(scale))


# ---------------------------------------------------------------------------
# generalized Euler numbers and polynomials: the defining relation
# ---------------------------------------------------------------------------

def euler_relation_holds(values: Sequence[Exact], k: int, t: int, A) -> bool:
    """prod_l (1 - zeta^{t a_l} e^{a_l z}) * sum_m E_m z^m/m! == 2^r through z^m_max.

    ``values`` are E_0..E_m_max.  Products are binomial convolutions of
    Taylor values; the factor for weight a has Taylor values 1 - w and -w a^n,
    so applying it needs only rotations and integer binomial weights.
    """
    raws = [lift(v, k) for v in values]
    den = 1
    for raw in raws:
        for c in raw:
            den = math.lcm(den, c.denominator)
    G = [[int(c * den) for c in raw] for raw in raws]
    m_max = len(G) - 1
    for a in A:
        e = (t * a) % k
        nxt = []
        for n in range(m_max + 1):
            acc = [0] * k
            for i in range(n + 1):
                w = math.comb(n, i) * a**i
                for j, c in enumerate(G[n - i]):
                    if c:
                        acc[j] += w * c
            nxt.append([g - c for g, c in zip(G[n], rotate(acc, e))])
        G = nxt
    for n, raw in enumerate(G):
        target = [2 ** len(A) * den if n == 0 else 0] + [0] * (k - 1)
        if project(raw, k) != project(target, k):
            return False
    return True


def check_euler_numbers(values: Sequence[Exact], m_max: int, k: int, t: int, A) -> bool:
    return len(values) == m_max + 1 and euler_relation_holds(values, k, t, A)


def check_euler_poly(coeffs: Sequence[Exact], m: int, k: int, t: int, A) -> bool:
    """E_m(x) = sum_i C(m,i) E_{m-i} x^i: recover E_0..E_m and test the relation.

    ``coeffs`` lists the x^0.. coefficients; missing trailing ones are zero.
    """
    if len(coeffs) > m + 1:
        return False
    padded = list(coeffs) + [(1, (Fraction(0),))] * (m + 1 - len(coeffs))
    numbers = []
    for j in range(m + 1):
        order, cs = padded[m - j]
        numbers.append((order, tuple(Fraction(c) / math.comb(m, j) for c in cs)))
    return euler_relation_holds(numbers, k, t, A)


# ---------------------------------------------------------------------------
# C_{n,k}(x; a) from sympy Bernoulli polynomials
# ---------------------------------------------------------------------------

def c_poly_raw(n: int, k: int, a: int) -> list[list[Fraction]]:
    """sum_l B_n(x - l/k) zeta^{a l}: one group-ring vector per power of x."""
    sympy = _sympy()
    X = sympy.Symbol("X")
    bn = sympy.Poly(sympy.bernoulli(n, X), X, domain=sympy.QQ)
    out = [[Fraction(0)] * k for _ in range(n + 1)]
    for l in range(k):
        shifted = bn.shift(sympy.Rational(-l, k)).all_coeffs()[::-1]
        for i, c in enumerate(shifted):
            out[i][(a * l) % k] += Fraction(int(c.p), int(c.q))
    return out


def check_c_poly(coeffs: Sequence[Exact], n: int, k: int, a: int) -> bool:
    ref = c_poly_raw(n, k, a)
    if len(coeffs) > len(ref):
        return False
    zero = [Fraction(0)] * k
    return all(
        project(lift(coeffs[i], k) if i < len(coeffs) else zero, k) == project(ref[i], k)
        for i in range(len(ref))
    )


# ---------------------------------------------------------------------------
# zeta values with mpmath
# ---------------------------------------------------------------------------

def lerch_root(e: int, k: int, s, v):
    """Lerch Phi(zeta_k^e, s, v) = k^-s sum_j zeta_k^{e j} zeta_H(s, (j + v)/k).

    Splitting the index by residue mod k turns the twisted series into k
    Hurwitz zeta values; mpmath continues each one to every s != 1.
    """
    mpmath = _mpmath()
    s = mpmath.mpmathify(s)
    v = mpmath.mpf(v)
    total = mpmath.mpc(0)
    for j in range(k):
        total += mpmath.expjpi(mpmath.mpf(2 * ((e * j) % k)) / k) * mpmath.zeta(s, (j + v) / k)
    return total * mpmath.power(k, -s)


def _binomial_in_shifted(r: int, v) -> list:
    """Coefficients c_j with C(n + r - 1, r - 1) = sum_j c_j (n + v)^j."""
    mpmath = _mpmath()
    poly = [mpmath.mpf(1)]
    for i in range(1, r):
        shifted = [mpmath.mpf(0)] + poly  # times u = n + v
        const = [c * (i - v) for c in poly] + [mpmath.mpf(0)]
        poly = [p + q for p, q in zip(shifted, const)]
    return [c / math.factorial(r - 1) for c in poly]


def zeta_equal_weights(s: complex, x: float, k: int, t: int, a: int, r: int) -> complex:
    """Z(s, x) = 2^r sum_M zeta^{t A.M} (A.M + x)^-s for A = (a,) * r.

    The number of M with A.M = a n is C(n + r - 1, r - 1), a polynomial in
    n + x/a, so Z is a combination of r Lerch values.
    """
    mpmath = _mpmath()
    v = mpmath.mpf(x) / a
    s = mpmath.mpmathify(s)
    e = (t * a) % k
    total = mpmath.mpc(0)
    for j, c in enumerate(_binomial_in_shifted(r, v)):
        total += c * lerch_root(e, k, s - j, v)
    return complex(2**r * mpmath.power(a, -s) * total)


def zeta_partial_r1(s: complex, x: float, k: int, t: int, a: int, terms: int) -> complex:
    """2 sum_{n < L} zeta^{t a n} (a n + x)^-s with L = k * terms, via Lerch values."""
    mpmath = _mpmath()
    v = mpmath.mpf(x) / a
    L = k * terms
    e = (t * a) % k
    head = lerch_root(e, k, s, v) - mpmath.expjpi(mpmath.mpf(2 * ((e * L) % k)) / k) * lerch_root(
        e, k, s, v + L
    )
    return complex(2 * mpmath.power(a, -mpmath.mpmathify(s)) * head)


def euler_poly_value(m: int, x: Fraction) -> Fraction:
    """Classical E_m(x) from sympy; Z(-m, x) for k = 2, t = 1, A = (1,)."""
    sympy = _sympy()
    value = sympy.euler(m, sympy.Rational(x.numerator, x.denominator))
    return Fraction(int(value.p), int(value.q))


def close(u: complex, v: complex, rtol: float, scale: float = 1.0) -> bool:
    return abs(u - v) <= rtol * (scale + abs(v))


# ---------------------------------------------------------------------------
# twisted Euler-Maclaurin: the direct sum it must reproduce
# ---------------------------------------------------------------------------

def em_direct_poly(coeffs: Sequence[int], m: int, n: int, k: int, a: int) -> tuple[complex, float]:
    """sum_{r=m}^{n-1} sum_{l=1}^{k} zeta^{a l} f(r + l/k) for integer-coefficient f.

    Returns the value and the sum of absolute terms (the scale of a rounding
    tolerance).  Each residue class l is summed exactly first.
    """
    mpmath = _mpmath()
    deg = len(coeffs) - 1
    total, scale = 0j, 0.0
    for l in range(1, k + 1):
        exact = 0
        for r in range(m, n):
            u = r * k + l  # f(u / k) * k^deg is an integer
            exact += sum(c * u**i * k ** (deg - i) for i, c in enumerate(coeffs))
        part = Fraction(exact, k**deg)
        total += complex(mpmath.expjpi(mpmath.mpf(2 * ((a * l) % k)) / k)) * float(part)
        scale += abs(float(part))
    return total, scale


def em_direct_exp(alpha: float, m: int, n: int, k: int, a: int) -> tuple[complex, float]:
    """The same sum for f(x) = e^{alpha x}, each residue class a geometric series."""
    mpmath = _mpmath()
    alpha = mpmath.mpf(alpha)
    total, scale = mpmath.mpc(0), mpmath.mpf(0)
    for l in range(1, k + 1):
        part = mpmath.exp(alpha * (m + mpmath.mpf(l) / k)) * mpmath.expm1(alpha * (n - m)) / mpmath.expm1(alpha)
        total += mpmath.expjpi(mpmath.mpf(2 * ((a * l) % k)) / k) * part
        scale += abs(part)
    return complex(total), float(scale)


# ---------------------------------------------------------------------------
# self-tests: every checker accepts the program's value and rejects a corruption
# ---------------------------------------------------------------------------

def _bump(value: Exact, index: int = 0) -> Exact:
    order, coeffs = value
    cs = list(coeffs)
    cs[index] += 1
    return (order, tuple(cs))


def self_test() -> list[str]:
    """Return the names of checkers that failed to accept or to reject."""
    from twistsum import bernoulli_euler as be
    from twistsum import euler_maclaurin as em
    from twistsum import powersum as ps
    from twistsum import twisted_c as tc
    from twistsum import zeta as zt

    def ex(c) -> Exact:
        return (c.order, c.coeffs)

    bad: list[str] = []

    def expect(name: str, good: bool, corrupted: bool) -> None:
        if not good or corrupted:
            bad.append(name)

    A, N, x, s, k, t = (1, 2), (3, 2), Fraction(1, 3), 5, 5, 2
    v = ex(ps.closed_sum(ps.SumSpec.of(A, N, x, s, k, t)))
    expect("box_sum", check_box_sum(v, A, N, x, s, k, t), check_box_sum(_bump(v, 1), A, N, x, s, k, t))
    w = ex(ps.brute_sum(ps.SumSpec.of(A, N, x, s, k, t)))
    expect("brute_sum", check_box_sum(w, A, N, x, s, k, t), check_box_sum(_bump(w), A, N, x, s, k, t))

    nums = [ex(c) for c in be.gen_euler_numbers(6, be.TwistSpec(7, 3), (1, 2))]
    expect(
        "euler_numbers",
        check_euler_numbers(nums, 6, 7, 3, (1, 2)),
        check_euler_numbers(nums[:4] + [_bump(nums[4], 2)] + nums[5:], 6, 7, 3, (1, 2)),
    )
    poly = [ex(c) for c in be.gen_euler_poly(5, be.TwistSpec(4, 1), (1, 3)).coeffs]
    expect(
        "euler_poly",
        check_euler_poly(poly, 5, 4, 1, (1, 3)),
        check_euler_poly(poly[:2] + [_bump(poly[2])] + poly[3:], 5, 4, 1, (1, 3)),
    )
    cp = [ex(c) for c in tc.c_poly(tc.CPolySpec(6, 5, 2)).coeffs]
    expect("c_poly", check_c_poly(cp, 6, 5, 2), check_c_poly([_bump(cp[0], 3)] + cp[1:], 6, 5, 2))

    z = zt.zeta_accelerated(zt.ZetaSpec.of(0.75, 1.5, 3, 1, (1, 1)))
    ref = zeta_equal_weights(0.75, 1.5, 3, 1, 1, 2)
    expect("zeta_equal_weights", close(z, ref, 1e-8), close(z + 1e-6, ref, 1e-8))
    zd = zt.zeta_direct(zt.ZetaSpec.of(1.5, 0.5, 4, 1, (3,)), 50)
    ref = zeta_partial_r1(1.5, 0.5, 4, 1, 3, 50)
    expect("zeta_partial_r1", close(zd, ref, 1e-9), close(zd * (1 + 1e-7), ref, 1e-9))
    fd = zt.finite_sum_direct(zt.ZetaSpec.of(0.5, 1.0, 3, 2, (1, 2)), (20, 9))
    ref, scale = box_sum_float((1, 2), (20, 9), 0.5, 1.0, 3, 2)
    expect("box_sum_float", close(fd, ref, 1e-12, scale), close(fd + 1e-6, ref, 1e-12, scale))
    za = zt.zeta_accelerated(zt.ZetaSpec.of(-3, Fraction(1, 2), 2, 1, (1,)))
    ref = complex(euler_poly_value(3, Fraction(1, 2)))
    expect("euler_poly_value", close(za, ref, 1e-6), close(za + 1e-4, ref, 1e-6))

    f = em.SmoothFunction.from_poly_coeffs([1, 0, 2, 1])
    res = em.em_sum_unit(f, 0, 30, 6, 1, 2)
    ref, scale = em_direct_poly([1, 0, 2, 1], 0, 30, 6, 1)
    expect("em_direct_poly", close(res.total, ref, 1e-10, scale), close(res.total + 1, ref, 1e-10, scale))
    g = em.SmoothFunction.exponential(-0.05)
    res = em.em_sum_unit(g, 0, 40, 5, 2, 3)
    ref, scale = em_direct_exp(-0.05, 0, 40, 5, 2)
    expect("em_direct_exp", close(res.total, ref, 1e-10, scale), close(res.total + 1e-6, ref, 1e-10, scale))

    from twistsum import cli
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["sum", "--weights", "1,3", "--limits", "2,1", "--x", "1/2", "--s", "4", "--k", "8",
                  "--t", "3", "--method", "closed"])
    out = exact_from_json(json.loads(buf.getvalue())["closed"])
    args = ((1, 3), (2, 1), Fraction(1, 2), 4, 8, 3)
    expect("cli_sum", check_box_sum(out, *args), check_box_sum(_bump(out), *args))
    return bad


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    failed = self_test()
    print("self-test:", "ok" if not failed else "FAILED " + ", ".join(failed))
    sys.exit(1 if failed else 0)
