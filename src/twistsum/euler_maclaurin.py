"""Twisted Euler-Maclaurin summation.

Evaluates the twisted lattice sum of a smooth function from endpoint
derivative data plus a quadrature remainder:

    sum_{r=m}^{n-1} sum_{l=1}^{k} zeta^{al} f(r + l/k)
        = sum_{l=1}^{q} C_{l,k}(a) (-1)^l / l! * [f^{(l-1)}(n) - f^{(l-1)}(m)]
        + (-1)^{q+1}/q! * integral_m^n C~_{q,k}(x;a) f^{(q)}(x) dx

with C_{l,k}(a) the periodic constants of :mod:`twistsum.twisted_c`.  The
outer index runs m..n-1 so that consecutive unit intervals telescope; the
scaled formulation sums zeta^{ar} g(r) over r = mk+1 .. nk and reduces to the
unit form under f(x) = g(kx).

The remainder integrand C~_{q,k}(.;a) is smooth between consecutive
multiples of 1/k and jumps there, so the integral is done cell by cell with
fixed-order Gauss-Legendre quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bernoulli_euler import _check_twist
from .exact import roots_of_unity
from .twisted_c import _PeriodicKernel, em_constant

# 16-point Gauss-Legendre rule on [-1, 1], the doubles of
# numpy.polynomial.legendre.leggauss(16) (tests compare them bit for bit)
_GL_NODES = [
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
]
_GL_WEIGHTS = [
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
]

_EXP_ORDERS = 12  # the highest derivative order of SmoothFunction.exponential


@dataclass(frozen=True, slots=True)
class SmoothFunction:
    """A function together with its derivatives f, f', ..., f^{(max_order)}."""

    evaluators: tuple[Callable[[float], complex], ...]

    @property
    def max_order(self) -> int:
        return len(self.evaluators) - 1

    def deriv(self, l: int) -> Callable[[float], complex]:
        if not 0 <= l <= self.max_order:
            raise ValueError(f"derivative order {l} not available (max {self.max_order})")
        return self.evaluators[l]

    def __call__(self, x: float) -> complex:
        return self.evaluators[0](x)

    @staticmethod
    def from_poly_coeffs(coeffs: Sequence) -> SmoothFunction:
        """Polynomial sum c_i x^i with exact derivative coefficient lists."""
        current = [float(c) for c in coeffs]
        if not current:
            current = [0.0]
        evaluators = []
        # one order past the degree, so q = deg+1 (identically zero) is available
        for _ in range(len(current) + 1):
            frozen = tuple(current)

            def ev(x: float, _c=frozen) -> complex:
                acc = 0.0
                for c in reversed(_c):
                    acc = acc * x + c
                return complex(acc)

            evaluators.append(ev)
            current = [i * c for i, c in enumerate(current)][1:] or [0.0]
        return SmoothFunction(tuple(evaluators))

    @staticmethod
    def exponential(alpha: float) -> SmoothFunction:
        """f(x) = e^{alpha x} with derivatives alpha^l e^{alpha x}; alpha must be finite."""
        if not math.isfinite(alpha):
            raise ValueError(f"exponential rate alpha must be finite, got {alpha!r}")
        return SmoothFunction(
            tuple(
                (lambda x, _l=l: complex(alpha**_l * math.exp(alpha * x)))
                for l in range(_EXP_ORDERS + 1)
            )
        )

    def rescaled(self, k: int) -> SmoothFunction:
        """The unit-interval counterpart f(x) = g(kx), with f^{(l)}(x) = k^l g^{(l)}(kx)."""
        return SmoothFunction(
            tuple(
                (lambda x, _l=l, _g=g: (k**_l) * _g(k * x))
                for l, g in enumerate(self.evaluators)
            )
        )


@dataclass(frozen=True, slots=True)
class EMResult:
    main_terms: complex
    remainder: complex
    total: complex
    direct: complex

    @property
    def abs_error(self) -> float:
        return abs(self.total - self.direct)


def quad_remainder(
    q: int, k: int, a: int, f_q: Callable[[float], complex], lo: float, hi: float
) -> complex:
    """(-1)^{q+1}/q! * integral of C~_{q,k}(x;a) f^{(q)}(x) over [lo, hi].

    Gauss-Legendre of fixed order on each smoothness cell; cells are cut at
    the multiples of 1/k interior to the range.  The kernel has period 1, so
    on an aligned cell [j/k, (j+1)/k] its node values depend only on j mod k:
    the weight-times-kernel values are computed once per residue, on the first
    aligned cell that has it, and off-grid end cells evaluate the kernel
    directly.  Cells are visited one at a time and f^{(q)} is called node by
    node, so the working memory does not grow with the number of cells.
    """
    _check_twist(k, 1, a)
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    if lo == hi:
        return 0j
    kernel = _PeriodicKernel(q, k, a % k)
    tables: dict[int, list[complex]] = {}  # residue j mod k -> weight * kernel per node

    def cell(left: float, right: float, residue: Optional[int]) -> complex:
        half = (right - left) / 2.0
        mid = (right + left) / 2.0
        nodes = [mid + half * node for node in _GL_NODES]
        weighted = tables.get(residue)
        if weighted is None:
            weighted = [weight * kernel(x) for weight, x in zip(_GL_WEIGHTS, nodes)]
            if residue is not None:
                tables[residue] = weighted
        acc = 0j
        for wk, x in zip(weighted, nodes):
            acc += wk * f_q(x)
        return acc * half

    # interior cuts are j/k for first <= j < stop, none within 1e-12 of lo or hi
    first = math.floor(lo * k) + 1
    if first / k <= lo + 1e-12:
        first += 1
    stop = math.ceil(hi * k - 1e-12)
    if first >= stop:
        total = cell(lo, hi, None)
    else:
        total = cell(lo, first / k, (first - 1) % k if lo == (first - 1) / k else None)
        for j in range(first, stop - 1):
            total += cell(j / k, (j + 1) / k, j % k)
        total += cell((stop - 1) / k, hi, (stop - 1) % k if hi == stop / k else None)
    sign = 1.0 if (q + 1) % 2 == 0 else -1.0
    return sign * total / math.factorial(q)


# Shared by the two public forms so that em_sum_scaled does not run (and is
# not timed or counted) as a nested call of em_sum_unit.
def _main_and_remainder(
    f: SmoothFunction, m: int, n: int, k: int, a: int, q: int
) -> tuple[complex, complex]:
    """The unit form's main terms and remainder over [m, n]; every argument is checked first."""
    _check_twist(k, 1, a)
    if m >= n:
        raise ValueError("need m < n")
    if q < 1:
        raise ValueError("need q >= 1")
    if q > f.max_order:
        raise ValueError(f"q={q} exceeds available derivatives ({f.max_order})")

    main = 0j
    for l in range(1, q + 1):
        c = em_constant(l, k, a).embed()
        sign = 1.0 if l % 2 == 0 else -1.0
        main += c * sign / math.factorial(l) * (f.deriv(l - 1)(n) - f.deriv(l - 1)(m))
    return main, quad_remainder(q, k, a, f.deriv(q), m, n)


def em_sum_unit(
    f: SmoothFunction, m: int, n: int, k: int, a: int, q: int
) -> EMResult:
    """The unit-interval formulation over [m, n] with truncation depth q."""
    main, remainder = _main_and_remainder(f, m, n, k, a, q)
    table = roots_of_unity(k)
    roots = [table[a * l % k] for l in range(1, k + 1)]
    direct = 0j
    for r in range(m, n):
        for l in range(1, k + 1):
            direct += roots[l - 1] * f(r + l / k)
    return EMResult(main_terms=main, remainder=remainder, total=main + remainder, direct=direct)


def em_sum_scaled(
    g: SmoothFunction, m: int, n: int, k: int, a: int, q: int
) -> EMResult:
    """The scaled formulation: direct side sums zeta^{ar} g(r) over r = mk+1..nk.

    Main terms and remainder are those of the unit form under f(x) = g(kx),
    which is the defining reduction; only the direct sum is computed on the
    integer lattice.
    """
    main, remainder = _main_and_remainder(g.rescaled(k), m, n, k, a, q)
    roots = roots_of_unity(k)
    direct = 0j
    for r in range(m * k + 1, n * k + 1):
        direct += roots[a * r % k] * g(r)
    return EMResult(main_terms=main, remainder=remainder, total=main + remainder, direct=direct)
