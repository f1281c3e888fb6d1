"""Exact evaluation of multivariable twisted power sums.

The target quantity is the finite box sum

    sum_{M=0..N} (A.M + x)^s * zeta_k^{t (A.M)}

for positive integer weights A, limits N, rational x >= 0 and integer s >= 0.
``brute_sum`` sums the definition over the box, grouped by the dot value
A.M; ``closed_sum`` evaluates the inclusion-exclusion closed form over the
2^r corner subsets,

    (1/2^r) sum_{S} (-1)^{|S|} zeta^{t A_S.(N_S+1)} E_s(A_S.(N_S+1) + x, j; A_r),

with E_s the generalized Euler polynomial of the same twist.  Both paths are
exact, so equality is literal equality of canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bernoulli_euler import TwistSpec, WeightVector, _as_weights, gen_euler_poly
from .exact import CyclotomicNumber, RationalLike, _root_sum, as_fraction


@dataclass(frozen=True, slots=True)
class SumSpec:
    """A power-sum problem instance (weights, limits, shift, exponent, twist)."""

    A: WeightVector
    N: tuple[int, ...]
    x: Fraction
    s: int
    twist: TwistSpec

    def __post_init__(self):
        self.A._require_limits(self.N)
        if self.s < 0:
            raise ValueError("exponent s must be a nonnegative integer")
        if self.x < 0:
            raise ValueError("shift x must be nonnegative")
        self.A.require_admissible(self.twist)

    @staticmethod
    def of(A, N, x: RationalLike, s: int, k: int, t: int) -> SumSpec:
        return SumSpec(_as_weights(A), tuple(int(n) for n in N), as_fraction(x), s, TwistSpec(k, t))


def brute_sum(spec: SumSpec) -> CyclotomicNumber:
    """The multi-sum evaluated from its definition, one dot value at a time.

    Every term depends on M only through d = A.M, so the sum is
    sum_d count(d) (d + x)^s zeta^{t d} with count(d) the number of box points
    on that dot value (:meth:`WeightVector.dot_counts`).  With x = p/q the
    terms are accumulated as the integers count(d) (d q + p)^s, grouped by
    d mod k.  Each of the k accumulators is added into its power-basis
    coordinate zeta^{t d mod k}, the sum is reduced once modulo Phi_k and
    divided once by q^s: no root is built and no field product is taken.
    All arithmetic is exact, so the value does not depend on the order of
    the terms.
    """
    k = spec.twist.k
    p, q = spec.x.numerator, spec.x.denominator
    residue_acc = [0] * k
    for d, count in enumerate(spec.A.dot_counts(spec.N)):
        if count:
            residue_acc[d % k] += count * (d * q + p) ** spec.s
    return _root_sum(k, ((spec.twist.t * l, acc) for l, acc in enumerate(residue_acc))) / q**spec.s


def closed_sum(spec: SumSpec) -> CyclotomicNumber:
    """The inclusion-exclusion closed form; identical to :func:`brute_sum`.

    Each corner value E_s(shift + x) is multiplied by its root zeta^{t shift}
    as a rotation of its coordinates, and the 2^r signed corner values are
    added in one raw vector reduced once modulo Phi_k (``exact._root_sum``):
    the only field products are those of the Euler build.
    """
    return _closed_form(spec, trace=False)[0]


def closed_sum_trace(spec: SumSpec) -> list[dict]:
    """Per-subset decomposition of the closed form (for diagnostic output)."""
    return _closed_form(spec, trace=True)[1]


def _closed_form(spec: SumSpec, trace: bool) -> tuple[CyclotomicNumber, list[dict]]:
    """:func:`closed_sum` and, with ``trace``, :func:`closed_sum_trace` (else
    an empty list) from one Euler build and one evaluation per corner."""
    poly = gen_euler_poly(spec.s, spec.twist, spec.A)
    terms, rows = [], []
    for indices, shift, sign in spec.A.corners(spec.N):
        value = poly.eval_exact(shift + spec.x)
        terms.append((spec.twist.t * shift, value if sign > 0 else -value))
        if trace:
            rows.append({
                "subset": [i + 1 for i in indices],
                "argument": str(shift + spec.x),
                "sign": sign,
                "root_power": (spec.twist.t * shift) % spec.twist.k,
                "euler_value": value.to_json_obj(),
            })
    return _root_sum(spec.twist.k, terms) * Fraction(1, 2 ** len(spec.A)), rows


def alternating_sum(A, N, x: RationalLike, s: int) -> CyclotomicNumber:
    """Convenience wrapper for the (-1)^{A.M} twist (k=2, t=1).

    Every weight must be odd; an even weight makes (-1)^{a} = 1 and the
    corresponding generating factor singular, which :class:`SumSpec` refuses.
    """
    return closed_sum(SumSpec.of(A, N, x, s, 2, 1))
