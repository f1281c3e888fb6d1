"""Exact evaluation of multivariable twisted power sums.

The target quantity is the finite box sum

    sum_{M=0..N} (A.M + x)^s * zeta_k^{t (A.M)}

for positive integer weights A, limits N, rational x >= 0 and integer s >= 0.
``brute_sum`` iterates the lattice; ``closed_sum`` evaluates the
inclusion-exclusion closed form over the 2^r corner subsets,

    (1/2^r) sum_{S} (-1)^{|S|} zeta^{t A_S.(N_S+1)} E_s(A_S.(N_S+1) + x, j; A_r),

with E_s the generalized Euler polynomial of the same twist.  Both paths are
exact, so equality is literal equality of canonical forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .bernoulli_euler import (
    SingularTwistError,
    TwistSpec,
    WeightVector,
    _as_weights,
    gen_euler_poly,
)
from .exact import CyclotomicNumber, RationalLike, as_fraction


@dataclass(frozen=True)
class SumSpec:
    """A power-sum problem instance (weights, limits, shift, exponent, twist)."""

    A: WeightVector
    N: tuple[int, ...]
    x: Fraction
    s: int
    twist: TwistSpec

    def __post_init__(self):
        if len(self.N) != len(self.A):
            raise ValueError("limits and weights must have the same length")
        if any(n < 0 for n in self.N):
            raise ValueError("limits must be nonnegative")
        if self.s < 0:
            raise ValueError("exponent s must be a nonnegative integer")
        if self.x < 0:
            raise ValueError("shift x must be nonnegative")
        self.A.require_admissible(self.twist)

    @staticmethod
    def of(A, N, x: RationalLike, s: int, k: int, t: int) -> SumSpec:
        return SumSpec(_as_weights(A), tuple(int(n) for n in N), as_fraction(x), s, TwistSpec(k, t))


def brute_sum(spec: SumSpec) -> CyclotomicNumber:
    """The multi-sum evaluated term by term over all prod(n_i + 1) lattice points.

    Terms are grouped by the residue of A.M mod k, so the hot loop is pure
    rational arithmetic; the k root-of-unity multiplications happen once at
    the end.  Exact rational addition is associative and commutative, so any
    partition of the index ranges (e.g. across threads) gives identical bits.
    """
    k = spec.twist.k
    residue_acc = [Fraction(0)] * k
    ranges = [range(n + 1) for n in spec.N]
    weights = spec.A.entries
    for M in itertools.product(*ranges):
        dot = sum(a * m for a, m in zip(weights, M))
        residue_acc[dot % k] += (dot + spec.x) ** spec.s
    total = CyclotomicNumber.zero(k)
    for res, acc in enumerate(residue_acc):
        if acc:
            total = total + spec.twist.root(res) * acc
    return total


def closed_sum(spec: SumSpec) -> CyclotomicNumber:
    """The inclusion-exclusion closed form; identical to :func:`brute_sum`."""
    poly = gen_euler_poly(spec.s, spec.twist, spec.A)
    total = CyclotomicNumber.zero(spec.twist.k)
    for _, shift, sign in spec.A.corners(spec.N):
        term = spec.twist.root(shift) * poly.eval_exact(shift + spec.x)
        total = total + (term if sign > 0 else -term)
    return total * Fraction(1, 2 ** len(spec.A))


def closed_sum_trace(spec: SumSpec) -> list[dict]:
    """Per-subset decomposition of the closed form (for diagnostic output)."""
    poly = gen_euler_poly(spec.s, spec.twist, spec.A)
    return [
        {
            "subset": [i + 1 for i in indices],
            "argument": str(shift + spec.x),
            "sign": sign,
            "root_power": (spec.twist.t * shift) % spec.twist.k,
            "euler_value": poly.eval_exact(shift + spec.x).to_json_obj(),
        }
        for indices, shift, sign in spec.A.corners(spec.N)
    ]


def zero_box_check(x: RationalLike, m: int, twist: TwistSpec, A) -> bool:
    """True iff the closed form with N = 0 collapses to x^m exactly."""
    A = _as_weights(A)
    spec = SumSpec(A, (0,) * len(A), as_fraction(x), m, twist)
    return closed_sum(spec) == as_fraction(x) ** m


def alternating_sum(A, N, x: RationalLike, s: int) -> CyclotomicNumber:
    """Convenience wrapper for the (-1)^{A.M} twist (k=2, t=1).

    Every weight must be odd; an even weight makes (-1)^{a} = 1 and the
    corresponding generating factor singular.
    """
    A = _as_weights(A)
    for a in A:
        if a % 2 == 0:
            raise SingularTwistError(
                f"inadmissible weight {a}: (-1)^{a} = 1 makes the generating factor singular"
            )
    return closed_sum(SumSpec(A, tuple(int(n) for n in N), as_fraction(x), s, TwistSpec.alternating()))
