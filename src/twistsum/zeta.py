"""The generalized Euler-zeta function and its asymptotics.

For weights A_r, twist root zeta_k^t and shift x >= 0,

    Z(s, x) = 2^r sum_{M in Z_{>=0}^r} zeta^{t (A.M)} / (A.M + x)^s.

``s`` in :class:`ZetaSpec` is always this decay order; the summand exponent
of the polynomial formulations is sigma = -s.  ``zeta_direct`` evaluates the
blocked partial sum in the convergent regime, and ``_direct_value``, the
contract of ``zeta --method direct``, returns it only when its estimated
tail meets the tolerance, so a NaN tail or a non-finite sum is refused;
``zeta_accelerated`` evaluates the analytic continuation.  At an integer
order s = -m <= 0 the continuation is exact: it is the asymptotic main term
below at q = m + r, a polynomial of degree m in x, evaluated in Q(zeta_k)
from the memoized generalized Euler numbers at the conjugate twist and
embedded once, so its work depends on m, k and r and never on the period
lcm(k, A).  Every other order takes an iterated, twist-weighted Euler
transformation applied axis by axis over a fixed number of terms per axis
(``_ACCEL_TERMS``), which returns a value only within its tolerance.  A
stall is raised where it is measured: ``_accelerate`` builds the one
:class:`AccelerationError`, with its best estimate of Z on the outermost
axis and none on an inner one.

``zeta_asymptotic`` evaluates the closed-form main term

    Z(-sigma, x) ~ (-2)^r zeta^{-t A.1} / (k^r (sigma+1)_r)
                      * C*_{sigma+r, q, k}(x - A.1; A_r)

whose truncation error decays as x grows; it is exact for integer sigma >= 0
once q >= sigma + r.  The factor (sigma+1)_r cancels against the binomials
of the star combination, so the term is summed without it
(``twisted_c._star_sum``) and holds at every order, also in the convergent
half-plane Re s >= 1.  ``q`` is the depth of that float sum and nothing
else: an explicit ``q`` sums the float stars C*_{0..q,k}(A_r) to that depth,
and with ``q`` unset an integer order s = -m <= 0 takes the exact value, by
the one path of ``zeta_accelerated`` (``_exact_integer_order``), at every
shift, while every other order is refused, since no depth is guessed.  Those
stars do not depend on x; their float images are read from the bounded memo
of ``twisted_c``, so every shift of one (q, k, t, A) shares one exact build.
``finite_sum_asymptotic`` combines these main terms over the nonempty corner
subsets with an accelerated zeta term to approximate the exact finite box
sum; it evaluates the corner terms first, so each of their refusals comes
before the continuation's work, and when the continuation stalls it moves
that error's estimate through the corners and re-raises it.  At an integer
order with ``q`` unset each of those terms is exact and embedded once, but
they are added in floats, so the sum is the exact one up to that rounding
(at s = -2, x = 1/2, k = 3, t = 1, A = (1, 2) and N = (3, 4) its real part
is -17.875000000000032 for the exact -143/8).  ``decay_probe`` measures the
truncation at a fixed depth ``q``, which it requires, against the predicted
exponent Re(sigma) - q + 2; its limits probe evaluates the continuation
once, since Z(s, x) does not depend on the box.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .bernoulli_euler import TwistSpec, WeightVector, _as_weights, gen_euler_poly
from .exact import CyclotomicNumber, as_fraction, roots_of_unity
from .twisted_c import _euler_sum, _star_sum


class AccelerationError(RuntimeError):
    """Acceleration failed to reach the requested tolerance.

    ``best_estimate`` estimates the quantity the raising function returns, or
    is None when the stall left no such estimate (an inner axis).
    """

    def __init__(self, message: str, best_estimate: Optional[complex], achieved_tol: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_tol = achieved_tol


@dataclass(frozen=True, slots=True)
class ZetaSpec:
    """A zeta evaluation instance; ``s`` is the decay order of the terms."""

    s: complex
    x: float
    twist: TwistSpec
    A: WeightVector
    q: Optional[int] = None

    def __post_init__(self):
        if not (cmath.isfinite(self.s) and math.isfinite(self.x)):
            raise ValueError("decay order s and shift x must be finite")
        if self.x < 0:
            raise ValueError("shift x must be nonnegative")
        if self.q is not None and self.q < 1:
            raise ValueError("truncation depth q must be a positive integer")
        self.A.require_admissible(self.twist)

    @staticmethod
    def of(s, x, k: int, t: int, A, q: Optional[int] = None) -> ZetaSpec:
        return ZetaSpec(complex(s), float(x), TwistSpec(k, t), _as_weights(A), q)

    def with_x(self, x: float) -> ZetaSpec:
        return ZetaSpec(self.s, float(x), self.twist, self.A, self.q)

    def sigma(self) -> complex:
        """The summand exponent of the polynomial formulations: sigma = -s."""
        return -self.s


def _term_power(base: float, exponent: complex) -> complex:
    """base^exponent on the principal branch, with 0^0 = 1 and 0^positive = 0."""
    if base > 0:
        return complex(base) ** exponent
    if base == 0:
        if exponent == 0:
            return 1.0 + 0j
        if exponent.real > 0:
            return 0j
        raise ZeroDivisionError("zero denominator term: x = 0 makes the M = 0 term singular")
    raise ValueError("negative base off the principal branch")


def _scaled_powers(
    scales: Sequence[complex], shift: float, offsets: Iterable[int], exponent: complex
) -> list[complex]:
    """[c * _term_power(shift + o, exponent) for c, o in zip(scales, offsets)], bit for bit.

    The offsets are nonnegative integers.  For b > 0 and a real non-integer
    exponent p, complex(b) ** complex(p, 0) is (b ** p, +-0.0):
    hypot(b, 0) = b and atan2(0, b) = 0, and a complex times it is the same
    complex as times the float b ** p.  So with a positive shift such an
    order takes float powers.  An integer p is left to the complex power,
    which CPython takes by repeated squaring, and so are complex orders and
    the shift 0.  A float power that overflows falls back to the complex
    power, which raises the OverflowError with its own message.
    """
    if exponent.imag == 0 and not exponent.real.is_integer() and shift > 0:
        p = exponent.real
        try:
            return [c * (shift + o) ** p for c, o in zip(scales, offsets)]
        except OverflowError:
            pass
    return [c * _term_power(shift + o, exponent) for c, o in zip(scales, offsets)]


# ---------------------------------------------------------------------------
# direct blocked summation (convergent oracle)
# ---------------------------------------------------------------------------

# Shared by the two public direct sums so that zeta_direct does not run (and
# is not timed or counted) as a nested call of finite_sum_direct.
def _dot_sum(spec: ZetaSpec, N: Sequence[int]) -> complex:
    """sum_{0 <= M <= N} zeta^{t A.M} (A.M + x)^{-s}, one term per dot value d = A.M.

    Each term is weighted by the number of box points on its dot value
    (:meth:`WeightVector.dot_counts`), so the cost grows with A.N rather than
    with the number of points.  The powers are float powers at a real
    non-integer order with x > 0 and complex powers otherwise
    (:func:`_scaled_powers`).
    """
    k, t = spec.twist.k, spec.twist.t
    roots = roots_of_unity(k)
    counts = spec.A.dot_counts(N)
    dots = [d for d, count in enumerate(counts) if count]
    scales = [counts[d] * roots[t * d % k] for d in dots]
    total = 0j
    for term in _scaled_powers(scales, spec.x, dots, -spec.s):
        total += term
    return total


def zeta_direct(spec: ZetaSpec, terms_per_axis: int = 400) -> complex:
    """Blocked partial sum over complete groups of k consecutive indices per axis.

    Valid only in the convergent regime Re(s) > 0; root-of-unity cancellation
    inside each block makes the blocked tails absolutely summable there.  The
    box 0 <= M_i < k * terms_per_axis is summed by dot value, so its cost
    grows with k * terms_per_axis * sum(A), not with the number of points.
    At a real non-integer order with x > 0 the terms take float powers, bit
    for bit the complex power's values; integer and complex orders take the
    complex power.
    """
    if spec.s.real <= 0:
        raise ValueError("nonconvergent regime: use zeta_accelerated")
    if terms_per_axis < 1:
        raise ValueError("terms_per_axis must be a positive integer")
    if spec.x == 0:
        _term_power(0.0, -spec.s)  # raises: the M = 0 term is singular
    r = len(spec.A)
    limit = spec.twist.k * terms_per_axis
    return (2**r) * _dot_sum(spec, (limit - 1,) * r)


def _direct_value(spec: ZetaSpec, terms: int, tol: float) -> complex:
    """The blocked partial sum S(T) over T = ``terms`` blocks per axis, if it meets ``tol``.

    The direct contract of ``zeta --method direct``, which the verify suite
    checks.  The truncation error falls off like T^{-sigma}, sigma = Re s,
    so with T' = ceil(T/2) blocks the remaining tail is estimated as

        tail(T) = |S(T) - S(T')| / ((T/T')^sigma - 1).

    S(T) is returned when tail(T) <= tol (1 + |S(T)|); otherwise, also when
    either is NaN or infinite, an :class:`AccelerationError` carries S(T)
    and tail(T).  ``terms`` < 2 is refused before any sum.
    """
    if terms < 2:
        raise ValueError("--terms must be at least 2 for --method direct (the tail estimate halves it)")
    value = zeta_direct(spec, terms)
    half = -(-terms // 2)
    rate = spec.s.real * math.log(terms / half)  # (T/T')^sigma = e^rate, which may overflow
    drop = -math.expm1(-rate)  # 0 when rate underflows, at a subnormal sigma: no estimate
    tail = abs(value - zeta_direct(spec, half)) * math.exp(-rate) / drop if drop else math.inf
    if not tail <= tol * (1 + abs(value)):  # a NaN tail, or a non-finite sum, is refused too
        raise AccelerationError(
            f"direct sum over {terms} blocks per axis misses --tol {tol:g}: estimated tail "
            f"{tail:.3g} at Re s = {spec.s.real:g}; raise --terms or use --method accel",
            value,
            tail,
        )
    return value


# ---------------------------------------------------------------------------
# iterated twist-weighted Euler transformation
# ---------------------------------------------------------------------------

_ACCEL_TERMS = 56  # the terms per axis of the nested transformation


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")


def _accelerate(
    terms: Sequence[complex], w: complex, tol: float, scale: Optional[int]
) -> tuple[complex, float]:
    """Sum sum_n w^n g_n from the raw terms w^n g_n via iterated averaging.

    One pass maps partial sums S_i -> (S_{i+1} - w S_i)/(1 - w), which kills
    one polynomial order of the oscillating residue w^{i} rho(i); iterating
    yields the Abel/analytic value.  Only the last entry S^(p)_{n-1-p} of each
    pass p is read, and it depends only on the last p + 1 partial sums, so the
    passes are built from the tail: walking the partial sums backwards, a
    column keeps the latest entry of every pass, and the step at S_{n-1-p}
    yields pass p's last value.  Pass p thus costs p products, O(n + P^2) in
    all for P passes, with the same float operations as building every pass
    in full.  Convergence is declared when two successive pass values stay
    within ``tol * (1 + |value|)``; a pair that agrees only to the rounding
    noise of large partial sums does not count.  Returns (value, delta).  A
    stall is raised here, where it is measured: :class:`AccelerationError`
    carries the pass value with the least delta times ``scale`` (None when
    ``scale`` is None: the caller's value is no estimate) and that delta.
    """
    sums = list(itertools.accumulate(terms, initial=0j))[1:]
    best, best_delta = sums[-1], math.inf
    prev = None
    stable = 0
    denom = 1.0 - w
    column = [sums[-1]]  # column[p]: the latest entry built of pass p
    for j in range(len(sums) - 2, -1, -1):
        value = sums[j]
        for p, later in enumerate(column):
            column[p] = value
            value = (later - w * value) / denom
        column.append(value)
        if prev is not None:
            delta = abs(value - prev)
            if delta < best_delta:
                best, best_delta = value, delta
            if delta <= tol * (1.0 + abs(value)):
                stable += 1
                if stable >= 2:
                    return value, delta
            else:
                stable = 0
        prev = value
    raise AccelerationError(
        f"acceleration stalled at tolerance {best_delta:.3e} (requested {tol:.3e})",
        None if scale is None else scale * best,
        best_delta,
    )


def zeta_accelerated(spec: ZetaSpec, tol: float = 1e-10) -> complex:
    """The analytic continuation Z(s, x): exact at integer orders s = -m <= 0,
    and otherwise the iterated Euler transformation.

    At s = -m the value is computed exactly in Q(zeta_k), by one integer
    pass over the memoized Euler numbers of ``twisted_c``, and embedded once
    (:func:`_exact_main_term`); ``tol`` does not affect it, and its work
    depends on m, k and r only.  An order whose terms would overflow on the
    float path's box of ``_ACCEL_TERMS`` terms per axis is refused first,
    with the complex power's OverflowError.

    Every other order takes the nested transformation (:func:`_transform`).
    Re(s) may be nonpositive; polynomially growing blocked terms are the
    classical convergence regime of the transformation.  For r >= 2 the axes
    are accelerated one at a time, innermost first, each inner axis to a
    tenth of the tolerance of the axis around it.  At a real order with a
    positive shift the innermost terms take float powers, which give bit for
    bit the values of the complex power; complex orders, and the terms at
    shift 0, take the complex power.  An axis counts as converged when two
    successive pass values stay within its tolerance; otherwise
    :class:`AccelerationError` carries the best estimate and the error
    achieved.

    Raises ValueError before any work unless ``tol`` is finite and positive.
    """
    _require_tol(tol)
    exact = _exact_integer_order(spec)
    return _transform(spec, tol) if exact is None else exact


def _exact_integer_order(spec: ZetaSpec) -> Optional[complex]:
    """Z(-m, x) at an integer order s = -m <= 0, embedded once; None at every other order.

    The one integer-order path of the continuation and the main terms:
    :func:`zeta_accelerated` and, with ``q`` unset, :func:`zeta_asymptotic`
    (and so every term of :func:`finite_sum_asymptotic`) take it.  An order
    whose terms would overflow on the float path's box of ``_ACCEL_TERMS``
    terms per axis is refused first, with the complex power's OverflowError.
    """
    if not (spec.s.imag == 0 and spec.s.real <= 0 and spec.s.real.is_integer()):
        return None
    # the float path's last term, at the largest base x + sum_l a_l (T - 1)
    # of its box, raises its OverflowError here
    _term_power(spec.x + sum(a * (_ACCEL_TERMS - 1) for a in spec.A.entries), -spec.s)
    return _exact_main_term(spec).embed()


def _exact_main_term(spec: ZetaSpec) -> CyclotomicNumber:
    """Z(-m, x) exactly in Q(zeta_k): the main term of :func:`zeta_asymptotic` at q = m + r.

    At sigma = m that term is exact.  It is the float main term's formula,
    (-2/k)^r zeta^{-t A.1} times ``twisted_c._star_sum``, read over the
    numbers instead of the star images: the star scaling cancels 2^r, k^j
    and j!/(j-r)! (``twisted_c._stars``), so with y = x - A.1 and
    E_i = E_i(k, -t; A_r) it is

        zeta^{-t A.1} sum_{i <= m} (-1)^{i+r} C(m, i) E_i y^{m-i},

    a polynomial of degree m in x that holds at every shift, also below
    A.1.  The E_i are the memo's numbers of ``twisted_c``, and the sum is
    its one integer pass ``twisted_c._euler_sum``: one reduction modulo
    Phi_k and one scaling.
    """
    m = -int(spec.s.real)
    k, t, r = spec.twist.k, spec.twist.t, len(spec.A)
    weight_total = sum(spec.A.entries)
    y = Fraction(spec.x) - weight_total
    return _euler_sum(m + r, k, spec.A, t, m, y, -t * weight_total, Fraction((-1) ** r))


def _transform(spec: ZetaSpec, tol: float) -> complex:
    """The nested Euler transformation of :func:`zeta_accelerated`, at any order.

    Every axis takes ``_ACCEL_TERMS`` terms.  ``zeta_accelerated`` takes it at
    non-integer and complex orders; at an integer order it is the float check
    of the exact value.
    """
    k = spec.twist.k
    weights = spec.A.entries
    r = len(weights)
    roots = roots_of_unity(k)
    tables = [[roots[spec.twist.t * a * n % k] for n in range(k)] for a in weights]
    power = -spec.s
    innermost_scales = [tables[0][n % k] for n in range(_ACCEL_TERMS)]
    innermost_offsets = range(0, weights[0] * _ACCEL_TERMS, weights[0])

    def axis_value(level: int, shift: float, level_tol: float) -> complex:
        a = weights[level]
        table = tables[level]
        w = table[1]  # the per-index weight zeta^{t a}
        if level == 0:
            terms = _scaled_powers(innermost_scales, shift, innermost_offsets, power)
        else:
            inner_tol = level_tol / 10.0
            terms = [
                table[n % k] * axis_value(level - 1, shift + a * n, inner_tol)
                for n in range(_ACCEL_TERMS)
            ]
        # only the outermost axis value, times 2^r, estimates Z
        return _accelerate(terms, w, level_tol, 2**r if level == r - 1 else None)[0]

    return (2**r) * axis_value(r - 1, spec.x, tol)


# ---------------------------------------------------------------------------
# asymptotic main terms
# ---------------------------------------------------------------------------

def zeta_asymptotic(spec: ZetaSpec) -> complex:
    """Closed-form main term for Z(s, x) at sigma = -s, at any order.

    The main term (-2)^r zeta^{-t A.1} / (k^r (sigma+1)_r) C*_{sigma+r,q,k}(x - A.1; A_r)
    is exact for nonnegative integer sigma with q >= sigma + r; at every
    other order its truncation error decays as x grows (see
    ``decay_probe``).  The factor (sigma+1)_r cancels against the binomials
    of the star combination, so the term is evaluated as
    (-2/k)^r zeta^{-t A.1} times the pole-free sum ``twisted_c._star_sum``
    at depth ``q`` and argument x - A.1 > 0, with no pole at
    sigma = -1, ..., -r and so through the convergent half-plane too.

    With ``q`` unset, an integer order s = -m <= 0 returns the exact value
    of :func:`zeta_accelerated`, the term at q = m + r
    (:func:`_exact_integer_order`).  It is a polynomial in x, so it holds at
    every shift, also at x <= A.1, and an order whose float terms would
    overflow is refused as there.  Every other order with ``q`` unset is
    refused, after the branch check, with a ValueError that names q and the
    order: the truncated sum has no depth to stop at.  An explicit ``q``
    keeps the float sum at that depth, whose truncation ``decay_probe``
    measures; a depth below r sums to 0.

    The star sum's memo entry depends on q, k, t and A but not on x, so
    every shift of one spec reads the same float stars, and it refuses an
    overflowing first power and a depth q > 171 before that entry is built.
    """
    if spec.q is None:
        exact = _exact_integer_order(spec)
        if exact is not None:
            return exact
    k, t, r = spec.twist.k, spec.twist.t, len(spec.A)
    weight_total = sum(spec.A.entries)
    arg = spec.x - weight_total
    if not (arg > 0):
        raise ValueError("branch violation: need x - A.1 > 0")
    if spec.q is None:
        order = f"{spec.s.real:g}" if spec.s.imag == 0 else f"{spec.s:g}"
        raise ValueError(
            f"truncation depth q is unset at s = {order}: only an integer order s = -m <= 0 is exact without it"
        )
    prefactor = (-2.0 / k) ** r * roots_of_unity(k)[t * weight_total % k].conjugate()
    return _star_sum(spec.sigma(), spec.q, k, arg, spec.A, t, prefactor)


def finite_sum_asymptotic(spec: ZetaSpec, N: Sequence[int], tol: float = 1e-10) -> complex:
    """Approximate sum_{M <= N} (A.M + x)^sigma zeta^{t A.M} for sigma = -s.

    Inclusion-exclusion over corner subsets: each nonempty subset S
    contributes (-1)^{|S|} zeta^{t A_S.(N_S+1)} times the asymptotic main
    term at shift x + A_S.(N_S+1); the empty subset contributes the
    accelerated continuation Z(s, x) to tolerance ``tol``.  Everything is
    scaled by 1/2^r.  With ``q`` unset, an integer order s = -m <= 0 takes
    the exact value at every corner and in the continuation, so the result
    is the exact box sum up to the rounding of that combination, at every
    x >= 0 and box; every other order needs ``q``.  The 2^r - 1 corner terms
    are evaluated first, so a corner's refusal (its branch, an unset ``q``,
    an overflowing power, a depth q > 171) comes before any continuation
    work.  When the continuation stalls, its best estimate goes through the
    same corners, in the raised AccelerationError itself.
    """
    return _corner_sum(spec, N, tol)[0]


def _corner_sum(
    spec: ZetaSpec, N: Sequence[int], tol: float, continuation: Optional[complex] = None
) -> tuple[complex, complex]:
    """(finite_sum_asymptotic(spec, N, tol), Z(s, x)).

    Z(s, x) does not depend on N, so a caller that sums several boxes passes
    the continuation returned for the first one, and it is not evaluated
    again.
    """
    r = len(spec.A)
    k, t = spec.twist.k, spec.twist.t
    roots = roots_of_unity(k)
    # every corner main term first, so that each of their refusals comes before any continuation work
    corner_terms = [
        sign * roots[t * shift % k] * zeta_asymptotic(spec.with_x(spec.x + shift))
        for indices, shift, sign in spec.A.corners(N)  # checks the limits before any work
        if indices
    ]
    if continuation is None:
        try:
            continuation = zeta_accelerated(spec, tol=tol)
        except AccelerationError as exc:
            if exc.best_estimate is not None:
                exc.best_estimate = functools.reduce(operator.add, corner_terms, exc.best_estimate) / 2**r
            raise
    # Z + c_1 + c_2 + ... left to right, not by sum(), which newer Pythons compensate in the last bits
    return functools.reduce(operator.add, corner_terms, continuation) / 2**r, continuation


def finite_sum_direct(spec: ZetaSpec, N: Sequence[int]) -> complex:
    """Float oracle: the exact finite box sum from its definition, by dot value.

    At a real non-integer order with x > 0 the terms take float powers, bit
    for bit the complex power's values; integer and complex orders, and
    x = 0, take the complex power.
    """
    return _dot_sum(spec, N)


# ---------------------------------------------------------------------------
# integer-order exact bridge and decay probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ContinuationReport:
    """Comparison of the accelerated continuation at s = -m with the exact
    generalized-Euler-polynomial value, under both candidate normalizations.

    The ``alternative_*`` fields keep the rejected normalization E_m(c)/e^{jc}
    on purpose: where e^{jc} != 1 it must fail while the adopted one matches,
    which shows that the bridge check can tell the two apart.  Where
    e^{jc} = 1 the two coincide and the check cannot.
    """

    accelerated: complex
    exact_value: complex
    exact_matches: bool
    alternative_value: complex
    alternative_matches: bool


def continuation_check(m: int, c, twist: TwistSpec, A, tol: float = 1e-6) -> ContinuationReport:
    """Compare Z(-m, c) against E_m(c, j; A_r) exactly evaluated.

    Both sides are exact, and both come from one builder,
    ``bernoulli_euler._gen_euler_values``: it compares the Euler build at t,
    E_m(c, j; A_r) evaluated by Horner's rule, with the memo's build at -t,
    which :func:`zeta_accelerated` sums in one integer pass.  So the
    comparison checks the reflection

        E_m(x, t; A_r) = (-1)^{m+r} zeta^{-t A.1} E_m(A.1 - x, -t; A_r)

    and that pass, not the builder: a fault that both twists share, such
    as a wrong 2^{-r}, passes it.  The checks independent of the builder
    are the star table, scaled from the memo's numbers, against the
    convolution of per-weight Bernoulli-value sums (``oracles._star_table``,
    in ``verify``'s cvalues suite) and the closed power sum against the
    brute-force one.  The continuation convention validated by the
    brute-force power-sum oracle carries no extra exponential factor; the
    alternative normalization E_m(c)/e^{jc} is measured and reported
    alongside it.  Raises ValueError before any work unless ``tol`` is
    finite and positive.
    """
    _require_tol(tol)
    if m < 0:
        raise ValueError("m must be nonnegative")
    cq = as_fraction(c)
    if cq < 0:
        raise ValueError("c must be nonnegative")
    A = _as_weights(A)
    spec = ZetaSpec(complex(-m), float(cq), twist, A)
    accel = zeta_accelerated(spec)
    exact = gen_euler_poly(m, twist, A).eval_exact(cq).embed()
    phase = cmath.exp(2j * cmath.pi * twist.t * float(cq) / twist.k)
    alt = exact / phase

    def close(u: complex, v: complex) -> bool:
        return abs(u - v) <= tol * (1.0 + abs(v))

    return ContinuationReport(
        accelerated=accel,
        exact_value=exact,
        exact_matches=close(accel, exact),
        alternative_value=alt,
        alternative_matches=close(accel, alt),
    )


@dataclass(frozen=True, slots=True)
class DecayReport:
    """Empirical error decay: log-log fit of abs_error against scale.

    ``predicted`` is Re(sigma) - q + 2.  A negative predicted exponent is an
    upper bound on the decay rate: the fit may come out more negative (faster
    decay) when leading discrepancies cancel, so the meaningful assertion is
    ``fitted <= predicted`` plus monotone decrease, not two-sided equality.
    """

    points: tuple[tuple[float, float], ...]
    fitted: Optional[float]
    predicted: float
    exact: bool

    @property
    def monotone_decreasing(self) -> bool:
        errs = [e for _, e in self.points]
        return all(b < a for a, b in zip(errs, errs[1:]))

    def to_json_obj(self) -> dict:
        return {
            "points": [[s, e] for s, e in self.points],
            "fitted": self.fitted,
            "predicted": self.predicted,
            "exact": self.exact,
            "monotone_decreasing": self.monotone_decreasing,
        }


_EXACT_FLOOR = 1e-12


def decay_probe(target: str, spec: ZetaSpec, scales: Sequence, tol: float = 1e-10) -> DecayReport:
    """Measure abs_error at each scale and fit the log-log slope.

    ``target="shift"`` varies the shift x over ``scales`` and compares
    ``zeta_asymptotic`` with ``zeta_accelerated``; ``target="limits"``
    varies the limits N uniformly over all axes and compares
    ``finite_sum_asymptotic`` with the exact finite sum.  Both evaluate the
    accelerated continuation to tolerance ``tol``: the shift probe once per
    shift, the limits probe once in all, at the first scale, where a stall
    raises as ``finite_sum_asymptotic`` would for that box.

    The probe measures the truncation at the fixed depth ``spec.q``, which
    ``predicted`` reads, so an unset ``q`` is refused; so is a limit scale
    that is not an integer, since the probe sums whole boxes.  Both are
    refused after the checks of ``tol``, the scales and the target, and
    before any work.
    """
    _require_tol(tol)
    if len(scales) < 3:
        raise ValueError("need at least 3 scales")
    if not 0 < scales[0] or any(a >= b for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be positive and strictly increasing")
    if target not in ("limits", "shift"):
        raise ValueError("target must be 'limits' or 'shift'")
    if target == "shift":
        probe_specs = [spec.with_x(float(x)) for x in scales]  # refuses a bad shift before any work
    elif not all(float(n).is_integer() for n in scales):
        raise ValueError(f"limit scales must be integers (the probe sums whole boxes), got {list(scales)}")
    if spec.q is None:
        raise ValueError("truncation depth q is unset: the probe measures the truncation at a fixed depth q")
    points: list[tuple[float, float]] = []
    magnitudes: list[float] = []
    if target == "shift":
        for x, probe_spec in zip(scales, probe_specs):
            reference = zeta_accelerated(probe_spec, tol=tol)
            points.append((float(x), abs(reference - zeta_asymptotic(probe_spec))))
            magnitudes.append(abs(reference))
    else:
        continuation = None  # Z(s, x), evaluated at the first scale only
        for n in scales:
            N = (int(n),) * len(spec.A)
            reference = finite_sum_direct(spec, N)
            value, continuation = _corner_sum(spec, N, tol, continuation)
            points.append((float(n), abs(value - reference)))
            magnitudes.append(abs(reference))

    predicted = spec.sigma().real - spec.q + 2
    if all(err <= _EXACT_FLOOR * (1.0 + mag) for (_, err), mag in zip(points, magnitudes)):
        return DecayReport(tuple(points), None, predicted, exact=True)
    return DecayReport(tuple(points), _loglog_slope(points), predicted, exact=False)


def _loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(err) against log(scale); errors are floored at 1e-300."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(max(err, 1e-300)) for _, err in points]
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    return sxy / sxx
