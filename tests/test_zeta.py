import cmath
import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from twistsum import bernoulli_euler as be
from twistsum.bernoulli_euler import TwistSpec, gen_euler_poly
from twistsum import exact, twisted_c
from twistsum import zeta as zeta_mod
from twistsum.exact import roots_of_unity
from twistsum.powersum import SumSpec, closed_sum
from twistsum.zeta import (
    AccelerationError,
    ZetaSpec,
    decay_probe,
    finite_sum_asymptotic,
    finite_sum_direct,
    continuation_check,
    zeta_accelerated,
    zeta_asymptotic,
    zeta_direct,
)

F = Fraction


def spec_of(s, x, k, t, A, q=None):
    return ZetaSpec.of(s, x, k, t, A, q)


class TestZetaSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            spec_of(1, -1, 2, 1, (1,))
        with pytest.raises(ValueError):
            spec_of(1, 1, 2, 1, (1,), q=0)
        with pytest.raises(Exception):
            spec_of(1, 1, 2, 1, (2,))  # singular twist

    @pytest.mark.parametrize(
        "s, x",
        [(math.nan, 1), (complex(2, math.inf), 1), (complex(math.nan, 1), 1), (2, math.inf), (2, math.nan)],
    )
    def test_non_finite_rejected(self, s, x):
        with pytest.raises(ValueError, match="must be finite"):
            spec_of(s, x, 2, 1, (1,))


class TestDirect:
    def test_log2(self):
        value = zeta_direct(spec_of(1, 1, 2, 1, (1,)), 20000)
        assert value.real == pytest.approx(2 * math.log(2), abs=1e-4)

    def test_eta2(self):
        value = zeta_direct(spec_of(2, 1, 2, 1, (1,)), 4000)
        assert value.real == pytest.approx(math.pi**2 / 6, abs=1e-6)

    def test_large_shift_shrinks(self):
        small = abs(zeta_direct(spec_of(2, 1000.0, 2, 1, (1,)), 500))
        assert small < 5e-3

    def test_nonconvergent_rejected(self):
        with pytest.raises(ValueError, match="zeta_accelerated"):
            zeta_direct(spec_of(-1, 1, 2, 1, (1,)), 10)

    def test_singular_origin_rejected(self):
        with pytest.raises(ZeroDivisionError):
            zeta_direct(spec_of(1, 0, 2, 1, (1,)), 10)


class TestDirectContract:
    """``zeta._direct_value``: the blocked sum meets its tolerance or raises with its tail."""

    @pytest.mark.parametrize("s", [0.05, 0.3])
    def test_slow_tail_is_refused_with_its_error(self, s):
        spec = spec_of(s, 1, 2, 1, (1,))
        with pytest.raises(AccelerationError, match="misses --tol 1e-10") as info:
            zeta_mod._direct_value(spec, 400, 1e-10)
        assert info.value.best_estimate == zeta_direct(spec, 400)
        error = abs(info.value.best_estimate - zeta_accelerated(spec))
        assert error / 2 <= info.value.achieved_tol <= 2 * error

    def test_tail_within_tol_returns_the_partial_sum(self):
        spec = spec_of(3, 1, 2, 1, (1,))
        assert zeta_mod._direct_value(spec, 400, 1e-6) == zeta_direct(spec, 400)
        with pytest.raises(AccelerationError):
            zeta_mod._direct_value(spec, 400, 1e-12)  # its tail is about 1.9e-9

    def test_vanishing_rate_gives_no_estimate(self):
        # at a subnormal order (T/T')^sigma rounds to 1, so the tail cannot be estimated
        with pytest.raises(AccelerationError) as info:
            zeta_mod._direct_value(spec_of(5e-324, 1, 2, 1, (1,)), 3, 1e-10)
        assert info.value.achieved_tol == math.inf

    def test_non_finite_sum_is_refused_with_its_nan_tail(self):
        # the first term (1e-154)^-2 overflows to inf, so S(T) - S(T') is inf - inf
        spec = spec_of(2, 1e-154, 2, 1, (1,))
        with pytest.raises(AccelerationError, match="estimated tail nan") as info:
            zeta_mod._direct_value(spec, 400, 1e-10)
        assert repr(info.value.best_estimate) == repr(zeta_direct(spec, 400))
        assert math.isinf(info.value.best_estimate.real)
        assert math.isnan(info.value.achieved_tol)

    @pytest.mark.parametrize("terms", [1, 0, -3])
    def test_fewer_than_two_terms_refused_before_any_sum(self, monkeypatch, terms):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(zeta_mod, "zeta_direct", no_work)
        with pytest.raises(ValueError, match="--terms must be at least 2"):
            zeta_mod._direct_value(spec_of(3, 1, 2, 1, (1,)), terms, 1e-10)


def naive_box_sum(spec, N):
    """sum over 0 <= M <= N of prod_i zeta^{t a_i m_i} (A.M + x)^{-s}, point by point.

    Returns the sum and the sum of the terms' absolute values.
    """
    k, t = spec.twist.k, spec.twist.t
    total, magnitude = 0j, 0.0
    for M in itertools.product(*(range(n + 1) for n in N)):
        dot = sum(a * m for a, m in zip(spec.A.entries, M))
        root = 1.0 + 0j
        for a, m in zip(spec.A.entries, M):
            root *= cmath.exp(2j * cmath.pi * (t * a * m % k) / k)
        term = root * complex(dot + spec.x) ** -spec.s
        total += term
        magnitude += abs(term)
    return total, magnitude


class TestDirectAgainstPointLoop:
    @staticmethod
    def random_specs(seed, orders):
        rng = random.Random(seed)
        for r in (1, 2, 3):
            for _ in range(6):
                k = rng.choice((2, 3, 4, 5, 6))
                t = rng.randrange(1, k)
                weights = [a for a in range(1, 6) if (t * a) % k]
                A = tuple(rng.choice(weights) for _ in range(r))
                x = rng.choice((0.5, 1.0, 2.5))
                yield r, rng, spec_of(rng.choice(orders), x, k, t, A)

    def test_zeta_direct(self):
        for r, rng, spec in self.random_specs(61, (0.5, 1.25, 2.5, 1 + 0.5j)):
            terms = rng.randint(1, {1: 60, 2: 6, 3: 2}[r])
            side = spec.twist.k * terms - 1
            reference, magnitude = naive_box_sum(spec, (side,) * r)
            value = zeta_direct(spec, terms)
            assert abs(value - 2**r * reference) <= 1e-12 * 2**r * magnitude, spec

    def test_finite_sum_direct(self):
        for r, rng, spec in self.random_specs(67, (-2, -0.75, 0.5, 1.5, 0.5 - 1j)):
            N = tuple(rng.randint(0, {1: 200, 2: 25, 3: 8}[r]) for _ in range(r))
            reference, magnitude = naive_box_sum(spec, N)
            assert abs(finite_sum_direct(spec, N) - reference) <= 1e-12 * magnitude, (spec, N)

    def test_invalid_boxes_rejected(self):
        with pytest.raises(ValueError):
            zeta_direct(spec_of(2, 1, 2, 1, (1,)), 0)
        with pytest.raises(ValueError):
            finite_sum_direct(spec_of(2, 1, 2, 1, (1, 3)), (4,))


class TestAccelerated:
    def test_alternating_harmonic(self):
        value = zeta_accelerated(spec_of(1, 1, 2, 1, (1,)))
        assert value.real == pytest.approx(2 * math.log(2), abs=1e-10)

    def test_eta_family_against_mpmath(self):
        for s in (0.5, 1.0, 2.0, 3.0):
            mine = zeta_accelerated(spec_of(s, 1, 2, 1, (1,)))
            reference = 2 * complex(mpmath.altzeta(s))
            assert abs(mine - reference) < 1e-8, s

    def test_abel_value_at_zero_order(self):
        value = zeta_accelerated(spec_of(0, 1, 2, 1, (1,)))
        assert value.real == pytest.approx(1.0, abs=1e-10)

    def test_divergent_polynomial_case(self):
        value = zeta_accelerated(spec_of(-2, 0.5, 2, 1, (1,)))
        assert value.real == pytest.approx(-0.25, abs=1e-9)

    def test_agrees_with_direct_when_convergent(self):
        spec = spec_of(3, 1, 3, 1, (1,))
        assert abs(zeta_accelerated(spec) - zeta_direct(spec, 4000)) < 1e-6

    def test_complex_twist_value(self):
        spec = spec_of(-1, 2, 3, 1, (1, 2))
        exact = gen_euler_poly(1, TwistSpec(3, 1), (1, 2)).eval_exact(F(2)).embed()
        assert abs(zeta_accelerated(spec) - exact) < 1e-8

    @pytest.mark.parametrize(
        "tol, terms, message",
        [
            (0.0, 56, "tolerance"),
            (-1e-10, 56, "tolerance"),
            (math.inf, 56, "tolerance"),
            (math.nan, 56, "tolerance"),
        ],
    )
    def test_bad_tolerance_or_terms_rejected_before_any_work(self, monkeypatch, tol, terms, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(zeta_mod, "_ACCEL_TERMS", terms)
        monkeypatch.setattr(zeta_mod, "_term_power", no_work)
        monkeypatch.setattr(zeta_mod, "_accelerate", no_work)
        with pytest.raises(ValueError, match=message):
            zeta_accelerated(spec_of(0.5, 1, 3, 1, (1, 2)), tol=tol)

    def test_failure_carries_diagnostics(self, monkeypatch):
        monkeypatch.setattr(zeta_mod, "_ACCEL_TERMS", 10)
        with pytest.raises(AccelerationError) as info:
            zeta_accelerated(spec_of(0.25, 1, 6, 1, (1,)), tol=1e-10)
        err = info.value
        assert err.achieved_tol > 1e-10
        assert err.best_estimate != 0

    def test_best_estimate_estimates_the_returned_quantity(self):
        spec = spec_of(0.5, 3.5, 3, 1, (1,))
        with pytest.raises(AccelerationError) as info:
            zeta_accelerated(spec, tol=1e-30)
        value = zeta_accelerated(spec)
        assert abs(info.value.best_estimate - value) <= 1e-8 * abs(value)
        # the finite sum carries the estimate through its corners
        spec = spec_of(0.5, 3.5, 3, 1, (1,), q=1)  # the corners at s = 0.5 need a depth
        with pytest.raises(AccelerationError) as info:
            finite_sum_asymptotic(spec, (10,), tol=1e-30)
        value = finite_sum_asymptotic(spec, (10,))
        assert abs(info.value.best_estimate - value) <= 1e-8 * abs(value)
        # an inner axis value is no estimate of Z
        with pytest.raises(AccelerationError) as info:
            zeta_accelerated(spec_of(0.5, 3.5, 3, 1, (1, 2)), tol=1e-30)
        assert info.value.best_estimate is None

    def test_against_lerch_transcendent(self):
        # r = 1, weight 1: Z(s, x) = 2 * Phi(zeta_k^t, s, x), an independent
        # implementation (mpmath) of the same analytic object
        cases = [
            (2, 1, 0.5, 1.0),
            (2, 1, 1.5, 0.25),
            (3, 1, 0.75, 2.0),
            (3, 2, 2.0, 1.5),
            (4, 1, 1.25, 3.0),
        ]
        for k, t, s, x in cases:
            mine = zeta_accelerated(spec_of(s, x, k, t, (1,)))
            z = complex(mpmath.exp(2j * mpmath.pi * t / k))
            reference = 2 * complex(mpmath.lerchphi(z, s, x))
            assert abs(mine - reference) < 1e-8, (k, t, s, x, mine, reference)

    def test_weighted_axis_against_lerch(self):
        # weight a rescales the lattice: sum_n zeta^{tan} (an+x)^{-s}
        #   = a^{-s} * Phi(zeta^{ta}, s, x/a)
        k, t, a, s, x = 3, 1, 2, 1.5, 1.0
        mine = zeta_accelerated(spec_of(s, x, k, t, (a,)))
        z = complex(mpmath.exp(2j * mpmath.pi * t * a / k))
        reference = 2 * a ** (-s) * complex(mpmath.lerchphi(z, s, x / a))
        assert abs(mine - reference) < 1e-8


def accelerate_by_passes(terms, w, tol):
    """The Euler transformation with every pass built in full: the reference
    that ``_accelerate`` must match bit for bit."""
    sums = []
    acc = 0j
    for t in terms:
        acc += t
        sums.append(acc)
    best, best_delta = sums[-1], math.inf
    prev = None
    stable = 0
    denom = 1.0 - w
    while len(sums) > 1:
        sums = [(sums[i + 1] - w * sums[i]) / denom for i in range(len(sums) - 1)]
        value = sums[-1]
        if prev is not None:
            delta = abs(value - prev)
            if delta < best_delta:
                best, best_delta = value, delta
            if delta <= tol * (1.0 + abs(value)):
                stable += 1
                if stable >= 2:
                    return value, delta, True
            else:
                stable = 0
        prev = value
    return best, best_delta, False


class CountingRoot(complex):
    """A root of unity that counts the products it takes part in as left operand."""

    def __mul__(self, other):
        self.products += 1
        return complex.__mul__(self, other)


class TestTailBuiltTransform:
    def test_matches_full_passes_bit_for_bit(self):
        rng = random.Random(2024)
        outcomes = set()
        for n in range(1, 71):
            for kind in ("converging", "stalling", "polynomial"):
                k = rng.randint(2, 9)
                a = rng.randrange(1, k)
                roots = roots_of_unity(k)
                x = rng.uniform(0.25, 3.0)
                tol = 10.0 ** -rng.uniform(4, 14)
                if kind == "converging":
                    s = complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0))
                    g = [(i + x) ** -s for i in range(n)]
                elif kind == "stalling":
                    g = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
                else:  # polynomial growth whose partial sums dwarf the limit
                    degree = rng.randint(1, 8)
                    g = [(i + x) ** degree for i in range(n)]
                    tol = 1e-14
                terms = [roots[a * i % k] * gi for i, gi in enumerate(g)]
                value, delta, converged = accelerate_by_passes(terms, roots[a], tol)
                if not converged:
                    # the stall is raised with the best estimate times the scale, here 1
                    with pytest.raises(AccelerationError) as info:
                        zeta_mod._accelerate(terms, roots[a], tol, 1)
                    got = (info.value.best_estimate, info.value.achieved_tol)
                    assert repr(got) == repr((value, delta)), (n, kind, k, a)
                    outcomes.add("stalled")
                    continue
                got = zeta_mod._accelerate(terms, roots[a], tol, 1)
                assert repr(got) == repr((value, delta)), (n, kind, k, a)
                if delta <= tol * (1.0 + abs(value)):
                    outcomes.add("tolerance")
                else:
                    outcomes.add("noise floor")
        # no convergence on the rounding noise of large partial sums alone
        assert outcomes == {"stalled", "tolerance"}

    def test_pass_p_costs_p_products(self):
        # quadratic growth: three passes annihilate it, two more confirm
        roots = roots_of_unity(3)
        terms = [roots[i % 3] * (i + 0.5) ** 2 for i in range(56)]
        tail, full = CountingRoot(roots[1]), CountingRoot(roots[1])
        tail.products = full.products = 0
        zeta_mod._accelerate(terms, tail, 1e-10, None)  # converges: a stall would raise
        assert accelerate_by_passes(terms, full, 1e-10)[2]
        passes = 5
        assert full.products == sum(56 - p for p in range(1, passes + 1))
        assert tail.products <= passes * (passes + 1) // 2


def accelerated_by_term_power(spec, tol=1e-10, terms_per_axis=56):
    """The nested transformation with every innermost term through
    ``_term_power`` and every pass built in full: the reference that
    ``zeta_accelerated`` must match bit for bit, raised errors included."""
    k, t = spec.twist.k, spec.twist.t
    weights = spec.A.entries
    tables = [[roots_of_unity(k)[t * a * n % k] for n in range(k)] for a in weights]

    def axis_value(level, shift, level_tol):
        a, table = weights[level], tables[level]
        if level == 0:
            g = lambda n: zeta_mod._term_power(shift + a * n, -spec.s)
        else:
            g = lambda n: axis_value(level - 1, shift + a * n, level_tol / 10.0)
        terms = [table[n % k] * g(n) for n in range(terms_per_axis)]
        value, achieved, converged = accelerate_by_passes(terms, table[1], level_tol)
        if not converged:
            raise AccelerationError(
                f"acceleration stalled at tolerance {achieved:.3e} (requested {level_tol:.3e})",
                best_estimate=value,
                achieved_tol=achieved,
            )
        return value

    return 2 ** len(weights) * axis_value(len(weights) - 1, spec.x, tol)


def outcome(evaluate, spec, **kwargs):
    try:
        return repr(evaluate(spec, **kwargs))
    except (ArithmeticError, AccelerationError) as exc:
        return f"{type(exc).__name__}: {exc}"


def dot_sum_by_term_power(spec, N):
    """The dot-value sum with every term through ``_term_power``: the reference
    that ``_dot_sum`` must match bit for bit, raised errors included."""
    k, t = spec.twist.k, spec.twist.t
    roots = roots_of_unity(k)
    total = 0j
    for d, count in enumerate(spec.A.dot_counts(N)):
        if count:
            total += count * roots[t * d % k] * zeta_mod._term_power(d + spec.x, -spec.s)
    return total


REAL_NON_INTEGER_ORDERS = (1.5, 0.75, 2.25, -0.5, -1.25, -2.75)
INTEGER_ORDERS = (2, 1, 0, -1, -3)


def is_exact_order(s):
    return s.imag == 0 and s.real <= 0 and s.real.is_integer()


def transformed(spec, tol=1e-10):
    """The nested transformation over ``zeta._ACCEL_TERMS`` terms per axis:
    ``zeta_accelerated`` where it takes it, and the private transform at the
    integer orders that it evaluates exactly."""
    if is_exact_order(spec.s):
        return zeta_mod._transform(spec, tol)
    return zeta_accelerated(spec, tol=tol)


class TestFloatPowers:
    @staticmethod
    def seeded_cases():
        rng = random.Random(808)
        orders = REAL_NON_INTEGER_ORDERS + INTEGER_ORDERS + (0.5 + 1j,)
        for r in (1, 2, 3):
            for _ in range({1: 100, 2: 80, 3: 60}[r]):
                k = rng.randint(2, 6)
                t = rng.randrange(1, k)
                weights = [a for a in range(1, 6) if (t * a) % k]
                A = tuple(rng.choice(weights) for _ in range(r))
                x = rng.choice((0.0, 0.5, 1.0, 7 / 3, 10.0))
                terms = rng.randint(*{1: (8, 56), 2: (8, 40), 3: (12, 28)}[r])
                tol = 10.0 ** -rng.uniform(4, 12)
                yield spec_of(rng.choice(orders), x, k, t, A), tol, terms
        # the known wrong answer and the known stall at integer orders
        yield spec_of(-8, 1, 2, 1, (1,)), 1e-10, 56
        yield spec_of(-5, 1, 3, 1, (1, 2)), 1e-10, 23
        # float and complex powers overflow alike; the error is the complex power's
        yield spec_of(-200.5, 1, 2, 1, (1,)), 1e-10, 56
        yield spec_of(200.5, 1e-3, 3, 1, (1, 2)), 1e-10, 8

    def test_matches_the_complex_power_bit_for_bit(self, monkeypatch):
        kinds, float_power_values = set(), set()
        for spec, tol, terms in self.seeded_cases():
            monkeypatch.setattr(zeta_mod, "_ACCEL_TERMS", terms)
            got = outcome(transformed, spec, tol=tol)
            want = outcome(accelerated_by_term_power, spec, tol=tol, terms_per_axis=terms)
            assert got == want, (spec, tol, terms)
            kind = got.split(":")[0] if "Error" in got else "value"
            kinds.add(kind)
            if kind == "value" and spec.s.real in REAL_NON_INTEGER_ORDERS and not spec.s.imag:
                float_power_values.add(len(spec.A))
        assert kinds == {"value", "AccelerationError", "ZeroDivisionError", "OverflowError"}
        assert float_power_values == {1, 2, 3}

    @staticmethod
    def term_power_calls(monkeypatch, evaluate):
        calls = []
        term_power = zeta_mod._term_power

        def counting(base, exponent):
            calls.append(base)
            return term_power(base, exponent)

        monkeypatch.setattr(zeta_mod, "_term_power", counting)
        try:
            evaluate()
        except AccelerationError:
            pass
        return len(calls)

    @classmethod
    def term_power_calls_per_path(cls, monkeypatch, spec):
        """_term_power calls of the accelerated continuation and of the direct box sum."""
        terms = 56 if len(spec.A) < 3 else 12
        monkeypatch.setattr(zeta_mod, "_ACCEL_TERMS", terms)
        return (
            cls.term_power_calls(monkeypatch, lambda: transformed(spec)),
            cls.term_power_calls(monkeypatch, lambda: finite_sum_direct(spec, (terms,) * len(spec.A))),
        )

    @pytest.mark.parametrize("A", [(1,), (1, 2), (1, 2, 1)])
    def test_real_non_integer_order_takes_float_powers(self, monkeypatch, A):
        for s in REAL_NON_INTEGER_ORDERS:
            assert self.term_power_calls_per_path(monkeypatch, spec_of(s, 0.5, 3, 1, A)) == (0, 0), s

    @pytest.mark.parametrize("A", [(1,), (1, 2), (1, 2, 1)])
    def test_integer_complex_and_zero_shift_take_the_complex_power(self, monkeypatch, A):
        for s, x in [(s, 0.5) for s in INTEGER_ORDERS + (0.5 + 1j, -1.5 - 0.25j)] + [(-1.5, 0.0)]:
            accelerated, direct = self.term_power_calls_per_path(monkeypatch, spec_of(s, x, 3, 1, A))
            assert accelerated > 0 and direct > 0, (s, x)

    @staticmethod
    def seeded_box_cases():
        rng = random.Random(909)
        orders = REAL_NON_INTEGER_ORDERS + INTEGER_ORDERS + (0.5 + 1j, -1.5 - 0.25j)
        for r in (1, 2, 3):
            for _ in range({1: 80, 2: 80, 3: 40}[r]):
                k = rng.randint(2, 6)
                t = rng.randrange(1, k)
                weights = [a for a in range(1, 6) if (t * a) % k]
                A = tuple(rng.choice(weights) for _ in range(r))
                x = rng.choice((0.0, 0.5, 1.0, 7 / 3, 10.0))
                N = tuple(rng.randint(0, {1: 300, 2: 40, 3: 12}[r]) for _ in range(r))
                yield spec_of(rng.choice(orders), x, k, t, A), N
        # float and complex powers overflow alike; the error is the complex power's
        yield spec_of(-200.5, 1, 2, 1, (1,)), (40,)
        yield spec_of(200.5, 1e-3, 3, 1, (1, 2)), (5, 5)

    def test_direct_sum_matches_the_complex_power_bit_for_bit(self):
        kinds, float_power_values = set(), set()
        for spec, N in self.seeded_box_cases():
            got = outcome(zeta_mod._dot_sum, spec, N=N)
            want = outcome(dot_sum_by_term_power, spec, N=N)
            assert got == want, (spec, N)
            kind = got.split(":")[0] if "Error" in got else "value"
            kinds.add(kind)
            if kind == "value" and spec.s.real in REAL_NON_INTEGER_ORDERS and not spec.s.imag and spec.x:
                float_power_values.add(len(spec.A))
        assert kinds == {"value", "ZeroDivisionError", "OverflowError"}
        assert float_power_values == {1, 2, 3}

    def test_complex_power_of_a_positive_base_is_the_float_power(self):
        rng = random.Random(5)
        for _ in range(2000):
            b = rng.choice((rng.randint(1, 500) + rng.choice((0.0, 0.5, 1 / 3)), 10.0 ** rng.uniform(-3, 4)))
            p = rng.uniform(-12.0, 12.0)
            if p.is_integer():
                continue
            for exponent in (complex(p, 0.0), -complex(-p, 0.0)):
                z = complex(b) ** exponent
                assert repr(z.real) == repr(b**p) and z.imag == 0, (b, exponent)


class TestContinuationBridge:
    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-6, 0.0])
    def test_bad_tolerance_rejected_before_any_work(self, monkeypatch, tol):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(zeta_mod, "zeta_accelerated", no_work)
        monkeypatch.setattr(zeta_mod, "gen_euler_poly", no_work)
        with pytest.raises(ValueError, match="tolerance"):
            continuation_check(2, F(1, 2), TwistSpec(2, 1), (1,), tol=tol)

    def test_order_zero(self):
        report = continuation_check(0, F(0), TwistSpec(2, 1), (1,))
        assert report.exact_matches
        assert report.accelerated == pytest.approx(1.0, abs=1e-9)

    def test_alternating_quadratic(self):
        report = continuation_check(2, F(1, 2), TwistSpec(2, 1), (1,))
        assert report.exact_matches
        assert report.exact_value == pytest.approx(-0.25)
        # e^{jc} is a nontrivial phase here, so the alternative normalization fails
        assert not report.alternative_matches

    def test_two_axis(self):
        report = continuation_check(1, F(0), TwistSpec(2, 1), (1, 3))
        assert report.exact_matches
        assert report.exact_value == pytest.approx(-2.0)

    def test_both_normalizations_coincide_at_integer_phase(self):
        # c = 0 makes e^{jc} = 1: both candidates agree
        report = continuation_check(2, F(0), TwistSpec(3, 1), (1,))
        assert report.exact_matches and report.alternative_matches


def exact_grid():
    """(m, k, t, A): every admissible twist at five moduli and orders up to 8."""
    for A in [(1,), (1, 2), (1, 1), (3, 5), (1, 2, 3), (2, 3, 1, 1)]:
        for k in (2, 3, 4, 5, 6):
            for t in range(1, k):
                if all(t * a % k for a in A):
                    for m in (0, 1, 2, 5, 8):
                        yield m, k, t, A
    for m in (0, 2, 5):
        yield m, 2, 1, (1, 3, 5, 7)


def exact_shifts(m, A):
    """m + 1 distinct rational shifts, 0 and a nonzero one below A.1 among them,
    enough to fix a polynomial of degree m in x."""
    W = sum(A)
    candidates = [0, W - 1 / 4, 7 / 5, 10, W + 1 / 3] + [W + 2 + i for i in range(m)]
    return list(dict.fromkeys(candidates))[: m + 1]


class TestExactIntegerOrders:
    def test_literally_equal_to_the_euler_polynomial(self):
        count = 0
        for m, k, t, A in exact_grid():
            poly = gen_euler_poly(m, TwistSpec(k, t), A)
            shifts = exact_shifts(m, A)
            assert len(shifts) == m + 1
            for x in shifts:
                spec = spec_of(-m, x, k, t, A)
                want = poly.eval_exact(F(spec.x))
                assert zeta_mod._exact_main_term(spec) == want, (m, x, k, t, A)
                assert zeta_accelerated(spec) == want.embed()
                count += 1
        assert count > 1300

    def test_a_warm_order_takes_one_reduction_and_no_star_evaluator(self, monkeypatch):
        spec = spec_of(-5, 0.75, 3, 1, (1, 2))
        value = zeta_mod._exact_main_term(spec)
        calls = []
        reduce = exact._reduce_mod_cyclotomic

        def counting(*args):
            calls.append(args)
            return reduce(*args)

        def no_star_evaluator(*args, **kwargs):
            raise AssertionError("the exact path went through c_star_s_exact")

        # the reduction is counted under both names a runtime module may call it by
        monkeypatch.setattr(exact, "_reduce_mod_cyclotomic", counting)
        monkeypatch.setattr(twisted_c, "_reduce_mod_cyclotomic", counting, raising=False)
        monkeypatch.setattr(twisted_c, "c_star_s_exact", no_star_evaluator)
        monkeypatch.setattr(zeta_mod, "c_star_s_exact", no_star_evaluator, raising=False)
        assert zeta_mod._exact_main_term(spec) == value
        assert len(calls) == 1

    def test_known_wrong_answers_are_exact(self):
        assert repr(zeta_accelerated(spec_of(-8, 1, 2, 1, (1,)))) == "0j"
        assert repr(zeta_accelerated(spec_of(-120, 1, 2, 1, (1,)))) == "0j"
        assert zeta_accelerated(spec_of(-6, 1, 2, 1, (1, 1))) == -4.25
        assert zeta_accelerated(spec_of(-2, 10, 2, 1, (1, 3, 5, 7))) == -17
        assert continuation_check(5, 1, TwistSpec(3, 1), (1, 2)).exact_matches

    def test_takes_no_acceleration_pass(self, monkeypatch):
        calls = []
        accelerate = zeta_mod._accelerate

        def counting(*args):
            calls.append(args)
            return accelerate(*args)

        monkeypatch.setattr(zeta_mod, "_accelerate", counting)
        for m, x, k, t, A in [(0, 0, 2, 1, (1,)), (3, 1.5, 3, 2, (1, 2)), (2, 10, 2, 1, (1, 3, 5, 7))]:
            zeta_accelerated(spec_of(-m, x, k, t, A))
        assert calls == []
        zeta_accelerated(spec_of(-0.5, 1, 2, 1, (1,)))
        assert calls

    @pytest.mark.parametrize(
        "s, x, k, t, A, expected",
        [  # literal values from before the Bernoulli rows were cached
            (-3, 0.5, 3, 1, (1, 2), 5.666666666666668 + 2.598076211353316j),
            (-5, 1.25, 4, 1, (1, 3), -1749.8496093750002 - 4118.9140625j),
            (-4, 0.75, 5, 2, (1, 2), 111.98974348622595 - 217.55818219440795j),
            (-6, 0.2, 6, 1, (1,), -216.80377600000014 - 1019.9145430840665j),
            (-1, 2.0, 7, 3, (2,), -3.3119411104227274 - 4.153042793144673j),
        ],
    )
    def test_pinned_values(self, s, x, k, t, A, expected):
        assert zeta_accelerated(spec_of(s, x, k, t, A)) == expected

    def test_tolerance_and_terms_leave_the_value_alone(self, monkeypatch):
        spec = spec_of(-5, 7 / 5, 3, 1, (1, 2))
        value = zeta_accelerated(spec)
        monkeypatch.setattr(zeta_mod, "_ACCEL_TERMS", 2)
        assert zeta_accelerated(spec, tol=1e-2) == value
        monkeypatch.setattr(zeta_mod, "_ACCEL_TERMS", 90)
        assert zeta_accelerated(spec, tol=1e-14) == value

    @pytest.mark.parametrize("tol, terms", [(math.nan, 56), (0.0, 56)])
    def test_bad_tolerance_or_terms_rejected_first(self, monkeypatch, tol, terms):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(zeta_mod, "_ACCEL_TERMS", terms)
        monkeypatch.setattr(zeta_mod, "_exact_main_term", no_work)
        monkeypatch.setattr(zeta_mod, "_term_power", no_work)
        with pytest.raises(ValueError):
            zeta_accelerated(spec_of(-2, 1, 2, 1, (1,)), tol=tol)

    @pytest.mark.parametrize(
        "s, x, A, terms",
        [(-10**6, 1, (1,), 56), (-10**6, 0, (1,), 56), (-178, 0, (1,), 56), (-110, 1, (1, 3, 5, 7), 56)],
    )
    def test_overflowing_orders_refused_before_any_work(self, monkeypatch, s, x, A, terms):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(zeta_mod, "_ACCEL_TERMS", terms)
        monkeypatch.setattr(be, "bernoulli_numbers", no_work)
        monkeypatch.setattr(twisted_c, "_euler_memo", no_work)
        spec = spec_of(s, x, 2, 1, A)
        with pytest.raises(OverflowError, match="complex exponentiation"):
            zeta_accelerated(spec)
        # the float path refuses the same orders with the same error
        if len(A) == 1:
            with pytest.raises(OverflowError, match="complex exponentiation"):
                zeta_mod._transform(spec, 1e-10)

    @pytest.mark.parametrize(
        "m, x, A", [(1, 0, (9973, 9967)), (2, 1, (101, 103, 107)), (2, 10, (1, 3, 5, 7)), (6, 1, (1, 1))]
    )
    def test_one_star_table_at_every_period(self, monkeypatch, m, x, A):
        # the table is the private Euler build at the conjugate twist: no public
        # Euler entry, no lattice-point count, and one table per key
        def no_work(*args, **kwargs):
            raise AssertionError("a public Euler entry or a count sum started")

        twist = TwistSpec(2, 1)
        want = [gen_euler_poly(m, twist, A).eval_exact(F(y)).embed() for y in (x, x + 1 / 2)]
        monkeypatch.setattr(zeta_mod, "gen_euler_poly", no_work)
        monkeypatch.setattr(be.WeightVector, "dot_counts", no_work)
        memo = twisted_c._euler_memo
        memo.cache_clear()
        for _ in range(2):
            assert [zeta_accelerated(spec_of(-m, y, 2, 1, A)) for y in (x, x + 1 / 2)] == want
        assert memo.cache_info().misses == 1

    def test_float_transform_agrees_where_it_converges(self, monkeypatch):
        # the check continuation_check made before the exact path: the float
        # transform at integer orders, with m + 1 passes to annihilate degree-m growth
        converging = [
            (0, F(0), 2, 1, (1,)),
            (1, F(1), 2, 1, (1,)),
            (2, F(1, 2), 2, 1, (1,)),
            (3, F(2), 3, 1, (1,)),
            (4, F(1), 4, 1, (1,)),
            (1, F(0), 2, 1, (1, 3)),
            (2, F(3, 2), 3, 1, (1, 2)),
            (3, F(1), 2, 1, (1, 1)),
            (4, F(2), 2, 1, (3,)),
        ]
        stalling = [(5, F(1), 3, 1, (1, 2)), (8, F(1), 2, 1, (1,))]
        for m, c, k, t, A in converging + stalling:
            spec = spec_of(-m, c, k, t, A)
            exact = zeta_accelerated(spec)
            try:
                with monkeypatch.context() as patch:
                    patch.setattr(zeta_mod, "_ACCEL_TERMS", max(16, 3 * m + 8))
                    value = zeta_mod._transform(spec, 1e-10)
            except AccelerationError as exc:
                assert (m, c, k, t, A) in stalling
                assert exc.best_estimate is None or cmath.isfinite(exc.best_estimate)
                continue
            assert abs(value - exact) <= 1e-6 * (1 + abs(exact)), (m, c, k, t, A)


def star_combination_of(spec):
    """The star combination inside ``zeta_asymptotic(spec)``, by ``twisted_c.c_star_s``.

    With ``q`` unset it sums to depth max(1, ceil Re sigma), which is m at an integer order s = -m.
    """
    r = len(spec.A)
    x = spec.x - sum(spec.A.entries)
    q = spec.q or max(1, math.ceil(spec.sigma().real))
    return twisted_c.c_star_s(spec.sigma() + r, q, spec.twist.k, x, spec.A, spec.twist.t)


# (id prefix, evaluator): both refuse before the star table is built; the
# empty prefix keeps the ids the zeta_asymptotic cases had
REFUSING_EVALUATORS = [("", zeta_asymptotic), ("c_star_s-", star_combination_of)]


class TestAsymptotic:
    def test_exact_at_integer_order_r1(self):
        spec = spec_of(-2, 10, 2, 1, (1,), q=3)
        assert zeta_asymptotic(spec) == pytest.approx(90.0, abs=1e-9)  # E_2(10)

    def test_exact_at_integer_order_r2(self):
        spec = spec_of(-2, 10, 2, 1, (1, 1), q=4)
        assert zeta_asymptotic(spec) == pytest.approx(80.5, abs=1e-9)
        spec3 = spec_of(-2, 12, 3, 1, (1, 2), q=4)
        exact = gen_euler_poly(2, TwistSpec(3, 1), (1, 2)).eval_exact(F(12)).embed()
        assert abs(zeta_asymptotic(spec3) - exact) < 1e-8

    @pytest.mark.parametrize("k, t, A", [(5, 2, (1, 3)), (4, 3, (1,))])
    def test_exact_at_integer_order_general_twist(self, k, t, A):
        for sigma in (0, 1, 2):
            spec = spec_of(-sigma, 12, k, t, A, q=sigma + len(A))
            exact = gen_euler_poly(sigma, TwistSpec(k, t), A).eval_exact(F(12)).embed()
            assert abs(zeta_asymptotic(spec) - exact) < 1e-8, sigma

    def test_integer_order_without_q_is_the_exact_main_term(self):
        count = 0
        for m, k, t, A in exact_grid():
            for x in exact_shifts(m, A):  # shifts below A.1 among them
                spec = spec_of(-m, x, k, t, A)
                assert zeta_asymptotic(spec) == zeta_mod._exact_main_term(spec).embed(), (m, x, k, t, A)
                count += 1
        assert count > 1300

    def test_explicit_q_keeps_the_float_sum(self, monkeypatch):
        def no_exact(*args):
            raise AssertionError("an explicit q took the exact path")

        monkeypatch.setattr(zeta_mod, "_exact_main_term", no_exact)
        spec = spec_of(-2, 10.5, 3, 1, (1, 2), q=2)
        assert zeta_asymptotic(spec) == 75  # truncated at depth 2 < m + r
        with pytest.raises(ValueError, match="branch"):
            zeta_asymptotic(spec.with_x(0.5))

    def test_branch_guard(self):
        with pytest.raises(ValueError, match="branch"):
            zeta_asymptotic(spec_of(0.5, 0.5, 2, 1, (1,)))

    @pytest.mark.parametrize("s", [1.5, 1])  # sigma = -1.5, and sigma = -1, a pole of (sigma+1)_r
    def test_convergent_orders_track_the_continuation(self, s):
        spec = spec_of(s, 40.5, 3, 1, (1, 2), q=14)
        accel = zeta_accelerated(spec)
        assert abs(zeta_asymptotic(spec) - accel) <= 1e-9 * abs(accel)

    def test_matches_the_binomial_form_on_a_grid(self):
        # the pole-free star sum against (-2)^r zeta^{-t A.1} / (k^r (sigma+1)_r) C*_{sigma+r,q,k},
        # summed here with the binomials C(sigma+r, j) from the exact stars, where (sigma+1)_r != 0
        count = 0
        for s in (0.5, 0.3, -0.5, -1.5, -2, -3.7, 0.5 + 1j, -0.25 - 0.75j):
            for k, t, A in ((2, 1, (1,)), (3, 1, (1, 2)), (4, 3, (1,)), (5, 2, (1, 3)), (5, 2, (1, 2, 3)), (7, 3, (2, 3))):
                r, weight_total = len(A), sum(A)
                for y in (10.5, 35):
                    for q in (r, r + 4, 14):
                        spec = spec_of(s, weight_total + y, k, t, A, q=q)
                        sigma = spec.sigma()
                        total = 0j
                        for j, star in enumerate(twisted_c._periodic_stars(q, k, A, t)):
                            power = complex(y) ** (sigma + r - j)
                            binomial = twisted_c.pochhammer(sigma + r - j + 1, j) / math.factorial(j)  # C(sigma+r, j)
                            total += (-k) ** j * binomial * star.embed() * power
                        root = roots_of_unity(k)[t * weight_total % k].conjugate()
                        expected = (-2) ** r * root / (k**r * twisted_c.pochhammer(sigma + 1, r)) * total
                        assert abs(zeta_asymptotic(spec) - expected) <= 1e-13 * abs(expected), (s, k, t, A, y, q)
                        count += 1
        assert count == 288

    def test_default_depth_below_r_refused(self):
        # with q unset a non-integer order has no depth to sum to: no guess, such as
        # max(1, ceil(-0.3)) = 1 < r = 3, which would read only the zero stars C*_0, C*_1
        spec = spec_of(0.3, 7, 5, 2, (1, 2, 3))
        for evaluate in (zeta_asymptotic, lambda sp: finite_sum_asymptotic(sp, (3, 3, 3))):
            with pytest.raises(ValueError, match=r"truncation depth q is unset at s = 0\.3: only an integer order"):
                evaluate(spec)
        with pytest.raises(ValueError, match=r"q is unset at s = 2\.5-1j"):
            zeta_asymptotic(spec_of(2.5 - 1j, 7, 5, 2, (1, 2, 3)))
        # the branch check comes first
        with pytest.raises(ValueError, match="branch violation"):
            zeta_asymptotic(spec_of(0.5, 2, 3, 1, (1, 2)))
        assert cmath.isfinite(zeta_asymptotic(spec_of(0.3, 7, 5, 2, (1, 2, 3), q=3)))

    @pytest.mark.parametrize(
        "evaluate, s, x, A",
        [
            pytest.param(evaluate, s, x, A, id=f"{prefix}{s}-{x}-A{i}")
            for prefix, evaluate in REFUSING_EVALUATORS
            for i, (s, x, A) in enumerate([(-160, 1000, (1, 2)), (-320, 1000, (1, 2)), (-400, 50, (1,))])
        ],
    )
    def test_overflowing_order_refused_before_the_star_build(self, monkeypatch, evaluate, s, x, A):
        def no_build(*args):
            raise AssertionError("star table built")

        monkeypatch.setattr(twisted_c, "_euler_memo", no_build)
        with pytest.raises(OverflowError, match="complex exponentiation"):
            evaluate(spec_of(s, x, 3, 1, A))

    @pytest.mark.parametrize(
        "evaluate, q",
        [
            pytest.param(evaluate, q, id=f"{prefix}{q}")
            for prefix, evaluate in REFUSING_EVALUATORS
            for q in (172, 300, 1100)
        ],
    )
    def test_deep_truncation_refused_before_the_star_build(self, monkeypatch, evaluate, q):
        # the term at C*_j divides by j!, past the float range from j = 171 on
        def no_build(*args):
            raise AssertionError("star table built")

        monkeypatch.setattr(twisted_c, "_euler_memo", no_build)
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            evaluate(spec_of(-0.5, 1.5, 3, 1, (1,), q=q))

    def test_depth_171_still_sums_its_table(self):
        # C*_171 = 0 here, so no term divides by 171! and the value stands
        value = zeta_asymptotic(spec_of(-0.5, 1.5, 2, 1, (1,), q=171))
        assert cmath.isfinite(value)

    def test_truncation_below_r_takes_no_power(self):
        # q < r reads only the zero stars C*_0..C*_q, so the overflowing
        # power is never taken and the value is 0, as it always was
        assert zeta_asymptotic(spec_of(-160, 1000, 3, 1, (1, 2), q=1)) == 0

    def test_approximates_continuation(self):
        spec = spec_of(0.5, 40.0, 2, 1, (1,), q=2)
        accel = zeta_accelerated(spec)
        main = zeta_asymptotic(spec)
        assert abs(main - accel) < 1e-5


class TestTwoAxis:
    def test_direct_collapses_to_eta(self):
        # A = (1,1), k = 2: grouping by m1+m2 = n gives (n+1) copies of
        # (-1)^n (n+1)^{-3}, so the sum is 4 * eta(2) = pi^2 / 3
        value = zeta_direct(spec_of(3, 1, 2, 1, (1, 1)), 100)
        assert value.real == pytest.approx(math.pi**2 / 3, abs=1e-5)

    def test_accelerated_matches_collapse(self):
        value = zeta_accelerated(spec_of(3, 1, 2, 1, (1, 1)))
        assert value.real == pytest.approx(math.pi**2 / 3, abs=1e-9)


class TestFiniteSum:
    def test_bridge_to_closed_form(self):
        spec = spec_of(-2, 0, 2, 1, (1,), q=2)
        for n in (20, 40, 80):
            approx = finite_sum_asymptotic(spec, (n,))
            exact = float(closed_sum(SumSpec.of((1,), (n,), 0, 2, 2, 1)).as_rational())
            assert abs(approx - exact) <= 1e-8 * (1 + abs(exact))

    @pytest.mark.parametrize(
        "m, x, N", [(2, F(1, 2), (3, 4)), (2, F(1, 2), (0, 0)), (3, F(1), (5, 4)), (4, F(0), (7, 2))]
    )
    def test_integer_order_without_q_is_the_exact_box_sum(self, m, x, N):
        # every corner and the continuation take the exact value, also at x <= A.1
        exact = closed_sum(SumSpec.of((1, 2), N, x, m, 3, 1)).embed()
        value = finite_sum_asymptotic(spec_of(-m, x, 3, 1, (1, 2)), N)
        assert abs(value - exact) <= 1e-12 * abs(exact)

    def test_one_point_box_below_the_weight_total(self):
        # N = 0: the sum is its one term x^2 = 0.25; x and two of the corner shifts lie below A.1 = 3
        value = finite_sum_asymptotic(spec_of(-2, 0.5, 3, 1, (1, 2)), (0, 0))
        assert abs(value - 0.25) <= 1e-15

    def test_direct_matches_exact_integer_case(self):
        spec = spec_of(-2, 1, 2, 1, (1,), q=2)
        direct = finite_sum_direct(spec, (9,))
        exact = float(closed_sum(SumSpec.of((1,), (9,), 1, 2, 2, 1)).as_rational())
        assert direct.real == pytest.approx(exact, abs=1e-9)

    def test_corner_terms_share_one_star_table(self):
        spec = spec_of(-1.5, 0.5, 5, 2, (1, 3), q=4)
        N = (30, 30)
        # the per-corner evaluation through zeta_asymptotic, bit for bit
        reference = zeta_accelerated(spec)
        for indices, shift, sign in spec.A.corners(N):
            if indices:
                root = zeta_mod.roots_of_unity(5)[spec.twist.t * shift % 5]
                reference += sign * root * zeta_asymptotic(spec.with_x(spec.x + shift))
        reference /= 4
        memo = twisted_c._euler_memo
        memo.cache_clear()
        assert finite_sum_asymptotic(spec, N) == reference
        assert memo.cache_info().misses == 1  # one build on a cold memo
        assert finite_sum_asymptotic(spec, N) == reference
        assert memo.cache_info().misses == 1  # and none once it is warm

    def test_limit_mismatch_rejected(self):
        with pytest.raises(ValueError):
            finite_sum_asymptotic(spec_of(-2, 0, 2, 1, (1,)), (3, 4))

    def test_negative_limits_rejected_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(zeta_mod, "zeta_accelerated", no_work)
        with pytest.raises(ValueError, match="limits must be nonnegative"):
            finite_sum_asymptotic(spec_of(-1.5, 10, 5, 2, (1, 3), q=4), (-1, 3))

    def test_corner_refusals_come_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(zeta_mod, "zeta_accelerated", no_work)
        monkeypatch.setattr(zeta_mod, "finite_sum_direct", no_work)
        # the corner {1} of the box 0 lies at x + 1 = 2 < A.1 = 10, off the branch
        with pytest.raises(ValueError, match="branch violation"):
            finite_sum_asymptotic(spec_of(0.5, 1, 5, 1, (1, 2, 3, 4), q=6), (0, 0, 0, 0))
        with pytest.raises(ValueError, match="branch violation"):
            finite_sum_asymptotic(spec_of(2.5 - 1j, 1, 5, 1, (1, 2, 3, 4)), (1, 1, 1, 1))
        with pytest.raises(ValueError, match="truncation depth q is unset at s = 0.5"):
            finite_sum_asymptotic(spec_of(0.5, 0.5, 3, 1, (1,)), (2,))

    def test_tolerance_reaches_the_continuation(self, monkeypatch):
        seen = []
        accelerated = zeta_mod.zeta_accelerated

        def recording(spec, tol=1e-10, **kwargs):
            seen.append(tol)
            return accelerated(spec, tol=tol, **kwargs)

        monkeypatch.setattr(zeta_mod, "zeta_accelerated", recording)
        spec = spec_of(-1.5, 0.5, 5, 2, (1, 3), q=4)
        finite_sum_asymptotic(spec, (30, 30), tol=1e-3)
        decay_probe("limits", spec, [8, 16, 32], tol=1e-4)
        decay_probe("shift", spec.with_x(10), [10, 20, 40], tol=1e-5)
        # the limits probe evaluates Z(s, x) once, the shift probe once per shift
        assert seen == [1e-3] + [1e-4] + [1e-5] * 3

    def test_small_limits_still_return_a_value(self):
        # accuracy degrades at tiny N but the formula stays defined
        spec = spec_of(0.5, 1.0, 2, 1, (1,), q=1)
        value = finite_sum_asymptotic(spec, (0,))
        exact = finite_sum_direct(spec, (0,))
        assert math.isfinite(value.real)
        assert abs(value - exact) < 0.5


def count_continuations(monkeypatch) -> list:
    """Record every call of zeta.zeta_accelerated from now on."""
    calls = []
    accelerated = zeta_mod.zeta_accelerated

    def counting(*args, **kwargs):
        calls.append(args)
        return accelerated(*args, **kwargs)

    monkeypatch.setattr(zeta_mod, "zeta_accelerated", counting)
    return calls


class TestDecayProbe:
    def test_shift_probe_fractional_order(self):
        spec = spec_of(0.5, 10, 2, 1, (1,), q=2)
        report = decay_probe("shift", spec, [10, 20, 40, 80])
        assert report.monotone_decreasing
        assert not report.exact
        assert report.predicted == pytest.approx(-0.5)
        assert report.fitted <= report.predicted + 0.3

    @pytest.mark.parametrize("k, A", [(2, (1,)), (3, (1, 2))])
    def test_shift_probe_convergent_order(self, k, A):
        report = decay_probe("shift", spec_of(1.5, 10, k, 1, A, q=3), [10, 20, 40, 80])
        assert report.monotone_decreasing
        assert report.predicted == pytest.approx(-2.5)
        assert report.fitted <= report.predicted + 0.3

    def test_shift_probe_integer_order_marked_exact(self):
        spec = spec_of(-2, 10, 2, 1, (1,), q=3)
        report = decay_probe("shift", spec, [10, 20, 40, 80])
        assert report.exact
        assert report.fitted is None

    def test_limit_probe_monotone(self):
        spec = spec_of(0.5, 1.0, 4, 1, (1, 3), q=2)
        report = decay_probe("limits", spec, [8, 16, 32])
        assert report.monotone_decreasing

    def test_limit_probe_evaluates_the_continuation_once(self, monkeypatch):
        spec = spec_of(0.5, 1.0, 4, 1, (1, 3), q=2)
        scales = [8, 16, 32]
        # the per-scale finite sums, bit for bit
        expected = [
            (float(n), abs(finite_sum_asymptotic(spec, (n, n)) - finite_sum_direct(spec, (n, n))))
            for n in scales
        ]
        calls = count_continuations(monkeypatch)
        assert decay_probe("limits", spec, scales).points == tuple(expected)
        assert len(calls) == 1

    def test_limit_probe_stall_raises_at_the_first_scale(self, monkeypatch):
        spec = spec_of(0.5, 3.5, 3, 1, (1,), q=1)
        with pytest.raises(AccelerationError) as info:
            finite_sum_asymptotic(spec, (10,), tol=1e-30)
        expected = info.value
        calls = count_continuations(monkeypatch)
        with pytest.raises(AccelerationError) as info:
            decay_probe("limits", spec, [10, 20, 40], tol=1e-30)
        assert len(calls) == 1
        assert str(info.value) == str(expected)
        # the estimate has gone through the corners of the first scale's box
        assert info.value.best_estimate == expected.best_estimate
        assert info.value.achieved_tol == expected.achieved_tol

    def test_slope_matches_polyfit(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(11)
        for _ in range(50):
            scales = sorted(rng.sample(range(2, 500), rng.randint(3, 8)))
            points = [(float(s), rng.uniform(0.0, 2.0) * s ** rng.uniform(-6, 2)) for s in scales]
            points[0] = (points[0][0], 0.0)  # floored at 1e-300
            expected = np.polyfit(
                np.log([s for s, _ in points]), np.log([max(e, 1e-300) for _, e in points]), 1
            )[0]
            assert abs(zeta_mod._loglog_slope(points) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_scale_validation(self):
        spec = spec_of(0.5, 10, 2, 1, (1,))
        with pytest.raises(ValueError):
            decay_probe("shift", spec, [10, 20])
        with pytest.raises(ValueError):
            decay_probe("shift", spec, [40, 20, 10])
        with pytest.raises(ValueError):
            decay_probe("bogus", spec, [10, 20, 40])

    def test_repeated_or_zero_scale_rejected_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(zeta_mod, "zeta_accelerated", no_work)
        monkeypatch.setattr(zeta_mod, "finite_sum_direct", no_work)
        spec = spec_of(0.5, 10, 2, 1, (1,))
        with pytest.raises(ValueError, match="strictly increasing"):
            decay_probe("shift", spec, [20, 20, 40])
        with pytest.raises(ValueError, match="positive"):
            decay_probe("limits", spec, [0, 8, 16])

    def test_unset_depth_and_fractional_limit_rejected_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(zeta_mod, "zeta_accelerated", no_work)
        monkeypatch.setattr(zeta_mod, "finite_sum_direct", no_work)
        spec = spec_of(0.5, 10, 2, 1, (1,))
        for target in ("shift", "limits"):
            with pytest.raises(ValueError, match="truncation depth q is unset"):
                decay_probe(target, spec, [10, 20, 40])
        # the box N = 8 would be reported as the point 8.5
        with pytest.raises(ValueError, match=r"limit scales must be integers .*, got \[8\.5, 16, 32\]"):
            decay_probe("limits", spec_of(0.5, 1, 4, 1, (1, 3), q=2), [8.5, 16, 32])
        with pytest.raises(ValueError, match=r"limit scales must be integers .*, got \[8, 16, inf\]"):
            decay_probe("limits", spec_of(0.5, 1, 4, 1, (1, 3), q=2), [8, 16, math.inf])

    def test_bad_tolerance_rejected_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(zeta_mod, "zeta_accelerated", no_work)
        monkeypatch.setattr(zeta_mod, "finite_sum_direct", no_work)
        spec = spec_of(0.5, 10, 2, 1, (1,), q=2)
        for target in ("shift", "limits"):
            with pytest.raises(ValueError, match="tolerance"):
                decay_probe(target, spec, [10, 20, 40], tol=math.nan)

    def test_infinite_shift_rejected_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(zeta_mod, "zeta_accelerated", no_work)
        with pytest.raises(ValueError, match="must be finite"):
            decay_probe("shift", spec_of(0.5, 10, 2, 1, (1,), q=2), [10, 20, math.inf])
