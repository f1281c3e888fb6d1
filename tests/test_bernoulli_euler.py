import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from twistsum import bernoulli_euler, exact
from twistsum.bernoulli_euler import (
    SingularTwistError,
    TwistSpec,
    WeightVector,
    bernoulli_numbers,
    bernoulli_poly,
    classical_euler_numbers,
    classical_euler_poly,
    gen_euler_numbers,
    gen_euler_poly,
    periodic_bernoulli,
)
from twistsum.exact import CyclotomicNumber, PolynomialX, TruncatedSeries, binomial_inverse
from twistsum.oracles import gen_euler_numbers_by_convolution, gen_euler_poly_partition_check

F = Fraction
ALT = TwistSpec.alternating()


def recurrence_bernoulli(n_max):
    """Independent oracle: solve sum_{j<=n} C(n+1,j) B_j = 0 for B_n."""
    values = [F(1)]
    for n in range(1, n_max + 1):
        acc = sum(math.comb(n + 1, j) * values[j] for j in range(n))
        values.append(-acc / (n + 1))
    return values


def sympy_mod_phi(sympy, expr, k, zeta):
    """expr expanded and reduced modulo the k-th cyclotomic polynomial in zeta."""
    return sympy.rem(sympy.expand(expr), sympy.cyclotomic_poly(k, zeta), zeta)


def sympy_gen_euler_poly(sympy, m, k, t, A):
    """E_m(x, j; A_r) from its defining relation, computed in sympy alone.

    prod_l (1 - zeta^{t a_l} e^{a_l z}) * sum_n E_n(x) z^n/n! = 2^r e^{xz} is
    solved order by order in z with x symbolic and zeta reduced modulo Phi_k.
    Returns the coefficient of x^i as rationals in the basis 1, zeta, ...,
    zeta^(phi(k)-1), with trailing zero powers of x dropped.
    """
    z, x, zeta = sympy.symbols("z x zeta")
    phi = sympy.cyclotomic_poly(k, zeta)

    def reduce(expr):
        return sympy_mod_phi(sympy, expr, k, zeta)

    truncated_exp = lambda a: sum(a**n * z**n / sympy.factorial(n) for n in range(m + 1))
    product = sympy.expand(sympy.Mul(*(1 - zeta ** (t * a) * truncated_exp(a) for a in A)))
    p = [reduce(product.coeff(z, n)) for n in range(m + 1)]
    inv_p0 = sympy.invert(p[0], phi, zeta)
    e = []  # e[n] = E_n(x) / n!
    for n in range(m + 1):
        rhs = 2 ** len(A) * x**n / sympy.factorial(n) - sum(p[i] * e[n - i] for i in range(1, n + 1))
        e.append(reduce(rhs * inv_p0))
    poly = sympy.Poly(sympy.expand(e[m] * sympy.factorial(m)), x, zeta)
    degree = sympy.degree(phi, zeta)
    coeffs = [
        [F(str(poly.coeff_monomial(x**i * zeta**j))) for j in range(degree)]
        for i in range(m + 1)
    ]
    while coeffs and not any(coeffs[-1]):
        coeffs.pop()
    return coeffs


def gen_euler_by_factors(m_max, twist, A):
    """2^r / prod_l (1 - zeta^{t a_l} e^{a_l z}) built one weight at a time, one
    truncated-series product per factor: the reference that the corner
    expansion of ``gen_euler_numbers`` must match literally."""
    prod = TruncatedSeries.one(m_max, twist.k)
    for a in A:
        root = twist.root(a)
        coeffs = [CyclotomicNumber.one(twist.k) - root]
        for n in range(1, m_max + 1):
            coeffs.append(-root * F(a**n, math.factorial(n)))
        prod = prod * TruncatedSeries.from_coeffs(coeffs, m_max, twist.k)
    series = prod.inverse().scale(2 ** len(A))
    return [series.taylor_value(m) for m in range(m_max + 1)]


def corner_values_by_roots(m_max, twist, A):
    """D_0..D_m_max, D_n = 2^{-r} sum_S (-1)^{|S|} zeta^{t d_S} d_S^n, one whole number per
    corner and order: each corner's root times sign/2^r, times d_S^n, added into
    D_n.  The reference that the integer corner sums of the build must match."""
    values = [CyclotomicNumber.zero(twist.k)] * (m_max + 1)
    for _, d, sign in WeightVector(tuple(A)).corners((0,) * len(A)):
        root = twist.root(d) * F(sign, 2 ** len(A))
        values = [v + root * d**n for n, v in enumerate(values)]
    return values


def bernoulli_by_series(n_max):
    """B_0..B_n_max by inverting the truncated series (e^z - 1)/z, the reference
    that the EGF inverse of ``bernoulli_numbers`` must match literally."""
    base = TruncatedSeries.from_coeffs([F(1, math.factorial(n + 1)) for n in range(n_max + 1)], n_max)
    inv = base.inverse()
    return [inv.taylor_value(n).as_rational() for n in range(n_max + 1)]


def classical_euler_by_series(n_max):
    """E_0..E_n_max by inverting the truncated series (e^z + 1)/2."""
    denom = TruncatedSeries.from_coeffs(
        [F(1)] + [F(1, 2 * math.factorial(n)) for n in range(1, n_max + 1)], n_max
    )
    inv = denom.inverse()
    return [inv.taylor_value(n).as_rational() for n in range(n_max + 1)]


def bernoulli_value_by_fraction_horner(n, y):
    """B_n(y) by Horner's rule over sum_i C(n, i) B_{n-i} y^i in Fractions, the
    reference that the integer Horner of ``_bernoulli_value`` must match literally."""
    numbers = bernoulli_numbers(n)
    acc = F(0)
    for i in range(n, -1, -1):
        acc *= y
        if numbers[n - i]:
            acc += math.comb(n, i) * numbers[n - i]
    return acc


def bernoulli_value_per_call(n, a, b):
    """B_n(a/b) from the integer sum over the common denominator and the
    binomials made afresh on every call, reduced: the reference that the
    cached integer rows of ``_bernoulli_value`` must match literally."""
    numbers = bernoulli_numbers(n)
    common = math.lcm(*(c.denominator for c in numbers))
    acc, scale = 0, 1
    for i in range(n, -1, -1):
        acc *= a
        c = numbers[n - i]
        if c:
            acc += math.comb(n, i) * c.numerator * (common // c.denominator) * scale
        scale *= b
    return F(acc, common * (scale // b))


def literal(values):
    """The canonical form of each number: its order and its coordinates."""
    return [(v.order, v.coeffs) for v in values]


class TestAgainstSympy:
    def test_bernoulli_numbers(self):
        sympy = pytest.importorskip("sympy")
        nums = bernoulli_numbers(30)
        for n in range(31):
            ref = sympy.Rational(sympy.bernoulli(n))
            # sympy >= 1.12 generates from z e^z/(e^z-1); ours is z/(e^z-1),
            # so the two sequences differ by (-1)^n (only n = 1 in practice)
            assert F(int(ref.p), int(ref.q)) == (-1) ** n * nums[n], n

    def test_cyclotomic_polynomials(self):
        sympy = pytest.importorskip("sympy")
        from twistsum.exact import cyclotomic_polynomial

        x = sympy.symbols("x")
        for k in range(1, 31):
            mine = [c.as_rational() for c in cyclotomic_polynomial(k).coeffs]
            theirs = list(reversed(sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()))
            assert [F(int(c)) for c in theirs] == mine, k

    def test_euler_polynomials(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        for n in range(11):
            theirs = sympy.Poly(sympy.euler(n, x), x).all_coeffs()
            mine = [c.as_rational() for c in reversed(classical_euler_poly(n).coeffs)]
            assert [F(str(c)) for c in theirs] == mine, n


class TestBernoulli:
    def test_first_values(self):
        nums = bernoulli_numbers(12)
        assert nums[0] == 1
        assert nums[1] == F(-1, 2)
        assert nums[12] == F(-691, 2730)

    def test_against_recurrence_oracle(self):
        assert bernoulli_numbers(20) == recurrence_bernoulli(20)

    def test_against_series_inverse(self):
        nums = bernoulli_numbers(60)
        assert [type(b) for b in nums] == [F] * 61
        assert nums == bernoulli_by_series(60)

    def test_tables_at_their_edges_equal_a_fresh_inverse(self):
        bernoulli_euler._bernoulli_table.cache_clear()
        for n in (0, 15, 16, 31, 32, 63, 64, 200):
            assert bernoulli_numbers(n) == binomial_inverse([F(1, i + 1) for i in range(n + 1)]), n
        # one table per power-of-two length 16, 32, 64, 128 and 256
        assert bernoulli_euler._bernoulli_table.cache_info().currsize == 5

    def test_returns_a_copy(self):
        got = bernoulli_numbers(20)
        got[3] = F(99)
        got.append(F(0))
        assert bernoulli_numbers(20) == recurrence_bernoulli(20)

    def test_recurrence_identity(self):
        nums = bernoulli_numbers(15)
        for n in range(1, 15):
            assert sum(math.comb(n + 1, j) * nums[j] for j in range(n + 1)) == 0

    def test_value_by_integer_horner(self):
        points = [F(0), F(1), F(7, 5), F(-3, 4)] + [F(-l, k) for k in range(2, 8) for l in range(1, k)]
        for n in range(61):
            for y in points:
                got = bernoulli_euler._bernoulli_value(n, y)
                assert type(got) is F and got == bernoulli_value_by_fraction_horner(n, y), (n, y)
                # the integer Horner over an unreduced ratio a/b gives the same value
                assert bernoulli_value_per_call(n, 2 * y.numerator, 2 * y.denominator) == got, (n, y)

    def test_polynomials(self):
        assert bernoulli_poly(0) == PolynomialX.from_coeffs([1])
        assert bernoulli_poly(1) == PolynomialX.from_coeffs([F(-1, 2), 1])
        assert bernoulli_poly(2) == PolynomialX.from_coeffs([F(1, 6), -1, 1])

    def test_periodic(self):
        assert periodic_bernoulli(2, F(5, 2)) == F(-1, 12)
        assert periodic_bernoulli(1, F(-1, 2)) == 0
        assert periodic_bernoulli(3, 7) == 0


class TestBernoulliRows:
    def test_ratio_matches_the_per_call_expression(self):
        grid = [(0, 1), (0, 7), (1, 1), (-1, 1), (3, 2), (-3, 2), (5, 12), (-11, 12), (-4, 6), (25, 9)]
        for n in range(61):
            for a, b in grid:
                got = bernoulli_euler._bernoulli_value(n, F(a, b))
                assert type(got) is F and got == bernoulli_value_per_call(n, a, b), (n, a, b)

    def test_rows_survive_eviction(self):
        orders = range(200)  # more orders than the cache keeps
        first = [bernoulli_euler._bernoulli_value(n, F(-5, 3)) for n in orders]
        assert [bernoulli_euler._bernoulli_value(n, F(-5, 3)) for n in orders] == first
        assert first[150] == bernoulli_value_per_call(150, -5, 3)


class TestClassicalEuler:
    def test_polynomials(self):
        assert classical_euler_poly(0) == PolynomialX.from_coeffs([1])
        assert classical_euler_poly(1) == PolynomialX.from_coeffs([F(-1, 2), 1])
        assert classical_euler_poly(3) == PolynomialX.from_coeffs([F(1, 4), 0, F(-3, 2), 1])

    def test_numbers(self):
        assert classical_euler_numbers(3) == [F(1), F(-1, 2), F(0), F(1, 4)]

    def test_against_series_inverse(self):
        nums = classical_euler_numbers(40)
        assert [type(e) for e in nums] == [F] * 41
        assert nums == classical_euler_by_series(40)

    def test_complement_identity(self):
        # E_m(x) + E_m(x+1) = 2 x^m, at m + 1 points, which fix a degree-m identity
        for m in range(11):
            p = classical_euler_poly(m)
            for x in (F(j, 3) - 1 for j in range(m + 1)):
                assert p.eval_exact(x) + p.eval_exact(x + 1) == 2 * x**m, (m, x)


class TestGeneralizedEuler:
    def test_reduces_to_classical(self):
        for m in range(13):
            assert gen_euler_poly(m, ALT, (1,)) == classical_euler_poly(m)

    def test_single_weight_numbers(self):
        assert gen_euler_numbers(0, ALT, (1,)) == [F(1)]
        nums = gen_euler_numbers(3, ALT, (1,))
        assert nums == [F(1), F(-1, 2), F(0), F(1, 4)]

    def test_two_weight_number(self):
        e2 = gen_euler_numbers(2, ALT, (1, 3))[2]
        assert e2 == F(3, 2)
        # the convolution that produces it: 2 * C(2,1) E_1(1) E_1(3) term only
        assert 2 * F(-1, 2) * F(-3, 2) == F(3, 2)

    def test_two_weight_polynomial(self):
        assert gen_euler_poly(2, ALT, (1, 3)) == PolynomialX.from_coeffs([F(3, 2), -4, 1])
        assert gen_euler_poly(1, ALT, (1,)) == PolynomialX.from_coeffs([F(-1, 2), 1])
        assert gen_euler_poly(0, ALT, (1,)) == PolynomialX.from_coeffs([1])

    def test_binomial_assembly_oracle(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(17)
        for _ in range(15):
            k = rng.choice((2, 3, 4))
            t = rng.randrange(1, k)
            twist = TwistSpec(k, t)
            entries = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            A = WeightVector(entries)
            if not A.admissible_for(twist):
                continue
            m = rng.randint(0, 6)
            mine = [list(c.coeffs) for c in gen_euler_poly(m, twist, A).coeffs]
            assert mine == sympy_gen_euler_poly(sympy, m, k, t, entries), (k, t, entries, m)

    def test_leading_coefficient_is_e0(self):
        poly = gen_euler_poly(4, TwistSpec(3, 1), (1, 2))
        e0 = gen_euler_numbers(0, TwistSpec(3, 1), (1, 2))[0]
        assert poly.coeff(4) == e0

    def test_convolution_path_examples(self):
        assert gen_euler_numbers(5, ALT, (3,)) == gen_euler_numbers_by_convolution(5, ALT, (3,))
        assert gen_euler_numbers(2, ALT, (1, 3))[2] == gen_euler_numbers_by_convolution(
            2, ALT, (1, 3)
        )[2]
        twist = TwistSpec(3, 1)
        lhs = gen_euler_numbers_by_convolution(1, twist, (1, 1))[1]
        e1 = gen_euler_numbers(1, twist, (1,))
        assert lhs == 2 * e1[1] * e1[0]

    def test_convolution_path_random(self):
        rng = random.Random(23)
        checked = 0
        while checked < 20:
            k = rng.choice((2, 3, 4, 5, 6))
            twist = TwistSpec(k, rng.randrange(1, k))
            A = WeightVector(tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3))))
            if not A.admissible_for(twist):
                continue
            m = rng.randint(0, 10)
            assert gen_euler_numbers(m, twist, A) == gen_euler_numbers_by_convolution(
                m, twist, A
            )
            checked += 1

    def test_singular_twist_rejected(self):
        with pytest.raises(SingularTwistError, match="singular twist"):
            gen_euler_numbers(2, ALT, (2,))
        with pytest.raises(SingularTwistError):
            gen_euler_poly(1, TwistSpec(3, 1), (3,))


class TestCornerExpansion:
    """The twisted product is expanded over the corner subsets and inverted once."""

    @staticmethod
    def seeded_cases():
        """Two cases per (k, r) for k = 2..13 and r = 1..4, at orders 0..14.

        The second case of each (k, r >= 2) repeats its first weight, so two
        corners share one weight sum d_S.
        """
        rng = random.Random(29)
        cases = []
        for k, r in itertools.product(range(2, 14), range(1, 5)):
            for repeat in (False, r >= 2):
                while True:
                    twist = TwistSpec(k, rng.randrange(1, k))
                    A = [rng.randint(1, 8) for _ in range(r)]
                    if repeat:
                        A[-1] = A[0]
                    if WeightVector(tuple(A)).admissible_for(twist):
                        break
                cases.append((rng.randint(0, 14), twist, tuple(A)))
        return cases

    def test_matches_factor_product(self):
        cases = self.seeded_cases()
        assert len(cases) == 96
        assert any(len(set(A)) < len(A) for _, _, A in cases)
        for m, twist, A in cases:
            want = gen_euler_by_factors(m, twist, A)
            assert literal(gen_euler_numbers(m, twist, A)) == literal(want), (m, twist, A)
            poly = gen_euler_poly(m, twist, A)
            expected = PolynomialX.from_coeffs(
                [math.comb(m, i) * want[m - i] for i in range(m + 1)], twist.k
            )
            assert (poly.order, literal(poly.coeffs)) == (twist.k, literal(expected.coeffs))

    def test_shared_corner_sums(self):
        # (1, 1): both singletons sum to 1; (1, 2, 3): {1, 2} and {3} both sum to 3
        for twist, A in ((TwistSpec(3, 1), (1, 1)), (TwistSpec(5, 2), (1, 2, 3)), (ALT, (1, 1, 1, 3))):
            for m in (0, 1, 7, 14):
                assert literal(gen_euler_numbers(m, twist, A)) == literal(
                    gen_euler_by_factors(m, twist, A)
                ), (twist, A, m)

    def test_no_series_and_one_field_inverse(self, monkeypatch):
        # every table is an EGF inverse: no builder makes a truncated series,
        # and a generalized build inverts only D_0
        def no_series(self):
            raise AssertionError("a builder made a TruncatedSeries")

        inverses = []
        original = CyclotomicNumber.inverse

        def counting(self):
            inverses.append(self)
            return original(self)

        monkeypatch.setattr(TruncatedSeries, "__post_init__", no_series)
        monkeypatch.setattr(CyclotomicNumber, "inverse", counting)
        bernoulli_euler._bernoulli_table.cache_clear()
        for build in (bernoulli_numbers, classical_euler_numbers):
            inverses.clear()
            build(12)
            assert not inverses, build.__name__
        for build in (gen_euler_numbers, gen_euler_poly):
            for twist, A in ((ALT, (1,)), (TwistSpec(7, 3), (1, 2, 4, 5))):
                inverses.clear()
                build(12, twist, A)
                d0 = math.prod(1 - twist.root(a) for a in A) * F(1, 2 ** len(A))
                assert inverses == [d0], (build.__name__, A)

    @staticmethod
    def corner_values(monkeypatch, m_max, twist, A):
        """The Taylor values the build inverts: the build with its inverse replaced by the identity."""
        with monkeypatch.context() as patch:
            patch.setattr(bernoulli_euler, "binomial_inverse", list)
            return gen_euler_numbers(m_max, twist, A)

    def test_integer_corner_sums_equal_root_products(self, monkeypatch):
        rng = random.Random(43)
        for k, r in itertools.product(range(2, 31), range(1, 5)):
            while True:
                twist = TwistSpec(k, rng.randrange(1, k))
                A = [rng.randint(1, 9) for _ in range(r)]
                if r >= 2 and rng.random() < 0.3:
                    A[-1] = A[0]
                if WeightVector(tuple(A)).admissible_for(twist):
                    break
            got = self.corner_values(monkeypatch, 24, twist, A)
            want = corner_values_by_roots(24, twist, A)
            assert literal(got) == literal(want), (twist, A)
            assert all(type(c) is F for v in got for c in v.coeffs), (twist, A)

    def test_corner_sums_take_no_root_and_no_product(self, monkeypatch):
        cases = [(ALT, (1, 3, 5)), (TwistSpec(7, 3), (1, 2, 4, 5)), (TwistSpec(12, 5), (1, 1, 7))]
        want = [corner_values_by_roots(20, twist, A) for twist, A in cases]
        numbers = [gen_euler_numbers(20, twist, A) for twist, A in cases]  # warms every cache
        calls = Counter()

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        monkeypatch.setattr(TwistSpec, "root", counting("root", TwistSpec.root))
        monkeypatch.setattr(bernoulli_euler, "cyc_root", counting("cyc_root", bernoulli_euler.cyc_root))
        monkeypatch.setattr(exact, "cyc_root", counting("cyc_root", exact.cyc_root))
        monkeypatch.setattr(CyclotomicNumber, "__mul__", counting("mul", CyclotomicNumber.__mul__))
        monkeypatch.setattr(CyclotomicNumber, "__rmul__", counting("mul", CyclotomicNumber.__rmul__))
        got = [self.corner_values(monkeypatch, 20, twist, A) for twist, A in cases]
        assert not calls, calls
        assert [literal(v) for v in got] == [literal(v) for v in want]
        # the whole build, inverse included, builds no root either
        assert [gen_euler_numbers(20, twist, A) for twist, A in cases] == numbers
        assert calls["root"] == calls["cyc_root"] == 0

    def test_negative_order_rejected(self):
        for build in (gen_euler_numbers, gen_euler_poly):
            with pytest.raises(ValueError, match="truncation order must be nonnegative"):
                build(-1, ALT, (1, 3))
        with pytest.raises(ValueError, match="truncation order must be nonnegative"):
            classical_euler_numbers(-1)
        with pytest.raises(ValueError, match="n_max must be nonnegative"):
            bernoulli_numbers(-1)


class TestPartitionIdentity:
    def test_trivial_partition(self):
        assert gen_euler_poly_partition_check(3, ALT, (1, 3), [(1, 3)], [F(5)])

    def test_split_with_rational_x(self):
        for m in range(5):
            assert gen_euler_poly_partition_check(m, ALT, (1, 3), [(1,), (3,)], [F(2), F(3)])

    def test_three_weights(self):
        twist = TwistSpec(4, 1)
        for m in range(4):
            assert gen_euler_poly_partition_check(m, twist, (1, 2, 3), [(1, 2), (3,)], [F(0), F(1)])

    def test_malformed_partition(self):
        with pytest.raises(ValueError):
            gen_euler_poly_partition_check(2, ALT, (1, 3), [(1,), (5,)], [F(0), F(0)])
        with pytest.raises(ValueError):
            gen_euler_poly_partition_check(2, ALT, (1, 3), [(1, 3)], [F(0), F(0)])


class TestSpecs:
    def test_twist_normalization(self):
        assert TwistSpec(4, 6).t == 2
        assert TwistSpec(2, -1).t == 1
        assert ALT.root() == F(-1)

    def test_admissibility(self):
        assert TwistSpec(4, 2).admits(1)
        assert not TwistSpec(4, 2).admits(2)
        assert WeightVector.of(1, 3).admissible_for(ALT)
        assert not WeightVector.of(1, 2).admissible_for(ALT)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightVector(())
        with pytest.raises(ValueError):
            WeightVector((0,))


class TestDotCounts:
    @staticmethod
    def histogram(A, N):
        counts = Counter(
            sum(a * m for a, m in zip(A, M)) for M in itertools.product(*(range(n + 1) for n in N))
        )
        return [counts[d] for d in range(sum(a * n for a, n in zip(A, N)) + 1)]

    def test_matches_histogram(self):
        rng = random.Random(53)
        cases = [((1,), (0,)), ((3,), (4,)), ((2, 2), (0, 5)), ((1, 1, 1), (3, 3, 3))]
        for _ in range(40):
            r = rng.randint(1, 4)
            A = tuple(rng.randint(1, 6) for _ in range(r))
            cases.append((A, tuple(rng.randint(0, 6) for _ in range(r))))
        for A, N in cases:
            counts = WeightVector(A).dot_counts(N)
            assert counts == self.histogram(A, N), (A, N)
            assert sum(counts) == math.prod(n + 1 for n in N)

    @staticmethod
    def padded_windows(A, N):
        """The axis-by-axis window sums taken in place over a zero-padded copy of each residue class."""
        counts = [1]
        for a, n in zip(A, N):
            padded = counts + [0] * (a * n)
            for start in range(a):
                prefix = list(itertools.accumulate(padded[start::a]))
                padded[start::a] = [
                    total - before for total, before in zip(prefix, [0] * (n + 1) + prefix)
                ]
            counts = padded
        return counts

    def test_matches_padded_windows_on_large_boxes(self):
        rng = random.Random(57)
        cases = [((3,), (3999,)), ((2, 1), (150, 78)), ((7, 7), (0, 40)), ((1, 9), (3, 2))]
        for _ in range(60):
            r = rng.randint(1, 4)
            A = tuple(rng.randint(1, 9) for _ in range(r))
            cases.append((A, tuple(rng.randint(0, {1: 500, 2: 120, 3: 30, 4: 12}[r]) for _ in range(r))))
        for A, N in cases:
            assert WeightVector(A).dot_counts(N) == self.padded_windows(A, N), (A, N)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightVector.of(1, 2).dot_counts((3,))
        with pytest.raises(ValueError):
            WeightVector.of(1).dot_counts((-1,))

    @pytest.mark.parametrize(
        "N, message",
        [
            ((1, 2, 3), "limits and weights must have the same length"),
            ((3,), "limits and weights must have the same length"),
            ((), "limits and weights must have the same length"),
            ((2, -1), "limits must be nonnegative"),
        ],
    )
    def test_corners_check_limits_as_dot_counts_does(self, N, message):
        A = WeightVector.of(1, 2)
        for method in (A.dot_counts, A.corners):
            with pytest.raises(ValueError, match=message):
                method(N)

    def test_corners(self):
        assert WeightVector.of(2, 3).corners((4, 1)) == [
            ((), 0, 1),
            ((0,), 10, -1),
            ((1,), 6, -1),
            ((0, 1), 16, 1),
        ]
