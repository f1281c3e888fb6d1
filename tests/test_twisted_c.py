import math
from fractions import Fraction

import pytest

from test_bernoulli_euler import sympy_mod_phi
from twistsum.bernoulli_euler import (
    SingularTwistError,
    TwistSpec,
    _bernoulli_value,
    bernoulli_numbers,
    gen_euler_numbers,
    gen_euler_poly,
)
from twistsum.exact import CyclotomicNumber, PolynomialX, cyc_root, roots_of_unity
from twistsum.oracles import _star_table, c_poly_gf_check, c_star_multi_gf_check
from twistsum.powersum import SumSpec, brute_sum, closed_sum
from twistsum import bernoulli_euler, exact, oracles, twisted_c
from twistsum.twisted_c import (
    _PeriodicKernel,
    _periodic_stars,
    CPolySpec,
    c_poly,
    c_star,
    c_star_multi,
    c_star_s,
    c_star_s_exact,
    c_tilde,
    em_constant,
    pochhammer,
)

F = Fraction


class TestCPoly:
    def test_order_zero_vanishes(self):
        assert c_poly(CPolySpec(0, 3, 1)).is_zero()
        assert c_poly(CPolySpec(0, 5, 3)).is_zero()

    def test_order_one_k2(self):
        # direct expansion: B_1(x) - B_1(x - 1/2) = (x - 1/2) - (x - 1) = 1/2
        assert c_poly(CPolySpec(1, 2, 1)) == PolynomialX.from_coeffs([F(1, 2)], 2)

    def test_order_one_general_k(self):
        # closed form 1/(1 - zeta^a) for every admissible (k, a)
        for k in (2, 3, 4, 5, 6):
            for a in range(1, k):
                expected = (CyclotomicNumber.one(k) - cyc_root(k, a)).inverse()
                poly = c_poly(CPolySpec(1, k, a))
                assert poly.degree() == 0
                assert poly.coeff(0) == expected

    def test_order_two_k2(self):
        assert c_poly(CPolySpec(2, 2, 1)) == PolynomialX.from_coeffs([F(-3, 4), 1], 2)

    def test_generating_function_identity(self):
        for k in (2, 3, 4):
            for a in range(1, k):
                assert c_poly_gf_check(k, a, 6)

    def test_pinned_values(self):
        # literal values from before the Bernoulli rows were cached
        assert [c.coeffs for c in c_poly(CPolySpec(4, 3, 2)).coeffs] == [
            (F(-16, 81), F(28, 27)), (F(40, 27), F(-100, 27)), (F(-8, 3), F(4)), (F(4, 3), F(-4, 3)),
        ]
        assert [c.coeffs for c in c_poly(CPolySpec(7, 5, 3)).coeffs] == [
            (F(24332, 78125), F(20909, 78125), F(-117082, 78125), F(22351, 78125)),
            (F(-46368, 15625), F(-8862, 3125), F(166824, 15625), F(-48006, 15625)),
            (F(43428, 3125), F(35931, 3125), F(-92526, 3125), F(44457, 3125)),
            (F(-4032, 125), F(-532, 25), F(1008, 25), F(-756, 25)),
            (F(924, 25), F(483, 25), F(-714, 25), F(777, 25)),
            (F(-504, 25), F(-42, 5), F(252, 25), F(-378, 25)),
            (F(21, 5), F(7, 5), F(-7, 5), F(14, 5)),
        ]

    def test_invalid_spec(self):
        with pytest.raises(SingularTwistError):
            CPolySpec(1, 2, 2)
        with pytest.raises(ValueError):
            CPolySpec(1, 1, 1)


class TestAgainstSympy:
    def test_c_poly_coefficients(self):
        # sum_l zeta^{al} B_n(x - l/k) from sympy: the shifted Bernoulli polynomials
        # are summed per power zeta^r, r = al mod k, and each zeta^r is replaced
        # by its reduction mod Phi_k
        sympy = pytest.importorskip("sympy")
        x, zeta = sympy.symbols("x zeta")
        for k in (5, 7, 8, 12):
            reduced = [sympy.Poly(sympy_mod_phi(sympy, zeta**r, k, zeta), zeta) for r in range(k)]
            degree = sympy.degree(sympy.cyclotomic_poly(k, zeta), zeta)
            basis = [[F(str(p.coeff_monomial(zeta**j))) for j in range(degree)] for p in reduced]
            for n in range(17):
                a = 1 + (5 * n) % (k - 1)
                bn = sympy.Poly(sympy.bernoulli(n, x), x, domain="QQ")
                per_root = [sympy.Poly(0, x, domain="QQ")] * k
                for l in range(k):
                    per_root[a * l % k] += bn.shift(-sympy.Rational(l, k))
                ref = []
                for i in range(n + 1):
                    c = [F(str(p.coeff_monomial(x**i))) for p in per_root]
                    ref.append([sum(c[r] * basis[r][j] for r in range(k)) for j in range(degree)])
                while ref and not any(ref[-1]):
                    ref.pop()
                mine = [list(c.coeffs) for c in c_poly(CPolySpec(n, k, a)).coeffs]
                assert mine == ref, (n, k, a)

    def test_bernoulli_value(self):
        sympy = pytest.importorskip("sympy")
        points = (F(-7, 3), F(-1), F(-1, 2), F(-1, 12), F(0), F(5, 7), F(13, 4))
        for n in range(17):
            for y in points:
                ref = sympy.bernoulli(n, sympy.Rational(y.numerator, y.denominator))
                assert _bernoulli_value(n, y) == F(str(ref)), (n, y)


class TestCTilde:
    def test_piecewise_values_k2(self):
        spec = CPolySpec(1, 2, 1)
        assert c_tilde(spec, F(1, 4)) == F(-1, 2)
        assert c_tilde(spec, F(3, 4)) == F(1, 2)

    def test_order_two_at_zero(self):
        assert c_tilde(CPolySpec(2, 2, 1), F(0)) == F(1, 4)

    def test_matches_polynomial_on_last_subinterval(self):
        # every shifted argument lies in [0,1) exactly when x is in [(k-1)/k, 1)
        for k in (2, 3, 4):
            for a in range(1, k):
                for n in range(4):
                    spec = CPolySpec(n, k, a)
                    x = F(k - 1, k) + F(1, 3 * k)
                    assert c_poly(spec).eval_exact(x) == c_tilde(spec, x)

    def test_float_path_agrees_with_exact(self):
        spec = CPolySpec(2, 3, 1)
        exact = c_tilde(spec, F(1, 5)).embed()
        numeric = c_tilde(spec, 0.2)
        assert abs(numeric - exact) < 1e-12

    def test_pinned_values(self):
        # literal values from before the Bernoulli rows were cached
        assert c_tilde(CPolySpec(5, 4, 3), F(7, 3)).coeffs == (F(-55, 1296), F(1025, 41472))
        assert c_tilde(CPolySpec(6, 3, 1), F(-5, 2)).coeffs == (F(-403, 11664), F(0))
        assert c_tilde(CPolySpec(9, 6, 1), F(1, 5)).coeffs == (F(-11746179851, 72900000000), F(247390331, 4860000000))

    def test_periodicity(self):
        spec = CPolySpec(3, 3, 2)
        assert c_tilde(spec, F(1, 7)) == c_tilde(spec, F(1, 7) + 4)


class TestPeriodicKernel:
    def test_roots_come_from_the_table(self):
        for k in (2, 3, 7, 12, 29):
            table = roots_of_unity(k)
            for residue in range(1, k):
                kernel = _PeriodicKernel(3, k, residue)
                assert kernel._roots == [table[residue * l % k] for l in range(k)], (k, residue)

    def test_coefficients_are_the_rounded_bernoulli_terms(self):
        # c / L of the integer row is correctly rounded, as is the Fraction C(n, i) B_{n-i}
        for n in range(200):
            numbers = bernoulli_numbers(n)
            want = [float(math.comb(n, i) * numbers[n - i]) for i in range(n + 1)]
            assert _PeriodicKernel(n, 3, 1)._bcoeffs == want, n


class TestOrderKeyedMemos:
    def test_a_sweep_of_orders_keeps_at_most_128_keys(self):
        for n in range(200):
            em_constant(n, 2, 1)
        assert twisted_c._em_constant.cache_info().currsize <= 128


class TestEmConstant:
    def test_known_values(self):
        assert em_constant(1, 2, 1) == F(-1, 2)
        assert em_constant(2, 2, 1) == F(1, 4)

    def test_order_zero_always_vanishes(self):
        for k in range(2, 9):
            for a in range(1, k):
                assert em_constant(0, k, a).is_zero()

    def test_depends_on_a_mod_k(self):
        for k in (2, 5, 12):
            for a in range(-k, 2 * k):
                if a % k:
                    for l in range(5):
                        assert em_constant(l, k, a) == em_constant(l, k, a + k)

    def test_invalid_modulus_raises_value_error(self):
        for k in (1, 0, -3):
            with pytest.raises(ValueError, match="modulus"):
                em_constant(1, k, 1)
        with pytest.raises(SingularTwistError):
            em_constant(1, 4, 8)
        with pytest.raises(ValueError):
            em_constant(-1, 4, 1)

    def test_order_one_closed_form(self):
        # -(1 + sum_q (q/k) zeta^{aq})
        for k in (2, 3, 4, 6, 8):
            for a in range(1, k):
                acc = CyclotomicNumber.one(k)
                for qq in range(k):
                    acc = acc + cyc_root(k, a * qq) * F(qq, k)
                assert em_constant(1, k, a) == -acc


class TestCStar:
    def test_examples(self):
        assert c_star(0, 2, 1).is_zero()
        assert c_star(1, 2, 1) == F(-1, 2)
        assert c_star(2, 2, 3) == F(3, 4)

    def test_multi(self):
        assert c_star_multi(2, 2, (1,)) == c_star(2, 2, 1)
        assert c_star_multi(1, 2, (1, 1)).is_zero()
        assert c_star_multi(2, 2, (1, 1)) == F(1, 2)

    def test_multi_negative_order_rejected(self):
        with pytest.raises(ValueError, match="m must be nonnegative"):
            c_star_multi(-1, 3, (1, 2))

    def test_gf_cross_checks(self):
        assert c_star_multi_gf_check(4, 2, (1,))
        assert c_star_multi_gf_check(4, 3, (1, 2))
        assert c_star_multi_gf_check(3, 4, (1, 2, 3))

    def test_gf_check_rejects_singular(self):
        with pytest.raises(SingularTwistError):
            c_star_multi_gf_check(3, 2, (2,))

    def test_gf_checks_reject_a_perturbed_c_number(self, monkeypatch):
        assert c_poly_gf_check(3, 1, 6)
        assert c_star_multi_gf_check(4, 3, (1, 2))
        true_number = twisted_c._c_number

        def perturbed(m, k, a):
            value = true_number(m, k, a)
            return value + 1 if m == 3 else value

        # oracles imports the name, so it is patched there as well
        monkeypatch.setattr(twisted_c, "_c_number", perturbed)
        monkeypatch.setattr(oracles, "_c_number", perturbed)
        assert not c_poly_gf_check(3, 1, 6)
        assert not c_star_multi_gf_check(4, 3, (1, 2))


def _literal(table):
    return [(c.order, c.coeffs) for c in table]


class TestStarMemo:
    def setup_method(self):
        twisted_c._euler_memo.cache_clear()

    def test_memo_equals_the_uncached_table(self):
        for k in range(2, 13):
            for t in range(k):
                weights = [a for a in range(1, 2 * k) if t * a % k]
                if len(weights) < 2:
                    continue
                a, b, c = weights[0], weights[-1], weights[len(weights) // 2]
                for i, A in enumerate([(a,), (a, b), (b, a), (b, a, b), (c, a, b, a)]):
                    q = (k + t + 3 * i) % 15  # every q <= 14 occurs
                    memo = _periodic_stars(q, k, A, t)
                    assert isinstance(memo, tuple)
                    assert _literal(memo) == _literal(_star_table(c_star, q, k, A, t))

    def test_a_cold_build_calls_no_other_table_builder(self, monkeypatch):
        # the table is read off the private Euler build alone: no per-weight
        # Bernoulli sums, no convolution and no public Euler entry
        def forbidden(*args, **kwargs):
            raise AssertionError("the star table called another builder")

        monkeypatch.setattr(twisted_c, "em_constant", forbidden)
        monkeypatch.setattr(oracles, "binomial_convolve", forbidden)
        monkeypatch.setattr(bernoulli_euler, "gen_euler_numbers", forbidden)
        monkeypatch.setattr(bernoulli_euler, "gen_euler_poly", forbidden)
        for q, k, A, t in ((14, 7, (2, 3), 1), (9, 12, (1, 5, 5, 7), 5), (1, 3, (1, 2), 2)):
            assert len(_periodic_stars(q, k, A, t)) == q + 1
        assert not hasattr(exact, "binomial_convolve")

    def test_keys_with_the_same_pairs_share_one_entry(self):
        memo = twisted_c._euler_memo
        # k = 4, A = (2, 2): t a mod k is 2 at t = 1 and at t = 3
        assert _periodic_stars(5, 4, (2, 2), 1) == _periodic_stars(5, 4, (2, 2), 3)
        assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 1)
        assert _periodic_stars(5, 4, (1, 3)) == _periodic_stars(5, 4, (3, 1))
        assert (memo.cache_info().misses, memo.cache_info().hits) == (2, 2)

    def test_numbers_are_the_euler_numbers_at_the_conjugate_twist(self):
        count = 0
        for k in (3, 5, 7, 12):
            for t in range(2, k):
                weights = [a for a in range(1, 2 * k) if t * a % k]
                for A in [weights[:1], weights[:2], weights[:2] + weights[:1], weights[1:4] + weights[1:2]]:
                    for m in (0, 3, 9):
                        numbers = twisted_c._euler_entry(m + len(A), k, A, t)[0]
                        assert isinstance(numbers, tuple)
                        want = gen_euler_numbers(m, TwistSpec(k, -t), A)
                        assert _literal(numbers) == _literal(want), (m, k, t, A)
                        count += 1
        assert count > 200

    def test_the_public_euler_entries_and_closed_sum_never_read_the_memo(self, monkeypatch):
        def no_memo(*args):
            raise AssertionError("the memo was read")

        monkeypatch.setattr(twisted_c, "_euler_memo", no_memo)
        spec = SumSpec.of((1, 2, 2), (3, 2, 4), F(2, 3), 5, 5, 2)
        assert closed_sum(spec) == brute_sum(spec)
        assert len(gen_euler_numbers(4, TwistSpec(5, 2), (1, 2, 2))) == 5
        assert gen_euler_poly(4, TwistSpec(5, 2), (1, 2, 2)).degree() == 4

    def test_a_warm_float_read_does_no_exact_arithmetic(self, monkeypatch):
        value = c_star_s(0.3 + 1j, 20, 5, 24.5, (1, 2, 3), 2)

        def exact_work(*args):
            raise AssertionError("exact arithmetic on a warm read")

        for name in ("embed", "is_zero", "__mul__", "__rmul__"):
            monkeypatch.setattr(CyclotomicNumber, name, exact_work)
        monkeypatch.setattr(twisted_c, "_stars", exact_work)
        assert c_star_s(0.3 + 1j, 20, 5, 24.5, (1, 2, 3), 2) == value

    def test_exact_readers_read_stars_out_of_the_float_range(self):
        # k = 2, A = (101,): C*_j leaves the float range at j = 110 (C*_120 ~ 10^342)
        stars = _periodic_stars(120, 2, (101,))
        with pytest.raises(OverflowError):
            stars[120].embed()
        assert c_star_multi(120, 2, (101,)) == stars[120]
        for n, m, x in ((120, 120, F(1)), (125, 118, F(-3, 7))):
            want = CyclotomicNumber.zero(2)
            for j, star in enumerate(stars[: m + 1]):
                want = want + star * ((-2) ** j * math.comb(n, j) * x ** (n - j))
            assert c_star_s_exact(n, m, 2, x, (101,)) == want

    def test_a_star_out_of_the_float_range_raises_where_the_sum_reaches_it(self):
        # at x = 1e-3 the power x^{s-j} overflows at j = 103, before the first
        # overflowing star (j = 110); at x = 1e-2 the star overflows first
        with pytest.raises(OverflowError, match="complex exponentiation"):
            c_star_s(0.5, 171, 2, 1e-3, (101,))
        with pytest.raises(OverflowError, match="integer division result too large for a float"):
            c_star_s(0.5, 171, 2, 1e-2, (101,))
        with pytest.raises(OverflowError, match="integer division result too large for a float"):
            c_star_s(0.5, 171, 2, 1e-2, (101,))  # warm: the same error from the memo entry
        assert twisted_c._euler_memo.cache_info().misses == 1

    def test_c_star_multi_is_the_last_star_of_the_table(self):
        count = 0
        for k, A in ((2, (1,)), (3, (1, 2)), (4, (1, 1, 3)), (7, (2, 3, 5)), (12, (1, 5, 7, 11))):
            for m in range(0, 10):  # m < r included: those stars are zero
                assert _literal([c_star_multi(m, k, A)]) == _literal([_periodic_stars(m, k, A)[m]]), (m, k, A)
                count += 1
        assert c_star_multi(2, 3, (1, 2, 4)).is_zero()
        assert count == 50

    def test_a_warm_c_star_multi_scales_one_number(self, monkeypatch):
        value = c_star_multi(120, 7, (2, 3))

        def every_star(*args):
            raise AssertionError("every star was scaled")

        monkeypatch.setattr(twisted_c, "_stars", every_star)
        assert c_star_multi(120, 7, (2, 3)) == value
        assert twisted_c._euler_memo.cache_info().misses == 1

    def test_every_periodic_star_caller_reads_the_memo(self):
        memo = twisted_c._euler_memo
        c_star_multi(4, 3, (1, 2))
        c_star_s(2.5, 4, 3, 9.0, (2, 1))
        c_star_s_exact(5, 4, 3, F(9), (1, 2))
        assert memo.cache_info().misses == 1

    def test_the_bound_evicts_the_oldest_key(self):
        memo = twisted_c._euler_memo
        first = _periodic_stars(1, 2, (1,))
        for a in range(3, 2 * 129, 2):  # 128 more distinct weights
            _periodic_stars(1, 2, (a,))
        assert memo.cache_info().currsize == 128
        assert memo.cache_info().misses == 129
        assert _periodic_stars(1, 2, (1,)) == first
        assert memo.cache_info().misses == 130

    def test_inadmissible_twist_raises_on_every_call(self):
        memo = twisted_c._euler_memo
        _periodic_stars(3, 4, (1, 2), 1)
        for _ in range(2):
            with pytest.raises(SingularTwistError):
                _periodic_stars(3, 4, (1, 2), 2)  # 4 divides t a = 4
            with pytest.raises(SingularTwistError):
                c_star_multi(3, 2, (1, 2))
            with pytest.raises(ValueError, match="modulus k"):
                _periodic_stars(3, 1, (1,))
        assert memo.cache_info().currsize == 1


class TestPochhammer:
    def test_examples(self):
        assert pochhammer(2.5 + 1j, 0) == 1
        assert pochhammer(3, 2) == 12
        assert pochhammer(-0.5, 3) == pytest.approx(-0.375)

    def test_recurrence(self):
        import random

        rng = random.Random(2)
        for _ in range(30):
            s = complex(rng.uniform(-5, 5), rng.uniform(-3, 3))
            r = rng.randint(1, 10)
            assert pochhammer(s, r) == pytest.approx(pochhammer(s, r - 1) * (s + r - 1), rel=1e-12)


class TestCStarS:
    def test_truncation_zero(self):
        assert c_star_s(1.5, 0, 2, 3.0, (1,)) == 0

    def test_integer_hand_case(self):
        assert c_star_s(2, 2, 2, 10.0, (1,)) == pytest.approx(21.0)

    def test_fractional_hand_case(self):
        assert c_star_s(-0.5, 1, 2, 4.0, (1,)) == pytest.approx(-0.0625)

    def test_branch_guard(self):
        with pytest.raises(ValueError):
            c_star_s(1.0, 1, 2, 0.0, (1,))
        with pytest.raises(ValueError):
            c_star_s(1.0, 1, 2, -3.0, (1,))

    def test_exact_path_matches_numeric(self):
        for n, m, k, x, A, t in [
            (3, 2, 2, 9, (1,), 1),
            (4, 4, 3, 5, (1, 2), 1),
            (2, 2, 4, 7, (1, 3), 1),
            (5, 4, 5, F(7, 2), (1, 2), 2),
            (6, 6, 7, F(9, 4), (2, 3), 3),
            (4, 3, 12, 3, (1, 5, 7), 5),
        ]:
            exact = c_star_s_exact(n, m, k, F(x), A, t).embed()
            numeric = c_star_s(complex(n), m, k, float(x), A, t)
            assert abs(numeric - exact) <= 1e-10 * (1 + abs(exact)), (n, m, k, x, A, t)

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError, match="m must be nonnegative"):
            c_star_s(1.5, -3, 3, 2.0, (1, 2))
        with pytest.raises(ValueError, match="m must be nonnegative"):
            c_star_s_exact(-3, -3, 3, 2, (1, 2))

    def test_exact_path_at_zero_argument(self):
        value = c_star_s_exact(2, 2, 2, F(0), (1,))
        # only the j = n term can survive at x = 0
        assert value == F((-2) ** 2) * c_star_multi(2, 2, (1,))
