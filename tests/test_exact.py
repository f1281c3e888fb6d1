import math
import operator
import random
from fractions import Fraction

import pytest

from twistsum import exact
from twistsum.exact import (
    CyclotomicNumber,
    PolynomialX,
    TruncatedSeries,
    _cyclotomic_coeffs,
    _reduce_mod_cyclotomic,
    _reduction_rows,
    cyc_root,
    cyclotomic_polynomial,
    euler_phi,
    parse_rational,
)

F = Fraction


def poly_of(*rationals):
    return PolynomialX.from_coeffs(list(rationals), 1)


# Long division and the plain product of dense Fraction polynomials
# (little-endian), the references that the integer kernels are checked against.
# The divisor's leading coefficient is inverted as a Fraction, so an integer
# divisor such as Phi_k keeps the quotient exact.

def _strip(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def _poly_divmod_frac(num, den):
    den = list(_strip(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num)
    quot = [Fraction(0)] * max(len(rem) - len(den) + 1, 0)
    inv_lead = Fraction(1) / den[-1]
    for i in range(len(rem) - len(den), -1, -1):
        c = rem[i + len(den) - 1] * inv_lead
        if c:
            quot[i] = c
            for j, dj in enumerate(den):
                rem[i + j] -= c * dj
    return quot, list(_strip(rem))


def convolve(a, b):
    """The coordinates of the product of two polynomials, with no reduction."""
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomial:
    def test_k1_and_k2(self):
        assert cyclotomic_polynomial(1) == poly_of(-1, 1)
        assert cyclotomic_polynomial(2) == poly_of(1, 1)

    def test_k12_by_division_oracle(self):
        # divide x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 independently
        num = [F(-1)] + [F(0)] * 11 + [F(1)]
        den = [F(1)]
        for d in (1, 2, 3, 4, 6):
            phi_d = list(_cyclotomic_coeffs(d))
            out = [F(0)] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                for j, b in enumerate(phi_d):
                    out[i + j] += a * b
            den = out
        quot, rem = _poly_divmod_frac(num, den)
        assert rem == []
        assert cyclotomic_polynomial(12) == PolynomialX.from_coeffs(quot, 1)
        assert cyclotomic_polynomial(12) == poly_of(1, 0, -1, 0, 1)

    def test_divides_xk_minus_1(self):
        for k in range(1, 31):
            xk = [F(-1)] + [F(0)] * (k - 1) + [F(1)]
            _, rem = _poly_divmod_frac(xk, _cyclotomic_coeffs(k))
            assert rem == [], k

    def test_degree_is_totient(self):
        for k in (1, 2, 6, 9, 10, 30):
            assert cyclotomic_polynomial(k).degree() == euler_phi(k)

    def test_integer_coefficients_equal_long_division(self):
        # Phi_k = (x^k - 1) / prod_{d | k, d < k} Phi_d, every Phi_d built here by long division
        reference = {}
        for k in range(1, 121):
            den = [F(1)]
            for d in range(1, k):
                if k % d == 0:
                    den = convolve(den, reference[d])
            quot, rem = _poly_divmod_frac([F(-1)] + [F(0)] * (k - 1) + [F(1)], den)
            assert rem == [], k
            reference[k] = quot
            coeffs = _cyclotomic_coeffs(k)
            assert all(type(c) is int for c in coeffs) and list(coeffs) == quot, k


def division_remainder(coeffs, k):
    """The phi(k) coordinates of coeffs mod Phi_k, by long division."""
    _, rem = _poly_divmod_frac(coeffs, _cyclotomic_coeffs(k))
    return tuple(rem) + (F(0),) * (euler_phi(k) - len(rem))


class TestReductionTable:
    def test_rows_are_division_remainders(self):
        for k in range(1, 61):
            phi = euler_phi(k)
            rows = _reduction_rows(k)
            assert phi + len(rows) - 1 >= max(2 * phi - 2, k - 1), k
            for j, row in enumerate(rows, start=phi):
                dense = [0] * phi
                for i, c in row:
                    assert c != 0 and isinstance(c, int)
                    dense[i] = c
                assert tuple(dense) == division_remainder([F(0)] * j + [F(1)], k), (k, j)

    def test_random_vectors_reduce_as_by_division(self):
        rng = random.Random(17)
        for k in range(1, 41):
            phi = euler_phi(k)
            for length in sorted({1, phi, phi + 1, 2 * phi - 1, k, max(2 * phi - 1, k)}):
                coeffs = [
                    F(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.8 else F(0)
                    for _ in range(length)
                ]
                assert _reduce_mod_cyclotomic(coeffs, k) == division_remainder(coeffs, k), (k, length)

    def test_products_and_roots_do_not_divide(self, monkeypatch):
        # every reduction, the inverse's included, reads the cached integer rows, never Phi_k
        from twistsum.twisted_c import CPolySpec, c_poly

        a = cyc_root(7, 3) + F(2, 5) * cyc_root(7, 2) - 1
        expected_inverse = a.inverse()
        expected_product = cyc_root(7, 3) * cyc_root(7, 5)
        expected_root = cyc_root(12, 11)
        expected_poly = c_poly(CPolySpec(9, 12, 5))

        def no_division(*args):
            raise AssertionError("a product, root or inverse went back to Phi_k")

        monkeypatch.setattr(exact, "_cyclotomic_coeffs", no_division)
        assert cyc_root(7, 3) * cyc_root(7, 5) == expected_product == cyc_root(7, 1)
        assert cyc_root(12, 11) == expected_root
        assert a.inverse() == expected_inverse and a * expected_inverse == 1
        assert c_poly(CPolySpec(9, 12, 5)) == expected_poly


class TestCyclotomicNumber:
    def test_roots(self):
        assert cyc_root(2, 1) == F(-1)
        assert cyc_root(4, 2) == F(-1)
        assert cyc_root(3, 1) + cyc_root(3, 2) == F(-1)
        assert cyc_root(5, 7) == cyc_root(5, 2)

    def test_root_power_reduction(self):
        z = cyc_root(3, 1)
        assert z**3 == F(1)
        assert z**2 == cyc_root(3, 2)

    def test_basic_arithmetic(self):
        assert cyc_root(2, 1) * cyc_root(2, 1) == F(1)
        one = CyclotomicNumber.one(2)
        assert one / (one - cyc_root(2, 1)) == F(1, 2)

    def test_inverse_in_q_zeta3(self):
        one = CyclotomicNumber.one(3)
        z = cyc_root(3, 1)
        inv = one / (one - z)
        expected = (CyclotomicNumber.from_rational(2, 3) + z) * F(1, 3)
        assert inv == expected
        assert (one - z) * expected == F(1)

    def test_one_field_per_value(self):
        assert cyc_root(2, 1) == cyc_root(6, 3)  # both are -1
        assert cyc_root(4, 1) + cyc_root(4, 3) == F(0)
        # irrational numbers of different orders do not combine
        z3, z6 = cyc_root(3, 1), cyc_root(6, 1)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(z3, z6)
            with pytest.raises(TypeError):
                op(z6, z3)
        assert z3 != z6 and z6 != z3
        assert z3 != cyc_root(6, 2)  # the same complex number, held in another field

    @pytest.mark.parametrize(
        "q",
        [3, F(-2, 5), CyclotomicNumber.from_rational(F(3, 4)), cyc_root(6, 3)],
        ids=["int", "fraction", "order_1", "rational_order_6"],
    )
    def test_rationals_act_as_scalars(self, q):
        z = cyc_root(7, 3)
        c = [F(0), F(0), F(0), F(1), F(0), F(0)]  # z's coordinates
        v = q if isinstance(q, (int, F)) else q.as_rational()
        scaled = CyclotomicNumber(7, tuple(x * v for x in c))
        shifted = CyclotomicNumber(7, (v,) + tuple(c[1:]))
        assert z * q == scaled and q * z == scaled
        assert z + q == shifted and q + z == shifted
        assert z - q == CyclotomicNumber(7, (-v,) + tuple(c[1:]))
        assert q - z == CyclotomicNumber(7, (v,) + tuple(-x for x in c[1:]))
        assert z / q == CyclotomicNumber(7, tuple(x / v for x in c))
        assert q / z == z.inverse() * v
        for result in (z * q, q * z, z + q, q - z, z / q, q / z):
            assert result.order == 7
        assert z != q and q != z
        assert CyclotomicNumber.from_rational(v, 7) == q and q == CyclotomicNumber.from_rational(v, 7)

    def test_rational_scalars_skip_the_field_product(self, monkeypatch):
        z = cyc_root(7, 3)
        p = PolynomialX.from_coeffs([cyc_root(7, 1), F(1, 2), z], 7)
        expected = cyc_root(7, 1) + F(5, 6) + z * F(25, 9)

        def no_field_product(*args):
            raise AssertionError("a rational operand went through the field product")

        monkeypatch.setattr(exact, "_sum_products", no_field_product)
        two_thirds_z = CyclotomicNumber(7, (F(0), F(0), F(0), F(2, 3), F(0), F(0)))
        assert z * F(2, 3) == two_thirds_z
        assert F(2, 3) * z == two_thirds_z
        assert p.eval_exact(F(5, 3)) == expected

    def test_equal_values_hash_equal(self):
        for q in (F(0), F(1), F(-2, 5), F(7, 3)):
            for k in (1, 2, 3, 6, 12):
                number = CyclotomicNumber.from_rational(q, k)
                assert number == q and hash(number) == hash(q), (q, k)
        assert hash(CyclotomicNumber.from_rational(3, 5)) == hash(3)
        assert len({CyclotomicNumber.from_rational(1), F(1), CyclotomicNumber.from_rational(1, 3), 1}) == 1
        assert cyc_root(2, 1) == cyc_root(6, 3) and hash(cyc_root(2, 1)) == hash(cyc_root(6, 3))
        val = cyc_root(5, 2) * F(3, 7) + F(1, 2)
        assert hash(val) == hash(CyclotomicNumber.from_json_obj(val.to_json_obj()))
        assert len({cyc_root(3, 1), cyc_root(6, 2), cyc_root(3, 1) * 1}) == 2
        for value in (poly_of(1, 2), TruncatedSeries.one(2)):
            with pytest.raises(TypeError):
                hash(value)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.one(3) / CyclotomicNumber.zero(3)

    def test_field_inverse_random(self):
        rng = random.Random(5)
        orders = [rng.randint(1, 72) for _ in range(40)] + [13, 41, 60, 61, 72]
        for k in orders:
            coeffs = tuple(
                F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(euler_phi(k))
            )
            a = CyclotomicNumber(k, coeffs)
            if a.is_zero():
                continue
            inv = a.inverse()
            assert all(type(c) is F for c in inv.coeffs), k
            assert a * inv == CyclotomicNumber.one(k), k

    def test_embedding_homomorphism(self):
        rng = random.Random(11)
        for _ in range(40):
            k = rng.randint(1, 12)
            mk = lambda: CyclotomicNumber(
                k,
                tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(euler_phi(k))),
            )
            a, b = mk(), mk()
            assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-10
            assert abs((a + b).embed() - (a.embed() + b.embed())) < 1e-10

    def test_embedding_of_roots(self):
        z = cyc_root(12, 1).embed()
        assert abs(z - complex(math.cos(math.pi / 6), math.sin(math.pi / 6))) < 1e-12

    def test_serialization_roundtrip(self):
        val = cyc_root(5, 2) * F(3, 7) + F(1, 2)
        again = CyclotomicNumber.from_json_obj(val.to_json_obj())
        assert val == again

    def test_rational_formatting(self):
        assert parse_rational("22/7") == F(22, 7)


class TestPolynomialX:
    def test_eval_exact(self):
        p = poly_of(F(1, 2), -2, 1)  # x^2 - 2x + 1/2
        assert p.eval_exact(F(3)) == F(7, 2)

    def test_zero_normalization(self):
        p = PolynomialX.from_coeffs([0, 0])
        assert p.is_zero()
        assert p.degree() == -1

    def test_cyclotomic_coefficients(self):
        p = PolynomialX.from_coeffs([cyc_root(3, 1), 1], 3)  # x + zeta_3
        value = p.eval_exact(F(2))
        assert value == cyc_root(3, 1) + F(2)

    def test_eval_complex_matches_embed(self):
        p = PolynomialX.from_coeffs([cyc_root(8, 1), F(1, 3), cyc_root(8, 5)], 8)
        exact = p.eval_exact(F(7, 4)).embed()
        assert abs(p.eval_complex(1.75) - exact) < 1e-12


class TestTruncatedSeries:
    def test_mul_examples(self):
        one_plus = TruncatedSeries.from_coeffs([1, 1], 2)
        one_minus = TruncatedSeries.from_coeffs([1, -1], 2)
        assert one_plus * one_minus == TruncatedSeries.from_coeffs([1, 0, -1], 2)

        e_pos = TruncatedSeries.exp_linear(1, 4)
        e_neg = TruncatedSeries.exp_linear(-1, 4)
        assert e_pos * e_neg == TruncatedSeries.one(4)

        sq = TruncatedSeries.exp_linear(1, 3) * TruncatedSeries.exp_linear(1, 3)
        assert sq == TruncatedSeries.from_coeffs([1, 2, 2, F(4, 3)], 3)

    def test_inverse_geometric(self):
        geo = TruncatedSeries.from_coeffs([1, -1], 3).inverse()
        assert geo == TruncatedSeries.from_coeffs([1, 1, 1, 1], 3)

    def test_inverse_of_exp(self):
        inv = TruncatedSeries.exp_linear(1, 2).inverse()
        assert inv == TruncatedSeries.from_coeffs([1, -1, F(1, 2)], 2)

    def test_inverse_gives_bernoulli(self):
        base = TruncatedSeries.from_coeffs([F(1, math.factorial(n + 1)) for n in range(5)], 4)
        inv = base.inverse()
        assert inv.taylor_value(4) == F(-1, 30)
        assert inv.taylor_value(1) == F(-1, 2)

    def test_inverse_requires_constant_unit(self):
        with pytest.raises(ValueError):
            TruncatedSeries.from_coeffs([0, 1], 3).inverse()

    def test_exp_linear(self):
        assert TruncatedSeries.exp_linear(0, 3) == TruncatedSeries.one(3)
        threes = TruncatedSeries.exp_linear(3, 3)
        assert threes == TruncatedSeries.from_coeffs([1, 3, F(9, 2), F(9, 2)], 3)

    def test_roundtrip_random(self):
        rng = random.Random(3)
        for _ in range(15):
            T = rng.randint(1, 7)
            coeffs = [F(rng.randint(1, 4))] + [
                F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(T)
            ]
            s = TruncatedSeries.from_coeffs(coeffs, T)
            assert s * s.inverse() == TruncatedSeries.one(T)

    def test_truncation_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries.one(2) * TruncatedSeries.one(3)


def random_number(rng, k):
    """A seeded number of order k with about a fifth of its coordinates zero."""
    return CyclotomicNumber(
        k,
        tuple(
            F(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.8 else F(0)
            for _ in range(euler_phi(k))
        ),
    )


def count_calls(monkeypatch, name):
    """Replace exact.<name> by a wrapper that counts its calls; returns the counter."""
    original, calls = getattr(exact, name), [0]

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(exact, name, counting)
    return calls


class TestSumKernels:
    """The sum of products against convolution and long division, and the rotation sum against products.

    k runs through 30, so the orders include k = 7, where a product's raw
    degree 2 phi - 2 exceeds k - 1, and k = 30, where phi < k / 2.
    """

    def test_sum_of_products_equals_per_product_arithmetic(self):
        rng = random.Random(23)
        for k in range(1, 31):
            for n in (1, 2, 6):
                terms = [(rng.randint(1, 40), random_number(rng, k), random_number(rng, k)) for _ in range(n)]
                terms.append((3, CyclotomicNumber.zero(k), random_number(rng, k)))
                raw = [F(0)] * (2 * euler_phi(k) - 1)
                for c, a, b in terms:
                    product = convolve(a.coeffs, b.coeffs)
                    assert (a * b).coeffs == division_remainder(product, k), (k, n)
                    raw = [x + c * y for x, y in zip(raw, product)]
                got = exact._sum_products(terms)
                assert got.order == k and got.coeffs == division_remainder(raw, k), (k, n)
                assert all(type(c) is F for c in got.coeffs)
                assert all(type(c) is F for c in (terms[0][1] * terms[0][2]).coeffs)

    def test_sum_of_products_on_fractions(self):
        rng = random.Random(29)
        for n in (1, 2, 7):
            terms = [
                (rng.randint(1, 40), F(rng.randint(-9, 9), rng.randint(1, 6)), F(rng.randint(-9, 9), rng.randint(1, 6)))
                for _ in range(n)
            ]
            got = exact._sum_products(terms)
            assert type(got) is F and got == sum(c * a * b for c, a, b in terms)

    def test_rotation_equals_root_products(self):
        rng = random.Random(31)
        for k in range(1, 31):
            total, expected = [], CyclotomicNumber.zero(k)
            for e in range(k):
                v = random_number(rng, k)
                got = exact._root_sum(k, [(e, v)])
                want = cyc_root(k, e) * v
                assert (got.order, got.coeffs) == (want.order, want.coeffs), (k, e)
                q = F(rng.randint(-9, 9), rng.randint(1, 6))
                total += [(e, v), (e - 3 * k, q)]
                expected = expected + cyc_root(k, e) * v + cyc_root(k, e) * q
            got = exact._root_sum(k, total)
            assert got.coeffs == expected.coeffs and all(type(c) is F for c in got.coeffs), k

    def test_two_orders_of_one_degree_do_not_combine(self):
        # phi(3) = phi(6) = 2, so coordinates alone would combine silently
        with pytest.raises(TypeError):
            exact._sum_products([(1, cyc_root(3, 1), cyc_root(6, 1))])
        with pytest.raises(TypeError):
            exact._root_sum(6, [(1, cyc_root(3, 1))])

    def test_binomial_inverse_reduces_each_output_about_twice(self, monkeypatch):
        rng = random.Random(37)
        k, m = 7, 14
        values = [cyc_root(k, 2) + F(1, 3)] + [random_number(rng, k) for _ in range(m)]
        exact._reduction_rows(k)
        reductions = count_calls(monkeypatch, "_reduce_mod_cyclotomic")
        out = exact.binomial_inverse(values)
        assert reductions[0] <= 2 * (m + 1)
        monkeypatch.undo()
        assert exact.binomial_convolve(values, out) == [1] + [0] * m

    def test_closed_sum_takes_no_field_product_beyond_its_build(self, monkeypatch):
        from twistsum.bernoulli_euler import gen_euler_poly
        from twistsum.powersum import SumSpec, brute_sum, closed_sum

        spec = SumSpec.of((1, 2, 3), (2, 1, 3), F(2, 3), 9, 5, 2)
        assert closed_sum(spec) == brute_sum(spec)  # also fills the cyclotomic caches
        products = count_calls(monkeypatch, "_sum_products")
        gen_euler_poly(spec.s, spec.twist, spec.A)
        build = products[0]
        products[0] = 0
        closed_sum(spec)
        assert build > 0 and products[0] == build
