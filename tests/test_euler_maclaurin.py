import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from twistsum.bernoulli_euler import SingularTwistError
from twistsum.euler_maclaurin import (
    _GL_NODES,
    _GL_WEIGHTS,
    SmoothFunction,
    em_sum_scaled,
    em_sum_unit,
    quad_remainder,
)
from twistsum.exact import roots_of_unity
from twistsum.oracles import check_derivative_consistency
from twistsum.twisted_c import CPolySpec, c_tilde

F = Fraction


class TestSmoothFunction:
    def test_polynomial_derivatives(self):
        f = SmoothFunction.from_poly_coeffs([1, -2, 3])  # 3x^2 - 2x + 1
        assert f(2.0) == pytest.approx(9.0)
        assert f.deriv(1)(2.0) == pytest.approx(10.0)
        assert f.deriv(2)(2.0) == pytest.approx(6.0)
        assert f.deriv(3)(5.0) == 0.0  # one past the degree

    def test_exponential(self):
        g = SmoothFunction.exponential(0.5)
        assert g.deriv(2)(1.0) == pytest.approx(0.25 * math.exp(0.5))

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_exponential_rate_rejected(self, alpha):
        with pytest.raises(ValueError, match="must be finite"):
            SmoothFunction.exponential(alpha)

    def test_rescaled(self):
        g = SmoothFunction.from_poly_coeffs([0, 0, 1])
        f = g.rescaled(3)
        assert f(2.0) == pytest.approx(36.0)
        assert f.deriv(1)(2.0) == pytest.approx(3 * 2 * 6.0)

    def test_consistency_check_flags_wrong_derivative(self):
        good = SmoothFunction.from_poly_coeffs([0, 1, 1])
        assert check_derivative_consistency(good, [0.2, 1.5])
        bad = SmoothFunction((lambda x: x * x, lambda x: 3 * x))
        assert not check_derivative_consistency(bad, [0.5, 2.0])


class TestQuadRemainder:
    def test_constant_integrand_over_full_periods(self):
        value = quad_remainder(2, 2, 1, lambda x: 1.0, 0.0, 3.0)
        assert abs(value) < 1e-12

    def test_linear_hand_integral(self):
        # integral of C~_{1,2}(x;1) * 2x over [0,1] is -1/8 + 3/8 = 1/4
        value = quad_remainder(1, 2, 1, lambda x: 2 * x, 0.0, 1.0)
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_empty_range(self):
        assert quad_remainder(1, 2, 1, lambda x: 1.0, 2.0, 2.0) == 0

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            quad_remainder(1, 2, 1, lambda x: 1.0, 1.0, 0.0)


def test_gauss_legendre_rule_is_numpys_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert _GL_NODES == nodes.tolist()
    assert _GL_WEIGHTS == weights.tolist()


def naive_quad_remainder(q, k, a, f_q, lo, hi):
    """quad_remainder with the kernel evaluated at every node of every cell."""
    spec = CPolySpec(q, k, a)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    cuts = [lo]
    j = math.floor(lo * k) + 1
    while j < hi * k - 1e-12:
        if j / k > lo + 1e-12:
            cuts.append(j / k)
        j += 1
    cuts.append(hi)
    total = 0j
    for left, right in zip(cuts, cuts[1:]):
        half, mid = (right - left) / 2.0, (right + left) / 2.0
        for node, weight in zip(nodes, weights):
            x = mid + half * node
            total += weight * c_tilde(spec, float(x)) * f_q(x) * half
    return (-1) ** (q + 1) * total / math.factorial(q)


class TestQuadAgainstNodeLoop:
    RANGES = [
        (0.0, 3.0),  # aligned at integers
        (-2.0, 1.5),  # aligned at multiples of 1/2
        (0.3, 2.71),  # both ends off the grid
        (1.0, 2.33),  # one end off the grid
        (0.41, 0.43),  # a single partial cell
        (0.7, 0.7),  # empty
    ]

    @staticmethod
    def assert_close(value, reference):
        assert abs(value - reference) <= max(1e-10 * abs(reference), 1e-14), (value, reference)

    def test_ranges(self):
        rng = random.Random(71)
        f_q = lambda x: cmath.exp((0.2 + 0.3j) * x) + x * x
        for q in (1, 2, 3, 4):
            for k in range(2, 9):
                a = rng.choice([a for a in range(1, 2 * k) if a % k])
                ranges = self.RANGES + [(1 / k, 5 / k), (3.0, 3.0 + 7 / k)]
                for lo, hi in ranges:
                    self.assert_close(
                        quad_remainder(q, k, a, f_q, lo, hi),
                        naive_quad_remainder(q, k, a, f_q, lo, hi),
                    )

    def test_scaled_form_remainder(self):
        g = SmoothFunction.exponential(-0.3)
        res = em_sum_scaled(g, 1, 4, 5, 3, 3)
        reference = naive_quad_remainder(3, 5, 3, g.rescaled(5).deriv(3), 1, 4)
        self.assert_close(res.remainder, reference)

    def test_memory_does_not_grow_with_cells(self):
        f_q = lambda x: 1.0 / (1.0 + x * x)

        def peak(cells):
            quad_remainder(2, 4, 1, f_q, 0.0, 0.25)  # build the cached kernel first
            tracemalloc.start()
            try:
                quad_remainder(2, 4, 1, f_q, 0.0, cells / 4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4000) < peak(40) + 4096


class TestUnitForm:
    def test_hand_checked_quadratic(self):
        f = SmoothFunction.from_poly_coeffs([0, 0, 1])
        res = em_sum_unit(f, 0, 1, 2, 1, 2)
        assert res.direct == pytest.approx(0.75)
        assert res.main_terms == pytest.approx(0.75)
        assert abs(res.remainder) < 1e-12
        assert res.abs_error < 1e-12

    def test_constant_function_cancels(self):
        one = SmoothFunction.from_poly_coeffs([1])
        for k in (2, 3, 4):
            res = em_sum_unit(one, -1, 2, k, 1, 1)
            assert abs(res.direct) < 1e-12
            assert abs(res.total) < 1e-12

    def test_linear_k3(self):
        f = SmoothFunction.from_poly_coeffs([0, 1])
        res = em_sum_unit(f, 0, 2, 3, 1, 1)
        assert res.abs_error < 1e-12

    def test_polynomial_exactness_spot(self):
        rng = random.Random(9)
        for degree in (2, 4, 6):
            coeffs = [rng.randint(-3, 3) for _ in range(degree)] + [1]
            f = SmoothFunction.from_poly_coeffs(coeffs)
            for k, a in ((2, 1), (3, 2), (4, 3)):
                res = em_sum_unit(f, -3, 5, k, a, degree + 1)
                assert res.abs_error < 1e-10, (degree, k, a, res.abs_error)

    def test_q_stability_smooth(self):
        g = SmoothFunction.exponential(0.4)
        totals = [em_sum_unit(g, 0, 3, 2, 1, q).total for q in range(1, 7)]
        for t in totals[1:]:
            assert abs(t - totals[0]) < 1e-9

    def test_direct_convention_three_quarters_of_lattice(self):
        # the r = m..n-1 outer range covers exactly the points (m, n] step 1/k
        f = SmoothFunction.from_poly_coeffs([0, 1])
        res = em_sum_unit(f, 0, 2, 2, 1, 1)
        expected = sum(
            roots_of_unity(2)[l % 2] * (r + l / 2) for r in (0, 1) for l in (1, 2)
        )
        assert res.direct == pytest.approx(expected)

    def test_validation(self):
        f = SmoothFunction.from_poly_coeffs([0, 1])
        with pytest.raises(ValueError):
            em_sum_unit(f, 1, 1, 2, 1, 1)
        with pytest.raises(ValueError):
            em_sum_unit(f, 0, 1, 2, 1, 0)
        with pytest.raises(ValueError):
            em_sum_unit(f, 0, 1, 2, 1, 5)  # beyond available derivatives
        with pytest.raises(SingularTwistError):
            em_sum_unit(f, 0, 1, 2, 2, 1)


class TestScaledForm:
    def test_hand_linear(self):
        res = em_sum_scaled(SmoothFunction.from_poly_coeffs([0, 1]), 0, 1, 2, 1, 2)
        assert res.direct == pytest.approx(1.0)  # -1 + 2
        assert res.abs_error < 1e-12

    def test_constant_cancels(self):
        res = em_sum_scaled(SmoothFunction.from_poly_coeffs([1]), 0, 2, 3, 1, 1)
        assert abs(res.direct) < 1e-12

    def test_quadratic_k3(self):
        res = em_sum_scaled(SmoothFunction.from_poly_coeffs([0, 0, 1]), 0, 2, 3, 2, 3)
        assert res.abs_error < 1e-10

    def test_one_direct_sum(self):
        base = SmoothFunction.from_poly_coeffs([1, 2, -1, 1])
        calls = []

        def g(x):
            calls.append(x)
            return base(x)

        m, n, k = -1, 2, 3
        scaled = em_sum_scaled(SmoothFunction((g,) + base.evaluators[1:]), m, n, k, 1, 4)
        # the l = 1 main term reads g at both ends, the direct sum at r = mk+1..nk
        assert len(calls) == 2 + (n - m) * k
        unit = em_sum_unit(base.rescaled(k), m, n, k, 1, 4)
        assert (scaled.main_terms, scaled.remainder, scaled.total) == (
            unit.main_terms,
            unit.remainder,
            unit.total,
        )

    def test_reduction_to_unit_form(self):
        g = SmoothFunction.from_poly_coeffs([1, 2, -1, 1])
        for k in (2, 3, 4):
            scaled = em_sum_scaled(g, -1, 2, k, 1, 4)
            unit = em_sum_unit(g.rescaled(k), -1, 2, k, 1, 4)
            assert scaled.total == pytest.approx(unit.total, abs=1e-10)
            assert scaled.direct == pytest.approx(unit.direct, abs=1e-10)
