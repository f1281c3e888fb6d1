import itertools
import random
from fractions import Fraction

import pytest

from twistsum.bernoulli_euler import SingularTwistError, TwistSpec, WeightVector
from twistsum.exact import CyclotomicNumber
from twistsum.oracles import zero_box_check
from twistsum.powersum import (
    SumSpec,
    alternating_sum,
    brute_sum,
    closed_sum,
    closed_sum_trace,
)
from twistsum.verify import _random_sum_spec

F = Fraction
ALT = TwistSpec.alternating()


class TestBruteSum:
    def test_single_zero_term(self):
        spec = SumSpec.of((1,), (0,), 0, 3, 2, 1)
        assert brute_sum(spec).is_zero()

    def test_hand_alternating(self):
        spec = SumSpec.of((1,), (3,), 0, 1, 2, 1)
        assert brute_sum(spec) == F(-2)  # 0 - 1 + 2 - 3

    def test_headline_example(self):
        spec = SumSpec.of((3, 1), (100, 150), 0, 2, 2, 1)
        assert brute_sum(spec) == F(79275)

    def test_rational_shift(self):
        spec = SumSpec.of((1,), (2,), F(5, 2), 2, 2, 1)
        assert brute_sum(spec) == F(25, 4) - F(49, 4) + F(81, 4)

    def test_complex_twist(self):
        spec = SumSpec.of((1,), (2,), 0, 1, 3, 1)
        from twistsum.exact import cyc_root

        expected = cyc_root(3, 1) + cyc_root(3, 2) * 2
        assert brute_sum(spec) == expected


def naive_brute_sum(spec: SumSpec) -> CyclotomicNumber:
    """The box sum walked point by point over all prod(N_i + 1) lattice points."""
    residue_acc = [F(0)] * spec.twist.k
    for M in itertools.product(*(range(n + 1) for n in spec.N)):
        dot = sum(a * m for a, m in zip(spec.A.entries, M))
        residue_acc[dot % spec.twist.k] += (dot + spec.x) ** spec.s
    total = CyclotomicNumber.zero(spec.twist.k)
    for res, acc in enumerate(residue_acc):
        if acc:
            total = total + spec.twist.root(res) * acc
    return total


class TestBruteAgainstPointLoop:
    def test_random_small_boxes(self):
        rng = random.Random(59)
        for r in (1, 2, 3, 4):
            for _ in range(12):
                k = rng.choice((2, 3, 4, 5, 7))
                t = rng.randrange(1, k)
                weights = [a for a in range(1, 8) if (t * a) % k]
                A = (rng.choice(weights),) * r if rng.random() < 0.4 else tuple(
                    rng.choice(weights) for _ in range(r)
                )
                N = tuple(rng.randint(0, {1: 40, 2: 12, 3: 6, 4: 3}[r]) for _ in range(r))
                x = F(rng.randint(0, 7), rng.choice((1, 2, 3, 5)))
                spec = SumSpec.of(A, N, x, rng.randint(0, 5), k, t)
                assert brute_sum(spec) == naive_brute_sum(spec), spec

    def test_zero_limits(self):
        for A in ((1,), (4, 1), (1, 1, 1), (2, 5, 1, 4)):
            spec = SumSpec.of(A, (0,) * len(A), F(2, 3), 3, 3, 1)
            assert brute_sum(spec) == naive_brute_sum(spec) == F(8, 27)


def brute_sum_by_roots(spec: SumSpec) -> CyclotomicNumber:
    """The dot-value sum with each residue class multiplied by its root and added in the field:
    k roots, k scalar products and k field additions."""
    k = spec.twist.k
    p, q = spec.x.numerator, spec.x.denominator
    residue_acc = [0] * k
    for d, count in enumerate(spec.A.dot_counts(spec.N)):
        if count:
            residue_acc[d % k] += count * (d * q + p) ** spec.s
    total = CyclotomicNumber.zero(k)
    for res, acc in enumerate(residue_acc):
        if acc:
            total = total + spec.twist.root(res) * F(acc, q**spec.s)
    return total


class TestBruteAgainstRootAssembly:
    def test_one_reduction_is_literally_the_field_sum(self):
        rng = random.Random(71)
        for k in range(2, 13):
            for r in (1, 2, 3, 4):
                for _ in range(4):
                    t = rng.randrange(1, k)
                    weights = [a for a in range(1, 9) if (t * a) % k]
                    A = tuple(rng.choice(weights) for _ in range(r))
                    N = tuple(rng.randint(0, {1: 60, 2: 15, 3: 6, 4: 3}[r]) for _ in range(r))
                    x = F(rng.randint(0, 9), rng.choice((1, 2, 3, 4, 7)))
                    spec = SumSpec.of(A, N, x, rng.randint(0, 6), k, t)
                    got, want = brute_sum(spec), brute_sum_by_roots(spec)
                    assert (got.order, got.coeffs) == (want.order, want.coeffs), spec
                    assert all(type(c) is F for c in got.coeffs), spec


class TestClosedSum:
    def test_headline_example_and_decomposition(self):
        spec = SumSpec.of((3, 1), (100, 150), 0, 2, 2, 1)
        assert closed_sum(spec) == F(79275)
        rows = closed_sum_trace(spec)
        assert sorted(r["argument"] for r in rows) == ["0", "151", "303", "454"]
        # the degree-2 generalized Euler values behind the decomposition
        values = {r["argument"]: r["euler_value"] for r in rows}
        poly = lambda y: y * y - 4 * y + F(3, 2)
        for arg in (0, 151, 303, 454):
            assert values[str(arg)]["coeffs"] == [str(poly(F(arg)))]

    def test_trace_rows_reproduce_the_closed_form(self):
        # each row's Euler value times zeta^root_power, signed, summed and divided by 2^r
        from twistsum.exact import cyc_root

        rng = random.Random(47)
        for k, r in itertools.product((2, 3, 5, 7, 12), range(1, 5)):
            while True:
                A = tuple(rng.randint(1, 9) for _ in range(r))
                twist = TwistSpec(k, rng.randrange(1, k))
                if WeightVector(A).admissible_for(twist):
                    break
            N = tuple(rng.randint(0, 5) for _ in range(r))
            x = F(rng.randint(0, 9), rng.randint(1, 4))
            spec = SumSpec(WeightVector(A), N, x, rng.randint(0, 9), twist)
            rows = closed_sum_trace(spec)
            assert len(rows) == 2**r
            total = CyclotomicNumber.zero(k)
            for row in rows:
                value = CyclotomicNumber.from_json_obj(row["euler_value"])
                total = total + cyc_root(k, row["root_power"]) * value * row["sign"]
            got, want = total * F(1, 2**r), closed_sum(spec)
            assert (got.order, got.coeffs) == (want.order, want.coeffs), spec

    def test_alternating_count(self):
        for n in range(7):
            spec = SumSpec.of((1,), (n,), 0, 0, 2, 1)
            assert closed_sum(spec) == (F(1) if n % 2 == 0 else F(0))

    def test_hand_two_axis(self):
        spec = SumSpec.of((1, 1), (1, 1), 1, 2, 2, 1)
        assert closed_sum(spec) == F(2)  # 1 - 4 - 4 + 9

    def test_matches_brute_on_random_family(self):
        rng = random.Random(31)
        for _ in range(40):
            spec = _random_sum_spec(rng)
            assert closed_sum(spec) == brute_sum(spec), spec

    def test_permutation_invariance(self):
        spec = SumSpec.of((2, 5), (3, 4), 1, 3, 3, 1)
        swapped = SumSpec.of((5, 2), (4, 3), 1, 3, 3, 1)
        assert closed_sum(spec) == closed_sum(swapped) == brute_sum(spec)

    def test_telescoping_slice(self):
        spec = SumSpec.of((2, 3), (4, 2), 0, 2, 5, 1)
        shrunk = SumSpec.of((2, 3), (3, 2), 0, 2, 5, 1)
        difference = closed_sum(spec) - closed_sum(shrunk)
        from twistsum.exact import CyclotomicNumber

        face = CyclotomicNumber.zero(5)
        for m2 in range(3):
            dot = 2 * 4 + 3 * m2
            face = face + spec.twist.root(dot) * F(dot) ** 2
        assert difference == face


class TestZeroBox:
    def test_examples(self):
        assert zero_box_check(F(0), 1, ALT, (1,))
        assert zero_box_check(F(5), 3, ALT, (1, 3))
        assert zero_box_check(F(1, 2), 4, TwistSpec(3, 1), (1, 2))

    def test_random_family(self):
        rng = random.Random(41)
        for _ in range(25):
            spec = _random_sum_spec(rng)
            assert zero_box_check(spec.x, spec.s, spec.twist, spec.A)


class TestAlternatingSum:
    def test_hand_case(self):
        assert alternating_sum((1,), (2,), 0, 2) == F(3)

    def test_headline(self):
        assert alternating_sum((3, 1), (100, 150), 0, 2) == F(79275)

    def test_even_weight_rejected(self):
        with pytest.raises(SingularTwistError, match="inadmissible"):
            alternating_sum((2,), (3,), 0, 2)


class TestSumSpecValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SumSpec(WeightVector.of(1, 3), (2,), F(0), 1, ALT)

    def test_inadmissible_weights(self):
        with pytest.raises(SingularTwistError):
            SumSpec.of((2,), (1,), 0, 1, 2, 1)

    def test_negative_inputs(self):
        with pytest.raises(ValueError):
            SumSpec.of((1,), (-1,), 0, 1, 2, 1)
        with pytest.raises(ValueError):
            SumSpec.of((1,), (1,), -1, 1, 2, 1)
        with pytest.raises(ValueError):
            SumSpec.of((1,), (1,), 0, -2, 2, 1)
