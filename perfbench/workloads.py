"""Seeded workload generators.

A workload is an endless sequence of rounds; a run attempts whole rounds
until its time is up, so every run attempts the same operations in the same
proportions.  Each round is a fixed list of slots.  A slot fixes what sets an
operation's cost (operation, modulus k, number of weights r, order or box
size), and the seed fills in the rest (twist numerator t, weights, shift x,
limits), so runs with different seeds do the same amount of work.

Every operation calls the program through module attributes at call time,
so the tracer's wrappers are seen, and carries a checker that compares the
output with a value from :mod:`refs`, computed apart from the program.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import refs
from twistsum import bernoulli_euler as be
from twistsum import cli
from twistsum import euler_maclaurin as em
from twistsum import powersum as ps
from twistsum import twisted_c as tc
from twistsum import zeta as zt


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    #: a case that fails today because of a known fault: any outcome other
    #: than a checked value counts it as failed instead of incorrect
    known_fault: bool = False


def _exact(c) -> tuple:
    return (c.order, c.coeffs)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_json(out: tuple[int, str]) -> dict:
    code, text = out
    if code != 0:
        raise ValueError(f"cli exit code {code}")
    return json.loads(text)


def _admissible_weights(k: int, t: int, top: int) -> list[int]:
    return [a for a in range(1, top + 1) if (t * a) % k]


def _rational(rng: random.Random, top: int) -> Fraction:
    q = rng.randint(1, 6)
    return Fraction(rng.randint(0, top * q), q)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self._rounds: list[list[Op]] = []

    def round(self, i: int) -> list[Op]:
        """Round i; rounds are generated in order, so a replay sees the same inputs."""
        while len(self._rounds) <= i:
            self._rounds.append(self._make_round(len(self._rounds)))
        return self._rounds[i]

    def _make_round(self, i: int) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# closed_form: distinct exact problems at high order
# ---------------------------------------------------------------------------

def closed_sum_op(A, N, x: Fraction, s: int, k: int, t: int) -> Op:
    spec = ps.SumSpec.of(A, N, x, s, k, t)
    return Op(
        f"closed_sum k={k} r={len(A)} s={s}",
        lambda: ps.closed_sum(spec),
        lambda v: refs.check_box_sum(_exact(v), A, N, x, s, k, t),
    )


def _products(k: int, r: int, top: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every distinct twisted product for modulus k and r weights up to top, as (t, A).

    The product prod_l (1 - zeta^{t a_l} e^{a_l z}) depends on (t, A) only
    through the pairs (a_l, t a_l mod k), so (t, A) that give the same pairs
    are one product and only the first is kept.
    """
    seen: dict = {}
    for t in range(1, k):
        for A in itertools.combinations_with_replacement(_admissible_weights(k, t, top), r):
            seen.setdefault(tuple(sorted((a, t * a % k) for a in A)), (t, A))
    return list(seen.values())


class ClosedForm(Workload):
    name = "closed_form"

    #: (operation, k, r, order, largest weight) of each slot.  No two slots
    #: share (k, r), so no two draw the same product.  The k = 3 slots admit
    #: weights up to 8, as only four weights up to 6 are admissible there.
    SLOTS = (
        ("sum", 3, 3, 18, 8), ("sum", 4, 4, 12, 6), ("sum", 5, 3, 12, 6), ("sum", 7, 2, 12, 6),
        ("sum", 8, 2, 12, 6), ("sum", 9, 2, 12, 6), ("sum", 12, 2, 14, 6),
        ("numbers", 7, 3, 16, 6), ("numbers", 9, 3, 16, 6), ("poly", 8, 3, 12, 6),
        ("cli_sum", 4, 3, 12, 8), ("cli_poly", 3, 4, 14, 8),
    )
    C_POLY_MODULI = (3, 4, 5, 7, 8, 9, 12)

    def __init__(self, seed: int):
        super().__init__(seed)
        #: each slot walks a seeded permutation of its products, so within a
        #: run no product recurs, at any order, before round ``period`` (104,
        #: the k = 8, r = 2 slot's count); after that the walk starts over
        self.products = []
        for _, k, r, _, top in self.SLOTS:
            products = _products(k, r, top)
            self.rng.shuffle(products)
            self.products.append(products)
        self.period = min(map(len, self.products))
        self.c_poly_shift = self.rng.randrange(12)

    def _box(self, r: int) -> tuple[int, ...]:
        return tuple(self.rng.randint(0, 4) for _ in range(r))

    def _make_round(self, i: int) -> list[Op]:
        rng = self.rng
        ops: list[Op] = []
        lift = 2 * (i % 3) - 2  # orders rotate through s-2, s, s+2
        for (kind, k, r, s0, _), products in zip(self.SLOTS, self.products):
            t, A = products[i % len(products)]
            s = s0 + lift
            if kind == "sum":
                ops.append(closed_sum_op(A, self._box(r), _rational(rng, 3), s, k, t))
            elif kind == "numbers":
                ops.append(self._numbers_op(s, k, t, A))
            elif kind == "poly":
                ops.append(self._poly_op(s, k, t, A))
            elif kind == "cli_sum":
                ops.append(self._cli_sum_op(A, self._box(r), _rational(rng, 3), s, k, t))
            else:
                ops.append(self._cli_poly_op(s, k, t, A))

        # growing degree; (n, k) recurs every 77 rounds, each time with the next a
        k = self.C_POLY_MODULI[i % len(self.C_POLY_MODULI)]
        n = 10 + 3 * (i % 11)
        a = 1 + (self.c_poly_shift + i // 77) % (k - 1)
        ops.append(self._c_poly_op(n, k, a))
        return ops

    @staticmethod
    def _numbers_op(m, k, t, A) -> Op:
        twist = be.TwistSpec(k, t)
        return Op(
            f"gen_euler_numbers k={k} r={len(A)} m={m}",
            lambda: be.gen_euler_numbers(m, twist, A),
            lambda v: refs.check_euler_numbers([_exact(c) for c in v], m, k, t, A),
        )

    @staticmethod
    def _poly_op(m, k, t, A) -> Op:
        twist = be.TwistSpec(k, t)
        return Op(
            f"gen_euler_poly k={k} r={len(A)} m={m}",
            lambda: be.gen_euler_poly(m, twist, A),
            lambda v: refs.check_euler_poly([_exact(c) for c in v.coeffs], m, k, t, A),
        )

    @staticmethod
    def _c_poly_op(n, k, a) -> Op:
        spec = tc.CPolySpec(n, k, a)
        return Op(
            f"c_poly k={k} n={n}",
            lambda: tc.c_poly(spec),
            lambda v: refs.check_c_poly([_exact(c) for c in v.coeffs], n, k, a),
        )

    @staticmethod
    def _cli_sum_op(A, N, x, s, k, t) -> Op:
        argv = ["sum", "--weights", ",".join(map(str, A)), "--limits", ",".join(map(str, N)),
                "--x", str(x), "--s", str(s), "--k", str(k), "--t", str(t), "--method", "closed"]
        return Op(
            f"cli sum k={k} r={len(A)} s={s}",
            lambda: _run_cli(argv),
            lambda out: refs.check_box_sum(
                refs.exact_from_json(_cli_json(out)["closed"]), A, N, x, s, k, t
            ),
        )

    @staticmethod
    def _cli_poly_op(m, k, t, A) -> Op:
        argv = ["euler-gen", "--k", str(k), "--t", str(t), "--weights", ",".join(map(str, A)),
                "--order", str(m), "--poly"]
        return Op(
            f"cli euler-gen k={k} r={len(A)} m={m}",
            lambda: _run_cli(argv),
            lambda out: refs.check_euler_poly(
                [refs.exact_from_json(c) for c in _cli_json(out)["poly"]], m, k, t, A
            ),
        )


# ---------------------------------------------------------------------------
# limit_sweep: one polynomial per key, many boxes
# ---------------------------------------------------------------------------

class LimitSweep(Workload):
    name = "limit_sweep"

    #: (k, t, A, s) of each fixed key.  The cost of a key's polynomial moves
    #: by a quarter with t and A, so they are fixed here, and the seed draws
    #: each key's shift x and where each key's walk over its boxes starts.
    KEY_SLOTS = ((5, 1, (1, 2, 3), 12), (7, 3, (1, 3), 18), (4, 1, (1, 3), 12))
    SWEEP = 5  # limits per key and round, growing
    #: sweep step j of a key with r weights takes each limit from
    #: [W j, W j + W - 1], so a key has W^r boxes per step: 2197 and 2025
    WIDTH = {2: 45, 3: 13}
    STRIDE = 7919  # a prime that divides no W^r, so the walk below is a bijection

    def __init__(self, seed: int):
        super().__init__(seed)
        self.keys = []
        for k, t, A, s in self.KEY_SLOTS:
            boxes = self.WIDTH[len(A)] ** len(A)
            starts = [self.rng.randrange(boxes) for _ in range(self.SWEEP)]
            self.keys.append((A, _rational(self.rng, 2), s, k, t, starts))

    def _box(self, r: int, j: int, index: int) -> tuple[int, ...]:
        width = self.WIDTH[r]
        offsets = []
        for _ in range(r):
            index, off = divmod(index, width)
            offsets.append(width * j + off)
        return tuple(offsets)

    def _make_round(self, i: int) -> list[Op]:
        ops = []
        for A, x, s, k, t, starts in self.keys:
            boxes = self.WIDTH[len(A)] ** len(A)
            for j, start in enumerate(starts, 1):
                # round i takes box start + i * STRIDE (mod boxes) of step j,
                # so no box recurs within the first 2025 rounds and only the
                # polynomial repeats
                N = self._box(len(A), j, (start + i * self.STRIDE) % boxes)
                ops.append(closed_sum_op(A, N, x, s, k, t))
        return ops


# ---------------------------------------------------------------------------
# lattice_numeric: per-point loops and float layers
# ---------------------------------------------------------------------------

#: orders and shifts the float slots draw from; every combination converges.
#: At r = 3 the negative orders stall near w = 1 (k = 5, 6), so that slot
#: draws positive orders only.
ACCEL_ORDERS = (-0.75, -0.25, 0.25, 0.5, 0.75, 1.25, 1.5, 2.5)
POSITIVE_ORDERS = tuple(s for s in ACCEL_ORDERS if s > 0)
CONVERGENT_ORDERS = (0.5, 0.75, 1.25, 1.5, 2.5)
SHIFTS = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
CONTINUATION_SHIFTS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2), Fraction(2))
CONTINUATION_ORDERS = (0, 1, 2, 3, 4, 5)
MODULI = (2, 3, 4, 5, 6)


def _known_failures() -> list[Op]:
    """Integer-order continuations that fail today, the same in every round.

    ``zeta._accelerate`` declares convergence at the rounding-noise floor of
    the largest partial sum even when that floor is far above ``tol``.
    """
    spec = zt.ZetaSpec.of(-8, 1, 2, 1, (1,))
    return [
        Op(
            "zeta_accelerated s=-8 x=1 k=2 t=1 A=(1,)",
            lambda: zt.zeta_accelerated(spec),
            lambda v: refs.close(v, complex(refs.euler_poly_value(8, Fraction(1))), 1e-6),
            known_fault=True,
        ),
        Op(
            "continuation_check m=5 c=1 k=3 t=1 A=(1,2)",
            lambda: zt.continuation_check(5, 1, be.TwistSpec(3, 1), (1, 2)),
            lambda rep: rep.exact_matches,
            known_fault=True,
        ),
    ]


class LatticeNumeric(Workload):
    name = "lattice_numeric"

    BRUTE_POINTS = 12_000
    DIRECT_R1_POINTS = 4_000
    DIRECT_R2_SIDE = 90
    FINITE_POINTS = 8_000
    EM_KERNEL_TERMS = 8_000  # cells * k; 16 nodes per cell on top
    EM_DEPTH = 3  # truncation depth q, below the degree-4 polynomials' degree
    ASYM_MODULUS, ASYM_ORDER = 4, 2  # the main term's cost grows with k and q = m + r

    def _twisted(self, r: int, top: int, equal: bool = False, moduli=MODULI) -> tuple[int, int, tuple[int, ...]]:
        rng = self.rng
        while True:
            k = rng.choice(moduli)
            t = rng.randrange(1, k)
            weights = _admissible_weights(k, t, top)
            if weights:
                break
        if equal:
            return k, t, (rng.choice(weights),) * r
        return k, t, tuple(rng.choice(weights) for _ in range(r))

    def _make_round(self, i: int) -> list[Op]:
        rng = self.rng
        ops: list[Op] = []

        s = 1 + i % 3
        k, t, A = self._twisted(2, 4)
        n1 = rng.randint(60, 200)
        ops.append(self._brute_op(A, (n1, self.BRUTE_POINTS // (n1 + 1) - 1), s, k, t))
        k, t, A = self._twisted(3, 4)
        n1, n2 = rng.randint(15, 30), rng.randint(15, 30)
        ops.append(self._brute_op(A, (n1, n2, self.BRUTE_POINTS // ((n1 + 1) * (n2 + 1)) - 1), s, k, t))

        k, t, A = self._twisted(1, 4)
        ops.append(self._direct_r1_op(rng.choice(CONVERGENT_ORDERS), rng.choice(SHIFTS), k, t, A[0]))
        k, t, A = self._twisted(2, 4)
        ops.append(self._direct_r2_op(rng.choice(CONVERGENT_ORDERS), rng.choice(SHIFTS), k, t, A))

        k, t, A = self._twisted(2, 4)
        n1 = rng.randint(50, 150)
        N = (n1, self.FINITE_POINTS // (n1 + 1) - 1)
        ops.append(self._finite_op(rng.choice(ACCEL_ORDERS), rng.choice(SHIFTS), k, t, A, N))

        for r, orders in ((1, ACCEL_ORDERS), (2, ACCEL_ORDERS), (3, POSITIVE_ORDERS)):
            k, t, A = self._twisted(r, 3, equal=True)
            ops.append(self._accel_op(rng.choice(orders), rng.choice(SHIFTS), k, t, A))

        k, t, A = self._twisted(2, 3, equal=True, moduli=(self.ASYM_MODULUS,))
        ops.append(self._asym_op(self.ASYM_ORDER, 2 * A[0] + rng.randint(1, 15) + 0.5, k, t, A))

        ops.append(self._em_op(5 + i % 4, i % 2 == 0))

        m, x = rng.choice(CONTINUATION_ORDERS), rng.choice(CONTINUATION_SHIFTS)
        ops.append(self._continuation_op(m, x))
        return ops + _known_failures()

    @staticmethod
    def _brute_op(A, N, s, k, t) -> Op:
        x = Fraction(sum(A), k)
        spec = ps.SumSpec.of(A, N, x, s, k, t)
        return Op(
            f"brute_sum k={k} r={len(A)} points={math.prod(n + 1 for n in N)}",
            lambda: ps.brute_sum(spec),
            lambda v: refs.check_box_sum(_exact(v), A, N, x, s, k, t),
        )

    def _direct_r1_op(self, s, x, k, t, a) -> Op:
        terms = self.DIRECT_R1_POINTS // k
        spec = zt.ZetaSpec.of(s, x, k, t, (a,))
        return Op(
            f"zeta_direct r=1 k={k} points={k * terms}",
            lambda: zt.zeta_direct(spec, terms),
            lambda v: refs.close(v, refs.zeta_partial_r1(s, x, k, t, a, terms), 1e-9),
        )

    def _direct_r2_op(self, s, x, k, t, A) -> Op:
        terms = self.DIRECT_R2_SIDE // k
        spec = zt.ZetaSpec.of(s, x, k, t, A)
        side = k * terms
        return Op(
            f"zeta_direct r=2 k={k} points={side * side}",
            lambda: zt.zeta_direct(spec, terms),
            lambda v: _close_to_box_sum(v / 4, A, (side - 1,) * 2, s, x, k, t),
        )

    @staticmethod
    def _finite_op(s, x, k, t, A, N) -> Op:
        spec = zt.ZetaSpec.of(s, x, k, t, A)
        return Op(
            f"finite_sum_direct k={k} points={math.prod(n + 1 for n in N)}",
            lambda: zt.finite_sum_direct(spec, N),
            lambda v: _close_to_box_sum(v, A, N, s, x, k, t),
        )

    @staticmethod
    def _accel_op(s, x, k, t, A) -> Op:
        spec = zt.ZetaSpec.of(s, x, k, t, A)
        return Op(
            f"zeta_accelerated r={len(A)} k={k}",
            lambda: zt.zeta_accelerated(spec),
            lambda v: refs.close(v, refs.zeta_equal_weights(s, x, k, t, A[0], len(A)), 1e-7),
        )

    @staticmethod
    def _asym_op(m, x, k, t, A) -> Op:
        # at integer order sigma = m >= 0 with q >= m + r the main term is exact
        spec = zt.ZetaSpec.of(-m, x, k, t, A, q=m + len(A))
        return Op(
            f"zeta_asymptotic r={len(A)} k={k} m={m}",
            lambda: zt.zeta_asymptotic(spec),
            lambda v: refs.close(v, refs.zeta_equal_weights(-m, x, k, t, A[0], len(A)), 1e-8),
        )

    def _em_op(self, k: int, poly: bool) -> Op:
        rng = self.rng
        a = rng.choice(range(1, k))
        width = self.EM_KERNEL_TERMS // (k * k)
        m = rng.randint(0, 20)
        n = m + width
        q = self.EM_DEPTH
        if poly:
            coeffs = [rng.randint(-3, 3) for _ in range(4)] + [1]
            f = em.SmoothFunction.from_poly_coeffs(coeffs)
            reference = lambda: refs.em_direct_poly(coeffs, m, n, k, a)
            label = f"em_sum_unit poly k={k} cells={width * k}"
        else:
            alpha = rng.choice((-0.05, -0.03, -0.02, -0.01))
            f = em.SmoothFunction.exponential(alpha)
            reference = lambda: refs.em_direct_exp(alpha, m, n, k, a)
            label = f"em_sum_unit exp k={k} cells={width * k}"

        def check(res) -> bool:
            value, scale = reference()
            return refs.close(res.total, value, 1e-9, scale)

        return Op(label, lambda: em.em_sum_unit(f, m, n, k, a, q), check)

    @staticmethod
    def _continuation_op(m: int, x: Fraction) -> Op:
        spec = zt.ZetaSpec.of(-m, x, 2, 1, (1,))
        return Op(
            f"zeta_accelerated s=-{m} k=2 A=(1,)",
            lambda: zt.zeta_accelerated(spec),
            lambda v: refs.close(v, complex(refs.euler_poly_value(m, x)), 1e-6),
        )


def _close_to_box_sum(v: complex, A, N, s, x, k, t) -> bool:
    ref, scale = refs.box_sum_float(A, N, s, x, k, t)
    return refs.close(v, ref, 1e-12, scale)


WORKLOADS = {w.name: w for w in (ClosedForm, LimitSweep, LatticeNumeric)}
