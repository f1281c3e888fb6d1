"""Randomized and grid-based verification suites.

Each suite runs the invariants of one module family and reports one line per
property with a counterexample on failure.  Given the same seed the suites
are fully deterministic; the CLI exposes them under ``verify --suite ...``
and the test suite drives the same code, so there is a single source of
truth for what "verified" means.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import bernoulli_euler as be
from . import euler_maclaurin as em
from . import oracles
from . import powersum as ps
from . import twisted_c as tc
from . import zeta as zt
from .bernoulli_euler import TwistSpec, WeightVector
from .exact import (
    CyclotomicNumber,
    TruncatedSeries,
    binomial_inverse,
    cyc_root,
    euler_phi,
)


@dataclass(frozen=True, slots=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json_obj(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class SuiteReport:
    suite: str
    seed: int
    results: list[PropertyResult] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.results if not r.passed)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.results.append(PropertyResult(name, passed, detail))

    def check(self, name: str, fn: Callable[[], Optional[str]]) -> None:
        """Run ``fn``; None means pass, a string is the counterexample."""
        try:
            detail = fn()
        except Exception as exc:  # property code crashing is a failure, not an abort
            self.add(name, False, f"exception: {exc!r}")
            return
        self.add(name, detail is None, detail or "")

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "failures": self.failures,
            "results": [r.to_json_obj() for r in self.results],
        }


# ---------------------------------------------------------------------------
# randomized instance generators
# ---------------------------------------------------------------------------

def _random_admissible(rng: random.Random, r_max=3, a_max=5, k_choices=(2, 3, 4, 6)):
    """Draw an admissible (twist, weights) pair by rejection."""
    while True:
        k = rng.choice(k_choices)
        t = rng.randrange(1, k)
        r = rng.randint(1, r_max)
        entries = tuple(rng.randint(1, a_max) for _ in range(r))
        twist = TwistSpec(k, t)
        A = WeightVector(entries)
        if A.admissible_for(twist):
            return twist, A


def _random_sum_spec(rng: random.Random) -> ps.SumSpec:
    twist, A = _random_admissible(rng)
    N = tuple(rng.randint(0, 8) for _ in A.entries)
    x = rng.choice([Fraction(0), Fraction(1), Fraction(5, 2)])
    s = rng.randint(0, 6)
    return ps.SumSpec(A, N, x, s, twist)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_exact(seed: int) -> SuiteReport:
    rep = SuiteReport("exact", seed)
    rng = random.Random(seed)

    def field_axioms() -> Optional[str]:
        for _ in range(60):
            k = rng.randint(1, 12)
            def rand_elem():
                phi = euler_phi(k)
                return CyclotomicNumber(
                    k, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(phi))
                )
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            if (a * b) * c != a * (b * c):
                return f"associativity failed at k={k}"
            if a * (b + c) != a * b + a * c:
                return f"distributivity failed at k={k}"
            if not a.is_zero() and a * a.inverse() != CyclotomicNumber.one(k):
                return f"inverse failed for {a} at k={k}"
        return None

    rep.check("cyclotomic field axioms (random k <= 12)", field_axioms)

    def embedding() -> Optional[str]:
        for _ in range(60):
            k = rng.randint(1, 12)
            phi = euler_phi(k)
            mk = lambda: CyclotomicNumber(
                k, tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(phi))
            )
            a, b = mk(), mk()
            if abs((a * b).embed() - a.embed() * b.embed()) >= 1e-10:
                return f"embedding not multiplicative at k={k}"
        return None

    rep.check("numeric embedding is a ring homomorphism", embedding)

    def divisibility() -> Optional[str]:
        # x^k - 1 = prod_{d | k} Phi_d, multiplied out in integers
        from .exact import _cyclotomic_coeffs
        for k in range(1, 31):
            prod = [1]
            for d in range(1, k + 1):
                if k % d == 0:
                    phi_d = _cyclotomic_coeffs(d)
                    out = [0] * (len(prod) + len(phi_d) - 1)
                    for i, a in enumerate(prod):
                        for j, b in enumerate(phi_d):
                            out[i + j] += a * b
                    prod = out
            if prod != [-1] + [0] * (k - 1) + [1]:
                return f"Phi_{k} does not divide x^{k}-1"
        return None

    rep.check("Phi_k divides x^k - 1 for k <= 30", divisibility)

    def inverse_roundtrip() -> Optional[str]:
        for _ in range(20):
            T = rng.randint(1, 8)
            coeffs = [Fraction(rng.randint(1, 5))] + [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(T)
            ]
            s = TruncatedSeries.from_coeffs(coeffs, T)
            if s * s.inverse() != TruncatedSeries.one(T):
                return f"series inverse failed for {coeffs}"
        return None

    rep.check("series inverse times the series is the identity series", inverse_roundtrip)

    def egf_inverse() -> Optional[str]:
        for trial in range(40):
            T = rng.randint(0, 8)
            k = 1 if trial % 2 else rng.randint(2, 12)  # k = 1 draws Fractions

            def draw():
                if k == 1:
                    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                phi = euler_phi(k)
                return CyclotomicNumber(
                    k, tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(phi))
                )

            values = [draw() for _ in range(T + 1)]
            while values[0] == 0:
                values[0] = draw()
            out, shown = binomial_inverse(values), ", ".join(map(str, values))
            series = TruncatedSeries.from_coeffs(
                [v / math.factorial(n) for n, v in enumerate(values)], T, k
            ).inverse()
            for n, got in enumerate(out):
                want = series.taylor_value(n)
                coords = (got.order, got.coeffs) if k > 1 else (1, (got,))
                if type(got) is not type(values[0]) or coords != (want.order, want.coeffs):
                    return f"binomial_inverse([{shown}])[{n}] = {got}, series inverse {want}"
            if oracles.binomial_convolve(values, out) != [1] + [0] * T:
                return f"v * binomial_inverse(v) is not 1, 0, ... for v = [{shown}]"
        return None

    rep.check("EGF inverse equals the series inverse and convolves to 1, 0, 0, ...", egf_inverse)
    return rep


def suite_powersum(seed: int) -> SuiteReport:
    rep = SuiteReport("powersum", seed)
    rng = random.Random(seed)
    instances = 200
    specs = [_random_sum_spec(rng) for _ in range(instances)]

    def oracle() -> Optional[str]:
        for spec in specs:
            if ps.closed_sum(spec) != ps.brute_sum(spec):
                return f"closed != brute for {spec}"
        return None

    rep.check(f"oracle equivalence on {instances} random instances", oracle)

    def zero_box() -> Optional[str]:
        for spec in specs:
            if not oracles.zero_box_check(spec.x, spec.s, spec.twist, spec.A):
                return f"zero-box collapse failed for x={spec.x}, m={spec.s}, {spec.twist}, {spec.A}"
        return None

    rep.check("zero-box collapse: closed form at N=0 equals x^s", zero_box)

    def permutation() -> Optional[str]:
        for spec in specs[:40]:
            r = len(spec.A)
            if r == 1:
                continue
            perm = list(range(r))
            rng.shuffle(perm)
            permuted = ps.SumSpec(
                WeightVector(tuple(spec.A.entries[i] for i in perm)),
                tuple(spec.N[i] for i in perm),
                spec.x,
                spec.s,
                spec.twist,
            )
            if ps.closed_sum(spec) != ps.closed_sum(permuted):
                return f"permutation changed the closed sum for {spec}"
            if ps.brute_sum(spec) != ps.brute_sum(permuted):
                return f"permutation changed the brute sum for {spec}"
        return None

    rep.check("joint permutation invariance of (A, N)", permutation)

    def telescoping() -> Optional[str]:
        for spec in specs[:30]:
            if spec.N[0] == 0:
                continue
            shrunk = ps.SumSpec(
                spec.A, (spec.N[0] - 1,) + spec.N[1:], spec.x, spec.s, spec.twist
            )
            difference = ps.closed_sum(spec) - ps.closed_sum(shrunk)
            # face m_1 = n_1, remaining axes over their full boxes
            k = spec.twist.k
            face = CyclotomicNumber.zero(k)
            ranges = [range(n + 1) for n in spec.N[1:]]
            for M in itertools.product(*ranges):
                dot = spec.A.entries[0] * spec.N[0] + sum(
                    a * m for a, m in zip(spec.A.entries[1:], M)
                )
                face = face + spec.twist.root(dot) * (dot + spec.x) ** spec.s
            if difference != face:
                return f"telescoping slice failed for {spec}"
        return None

    rep.check("telescoping slice consistency", telescoping)
    return rep


def suite_euler(seed: int) -> SuiteReport:
    rep = SuiteReport("euler", seed)
    rng = random.Random(seed)
    path_instances = 50

    def reduction() -> Optional[str]:
        alt = TwistSpec.alternating()
        for m in range(13):
            if be.gen_euler_poly(m, alt, (1,)) != be.classical_euler_poly(m):
                return f"generalized polynomial differs from classical at m={m}"
        return None

    rep.check("reduction to classical Euler polynomials (m <= 12)", reduction)

    def paths() -> Optional[str]:
        for _ in range(path_instances):
            twist, A = _random_admissible(rng, r_max=3, a_max=5, k_choices=(2, 3, 4, 5, 6))
            m = rng.randint(0, 10)
            series = be.gen_euler_numbers(m, twist, A)
            conv = oracles.gen_euler_numbers_by_convolution(m, twist, A)
            if series != conv:
                return f"series vs convolution mismatch for {twist}, {A}, m={m}"
        return None

    rep.check(f"series path equals convolution path ({path_instances} random draws)", paths)

    def complement() -> Optional[str]:
        # m + 1 distinct points fix a polynomial identity of degree <= m
        for m in range(11):
            p = be.classical_euler_poly(m)
            for x in (Fraction(j, 3) - 1 for j in range(m + 1)):
                if p.eval_exact(x) + p.eval_exact(x + 1) != 2 * x**m:
                    return f"E_m(x) + E_m(x+1) != 2 x^m at m={m}"
        return None

    rep.check("complement identity E_m(x) + E_m(x+1) = 2 x^m", complement)

    def leading() -> Optional[str]:
        for _ in range(25):
            twist, A = _random_admissible(rng)
            m = rng.randint(0, 8)
            poly = be.gen_euler_poly(m, twist, A)
            e0 = be.gen_euler_numbers(0, twist, A)[0]
            if poly.coeff(m) != e0:
                return f"x^m coefficient != E_0 for {twist}, {A}, m={m}"
        return None

    rep.check("leading coefficient equals E_0(j, A)", leading)

    def bernoulli_recurrence() -> Optional[str]:
        numbers = be.bernoulli_numbers(16)
        for n in range(1, 16):
            total = sum(math.comb(n + 1, j) * numbers[j] for j in range(n + 1))
            if total != 0:
                return f"sum C(n+1,j) B_j != 0 at n={n}"
        return None

    rep.check("Bernoulli recurrence sum C(n+1,j) B_j = 0", bernoulli_recurrence)

    def partitions() -> Optional[str]:
        for _ in range(15):
            twist, A = _random_admissible(rng, r_max=3, a_max=4, k_choices=(2, 3, 4))
            m = rng.randint(0, 4)
            entries = list(A.entries)
            rng.shuffle(entries)
            cut = rng.randint(1, len(entries))
            parts = [entries[:cut]] + ([entries[cut:]] if entries[cut:] else [])
            xs = [Fraction(rng.randint(-2, 3)) for _ in parts]
            if not oracles.gen_euler_poly_partition_check(m, twist, A, parts, xs):
                return f"partition identity failed for {twist}, {A}, parts={parts}, xs={xs}"
        return None

    rep.check("partition identity at rational points", partitions)
    return rep


def suite_cvalues(seed: int) -> SuiteReport:
    rep = SuiteReport("cvalues", seed)
    rng = random.Random(seed)

    def poly_vs_periodic() -> Optional[str]:
        # the two agree exactly where every shifted argument stays in [0, 1):
        # x in [(k-1)/k, 1)
        for k in (2, 3, 4, 5):
            for a in range(1, k):
                for n in range(0, 5):
                    spec = tc.CPolySpec(n, k, a)
                    x = Fraction(k - 1, k) + Fraction(rng.randint(0, 9), 10 * k)
                    if tc.c_poly(spec).eval_exact(x) != tc.c_tilde(spec, x):
                        return f"polynomial/periodic mismatch at n={n}, k={k}, a={a}, x={x}"
        return None

    rep.check("c_poly equals c_tilde on [(k-1)/k, 1)", poly_vs_periodic)

    def genfun() -> Optional[str]:
        for k in (2, 3, 4):
            for a in range(1, k):
                if not oracles.c_poly_gf_check(k, a, 6):
                    return f"generating function differs from c_poly at k={k}, a={a}"
        return None

    rep.check("generating function matches c_poly through order 6", genfun)

    def em_zero() -> Optional[str]:
        for k in range(2, 9):
            for a in range(1, k):
                if not tc.em_constant(0, k, a).is_zero():
                    return f"C_0 constant nonzero at k={k}, a={a}"
        return None

    rep.check("em_constant(0, k, a) = 0 for all admissible k <= 8", em_zero)

    def em_closed_form() -> Optional[str]:
        # order-1 constant has the closed form -(1 + sum_q (q/k) zeta^{aq})
        for k in range(2, 9):
            for a in range(1, k):
                closed = -(
                    CyclotomicNumber.one(k)
                    + sum(
                        (cyc_root(k, a * qq) * Fraction(qq, k) for qq in range(k)),
                        CyclotomicNumber.zero(k),
                    )
                )
                if tc.em_constant(1, k, a) != closed:
                    return f"order-1 closed form failed at k={k}, a={a}"
        return None

    rep.check("em_constant(1,k,a) closed form", em_closed_form)

    def pochhammer_rec() -> Optional[str]:
        for _ in range(40):
            s = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
            r = rng.randint(1, 10)
            lhs = tc.pochhammer(s, r)
            rhs = tc.pochhammer(s, r - 1) * (s + r - 1)
            if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
                return f"recurrence failed at s={s}, r={r}"
        return None

    rep.check("pochhammer recurrence (relative 1e-12)", pochhammer_rec)

    def integer_cstar() -> Optional[str]:
        for _ in range(25):
            k = rng.choice((2, 3, 4))
            r = rng.randint(1, 2)
            A = tuple(a for a in (rng.randint(1, 4) for _ in range(r)))
            if not WeightVector(A).admissible_for(TwistSpec(k, 1)):
                continue
            m = rng.randint(0, 3)
            n = m + rng.randint(0, 3)
            x = rng.randint(1, 9)
            exact = tc.c_star_s_exact(n, m, k, Fraction(x), A).embed()
            numeric = tc.c_star_s(complex(n), m, k, float(x), A)
            if abs(numeric - exact) > 1e-10 * (1 + abs(exact)):
                return f"float vs exact mismatch at n={n}, m={m}, k={k}, x={x}, A={A}"
        return None

    rep.check("c_star_s at integer order matches the exact evaluation", integer_cstar)

    def gf_checks() -> Optional[str]:
        cases = [(4, 2, (1,)), (4, 3, (1, 2)), (3, 4, (1, 3)), (3, 2, (1, 1))]
        for m_max, k, A in cases:
            if not oracles.c_star_multi_gf_check(m_max, k, A):
                return f"generating-function cross-check failed for k={k}, A={A}"
        return None

    rep.check("starred-value generating-function cross-checks", gf_checks)

    def star_table() -> Optional[str]:
        # the runtime table is read off the Euler numbers at the conjugate twist; the
        # reference convolves per-weight tables of Bernoulli-value sums (em_constant)
        grid = [(k, t) for k in (2, 3, 4, 5, 6, 12) for t in range(1, k)]
        for i, (k, t) in enumerate(grid):
            weights = [a for a in range(1, 2 * k) if t * a % k]
            A = [rng.choice(weights) for _ in range(1 + i % 4)]
            if i % 3 == 0:
                A[-1] = A[0]  # a repeated weight
            q = 14 if i % 5 == 0 else rng.randint(0, 14)
            got = tc._periodic_stars(q, k, A, t)
            want = oracles._star_table(tc.c_star, q, k, A, t)
            if [(c.order, c.coeffs) for c in got] != [(c.order, c.coeffs) for c in want]:
                return f"star table differs from the Bernoulli-sum convolution at q={q}, k={k}, t={t}, A={A}"
        return None

    rep.check("star table equals the convolution of Bernoulli-sum stars (r <= 4, q <= 14)", star_table)
    return rep


def suite_em(seed: int) -> SuiteReport:
    rep = SuiteReport("em", seed)
    rng = random.Random(seed)

    def polynomial_exactness() -> Optional[str]:
        for degree in range(7):
            coeffs = [rng.randint(-3, 3) for _ in range(degree)] + [rng.choice((1, 2, -1))]
            f = em.SmoothFunction.from_poly_coeffs(coeffs)
            for k in (2, 3, 4):
                for a in range(1, k):
                    for m, n in ((-3, 5), (-2, 1), (0, 1), (1, 4), (-1, 0)):
                        res = em.em_sum_unit(f, m, n, k, a, degree + 1)
                        if res.abs_error >= 1e-10:
                            return (
                                f"polynomial exactness failed: deg={degree}, k={k}, a={a}, "
                                f"[{m},{n}], err={res.abs_error:.2e}"
                            )
        return None

    rep.check("polynomial exactness (deg <= 6, q = deg+1, err < 1e-10)", polynomial_exactness)

    def hand_case() -> Optional[str]:
        f = em.SmoothFunction.from_poly_coeffs([0, 0, 1])
        res = em.em_sum_unit(f, 0, 1, 2, 1, 2)
        if abs(res.direct - 0.75) > 1e-12 or abs(res.main_terms - 0.75) > 1e-12:
            return f"hand-checked case broke: main={res.main_terms}, direct={res.direct}"
        if abs(res.remainder) > 1e-12:
            return f"remainder should vanish, got {res.remainder}"
        return None

    rep.check("hand-checked quadratic case (both sides 3/4)", hand_case)

    def q_stability() -> Optional[str]:
        g = em.SmoothFunction.exponential(0.6)
        totals = [em.em_sum_unit(g, -1, 3, 3, 2, q).total for q in range(1, 7)]
        spread = max(abs(u - v) for u in totals for v in totals)
        if spread > 1e-9:
            return f"totals moved by {spread:.2e} as q varied"
        return None

    rep.check("q-stability for smooth f (1e-9)", q_stability)

    def scaled_reduction() -> Optional[str]:
        for k in (2, 3, 4):
            for a in range(1, k):
                g = em.SmoothFunction.from_poly_coeffs([1, -1, 2, 1])
                scaled = em.em_sum_scaled(g, 0, 2, k, a, 4)
                unit = em.em_sum_unit(g.rescaled(k), 0, 2, k, a, 4)
                if abs(scaled.total - unit.total) > 1e-10:
                    return f"scaled total differs from unit total at k={k}, a={a}"
                if abs(scaled.direct - unit.direct) > 1e-10:
                    return f"scaled direct sum differs from the reindexed unit sum at k={k}, a={a}"
        return None

    rep.check("scaled form reduces to the unit form under f(x) = g(kx)", scaled_reduction)

    def period_cancellation() -> Optional[str]:
        one = em.SmoothFunction.from_poly_coeffs([1])
        for k in (2, 3, 5):
            res = em.em_sum_unit(one, -2, 3, k, 1, 1)
            if abs(res.direct) > 1e-12 or abs(res.total) > 1e-12:
                return f"constant function did not cancel over whole periods at k={k}"
        return None

    rep.check("whole-period cancellation for constant f", period_cancellation)

    def derivative_consistency() -> Optional[str]:
        fns = [
            em.SmoothFunction.from_poly_coeffs([2, 0, -1, 1]),
            em.SmoothFunction.exponential(0.8),
        ]
        pts = [rng.uniform(-2, 2) for _ in range(5)]
        for f in fns:
            if not oracles.check_derivative_consistency(f, pts):
                return "finite-difference spot check failed"
        return None

    rep.check("derivative evaluators agree with finite differences", derivative_consistency)
    return rep


def _blocked_tail_bound(spec: zt.ZetaSpec, terms: int) -> float:
    """A bound on the tail of ``zeta_direct(spec, terms)``, one weight a, k <= 3, real s > 0.

    Past the T = ``terms`` blocks the terms are zeta^{t a n} (a n + x)^{-s},
    n >= k T.  The root sums over n = k T..n' have modulus at most 1 for
    k <= 3, and the powers decrease from (a k T + x)^{-s}, so by summation by
    parts the tail is at most that power, times 2^r = 2.  Like the estimate
    of :func:`twistsum.zeta._direct_value` it falls as T^{-sigma}: at k = 2,
    a = x = 1 it is twice the tail that estimate reports.
    """
    (a,) = spec.A.entries
    return 2.0 * (a * spec.twist.k * terms + spec.x) ** -spec.s.real


def suite_zeta(seed: int) -> SuiteReport:
    rep = SuiteReport("zeta", seed)

    def eta_reduction() -> Optional[str]:
        # closed forms of 2 eta(s) = 2 (1 - 2^{1-s}) zeta(s); zeta(3) and zeta(1/2) are literals
        zeta3, zeta_half = 1.2020569031595942, -1.4603545088095868
        two_eta = {
            0.5: 2 * (1 - math.sqrt(2)) * zeta_half,
            1.0: 2 * math.log(2),
            2.0: math.pi**2 / 6,
            3.0: 1.5 * zeta3,
        }
        for s, want in two_eta.items():
            mine = zt.zeta_accelerated(zt.ZetaSpec.of(s, 1.0, 2, 1, (1,)))
            if abs(mine - want) > 1e-8:
                return f"zeta != 2*eta at s={s}: {mine} vs {want}"
        return None

    rep.check("eta reduction: Z(s,1) = 2 eta(s) to 1e-8", eta_reduction)

    def continuation_bridge() -> Optional[str]:
        cases = [
            (0, Fraction(0), TwistSpec(2, 1), (1,)),
            (2, Fraction(1, 2), TwistSpec(2, 1), (1,)),
            (1, Fraction(0), TwistSpec(2, 1), (1, 3)),
            (3, Fraction(2), TwistSpec(3, 1), (1,)),
            (4, Fraction(1), TwistSpec(4, 1), (1,)),
            (2, Fraction(3, 2), TwistSpec(3, 1), (1, 2)),
            (2, Fraction(1), TwistSpec(2, 1), (101, 103, 107)),  # a long period
        ]
        for m, c, twist, A in cases:
            report = zt.continuation_check(m, c, twist, A)
            if not report.exact_matches:
                return (
                    f"continuation mismatch at m={m}, c={c}, {twist}, A={A}: "
                    f"{report.accelerated} vs {report.exact_value}"
                )
        return None

    rep.check("continuation at s=-m equals the generalized Euler polynomial (1e-6)", continuation_bridge)

    def direct_consistency() -> Optional[str]:
        for s in (2.0, 3.0):
            spec = zt.ZetaSpec.of(s, 1.0, 2, 1, (1,))
            direct = zt.zeta_direct(spec, 4000)
            accel = zt.zeta_accelerated(spec)
            # twice the tail bound leaves room for the acceleration's own error
            bound = 2.0 * _blocked_tail_bound(spec, 4000)
            if abs(direct - accel) > bound:
                return f"blocked sum vs acceleration at s={s}: diff {abs(direct-accel):.2e}"
        return None

    rep.check("direct blocked sum consistent with acceleration", direct_consistency)

    def blocked_tail() -> Optional[str]:
        spec = zt.ZetaSpec.of(2.0, 1.0, 3, 1, (2,))
        coarse, fine = zt.zeta_direct(spec, 300), zt.zeta_direct(spec, 600)
        bound = _blocked_tail_bound(spec, 300) + _blocked_tail_bound(spec, 600)
        if abs(coarse - fine) > bound:
            return f"doubling the block count moved the sum by {abs(coarse-fine):.2e}"
        return None

    rep.check("blocked-tail estimate honored when doubling terms", blocked_tail)

    def direct_refusal() -> Optional[str]:
        for s in (0.05, 0.3):
            spec = zt.ZetaSpec.of(s, 1.0, 2, 1, (1,))
            try:
                value = zt._direct_value(spec, 400, 1e-10)
            except zt.AccelerationError as exc:
                error = abs(exc.best_estimate - zt.zeta_accelerated(spec))
                if not error / 2 <= exc.achieved_tol <= 2 * error:
                    return f"tail estimate {exc.achieved_tol:.3g} vs error {error:.3g} at s={s}"
            else:
                return f"direct sum at s={s} returned {value} with its tail above the tolerance"
        return None

    rep.check("direct method refuses a slow tail at small s (estimate within 2x)", direct_refusal)

    def integer_exactness() -> Optional[str]:
        cases = [
            (2, 2, 1, (1,), 10),
            (3, 2, 1, (1,), 8),
            (2, 2, 1, (1, 1), 10),
            (2, 3, 1, (1, 2), 12),
            (1, 4, 1, (1, 2), 9),
        ]
        for sigma, k, t, A, x in cases:
            spec = zt.ZetaSpec.of(-sigma, x, k, t, A, q=sigma + len(A))
            main = zt.zeta_asymptotic(spec)
            exact = be.gen_euler_poly(sigma, TwistSpec(k, t), A).eval_exact(Fraction(x)).embed()
            if abs(main - exact) > 1e-9 * (1 + abs(exact)):
                return f"main term not exact at sigma={sigma}, k={k}, A={A}: {main} vs {exact}"
        return None

    rep.check("asymptotic main term exact at integer orders (q = sigma + r)", integer_exactness)

    def default_depth() -> Optional[str]:
        # with q unset, asym and finite take the exact value at s = -m; the
        # anchors, the public Euler polynomial and the brute box sum, read no memo
        for m, k, t, A, x in [
            (2, 3, 1, (1, 2), 10.5),
            (2, 3, 1, (1, 2), 0.5),  # x < A.1
            (0, 2, 1, (1,), 0.0),
            (3, 5, 2, (1, 2, 3), 2.25),
            (5, 4, 3, (1, 3), 1.75),
        ]:
            main = zt.zeta_asymptotic(zt.ZetaSpec.of(-m, x, k, t, A))
            exact = be.gen_euler_poly(m, TwistSpec(k, t), A).eval_exact(Fraction(x)).embed()
            if main != exact:
                return f"asym without q at s=-{m}, x={x}, k={k}, t={t}, A={A}: {main} vs {exact}"
        for m, k, t, A, x, N in [
            (2, 3, 1, (1, 2), 0.5, (3, 4)),
            (2, 3, 1, (1, 2), 0.5, (0, 0)),
            (3, 3, 1, (1, 2), 1.0, (5, 4)),
            (1, 5, 2, (1, 2, 3), 0.25, (2, 3, 1)),
            (4, 2, 1, (1,), 0.0, (9,)),
        ]:
            approx = zt.finite_sum_asymptotic(zt.ZetaSpec.of(-m, x, k, t, A), N)
            exact = ps.brute_sum(ps.SumSpec.of(A, N, Fraction(x), m, k, t)).embed()
            if abs(approx - exact) > 1e-12 * abs(exact):
                return f"finite without q at s=-{m}, x={x}, k={k}, A={A}, N={N}: {approx} vs {exact}"
        return None

    rep.check("asym and finite exact at integer orders without q (Euler polynomial; brute sum, 1e-12)", default_depth)

    def shift_probe() -> Optional[str]:
        for r, k, q in itertools.product((1, 2), (2, 3), (1, 2)):
            A = (1,) if r == 1 else ((1, 3) if k == 2 else (1, 2))
            spec = zt.ZetaSpec.of(0.5, 10.0, k, 1, A, q=q)
            report = zt.decay_probe("shift", spec, [10, 20, 40, 80])
            if not report.monotone_decreasing:
                return f"errors not strictly decreasing at r={r}, k={k}, q={q}: {report.points}"
            if report.predicted < 0 and not report.exact:
                if report.fitted > report.predicted + 0.3:
                    return (
                        f"decay slower than predicted at r={r}, k={k}, q={q}: "
                        f"fitted {report.fitted:.2f} vs predicted {report.predicted:.2f}"
                    )
        return None

    rep.check("shift-growth decay probe (strict decrease; fitted <= predicted + 0.3)", shift_probe)

    def finite_sum_bridge() -> Optional[str]:
        spec = zt.ZetaSpec.of(-2.0, 0.0, 2, 1, (1,), q=2)
        rel = []
        for n in (20, 40, 80):
            approx = zt.finite_sum_asymptotic(spec, (n,))
            exact = float(
                ps.closed_sum(ps.SumSpec.of((1,), (n,), 0, 2, 2, 1)).as_rational()
            )
            rel.append(abs(approx - exact) / abs(exact))
        if any(v > 1e-15 for v in rel):
            return f"bridge error above 1e-15 at N in (20, 40, 80): {rel}"
        return None

    rep.check("finite-sum bridge to the exact closed form (relative, <= 1e-15 at every N)", finite_sum_bridge)

    def limit_probe() -> Optional[str]:
        spec = zt.ZetaSpec.of(0.5, 1.0, 4, 1, (1, 3), q=2)
        report = zt.decay_probe("limits", spec, [8, 16, 32])
        if not report.monotone_decreasing:
            return f"finite-sum probe errors not decreasing: {report.points}"
        return None

    rep.check("limit-growth decay probe (monotone decrease)", limit_probe)
    return rep


_SUITES: dict[str, Callable[[int], SuiteReport]] = {
    "exact": suite_exact,
    "powersum": suite_powersum,
    "euler": suite_euler,
    "cvalues": suite_cvalues,
    "em": suite_em,
    "zeta": suite_zeta,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suites(suite: str, seed: int) -> list[SuiteReport]:
    if suite == "all":
        return [fn(seed) for fn in _SUITES.values()]
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    return [_SUITES[suite](seed)]
