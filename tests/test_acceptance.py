"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not tuned elsewhere.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import mpmath

from twistsum.bernoulli_euler import (
    TwistSpec,
    bernoulli_numbers,
    classical_euler_poly,
    gen_euler_numbers,
    gen_euler_poly,
)
from twistsum.cli import main as cli_main
from twistsum.euler_maclaurin import SmoothFunction, em_sum_unit
from twistsum.oracles import gen_euler_numbers_by_convolution, zero_box_check
from twistsum.powersum import SumSpec, brute_sum, closed_sum
from twistsum.verify import _random_admissible, _random_sum_spec
from twistsum.zeta import ZetaSpec, decay_probe, finite_sum_asymptotic, continuation_check, zeta_accelerated

F = Fraction


def report(number: int, label: str, passed: bool) -> None:
    print(f"[acceptance] criterion {number:2d} {'PASS' if passed else 'FAIL'}: {label}")
    assert passed, f"criterion {number} failed: {label}"


def test_criterion_1_headline_example(capsys):
    start = time.monotonic()
    code = cli_main(
        [
            "sum", "--weights", "3,1", "--limits", "100,150",
            "--x", "0", "--s", "2", "--k", "2", "--t", "1", "--method", "both",
        ]
    )
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    obj = json.loads(out)
    ok = (
        code == 0
        and obj["closed"] == "79275"
        and obj["brute"] == "79275"
        and obj["equal"] is True
        and elapsed < 5.0
    )
    with capsys.disabled():
        report(1, f"sum CLI reproduces 79275 both ways in {elapsed:.2f}s (< 5s)", ok)


def test_criterion_2_closed_form_oracle(capsys):
    rng = random.Random(2024)
    start = time.monotonic()
    failures = 0
    for _ in range(200):
        spec = _random_sum_spec(rng)
        if closed_sum(spec) != brute_sum(spec):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60.0
    with capsys.disabled():
        report(
            2,
            f"closed form equals brute force on 200 random instances "
            f"({elapsed:.1f}s < 60s, {failures} mismatches)",
            ok,
        )


def test_criterion_3_zero_box_suite(capsys):
    rng = random.Random(2024)
    failures = 0
    for _ in range(200):
        spec = _random_sum_spec(rng)
        if not zero_box_check(spec.x, spec.s, spec.twist, spec.A):
            failures += 1
    with capsys.disabled():
        report(3, f"closed form at N=0 equals x^s on 200 random instances ({failures} misses)", failures == 0)


def test_criterion_4_classical_reductions(capsys):
    alt = TwistSpec.alternating()
    poly_ok = all(gen_euler_poly(m, alt, (1,)) == classical_euler_poly(m) for m in range(13))
    bern_ok = bernoulli_numbers(12)[12] == F(-691, 2730)
    with capsys.disabled():
        report(4, "classical Euler reduction (m <= 12) and B_12 = -691/2730, exact", poly_ok and bern_ok)


def test_criterion_5_convolution_paths(capsys):
    rng = random.Random(55)
    checked = 0
    failures = 0
    while checked < 50:
        twist, A = _random_admissible(rng, r_max=3, a_max=5, k_choices=(2, 3, 4, 5, 6))
        m = rng.randint(0, 10)
        if gen_euler_numbers(m, twist, A) != gen_euler_numbers_by_convolution(m, twist, A):
            failures += 1
        checked += 1
    with capsys.disabled():
        report(5, f"series and convolution paths agree on 50 random draws ({failures} misses)", failures == 0)


def test_criterion_6_euler_maclaurin_polynomials(capsys):
    rng = random.Random(66)
    worst = 0.0
    count = 0
    for degree in range(7):
        coeffs = [rng.randint(-3, 3) for _ in range(degree)] + [rng.choice((-2, -1, 1, 2))]
        f = SmoothFunction.from_poly_coeffs(coeffs)
        for k in (2, 3, 4):
            for a in range(1, k):
                for m, n in itertools.combinations(range(-3, 6), 2):
                    res = em_sum_unit(f, m, n, k, a, degree + 1)
                    worst = max(worst, res.abs_error)
                    count += 1
    hand = em_sum_unit(SmoothFunction.from_poly_coeffs([0, 0, 1]), 0, 1, 2, 1, 2)
    hand_ok = abs(hand.total - 0.75) < 1e-12 and abs(hand.direct - 0.75) < 1e-12
    ok = worst < 1e-10 and hand_ok
    with capsys.disabled():
        report(6, f"twisted summation exact on {count} polynomial cases (worst {worst:.2e} < 1e-10)", ok)


def test_criterion_7_continuation_bridge(capsys):
    cases = [
        (0, F(0), TwistSpec(2, 1), (1,)),
        (1, F(1), TwistSpec(2, 1), (1,)),
        (2, F(1, 2), TwistSpec(2, 1), (1,)),
        (3, F(2), TwistSpec(3, 1), (1,)),
        (4, F(1), TwistSpec(4, 1), (1,)),
        (1, F(0), TwistSpec(2, 1), (1, 3)),
        (2, F(3, 2), TwistSpec(3, 1), (1, 2)),
        (3, F(1), TwistSpec(2, 1), (1, 1)),
        (4, F(2), TwistSpec(2, 1), (3,)),
    ]
    worst = 0.0
    for m, c, twist, A in cases:
        rep = continuation_check(m, c, twist, A, tol=1e-6)
        worst = max(worst, abs(rep.accelerated - rep.exact_value))
        if not (rep.exact_matches and rep.accelerated == rep.exact_value):
            with capsys.disabled():
                report(7, f"continuation bridge failed at m={m}, c={c}, {twist}, A={A}", False)
    with capsys.disabled():
        report(7, f"continuation equals the exact values literally for m <= 4 (worst {worst:.2e})", True)


def test_criterion_8_shift_decay_probe(capsys):
    failures = []
    for r, k, q in itertools.product((1, 2), (2, 3), (1, 2)):
        A = (1,) if r == 1 else ((1, 3) if k == 2 else (1, 2))
        spec = ZetaSpec.of(0.5, 10.0, k, 1, A, q=q)  # summand exponent -0.5
        rep = decay_probe("shift", spec, [10, 20, 40, 80])
        if not rep.monotone_decreasing:
            failures.append(f"r={r},k={k},q={q}: not strictly decreasing")
        if rep.predicted < 0 and not rep.exact and rep.fitted > rep.predicted + 0.3:
            failures.append(
                f"r={r},k={k},q={q}: fitted {rep.fitted:.2f} decays slower than predicted {rep.predicted:.2f}"
            )
    with capsys.disabled():
        report(
            8,
            "error strictly decreasing on the (r, k, q) grid; decay at least as fast as "
            "the predicted exponent (one-sided, 0.3 slack) where it is negative"
            + ("" if not failures else " -- " + "; ".join(failures)),
            not failures,
        )


def test_criterion_9_finite_sum_bridge(capsys):
    spec = ZetaSpec.of(-2, 0.0, 2, 1, (1,), q=2)  # summand exponent s = 2, default depth
    rel = []
    for n in (20, 40, 80):
        approx = finite_sum_asymptotic(spec, (n,))
        exact = float(closed_sum(SumSpec.of((1,), (n,), 0, 2, 2, 1)).as_rational())
        rel.append(abs(approx - exact) / abs(exact))
    with capsys.disabled():
        report(
            9,
            f"finite-sum formula vs exact closed form: relative difference "
            f"{[f'{v:.1e}' for v in rel]} <= 1e-15 at every N in (20, 40, 80)",
            all(v <= 1e-15 for v in rel),
        )


def test_criterion_10_eta_sanity(capsys):
    worst = 0.0
    for s in (0.5, 1.0, 2.0, 3.0):
        mine = zeta_accelerated(ZetaSpec.of(s, 1.0, 2, 1, (1,)))
        reference = 2 * complex(mpmath.altzeta(s))
        worst = max(worst, abs(mine - reference))
    pi_check = abs(zeta_accelerated(ZetaSpec.of(2.0, 1.0, 2, 1, (1,))) - math.pi**2 / 6)
    ok = worst < 1e-8 and pi_check < 1e-8
    with capsys.disabled():
        report(10, f"Z(s,1) = 2*eta(s) for s in (0.5, 1, 2, 3) (worst {worst:.2e} < 1e-8)", ok)
