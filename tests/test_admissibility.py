"""Every public entry refuses an inadmissible twist by the one rule
``bernoulli_euler._check_twist``: k >= 2 and k not dividing t*a."""

import pytest

from twistsum.bernoulli_euler import SingularTwistError, TwistSpec, gen_euler_numbers
from twistsum.euler_maclaurin import SmoothFunction, em_sum_scaled, em_sum_unit, quad_remainder
from twistsum.powersum import SumSpec, alternating_sum
from twistsum.twisted_c import (
    CPolySpec,
    c_poly,
    c_star,
    c_star_multi,
    c_star_s,
    c_star_s_exact,
    c_tilde,
    em_constant,
)
from twistsum.zeta import ZetaSpec

LINEAR = SmoothFunction.from_poly_coeffs([0, 1])

# each entry at modulus k and twist numerator t, with a weight a next to the
# admissible weight 1; entries without a numerator take the exponent t*a
ENTRIES = {
    "c_poly": lambda k, t, a: c_poly(CPolySpec(2, k, t * a)),
    "c_tilde": lambda k, t, a: c_tilde(CPolySpec(2, k, t * a), 0.5),
    "em_constant": lambda k, t, a: em_constant(2, k, t * a),
    "c_star": lambda k, t, a: c_star(2, k, a, t),
    "c_star_multi": lambda k, t, a: c_star_multi(2, k, (1, t * a)),
    "c_star_s": lambda k, t, a: c_star_s(1.5, 2, k, 2.0, (1, a), t),
    "c_star_s_exact": lambda k, t, a: c_star_s_exact(3, 2, k, 2, (1, t * a)),
    "quad_remainder": lambda k, t, a: quad_remainder(2, k, t * a, lambda x: 1.0, 0.0, 1.0),
    "em_sum_unit": lambda k, t, a: em_sum_unit(LINEAR, 0, 1, k, t * a, 1),
    "em_sum_scaled": lambda k, t, a: em_sum_scaled(LINEAR, 0, 1, k, t * a, 1),
    "gen_euler_numbers": lambda k, t, a: gen_euler_numbers(3, TwistSpec(k, t), (1, a)),
    "SumSpec": lambda k, t, a: SumSpec.of((1, a), (2, 2), 0, 3, k, t),
    "alternating_sum": lambda k, t, a: alternating_sum((1, a), (2, 2), 0, 3),
    "ZetaSpec": lambda k, t, a: ZetaSpec.of(0.5, 1, k, t, (1, a)),
}


# (k, t, a) = (4, 2, 2): k divides t*a (alternating_sum fixes k = 2, which
# divides its even weight); k = 1 divides every t*a, and only entries with a
# modulus take it
REFUSALS = [(name, (4, 2, 2), SingularTwistError, "singular twist.*inadmissible") for name in ENTRIES] + [
    (name, (1, 1, 1), ValueError, "modulus k must be at least 2") for name in ENTRIES if name != "alternating_sum"
]


@pytest.mark.parametrize(
    "entry, twist, error, message", REFUSALS, ids=[f"{name}-k{twist[0]}" for name, twist, _, _ in REFUSALS]
)
def test_inadmissible_twist_is_refused(entry, twist, error, message):
    with pytest.raises(error, match=message):
        ENTRIES[entry](*twist)

