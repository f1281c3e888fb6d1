"""The true values behind the golden corpus's stall lines, from ``perfbench/refs.py``.

``refs.zeta_equal_weights`` evaluates Z(s, x) at equal weights A = (a,) * r
as a combination of Lerch values, each a sum of k Hurwitz zeta values that
mpmath continues to every order, so it shares nothing with the Euler
transformation that stalls.  The file is loaded by path and only read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

mpmath = pytest.importorskip("mpmath")
pytest.importorskip("numpy")  # refs.py imports it at module level

ROOT = Path(__file__).resolve().parent.parent
REFS = ROOT / "perfbench" / "refs.py"
CORPUS = ROOT / "tests" / "golden" / "cli.jsonl"


@pytest.fixture(scope="module")
def refs():
    spec = importlib.util.spec_from_file_location("perfbench_refs", REFS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference(refs, s, x, k, t, a, r):
    """``refs.zeta_equal_weights``; it sets mpmath to 25 digits, and the caller's precision is restored."""
    with mpmath.workdps(mpmath.mp.dps):
        return refs.zeta_equal_weights(s, x, k, t, a, r)


def corpus_error(command):
    """The JSON error object that the corpus records for ``command``."""
    with CORPUS.open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["argv"] == command.split():
                assert record["code"] == 1
                return json.loads(record["stderr"])
    raise AssertionError(f"no corpus line for {command!r}")


@pytest.mark.parametrize("s, x, r", [(-2.5, 1.0, 1), (-1.25, 1.0, 2), (-1.25, 2.5, 2)])
def test_reference_agrees_with_lerchphi(refs, s, x, r):
    # at A = (1,) * r the number of M with A.M = n is C(n + r - 1, r - 1), 1 at r = 1 and n + 1 at
    # r = 2, so with z = zeta_6 Z = 2 Phi(z, s, x) and Z = 4 (Phi(z, s - 1, x) + (1 - x) Phi(z, s, x))
    with mpmath.workdps(40):
        z = mpmath.expjpi(mpmath.mpf(1) / 3)
        phi = [mpmath.lerchphi(z, s - j, x) for j in range(r)]
        want = complex(2 * phi[0] if r == 1 else 4 * (phi[1] + (1 - x) * phi[0]))
    assert abs(reference(refs, s, x, 6, 1, 1, r) - want) <= 1e-15 * abs(want)


def test_outer_axis_stall_reports_less_error_than_it_has(refs):
    error = corpus_error("zeta --method accel --s=-2.5 --x 1 --k 6 --t 1 --weights 1")
    truth = reference(refs, -2.5, 1.0, 6, 1, 1, 1)
    assert truth == pytest.approx(-1.4445074702992533 - 5.475977106388498j, rel=1e-15)
    best = complex(error["best_estimate"]["re"], error["best_estimate"]["im"])
    # the successive-pass delta is not a bound: the estimate is 4.88e-9 off, 2.8 times its
    # achieved_tol of 1.73e-9
    assert abs(best - truth) <= 3 * error["achieved_tol"]


def test_inner_axis_stall_has_a_reference(refs):
    error = corpus_error("zeta --method accel --s=-1.25 --x 1 --k 6 --t 1 --weights 1,1")
    assert error["best_estimate"] is None  # an inner-axis stall leaves no estimate of Z
    truth = reference(refs, -1.25, 1.0, 6, 1, 1, 2)
    assert truth == pytest.approx(-5.303361522327373 - 6.972119568432942j, rel=1e-15)
