import json
import math
import threading
from fractions import Fraction

import pytest

from twistsum import cli, powersum, zeta
from twistsum.bernoulli_euler import gen_euler_poly
from twistsum.cli import _fail, build_parser, main
from twistsum.exact import CyclotomicNumber, cyc_root, parse_rational
from twistsum.powersum import SumSpec, closed_sum
from twistsum.verify import SUITE_NAMES
from twistsum.zeta import AccelerationError, ZetaSpec, finite_sum_asymptotic, zeta_accelerated, zeta_direct


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestSumCommand:
    def test_headline_example(self, capsys):
        obj = run_json(
            capsys,
            "sum", "--weights", "3,1", "--limits", "100,150",
            "--x", "0", "--s", "2", "--k", "2", "--t", "1", "--method", "both",
        )
        assert obj["closed"] == "79275"
        assert obj["brute"] == "79275"
        assert obj["equal"] is True

    def test_trace_decomposition(self, capsys):
        obj = run_json(
            capsys,
            "sum", "--weights", "3,1", "--limits", "100,150",
            "--x", "0", "--s", "2", "--k", "2", "--t", "1", "--trace",
        )
        assert len(obj["trace"]) == 4
        assert sorted(row["argument"] for row in obj["trace"]) == ["0", "151", "303", "454"]

    @pytest.mark.parametrize("k, t, weights, limits", [
        (2, 1, "3", "7"), (2, 1, "1,3", "4,2"), (2, 1, "1,5,3", "2,3,1"),
        (5, 2, "2", "6"), (5, 1, "1,3", "3,4"), (5, 3, "1,2,4", "2,1,3"),
        (12, 5, "1", "9"), (12, 1, "5,7", "3,2"), (12, 7, "1,5,11", "2,2,1"),
    ])
    def test_trace_rows_rebuild_the_closed_value(self, capsys, k, t, weights, limits):
        # 2^-r sum sign * zeta^root_power * euler_value, exactly, is the printed closed value
        argv = ["sum", "--weights", weights, "--limits", limits, "--x", "7/3", "--s", "4", "--k", str(k), "--t", str(t)]
        obj = run_json(capsys, *argv, "--trace")
        rows = obj["trace"]
        assert run_json(capsys, *argv, "--method", "brute", "--trace")["trace"] == rows
        r = len(weights.split(","))
        assert len(rows) == 2**r
        total = CyclotomicNumber.zero(k)
        for row in rows:
            value = CyclotomicNumber.from_json_obj(row["euler_value"])
            total = total + cyc_root(k, row["root_power"]) * value * row["sign"]
        spec = SumSpec.of(tuple(map(int, weights.split(","))), tuple(map(int, limits.split(","))),
                          parse_rational("7/3"), 4, k, t)
        got, want = total * Fraction(1, 2**r), closed_sum(spec)
        assert (got.order, got.coeffs) == (want.order, want.coeffs)
        assert obj["closed"] == cli._ser_exact(got)

    def test_trace_builds_one_euler_polynomial(self, monkeypatch, capsys):
        builds = []

        def counting(*args):
            builds.append(args)
            return gen_euler_poly(*args)

        monkeypatch.setattr(powersum, "gen_euler_poly", counting)
        obj = run_json(capsys, "sum", "--weights", "3,1", "--limits", "10,15", "--x", "0",
                       "--s", "2", "--k", "2", "--t", "1", "--trace")
        assert obj["equal"] is True
        assert len(builds) == 1

    def test_single_method(self, capsys):
        obj = run_json(
            capsys,
            "sum", "--weights", "1", "--limits", "3",
            "--x", "0", "--s", "1", "--k", "2", "--t", "1", "--method", "closed",
        )
        assert obj["closed"] == "-2"
        assert "brute" not in obj

    def test_computational_error_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sum", "--weights", "2", "--limits", "3",
            "--x", "0", "--s", "1", "--k", "2", "--t", "1",
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["type"] == "SingularTwistError"
        assert "singular twist" in payload["error"]

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sum", "--weights", "1"])
        assert info.value.code == 2

    def test_too_many_weights_refused(self, capsys):
        ones, zeros = ",".join(["1"] * 21), ",".join(["0"] * 21)
        code, out, err = run_cli(capsys, "sum", "--weights", ones, "--limits", zeros, "--s", "1", "--k", "2", "--t", "1")
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "at most 20 weights (the closed form enumerates 2^r subsets)", "type": "ValueError"
        }

    @pytest.mark.parametrize(
        "k, t, weights, limits, x, s, expected",
        [
            ("3", "1", "2", "40", "1/2", "3",
             '{"brute": {"coeffs": ["-186949", "-2884981/8"], "k": 3}, '
             '"spec": {"k": 3, "limits": [40], "s": 3, "t": 1, "weights": [2], "x": "1/2"}}\n'),
            ("3", "2", "1,2", "9,7", "5/2", "4",
             '{"brute": {"coeffs": ["341425/16", "3246481/16"], "k": 3}, '
             '"spec": {"k": 3, "limits": [9, 7], "s": 4, "t": 2, "weights": [1, 2], "x": "5/2"}}\n'),
            ("3", "1", "1,2,4", "4,3,5", "4/3", "2",
             '{"brute": {"coeffs": ["-400/3", "-1568/3"], "k": 3}, '
             '"spec": {"k": 3, "limits": [4, 3, 5], "s": 2, "t": 1, "weights": [1, 2, 4], "x": "4/3"}}\n'),
            ("5", "2", "3", "25", "7/4", "2",
             '{"brute": {"coeffs": ["21769/16", "-7065/2", "-2445", "-2535/2"], "k": 5}, '
             '"spec": {"k": 5, "limits": [25], "s": 2, "t": 2, "weights": [3], "x": "7/4"}}\n'),
            ("5", "2", "1,3", "12,9", "7/4", "4",
             '{"brute": {"coeffs": ["-1586451/4", "7656273/8", "1688763/8", "5262339/4"], "k": 5}, '
             '"spec": {"k": 5, "limits": [12, 9], "s": 4, "t": 2, "weights": [1, 3], "x": "7/4"}}\n'),
            ("5", "4", "1,2,3", "5,4,6", "2/5", "3",
             '{"brute": {"coeffs": ["-322854/25", "-211498/25", "-230592/25", "-340316/25"], "k": 5}, '
             '"spec": {"k": 5, "limits": [5, 4, 6], "s": 3, "t": 4, "weights": [1, 2, 3], "x": "2/5"}}\n'),
            ("12", "5", "7", "30", "5/3", "3",
             '{"brute": {"coeffs": ["-53455375/27", "-5550832/3", "-249274240/27", "-225142216/27"], "k": 12}, '
             '"spec": {"k": 12, "limits": [30], "s": 3, "t": 5, "weights": [7], "x": "5/3"}}\n'),
            ("12", "1", "1,5", "10,8", "3/8", "2",
             '{"brute": {"coeffs": ["-118569/64", "158137/64", "69815/64", "-3654"], "k": 12}, '
             '"spec": {"k": 12, "limits": [10, 8], "s": 2, "t": 1, "weights": [1, 5], "x": "3/8"}}\n'),
            ("12", "7", "1,5,7", "4,3,5", "11/6", "1",
             '{"brute": {"coeffs": ["-305/3", "-24", "346/3", "12"], "k": 12}, '
             '"spec": {"k": 12, "limits": [4, 3, 5], "s": 1, "t": 7, "weights": [1, 5, 7], "x": "11/6"}}\n'),
        ],
    )
    def test_golden_brute_output(self, capsys, k, t, weights, limits, x, s, expected):
        # pins the brute sum byte for byte: reducing once modulo Phi_k must not move it
        code, out, err = run_cli(
            capsys, "sum", "--weights", weights, "--limits", limits, "--x", x, "--s", s,
            "--k", k, "--t", t, "--method", "brute",
        )
        assert (code, out, err) == (0, expected, "")


class TestEulerGenCommand:
    def test_classical_numbers(self, capsys):
        obj = run_json(capsys, "euler-gen", "--k", "2", "--t", "1", "--weights", "1", "--order", "3")
        assert obj["values"] == ["1", "-1/2", "0", "1/4"]

    def test_polynomial(self, capsys):
        obj = run_json(
            capsys, "euler-gen", "--k", "2", "--t", "1", "--weights", "1,3", "--order", "2", "--poly"
        )
        assert obj["poly"] == ["3/2", "-4", "1"]

    def test_values_roundtrip(self, capsys):
        obj = run_json(capsys, "euler-gen", "--k", "3", "--t", "1", "--weights", "1,2", "--order", "2")
        for item in obj["values"]:
            if isinstance(item, str):
                parse_rational(item)
            else:
                CyclotomicNumber.from_json_obj(item)


class TestCValuesCommand:
    def test_polynomial_coefficients(self, capsys):
        obj = run_json(capsys, "c-values", "--n", "2", "--k", "2", "--a", "1")
        assert obj["c_poly"] == ["-3/4", "1"]

    def test_periodic_value(self, capsys):
        obj = run_json(capsys, "c-values", "--n", "1", "--k", "2", "--a", "1", "--x", "1/4")
        assert obj["c_tilde"] == "-1/2"

    def test_star_and_multi(self, capsys):
        obj = run_json(capsys, "c-values", "--n", "2", "--k", "2", "--a", "3", "--star")
        assert obj["c_star"] == "3/4"
        obj = run_json(capsys, "c-values", "--n", "2", "--k", "2", "--multi", "1,1")
        assert obj["c_star_multi"] == "1/2"

    def test_empty_multi_reports_the_empty_weight_vector(self, capsys):
        code, out, err = run_cli(capsys, "c-values", "--n", "2", "--k", "2", "--multi", ",")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "weight vector must have at least one entry",
            "type": "ValueError",
        }

    def test_numeric_mode(self, capsys):
        obj = run_json(capsys, "c-values", "--n", "1", "--k", "3", "--a", "1", "--star", "--numeric")
        assert obj["c_star"]["re"] == pytest.approx(-0.5)

    def test_golden_output(self, capsys):
        # Pinned stdout of C_{9,7}(x;3) and of C~_{9,7}(7/5;3); the x^9 coefficient
        # sum_l zeta^{3l} vanishes, so the polynomial has nine coefficients.
        code, out, err = run_cli(capsys, "c-values", "--n", "9", "--k", "7", "--a", "3")
        assert (code, err) == (0, "")
        assert out == GOLDEN_C_POLY_9_7_3
        code, out, err = run_cli(
            capsys, "c-values", "--n", "9", "--k", "7", "--a", "3", "--x", "7/5"
        )
        assert (code, err) == (0, "")
        assert out == GOLDEN_C_TILDE_9_7_3


GOLDEN_C_POLY_9_7_3 = (
    '{"c_poly": ['
    '{"coeffs": ["-1852983/40353607", "-28331469/40353607", "-1436580/40353607", '
    '"-49869/5764801", "-109172754/40353607", "-973071/5764801"], "k": 7}, '
    '{"coeffs": ["-2183112/5764801", "5615784/823543", "2196288/5764801", '
    '"-1525320/5764801", "139561920/5764801", "9351576/5764801"], "k": 7}, '
    '{"coeffs": ["863676/823543", "-25948044/823543", "-753264/823543", '
    '"251532/823543", "-80827128/823543", "-6030684/823543"], "k": 7}, '
    '{"coeffs": ["25272/16807", "222696/2401", "1728/343", '
    '"1800/2401", "561600/2401", "68328/2401"], "k": 7}, '
    '{"coeffs": ["2970/2401", "-397890/2401", "-45000/2401", '
    '"8370/2401", "-819540/2401", "-161370/2401"], "k": 7}, '
    '{"coeffs": ["-5832/343", "8424/49", "10368/343", '
    '"-4680/343", "103680/343", "29016/343"], "k": 7}, '
    '{"coeffs": ["1188/49", "-4932/49", "-1152/49", '
    '"108/7", "-7704/49", "-396/7"], "k": 7}, '
    '{"coeffs": ["-648/49", "216/7", "432/49", '
    '"-360/49", "2160/49", "936/49"], "k": 7}, '
    '{"coeffs": ["18/7", "-27/7", "-9/7", "9/7", "-36/7", "-18/7"], "k": 7}]}\n'
)
GOLDEN_C_TILDE_9_7_3 = (
    '{"c_tilde": {"coeffs": ["55426328073/15763127734375", "1182847723506/15763127734375", '
    '"629037675099/15763127734375", "-36285074253/2251875390625", '
    '"693348890382/15763127734375", "4718160891/64339296875"], "k": 7}}\n'
)


class TestEmSumCommand:
    def test_non_finite_rate_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["em-sum", "--preset", "exp:nan", "--m", "0", "--n", "3", "--k", "3", "--a", "1", "--q", "2"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "argument --preset: expected poly:c0,c1,... or exp:alpha (finite alpha), got 'exp:nan'\n"
        )

    def test_exp_preset_has_twelve_derivatives(self, capsys):
        code, out, err = run_cli(
            capsys, "em-sum", "--preset", "exp:0.3", "--m", "0", "--n", "2", "--k", "3", "--a", "1", "--q", "13"
        )
        assert (code, out) == (1, "")
        assert err == '{"error": "q=13 exceeds available derivatives (12)", "type": "ValueError"}\n'

    @pytest.mark.parametrize("mode", [(), ("--text",)])
    def test_overflowing_result_is_a_json_error(self, capsys, mode):
        # e^{235 x} stays finite but its derivative sums overflow to inf and NaN
        code, out, err = run_cli(
            capsys, *mode, "em-sum", "--preset", "exp:235", "--m", "0", "--n", "3", "--k", "3", "--a", "1", "--q", "2"
        )
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["type"] == "ValueError"
        assert "not JSON compliant" in payload["error"]

    def test_quadratic_example(self, capsys):
        obj = run_json(
            capsys,
            "em-sum", "--preset", "poly:0,0,1", "--m", "0", "--n", "1",
            "--k", "2", "--a", "1", "--q", "2",
        )
        assert obj["main_terms"]["re"] == pytest.approx(0.75)
        assert obj["direct"]["re"] == pytest.approx(0.75)
        assert obj["abs_error"] < 1e-10

    def test_scaled_exp(self, capsys):
        obj = run_json(
            capsys,
            "em-sum", "--preset", "exp:0.3", "--m", "0", "--n", "2",
            "--k", "3", "--a", "1", "--q", "4", "--scaled",
        )
        assert obj["abs_error"] < 1e-8

    def test_rational_poly_preset(self, capsys):
        obj = run_json(
            capsys,
            "em-sum", "--preset", "poly:1/2,0,1/3", "--m", "-1", "--n", "2",
            "--k", "2", "--a", "1", "--q", "3",
        )
        assert obj["abs_error"] < 1e-10


class TestZetaCommand:
    def test_accelerated_eta(self, capsys):
        obj = run_json(
            capsys, "zeta", "--s", "2", "--x", "1", "--k", "2", "--t", "1", "--weights", "1"
        )
        assert obj["value"]["re"] == pytest.approx(math.pi**2 / 6, abs=1e-9)

    def test_asymptotic_method(self, capsys):
        obj = run_json(
            capsys,
            "zeta", "--s", "-2", "--x", "10", "--k", "2", "--t", "1",
            "--weights", "1", "--q", "3", "--method", "asym",
        )
        assert obj["value"]["re"] == pytest.approx(90.0, abs=1e-8)

    def test_finite_method(self, capsys):
        obj = run_json(
            capsys,
            "zeta", "--s", "-2", "--x", "0", "--k", "2", "--t", "1",
            "--weights", "1", "--q", "2", "--method", "finite", "--limits", "20",
        )
        assert obj["value"]["re"] == pytest.approx(210.0, abs=1e-6)

    def test_direct_method_three_axes_default_terms(self, capsys):
        # the default --terms 400 spans 1200^3 lattice points at k = 3
        args = ("zeta", "--s", "3", "--x", "1", "--k", "3", "--t", "1", "--weights", "1,2,4")
        # the global --tol is one the tail estimate of this sum meets (1.2e-10)
        direct = run_json(capsys, "--tol", "1e-9", *args, "--method", "direct")["value"]
        accel = run_json(capsys, *args, "--method", "accel")["value"]
        d, a = complex(direct["re"], direct["im"]), complex(accel["re"], accel["im"])
        assert abs(d - a) <= 1e-8 * abs(a)


    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("--method", "finite", "--s=-1.5", "--x", "10", "--k", "5", "--t", "2",
                 "--weights", "1,3", "--q", "4", "--limits=-1,3"),
                "limits must be nonnegative",
            ),
            (
                ("--method", "direct", "--x", "1", "--s", "nan", "--k", "2", "--t", "1", "--weights", "1"),
                "must be finite",
            ),
        ],
    )
    def test_invalid_input_exit_code(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "zeta", *argv)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["type"] == "ValueError"
        assert message in payload["error"]


    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ("--method", "accel", "--s", "0.5", "--x", "1", "--k", "3", "--t", "1", "--weights", "1"),
                '{"method": "accel", "value": {"im": 0.5093841392327546, "re": 1.2558281853009237}}\n',
            ),
            (
                ("--method", "accel", "--s=-1.5", "--x", "0.5", "--k", "5", "--t", "2", "--weights", "1,3"),
                '{"method": "accel", "value": {"im": -7.983607196825761, "re": -4.7003644834990785}}\n',
            ),
            (
                ("--method", "accel", "--s", "0.75", "--x", "1.5", "--k", "3", "--t", "1", "--weights", "1,1,1"),
                '{"method": "accel", "value": {"im": 1.6471549331504556, "re": 0.9855822664535654}}\n',
            ),
            (
                ("--method", "finite", "--s=-1.5", "--x", "0.5", "--k", "5", "--t", "2",
                 "--weights", "1,3", "--q", "4", "--limits", "30,30"),
                '{"method": "finite", "value": {"im": -743.3053209395774, "re": 579.6614750530109}}\n',
            ),
        ],
    )
    def test_golden_continuation_output(self, capsys, argv, expected):
        # pins the continuation bit for bit: a faster Euler transformation must not move it
        code, out, _ = run_cli(capsys, "zeta", *argv)
        assert (code, out) == (0, expected)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (  # real non-integer order: float powers
                ("--tol", "1e-3", "zeta", "--method", "direct",
                 "--s", "1.5", "--x", "0.75", "--k", "3", "--t", "1", "--weights", "1,2", "--terms", "20"),
                '{"method": "direct", "value": {"im": 0.4262162683343419, "re": 4.993190141669938}}\n',
            ),
            (  # integer order: the complex power
                ("--tol", "1e-4", "zeta", "--method", "direct",
                 "--s", "2", "--x", "0.5", "--k", "4", "--t", "1", "--weights", "1,3", "--terms", "20"),
                '{"method": "direct", "value": {"im": 1.2848386611707219, "re": 15.566941412485821}}\n',
            ),
            (  # complex order: the complex power
                ("--tol", "1e-3", "zeta", "--method", "direct",
                 "--s", "1.5,0.5", "--x", "1.25", "--k", "5", "--t", "2", "--weights", "1,2", "--terms", "20"),
                '{"method": "direct", "value": {"im": -0.11332930721210961, "re": 2.091735559909537}}\n',
            ),
        ],
    )
    def test_golden_direct_output(self, capsys, argv, expected):
        # pins the direct sum bit for bit: float powers must give the complex power's value;
        # each global --tol is one the sum's tail estimate meets (5.8e-4, 2.1e-5, 7.1e-4)
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, expected)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ("--s=-2", "--x", "10", "--k", "2", "--t", "1", "--weights", "1,3,5,7"),
                '{"method": "accel", "value": {"im": 0.0, "re": -17.0}}\n',
            ),
            (
                ("--s=-8", "--x", "1", "--k", "2", "--t", "1", "--weights", "1"),
                '{"method": "accel", "value": {"im": 0.0, "re": 0.0}}\n',
            ),
        ],
    )
    def test_integer_order_is_exact(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, "zeta", "--method", "accel", *argv)
        assert (code, out) == (0, expected)

    def test_stalled_acceleration_reports_its_best_estimate(self, capsys):
        code, out, err = run_cli(
            capsys, "--tol", "1e-30", "zeta", "--method", "accel",
            "--s", "0.5", "--x", "1", "--k", "3", "--t", "1", "--weights", "1",
        )
        assert (code, out) == (1, "")
        payload = json.loads(err)
        with pytest.raises(AccelerationError) as info:
            zeta_accelerated(ZetaSpec.of(0.5, 1, 3, 1, (1,)), tol=1e-30)
        best = info.value.best_estimate
        assert payload == {
            "error": str(info.value),
            "type": "AccelerationError",
            "best_estimate": {"re": best.real, "im": best.imag},
            "achieved_tol": info.value.achieved_tol,
        }
        assert info.value.achieved_tol > 1e-30
        # r = 1: the stalled outer axis value times 2^r estimates Z itself
        value = zeta_accelerated(ZetaSpec.of(0.5, 1, 3, 1, (1,)))
        assert abs(best - value) <= 1e-8 * abs(value)

    def test_inner_axis_stall_reports_no_estimate(self, capsys):
        code, out, err = run_cli(
            capsys, "--tol", "1e-30", "zeta", "--method", "accel",
            "--s", "0.5", "--x", "1", "--k", "3", "--t", "1", "--weights", "1,2",
        )
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["type"] == "AccelerationError"
        assert payload["best_estimate"] is None
        assert payload["achieved_tol"] > 1e-31

    def test_finite_method_inner_axis_stall_reports_no_estimate(self, capsys):
        # a stall on an inner axis leaves no estimate to carry through the corners
        code, out, err = run_cli(
            capsys, "zeta", "--method", "finite", "--s=-1.25", "--x", "1", "--k", "6", "--t", "1",
            "--weights", "1,1", "--limits", "3,3", "--q", "2",
        )
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["type"] == "AccelerationError"
        assert payload["best_estimate"] is None
        assert payload["achieved_tol"] > 1e-11

    def test_non_finite_diagnostics_are_null(self, capsys):
        exc = AccelerationError("stalled", best_estimate=complex(math.inf, 1.0), achieved_tol=math.inf)
        assert _fail(exc) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["best_estimate"] == {"re": None, "im": 1.0}
        assert payload["achieved_tol"] is None

    def test_finite_method_honours_tolerance(self, capsys):
        argv = ("zeta", "--method", "finite", "--s=-1.5", "--x", "0.5", "--k", "5", "--t", "2",
                "--weights", "1,3", "--q", "4", "--limits", "30,30")
        loose = run_json(capsys, "--tol", "1e-2", *argv)["value"]
        tight = run_json(capsys, "--tol", "1e-10", *argv)["value"]
        expected = finite_sum_asymptotic(ZetaSpec.of(-1.5, 0.5, 5, 2, (1, 3), 4), (30, 30), tol=1e-2)
        assert complex(loose["re"], loose["im"]) == expected
        assert loose != tight


class TestDirectTail:
    """``zeta --method direct`` meets --tol or exits 1 with its estimate and error."""

    @pytest.mark.parametrize(
        "s, k, weights",
        [("0.05", "2", "1"), ("0.3", "2", "1"), ("0.3", "3", "1,2")],
    )
    def test_slow_tail_is_refused(self, capsys, s, k, weights):
        args = ("zeta", "--s", s, "--x", "1", "--k", k, "--t", "1", "--weights", weights)
        code, out, err = run_cli(capsys, *args, "--method", "direct")
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["type"] == "AccelerationError"
        best = complex(payload["best_estimate"]["re"], payload["best_estimate"]["im"])
        spec = ZetaSpec.of(float(s), 1.0, int(k), 1, tuple(map(int, weights.split(","))))
        assert best == zeta_direct(spec, 400)
        accel = run_json(capsys, *args, "--method", "accel")["value"]
        error = abs(best - complex(accel["re"], accel["im"]))
        assert error / 2 <= payload["achieved_tol"] <= 2 * error

    def test_tail_within_tol_prints_the_partial_sum(self, capsys):
        args = ("zeta", "--method", "direct", "--s", "3", "--x", "1", "--k", "2", "--t", "1", "--weights", "1")
        value = run_json(capsys, "--tol", "1e-6", *args)["value"]
        assert complex(value["re"], value["im"]) == zeta_direct(ZetaSpec.of(3, 1.0, 2, 1, (1,)), 400)
        assert run_cli(capsys, "--tol", "1e-12", *args)[0] == 1  # its tail is about 1.9e-9

    def test_vanishing_rate_gives_no_estimate(self, capsys):
        # at a subnormal order (T/T')^sigma rounds to 1, so the tail cannot be estimated
        code, _, err = run_cli(
            capsys, "zeta", "--method", "direct", "--terms", "3",
            "--s", "5e-324", "--x", "1", "--k", "2", "--t", "1", "--weights", "1",
        )
        payload = json.loads(err)
        assert (code, payload["type"], payload["achieved_tol"]) == (1, "AccelerationError", None)

    @pytest.mark.parametrize("terms", ["1", "0", "-3"])
    def test_fewer_than_two_terms_refused_before_any_work(self, monkeypatch, capsys, terms):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(zeta, "zeta_direct", no_work)
        code, out, err = run_cli(
            capsys, "zeta", "--method", "direct", "--terms", terms,
            "--s", "3", "--x", "1", "--k", "2", "--t", "1", "--weights", "1",
        )
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["type"] == "ValueError" and "--terms" in payload["error"]


class TestProbeCommand:
    def test_shift_probe(self, capsys):
        obj = run_json(
            capsys,
            "probe", "--target", "t4", "--scales", "10,20,40,80",
            "--s", "0.5", "--x", "10", "--k", "2", "--t", "1", "--weights", "1", "--q", "2",
        )
        assert obj["monotone_decreasing"] is True
        assert obj["predicted"] == pytest.approx(-0.5)
        errs = [e for _, e in obj["points"]]
        assert errs == sorted(errs, reverse=True)

    def test_golden_shift_probe_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "probe", "--target", "t4", "--scales", "5,10,20,40",
            "--s=-0.5", "--k", "4", "--t", "1", "--weights", "1,2", "--q", "3",
        )
        assert code == 0
        assert out == (
            '{"exact": false, "fitted": -2.060303257668471, "monotone_decreasing": true, '
            '"points": [[5.0, 0.09360713610592415], [10.0, 0.015348051038086636], '
            '[20.0, 0.00403947514427136], [40.0, 0.0012507623142879773]], "predicted": -0.5}\n'
        )

    def test_golden_limits_probe_output(self, capsys):
        # the limits probe compares against finite_sum_direct at every scale
        code, out, _ = run_cli(
            capsys,
            "probe", "--target", "t3", "--scales", "10,20,40",
            "--s=-0.5", "--x", "1.5", "--k", "3", "--t", "1", "--weights", "1,2", "--q", "3",
        )
        assert code == 0
        assert out == (
            '{"exact": false, "fitted": -1.5706511126306473, "monotone_decreasing": true, '
            '"points": [[10.0, 0.0015578012008690193], [20.0, 0.0005966279990653612], '
            '[40.0, 0.00017655736515924977]], "predicted": -0.5}\n'
        )

    def test_shift_probe_honours_tolerance(self, capsys):
        argv = ("probe", "--target", "t4", "--scales", "5,10,20,40",
                "--s=-0.5", "--k", "4", "--t", "1", "--weights", "1,2", "--q", "3")
        assert run_json(capsys, "--tol", "1e-2", *argv) != run_json(capsys, *argv)

    def test_infinite_scale_rejected(self, capsys):
        code, out, err = run_cli(
            capsys,
            "probe", "--target", "t4", "--scales", "10,20,inf",
            "--s", "0.5", "--x", "10", "--k", "2", "--t", "1", "--weights", "1", "--q", "2",
        )
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["type"] == "ValueError"
        assert "must be finite" in payload["error"]

    def test_non_integer_limits_scale_is_a_json_error(self, capsys):
        # every part reads as a float, so the parser passes it; the limits probe sums whole boxes
        code, out, err = run_cli(
            capsys,
            "probe", "--target", "t3", "--scales", "8.5,16,32",
            "--s", "0.5", "--k", "2", "--t", "1", "--weights", "1", "--q", "2",
        )
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "limit scales must be integers (the probe sums whole boxes), got [8.5, 16.0, 32.0]",
            "type": "ValueError",
        }


class TestVerifyCommand:
    def test_exact_suite_passes(self, capsys):
        obj = run_json(capsys, "verify", "--suite", "exact", "--seed", "7")
        assert obj["failures"] == 0
        names = [r["name"] for r in obj["reports"][0]["results"]]
        assert any("field axioms" in n for n in names)

    def test_suite_choices_are_the_verify_suites(self):
        # the parser repeats the names so that building it does not import verify
        verify = build_parser()._subparsers._group_actions[0].choices["verify"]
        (suite,) = [action for action in verify._actions if action.dest == "suite"]
        assert tuple(suite.choices) == SUITE_NAMES

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("suite", [name for name in SUITE_NAMES if name != "all"])
    def test_every_suite_passes(self, capsys, suite, seed):
        obj = run_json(capsys, "verify", "--suite", suite, "--seed", str(seed))
        failed = [r for report in obj["reports"] for r in report["results"] if not r["passed"]]
        assert obj["failures"] == 0, failed


@pytest.mark.parametrize(
    "argv, message",
    [
        (("zeta", "--s", "abc", "--x", "1", "--k", "2", "--t", "1", "--weights", "1"),
         "argument --s: cannot parse complex number from 'abc'; use RE or RE,IM"),
        (("zeta", "--s", "1,2,3", "--x", "1", "--k", "2", "--t", "1", "--weights", "1"),
         "argument --s: cannot parse complex number from '1,2,3'; use RE or RE,IM"),
        (("probe", "--target", "t4", "--scales", "10,20,40", "--s", "1,", "--k", "2", "--t", "1", "--weights", "1"),
         "argument --s: cannot parse complex number from '1,'; use RE or RE,IM"),
        (("sum", "--weights", "1,2", "--limits", "3,4", "--x", "abc", "--s", "3", "--k", "5", "--t", "1"),
         "argument --x: cannot parse rational number from 'abc'"),
        (("sum", "--weights", "1,2", "--limits", "3,4", "--x", "1/0", "--s", "3", "--k", "5", "--t", "1"),
         "argument --x: cannot parse rational number from '1/0'"),
        (("c-values", "--n", "3", "--k", "5", "--a", "2", "--x", "abc"),
         "argument --x: cannot parse rational number from 'abc'"),
        # the comma-separated lists
        (("sum", "--weights", "1,a", "--limits", "3,4", "--s", "3", "--k", "5", "--t", "1"),
         "argument --weights: expected comma-separated integers, got '1,a'"),
        (("sum", "--weights", "1,2", "--limits", "3,4.5", "--s", "3", "--k", "5", "--t", "1"),
         "argument --limits: expected comma-separated integers, got '3,4.5'"),
        (("c-values", "--n", "3", "--k", "3", "--multi", "1,x"),
         "argument --multi: expected comma-separated integers, got '1,x'"),
        (("probe", "--target", "t4", "--scales", "10,abc,40", "--s", "0.5", "--k", "2", "--t", "1",
          "--weights", "1", "--q", "2"),
         "argument --scales: expected comma-separated numbers, got '10,abc,40'"),
        (("probe", "--target", "t3", "--scales", "8,,32", "--s", "0.5", "--k", "2", "--t", "1",
          "--weights", "1", "--q", "2"),
         "argument --scales: expected comma-separated numbers, got '8,,32'"),
        (("em-sum", "--preset", "sin:1", "--m", "0", "--n", "1", "--k", "2", "--a", "1", "--q", "2"),
         "argument --preset: expected poly:c0,c1,... or exp:alpha (finite alpha), got 'sin:1'"),
        (("em-sum", "--preset", "poly:1,a", "--m", "0", "--n", "1", "--k", "2", "--a", "1", "--q", "2"),
         "argument --preset: expected poly:c0,c1,... or exp:alpha (finite alpha), got 'poly:1,a'"),
        (("em-sum", "--preset", "exp:abc", "--m", "0", "--n", "1", "--k", "2", "--a", "1", "--q", "2"),
         "argument --preset: expected poly:c0,c1,... or exp:alpha (finite alpha), got 'exp:abc'"),
    ],
)
def test_malformed_order_or_shift_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip("\n").endswith(message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("zeta", "--method", "finite", "--s", "0.5", "--x", "1", "--k", "2", "--t", "1", "--weights", "1"),
         "--limits is required for --method finite"),
        (("c-values", "--n", "3", "--k", "3"), "--a is required unless --multi is given"),
    ],
)
def test_missing_or_unknown_input_is_a_json_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": message, "type": "ValueError"}


def test_unknown_suite_refused():
    from twistsum.verify import run_suites

    with pytest.raises(ValueError, match="unknown suite 'nope'; choose from exact, "):
        run_suites("nope", 0)


class TestOutputModes:
    def test_byte_determinism(self, capsys):
        argv = [
            "probe", "--target", "t4", "--scales", "10,20,40",
            "--s", "0.5", "--x", "10", "--k", "2", "--t", "1", "--weights", "1", "--q", "1",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys,
            "--out", str(target),
            "sum", "--weights", "1", "--limits", "2",
            "--x", "0", "--s", "2", "--k", "2", "--t", "1", "--method", "closed",
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["closed"] == "3"

    def test_unwritable_out_file_is_a_json_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "result.json"
        code, out, err = run_cli(
            capsys,
            "--out", str(target),
            "sum", "--weights", "1", "--limits", "1", "--s", "1", "--k", "2", "--t", "1",
        )
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["type"] == "FileNotFoundError"
        assert str(target) in payload["error"]

    def test_text_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--text",
            "sum", "--weights", "1", "--limits", "2",
            "--x", "0", "--s", "2", "--k", "2", "--t", "1", "--method", "closed",
        )
        assert code == 0
        assert "closed = 3" in out


class TestToleranceEnvironment:
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1e-10", "abc"])
    def test_non_finite_or_nonpositive_tolerance_is_a_usage_error(self, capsys, value):
        argv = ["zeta", "--s", "0.5", "--x", "1", "--k", "3", "--t", "1", "--weights", "1,2"]
        with pytest.raises(SystemExit) as exc:
            main(["--tol", value, *argv])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_the_environment_does_not_set_the_tolerance(self, monkeypatch, capsys):
        # the direct sum's tail at s = 3 (about 1.9e-9) misses the default 1e-10 and would meet 1e-6
        argv = ["zeta", "--method", "direct", "--s", "3", "--x", "1", "--k", "2", "--t", "1", "--weights", "1"]
        monkeypatch.delenv("TWISTSUM_TOL", raising=False)
        unset = run_cli(capsys, *argv)
        assert unset[0] == 1
        for value in ("1e-6", "abc"):
            monkeypatch.setenv("TWISTSUM_TOL", value)
            assert run_cli(capsys, *argv) == unset


class TestSharedParser:
    DIRECT = ["zeta", "--method", "direct", "--s", "3", "--x", "1", "--k", "2", "--t", "1", "--weights", "1"]

    def test_one_parser_per_process(self, monkeypatch, capsys):
        # the parser is built when the module is imported; a call neither builds nor changes it
        builds = []

        def counting_build():
            builds.append(1)
            return build_parser()

        parser = cli._parser
        defaults = dict(parser._defaults)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        for tol in ([], ["--tol", "1e-6"], []):
            run_json(capsys, *tol, "c-values", "--n", "3", "--k", "3", "--a", "1")
        assert builds == []
        assert cli._parser is parser
        assert parser._defaults == defaults
        assert parser.get_default("tol") == 1e-10

    def test_concurrent_calls_keep_their_own_tolerance(self):
        # at s = 3 the direct sum's tail (about 1.9e-9) meets 1e-6 and misses 1e-12
        count = 8
        barrier = threading.Barrier(count)
        codes = [None] * count

        def call(i):
            tol = "1e-6" if i % 2 else "1e-12"
            barrier.wait()
            codes[i] = main(["--tol", tol, *self.DIRECT])

        threads = [threading.Thread(target=call, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert codes == [1, 0] * (count // 2)
