"""Command-line interface.

One subcommand per operation family; JSON on stdout by default (``--text``
switches to a line-oriented rendering).  Exact values are always serialized
as strings ("p/q", or the {"k", "coeffs"} object for irrational cyclotomic
values) so precision is never silently lost; numeric values are {"re", "im"}
doubles.  Exit codes: 0 success, 1 computational error (with a JSON error
object; a non-finite float in a result is one), 2 usage error.

The parser is built once, when the module is imported, and never changed,
so concurrent calls of :func:`main` share it safely.  No environment
variable sets an option (argparse reads ``COLUMNS`` only to wrap its usage
errors).  The handlers build their specs with the library's own
constructors, which check the options.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional

# Only what ``sum`` and ``euler-gen`` use is imported here.  The other
# handlers import from the defining module when they run, so a process loads
# only the modules its command needs, and a patched module attribute is seen
# by every call.
from .bernoulli_euler import TwistSpec, gen_euler_numbers, gen_euler_poly
from .exact import CyclotomicNumber, parse_rational
from .powersum import SumSpec, _closed_form, brute_sum, closed_sum

#: ``verify.SUITE_NAMES``, repeated so that the parser does not import ``verify``
_SUITE_NAMES = ("exact", "powersum", "euler", "cvalues", "em", "zeta", "all")


def _ser_exact(value: CyclotomicNumber):
    """Rational string when possible, else the {"k", "coeffs"} object."""
    if value.is_rational():
        return str(value.as_rational())
    return value.to_json_obj()


def _ser_complex(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


def _parse_ints(text: str) -> tuple[int, ...]:
    """The argparse type of ``--weights``, ``--limits`` and ``--multi``."""
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _scales(text: str) -> list[float]:
    """The argparse type of ``--scales``: comma-separated floats."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_complex(text: str) -> complex:
    """The argparse type of ``--s``: RE or RE,IM; anything else is a usage error."""
    parts = text.split(",")
    try:
        if len(parts) <= 2:
            return complex(*map(float, parts))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"cannot parse complex number from {text!r}; use RE or RE,IM")


def _rational(text: str) -> Fraction:
    """The argparse type of ``--x`` for ``sum`` and ``c-values``: a rational such as 2/3 or 0.25."""
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse rational number from {text!r}") from None


def _tolerance(text: str) -> float:
    """The argparse type of ``--tol``: a finite positive float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # refused below with the same message as inf or nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text!r}")
    return value


def _render(obj: dict, text_mode: bool) -> str:
    """JSON or line rendering of ``obj``; a non-finite float raises ValueError
    in either mode, because JSON has no token for it."""
    encoded = json.dumps(obj, sort_keys=True, allow_nan=False)
    if not text_mode:
        return encoded
    lines = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}.", value[key])
        elif isinstance(value, list):
            lines.append(f"{prefix[:-1]} = {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{prefix[:-1]} = {value}")

    walk("", obj)
    return "\n".join(lines)


def _make_smooth(preset: str):
    """The argparse type of ``--preset``: poly:c0,c1,... or exp:alpha, as a ``SmoothFunction``."""
    from .euler_maclaurin import SmoothFunction

    kind, _, payload = preset.partition(":")
    try:
        if kind == "poly":
            return SmoothFunction.from_poly_coeffs([Fraction(part) for part in payload.split(",") if part != ""])
        if kind == "exp":
            return SmoothFunction.exponential(float(payload))  # refuses a non-finite alpha
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"expected poly:c0,c1,... or exp:alpha (finite alpha), got {preset!r}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_sum(args) -> dict:
    if len(args.weights) > 20:
        raise ValueError("at most 20 weights (the closed form enumerates 2^r subsets)")
    spec = SumSpec.of(args.weights, args.limits, args.x, args.s, args.k, args.t)
    out: dict = {
        "spec": {
            "weights": list(spec.A.entries),
            "limits": list(spec.N),
            "x": str(spec.x),
            "s": spec.s,
            "k": spec.twist.k,
            "t": spec.twist.t,
        }
    }
    if args.trace:  # the closed value and its decomposition from one Euler build
        closed, out["trace"] = _closed_form(spec, trace=True)
    elif args.method != "brute":
        closed = closed_sum(spec)
    if args.method in ("closed", "both"):
        out["closed"] = _ser_exact(closed)
    if args.method in ("brute", "both"):
        out["brute"] = _ser_exact(brute_sum(spec))
    if args.method == "both":
        out["equal"] = out["closed"] == out["brute"]
    return out


def _cmd_euler_gen(args) -> dict:
    twist = TwistSpec(args.k, args.t)
    if args.poly:
        poly = gen_euler_poly(args.order, twist, args.weights)
        return {"poly": [_ser_exact(poly.coeff(i)) for i in range(args.order + 1)]}
    values = gen_euler_numbers(args.order, twist, args.weights)
    return {"values": [_ser_exact(v) for v in values]}


def _cmd_c_values(args) -> dict:
    from .twisted_c import CPolySpec, c_poly, c_star, c_star_multi, c_tilde

    ser = (lambda v: _ser_complex(v.embed())) if args.numeric else _ser_exact
    if args.multi is not None:
        return {"c_star_multi": ser(c_star_multi(args.n, args.k, args.multi))}
    if args.a is None:
        raise ValueError("--a is required unless --multi is given")
    spec = CPolySpec(args.n, args.k, args.a)
    if args.star:
        return {"c_star": ser(c_star(args.n, args.k, args.a))}
    if args.x is not None:
        return {"c_tilde": ser(c_tilde(spec, args.x))}
    poly = c_poly(spec)
    coeffs = [poly.coeff(i) for i in range(poly.degree() + 1)] or [CyclotomicNumber.zero(args.k)]
    return {"c_poly": [ser(c) for c in coeffs]}


def _cmd_em_sum(args) -> dict:
    from .euler_maclaurin import em_sum_scaled, em_sum_unit

    runner = em_sum_scaled if args.scaled else em_sum_unit
    res = runner(args.preset, args.m, args.n, args.k, args.a, args.q)
    return {
        "main_terms": _ser_complex(res.main_terms),
        "remainder": _ser_complex(res.remainder),
        "total": _ser_complex(res.total),
        "direct": _ser_complex(res.direct),
        "abs_error": res.abs_error,
    }


def _cmd_zeta(args) -> dict:
    from .zeta import ZetaSpec, _direct_value, finite_sum_asymptotic, zeta_accelerated, zeta_asymptotic

    spec = ZetaSpec.of(args.s, args.x, args.k, args.t, args.weights, args.q)
    if args.method == "direct":
        value = _direct_value(spec, args.terms, args.tol)
    elif args.method == "accel":
        value = zeta_accelerated(spec, tol=args.tol)
    elif args.method == "asym":
        value = zeta_asymptotic(spec)
    else:  # finite: the inclusion-exclusion approximation of a finite box sum
        if args.limits is None:
            raise ValueError("--limits is required for --method finite")
        value = finite_sum_asymptotic(spec, args.limits, tol=args.tol)
    return {"method": args.method, "value": _ser_complex(value)}


def _cmd_probe(args) -> dict:
    from .zeta import ZetaSpec, decay_probe

    target = {"t3": "limits", "t4": "shift"}[args.target]
    spec = ZetaSpec.of(args.s, args.x, args.k, args.t, args.weights, args.q)
    report = decay_probe(target, spec, args.scales, tol=args.tol)
    return report.to_json_obj()


def _cmd_verify(args) -> dict:
    from .verify import run_suites

    reports = run_suites(args.suite, args.seed)
    failures = sum(rep.failures for rep in reports)
    return {
        "suite": args.suite,
        "seed": args.seed,
        "failures": failures,
        "reports": [rep.to_json_obj() for rep in reports],
    }


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistsum",
        description="Exact twisted/alternating power sums and their asymptotics",
        allow_abbrev=False,
    )
    parser.add_argument("--text", action="store_true", help="line output instead of JSON")
    parser.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    parser.add_argument(
        "--tol",
        type=_tolerance,
        default=1e-10,
        help="numeric tolerance of the zeta and probe evaluations (default 1e-10)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sum", help="finite twisted power sum, closed form and/or brute force")
    p.add_argument("--weights", type=_parse_ints, required=True)
    p.add_argument("--limits", type=_parse_ints, required=True)
    p.add_argument("--x", type=_rational, default="0")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--method", choices=("closed", "brute", "both"), default="both")
    p.add_argument("--trace", action="store_true", help="include the per-subset decomposition")
    p.set_defaults(handler=_cmd_sum)

    p = sub.add_parser("euler-gen", help="generalized Euler numbers or polynomial")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--weights", type=_parse_ints, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--poly", action="store_true", help="emit E_order(x,...) coefficients")
    p.set_defaults(handler=_cmd_euler_gen)

    p = sub.add_parser("c-values", help="twisted Bernoulli-type values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int)
    p.add_argument("--x", type=_rational, help="evaluate the periodic value at this rational point")
    p.add_argument("--star", action="store_true")
    p.add_argument("--multi", type=_parse_ints, help="starred multinomial value for these weights")
    p.add_argument("--numeric", action="store_true", help="emit complex embeddings")
    p.set_defaults(handler=_cmd_c_values)

    p = sub.add_parser("em-sum", help="twisted Euler-Maclaurin evaluation")
    p.add_argument("--preset", type=_make_smooth, required=True, help="poly:c0,c1,... or exp:alpha")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--scaled", action="store_true", help="sum zeta^{ar} g(r) on the integer lattice")
    p.set_defaults(handler=_cmd_em_sum)

    p = sub.add_parser("zeta", help="generalized Euler-zeta evaluation")
    p.add_argument("--s", type=_parse_complex, required=True, help="decay order, RE or RE,IM")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--weights", type=_parse_ints, required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--method", choices=("direct", "accel", "asym", "finite"), default="accel")
    p.add_argument("--terms", type=int, default=400, help="blocks per axis for --method direct")
    p.add_argument("--limits", type=_parse_ints, help="box limits for --method finite")
    p.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("probe", help="empirical decay-rate probe")
    p.add_argument("--target", choices=("t3", "t4"), required=True)
    p.add_argument("--scales", type=_scales, required=True, help="comma-separated positive, strictly increasing scales")
    p.add_argument("--s", type=_parse_complex, required=True, help="decay order, RE or RE,IM")
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--weights", type=_parse_ints, required=True)
    p.add_argument("--q", type=int, help="truncation depth of the main term (the probe needs it)")
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("verify", help="run the randomized verification suites")
    p.add_argument("--suite", choices=_SUITE_NAMES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _finite_or_none(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def _fail(exc: Exception) -> int:
    """Print the JSON error object for ``exc`` on stderr; the exit code is 1.

    An exception that carries ``best_estimate`` and ``achieved_tol`` (an
    :class:`~twistsum.zeta.AccelerationError`) adds both; a missing estimate,
    and a non-finite float among them, is written as null.
    """
    obj = {"error": str(exc), "type": type(exc).__name__}
    if hasattr(exc, "best_estimate") and hasattr(exc, "achieved_tol"):
        best = exc.best_estimate
        obj["best_estimate"] = (
            None if best is None else {"re": _finite_or_none(best.real), "im": _finite_or_none(best.imag)}
        )
        obj["achieved_tol"] = _finite_or_none(exc.achieved_tol)
    print(json.dumps(obj, sort_keys=True), file=sys.stderr)
    return 1


#: built once and never changed; each call's options live in its own namespace
_parser = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser.parse_args(argv)
    try:
        result = args.handler(args)
        rendered = _render(result, args.text)
    except Exception as exc:
        return _fail(exc)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            return _fail(exc)
    else:
        print(rendered)
    if args.command == "verify" and result["failures"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
