"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces every public function of the traced modules,
wherever a twistsum module holds a reference to it (``powersum`` imports
``gen_euler_poly`` by name, ``cli`` imports ``closed_sum``), with a wrapper
that records a span: name, start, end, parent span and operation id.  A few
methods get spans too.  Helpers whose calls are too small and too many for a
span per call are counted only; their time stays in the caller's self time.
``uninstall`` puts every original back.  Spans are kept in memory and
written out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

MODULES = ("exact", "bernoulli_euler", "twisted_c", "powersum", "euler_maclaurin", "zeta", "cli")

#: (module, class, attribute) -> span name
METHOD_SPANS = {
    ("exact", "TruncatedSeries", "inverse"): "exact.TruncatedSeries.inverse",
    ("exact", "TruncatedSeries", "__mul__"): "exact.TruncatedSeries.mul",
    ("exact", "PolynomialX", "eval_exact"): "exact.PolynomialX.eval_exact",
}
#: (module, class, attributes patched together) -> counter name
METHOD_COUNTS = {
    ("exact", "CyclotomicNumber", ("__mul__", "__rmul__")): "exact.CyclotomicNumber.mul",
    ("exact", "CyclotomicNumber", ("inverse",)): "exact.CyclotomicNumber.inverse",
}
#: public functions counted without a span; ``build_parser`` stays in
#: ``cli.main``'s self time, which is meant to hold argument parsing
COUNT_ONLY = {"exact.as_fraction", "exact.format_rational", "exact.parse_rational", "cli.build_parser"}
#: spans whose extra datum is the key (m, k, t, sorted A) of an Euler build
EULER_BUILDS = ("bernoulli_euler.gen_euler_numbers", "bernoulli_euler.gen_euler_poly")


def _weights(A) -> tuple[int, ...]:
    return tuple(sorted(getattr(A, "entries", A)))


def _points(N) -> int:
    return math.prod(n + 1 for n in N)


def _quad_cells(q, k, a, f_q, lo, hi) -> int:
    """Smoothness cells of [lo, hi]: the interval split at the interior j/k.

    This repeats how ``quad_remainder`` cut its range when the benchmark was
    written.  The count is the size of the problem, like points from N, so a
    quadrature that later evaluates its cells another way is still measured
    in the same cells.
    """
    if lo >= hi:
        return 0
    j = math.floor(lo * k) + 1
    cells = 1
    while j < hi * k - 1e-12:
        if j / k > lo + 1e-12:
            cells += 1
        j += 1
    return cells


def _direct_points(spec, terms_per_axis=400) -> int:
    return (spec.twist.k * terms_per_axis) ** len(spec.A)


def _euler_key(m, twist, A) -> tuple:
    return (m, twist.k, twist.t, _weights(A))


#: span name -> function of the call's arguments giving the span's extra datum
EXTRA = {
    "bernoulli_euler.gen_euler_numbers": _euler_key,
    "bernoulli_euler.gen_euler_poly": _euler_key,
    "powersum.brute_sum": lambda spec: _points(spec.N),
    "zeta.finite_sum_direct": lambda spec, N: _points(N),
    "zeta.zeta_direct": _direct_points,
    "euler_maclaurin.quad_remainder": _quad_cells,
}


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index, op id, nested in a same-name span, extra]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, active, extra_of = self.spans, self._stack, self._active, EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            extra = extra_of(*args, **kwargs) if extra_of else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, active[name] > 0, extra]
            spans.append(record)
            stack.append(idx)
            active[name] += 1
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                active[name] -= 1
                stack.pop()

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        replacements: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[f"twistsum.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrap = self._counter if name in COUNT_ONLY else self._span
                replacements[id(obj)] = (obj, wrap(name, obj))
        holders = [m for n, m in list(sys.modules.items()) if n == "twistsum" or n.startswith("twistsum.")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for (short, cls_name, attr), name in METHOD_SPANS.items():
            cls = getattr(sys.modules[f"twistsum.{short}"], cls_name)
            self._set(cls, attr, self._span(name, vars(cls)[attr]))
        for (short, cls_name, attrs), name in METHOD_COUNTS.items():
            cls = getattr(sys.modules[f"twistsum.{short}"], cls_name)
            wrapper = self._counter(name, vars(cls)[attrs[0]])
            for attr in attrs:
                self._set(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def write(self, path: Path, labels: list[str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "nested", "extra"],
                       "ops": labels, "counts": dict(self.counts), "spans": self.spans}, fh)

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        module_self: Counter = Counter()
        work: Counter = Counter()
        seen_keys: set = set()
        seen_products: set = set()
        first_s = repeat_s = 0.0
        repeats = product_repeats = 0
        for idx, (name, t0, t1, parent, _op, nested, extra) in enumerate(self.spans):
            dur = t1 - t0
            calls[name] += 1
            own[name] += dur - child[idx]
            module_self[name.split(".", 1)[0]] += dur - child[idx]
            if nested:
                continue
            incl[name] += dur
            if name in EULER_BUILDS:
                _m, k, t, A = extra
                product = (k, tuple(sorted((a, t * a % k) for a in A)))
                product_repeats += product in seen_products
                seen_products.add(product)
            if name == "bernoulli_euler.gen_euler_poly":
                if extra in seen_keys:
                    repeats += 1
                    repeat_s += dur
                else:
                    seen_keys.add(extra)
                    first_s += dur
            elif extra is not None and name not in EULER_BUILDS:
                work[name] += extra

        def ms(name: str) -> tuple[float, str]:
            return (1000.0 * incl[name], "ms")

        def rate(name: str, amount: float, unit: str) -> tuple[float, str]:
            return (amount / incl[name] if incl[name] else 0.0, unit)

        poly_calls = calls["bernoulli_euler.gen_euler_poly"]
        builds = sum(calls[name] for name in EULER_BUILDS)
        cells = work["euler_maclaurin.quad_remainder"]
        nodes = len(sys.modules["twistsum.euler_maclaurin"]._GL_NODES)
        out = {
            "cli.main.self_ms": (1000.0 * own["cli.main"], "ms"),
            "exact.TruncatedSeries.inverse.ms": ms("exact.TruncatedSeries.inverse"),
            "exact.TruncatedSeries.inverse.calls": (calls["exact.TruncatedSeries.inverse"], "count"),
            "exact.TruncatedSeries.mul.ms": ms("exact.TruncatedSeries.mul"),
            "exact.TruncatedSeries.mul.calls": (calls["exact.TruncatedSeries.mul"], "count"),
            "exact.PolynomialX.eval_exact.ms": ms("exact.PolynomialX.eval_exact"),
            "exact.PolynomialX.eval_exact.calls": (calls["exact.PolynomialX.eval_exact"], "count"),
            "exact.CyclotomicNumber.mul.calls": (self.counts["exact.CyclotomicNumber.mul"], "count"),
            "exact.CyclotomicNumber.inverse.calls": (self.counts["exact.CyclotomicNumber.inverse"], "count"),
            "bernoulli_euler.gen_euler_numbers.ms": ms("bernoulli_euler.gen_euler_numbers"),
            "bernoulli_euler.bernoulli_numbers.ms": ms("bernoulli_euler.bernoulli_numbers"),
            "bernoulli_euler.gen_euler_poly.first_ms": (1000.0 * first_s, "ms"),
            "bernoulli_euler.gen_euler_poly.repeat_ms": (1000.0 * repeat_s, "ms"),
            "bernoulli_euler.gen_euler_poly.repeat_share": (repeats / poly_calls if poly_calls else 0.0, "ratio"),
            "bernoulli_euler.product_repeat_share": (product_repeats / builds if builds else 0.0, "ratio"),
            "powersum.closed_sum.self_ms": (1000.0 * own["powersum.closed_sum"], "ms"),
            "powersum.brute_sum.points_per_s": rate(
                "powersum.brute_sum", work["powersum.brute_sum"], "points/s"),
            "zeta.zeta_direct.points_per_s": rate("zeta.zeta_direct", work["zeta.zeta_direct"], "points/s"),
            "zeta.finite_sum_direct.points_per_s": rate(
                "zeta.finite_sum_direct", work["zeta.finite_sum_direct"], "points/s"),
            "zeta.zeta_accelerated.ms": ms("zeta.zeta_accelerated"),
            "zeta.zeta_asymptotic.ms": ms("zeta.zeta_asymptotic"),
            "euler_maclaurin.quad_remainder.ms": ms("euler_maclaurin.quad_remainder"),
            "euler_maclaurin.quad_remainder.cells": (cells, "count"),
            "euler_maclaurin.quad_remainder.kernel_evals_per_s": rate(
                "euler_maclaurin.quad_remainder", nodes * cells, "evals/s"),
            "twisted_c.c_poly.ms": ms("twisted_c.c_poly"),
            "twisted_c.em_constant.ms": ms("twisted_c.em_constant"),
        }
        for short in MODULES:
            out[f"{short}.self_share"] = (module_self[short] / traced_s, "ratio")
        out["bench.self_share"] = ((traced_s - sum(module_self.values())) / traced_s, "ratio")
        out["trace.overhead"] = (traced_s / untraced_s, "ratio")
        out["trace.traced_s"] = (traced_s, "s")
        out["trace.untraced_s"] = (untraced_s, "s")
        return out
