"""A fixed pure-Python kernel that measures the host's speed.

The benchmark runs on shared machines whose speed drifts by a third or more
over minutes, in wall and CPU time alike.  The kernel below never changes and
shares no code with twistsum, so the time it takes reads how fast the host is
running just then.  Dividing a measured time by the kernel's time around it
and multiplying by :data:`REF_KERNEL_S` gives the time the same work takes on
a *reference host*: one on which the kernel takes exactly REF_KERNEL_S.  A
faster program shows as a smaller reference time; a slower host does not.

The kernel mixes what the program spends its time on: rationals with growing
denominators (the exact tower), and float and complex loops with
``math``/``cmath`` calls (the lattice and quadrature layers).  It runs with
the garbage collector off and keeps nothing, so the program's heap does not
change its speed.
"""

from __future__ import annotations

import cmath
import gc
import math
from fractions import Fraction
from time import perf_counter

#: the kernel's time on the reference host, about its time on a quiet
#: 2-core shared virtual machine (CPython 3.11.7) when the benchmark was set up
REF_KERNEL_S = 0.05
#: the wall time of a fresh interpreter running ``import numpy`` on the
#: reference host; set-up time is scaled by this yardstick, since starting
#: interpreters and loading shared libraries did not slow with the kernel
REF_YARDSTICK_S = 0.2


def kernel() -> tuple[Fraction, complex]:
    zero = Fraction(0)
    acc = zero
    for rep in range(12):
        row = [Fraction(1, 3 + rep)]
        for n in range(1, 24):
            row = [a + b / (n + 2) for a, b in zip(row + [zero], [zero] + row)]
        acc += sum(row, zero) / (rep + 1)
    z = 0j
    for n in range(1, 36000):
        w = cmath.exp(1j * (0.37 * n))
        z += w * math.pow(n + 0.5, -1.5) + w.conjugate() / (n + 1.0)
    return acc, z


def measure() -> float:
    """Wall time of one run of :func:`kernel`, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    times = sorted(measure() for _ in range(21))
    print(f"kernel median {1000 * times[10]:.2f} ms, min {1000 * times[0]:.2f} ms, "
          f"max {1000 * times[-1]:.2f} ms (reference {1000 * REF_KERNEL_S:.0f} ms)")
