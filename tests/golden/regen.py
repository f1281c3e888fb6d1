"""Regenerate ``cli.jsonl``, the golden corpus of the CLI's star-table readers.

Each line records one call of ``twistsum.cli.main``: its argv, stdout,
stderr and exit code.  The cases cover every command that reads the exact
star table C*_{0..q,k}(A_r): ``zeta`` with each method (long periods,
depths q = 171/172/300 and the overflow refusals among them, orders in the
convergent half-plane, non-integer orders without ``--q``, which are
refused, and a corner off the branch, refused before the continuation runs),
``c-values --star/--multi`` exact and ``--numeric``, ``probe t3/t4`` (with
the refusals of a missing ``--q`` and a fractional limit scale), and the
``cvalues`` and ``zeta`` verify suites at seeds 0 and 7.  They also record
the ``AccelerationError`` objects of four stalls (outer axis with a best
estimate, inner axis without one, a finite box sum whose estimate goes
through the corners, and one that stalls on an inner axis and so has none),
and cover the other commands: ``sum`` closed, brute, both and ``--trace``,
``euler-gen`` numbers and ``--poly``, ``c-values --a`` with and without
``--x``, ``em-sum`` unit and ``--scaled`` with poly and exp presets, the
computational refusals of missing input (exit 1), one ``--text`` call per
command, the usage errors (exit 2) of a missing option and of a malformed
``--s``, ``--x``, ``--weights``, ``--scales`` or ``--preset``, the ``exact``,
``powersum``, ``euler`` and ``em`` verify suites at seed 0, and the whole
suite (``--suite all``) at seed 7.  No output depends on the wall clock.
``tests/test_golden_cli.py`` replays the corpus through :func:`replay` and
compares byte for byte.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from twistsum.cli import main as cli_main

CORPUS = Path(__file__).with_name("cli.jsonl")

#: the terminal width argparse reads from ``COLUMNS``; it wraps the recorded usage errors
USAGE_COLUMNS = "80"

_ZETA = [
    # integer orders of the continuation: exact, one integer pass over the Euler memo
    "zeta --method accel --s=-2 --x 10 --k 2 --t 1 --weights 1,3,5,7",
    "zeta --method accel --s=-8 --x 1 --k 2 --t 1 --weights 1",
    "zeta --method accel --s=-2 --x 1 --k 2 --t 1 --weights 101,103,107",
    "zeta --method accel --s=-5 --x 0.25 --k 7 --t 3 --weights 2,3",
    "zeta --method accel --s=-3 --x 2.5 --k 5 --t 2 --weights 1,2,3",
    "zeta --method accel --s=-4 --x 0 --k 3 --t 2 --weights 1,1,2",
    "zeta --method accel --s=-6 --x 3 --k 12 --t 5 --weights 1,2,3,5",
    "zeta --method accel --s=-40 --x 1 --k 7 --t 1 --weights 2,3",
    "zeta --method accel --s=-120 --x 1 --k 7 --t 1 --weights 2,3",
    "zeta --method accel --s=-400 --x 1e10 --k 2 --t 1 --weights 1",
    "zeta --method accel --s=-12 --x 0.5 --k 9 --t 4 --weights 1,2,4",
    # the float transformation
    "zeta --method accel --s 2 --x 1 --k 2 --t 1 --weights 1",
    "zeta --method accel --s 1.5 --x 1 --k 3 --t 1 --weights 1,2",
    "zeta --method accel --s 2,1 --x 1 --k 2 --t 1 --weights 1",
    "zeta --method accel --s 2 --x 1 --k 2 --t 1 --weights 2",
    # the asymptotic main term
    "zeta --method asym --s=-2 --x 20 --k 3 --t 1 --weights 1,2 --q 4",
    "zeta --method asym --s 0.5 --x 10 --k 2 --t 1 --weights 1 --q 3",
    "zeta --method asym --s=-0.5,0.5 --x 30 --k 4 --t 1 --weights 1,3 --q 6",
    "zeta --method asym --s=-1 --x 100 --k 7 --t 1 --weights 2,3 --q 60",
    "zeta --method asym --s 0.5 --x 50 --k 5 --t 2 --weights 1,1,3 --q 9",
    "zeta --method asym --s 0.3 --x 30.5 --k 5 --t 2 --weights 1,2,3 --q 20",
    "zeta --method asym --s 0.5 --x 2000 --k 2 --t 1 --weights 1 --q 171",
    "zeta --method asym --s 0.5 --x 2000 --k 2 --t 1 --weights 1 --q 172",
    "zeta --method asym --s 0.5 --x 2000 --k 2 --t 1 --weights 1 --q 300",
    "zeta --method asym --s=-320 --x 1000 --k 3 --t 1 --weights 1,2",
    "zeta --method asym --s 0.5 --x 2 --k 3 --t 1 --weights 1,2",
    # the convergent half-plane, and sigma = -1, where (sigma+1)_r vanishes
    "zeta --method asym --s 1.5 --x 40.5 --k 3 --t 1 --weights 1,2 --q 14",
    "zeta --method asym --s 1 --x 40.5 --k 3 --t 1 --weights 1,2 --q 14",
    "zeta --method finite --s 1.5 --x 40.5 --k 3 --t 1 --weights 1,2 --q 14 --limits 3,3",
    # without --q a non-integer order is refused: no depth is guessed
    "zeta --method asym --s 0.3 --x 7 --k 5 --t 2 --weights 1,2,3",
    "zeta --method finite --s 0.3 --x 7 --k 5 --t 2 --weights 1,2,3 --limits 3,3,3",
    "zeta --method asym --s 0.5 --x 2 --k 3 --t 1 --weights 1",
    "zeta --method finite --s 0.5 --x 0.5 --k 3 --t 1 --weights 1 --limits 2",
    # a corner off the branch is refused before the continuation runs
    "zeta --method finite --s 0.5 --x 0.5 --k 5 --t 1 --weights 1,2,3 --limits 0,0,0 --q 6",
    # stars out of float range at depth 171: a power overflows first, then a star does
    "zeta --method asym --s 0.5 --x 101.001 --k 2 --t 1 --weights 101 --q 171",
    "zeta --method asym --s 0.5 --x 101.01 --k 2 --t 1 --weights 101 --q 171",
    # the finite box sum and the direct sum
    "zeta --method finite --s=-2 --x 0 --k 2 --t 1 --weights 1 --q 2 --limits 20",
    "zeta --method finite --s 0.5 --x 1 --k 4 --t 1 --weights 1,3 --q 2 --limits 8,8",
    "zeta --method finite --s=-3 --x 1 --k 3 --t 1 --weights 1,2 --limits 5,4",
    # integer orders with no --q: the main terms are exact, also below the shift A.1
    "zeta --method asym --s=-2 --x 10.5 --k 3 --t 1 --weights 1,2",
    "zeta --method finite --s=-2 --x 0.5 --k 3 --t 1 --weights 1,2 --limits 3,4",
    "zeta --method finite --s=-2 --x 0.5 --k 3 --t 1 --weights 1,2 --limits 0,0",
    "--tol 1e-6 zeta --method direct --s 3 --x 1 --k 2 --t 1 --weights 1",
    "zeta --method direct --s 0.05 --x 1 --k 2 --t 1 --weights 1",
    "zeta --method asym --s 0.5 --x 20 --k 2 --t 1 --weights 2 --q 3",
    # AccelerationError: an outer-axis stall and an inner-axis stall; without --q the box sums
    # at these orders are refused, and with it one stalls through the corners and one on an
    # inner axis, with no estimate; then a box sum without --limits
    "zeta --method accel --s=-2.5 --x 1 --k 6 --t 1 --weights 1",
    "zeta --method accel --s=-1.25 --x 1 --k 6 --t 1 --weights 1,1",
    "zeta --method finite --s=-2.5 --x 1 --k 6 --t 1 --weights 1 --limits 10",
    "zeta --method finite --s=-1.25 --x 1 --k 6 --t 1 --weights 1,1 --limits 3,3",
    "zeta --method finite --s=-2.5 --x 1 --k 6 --t 1 --weights 1 --limits 10 --q 3",
    "zeta --method finite --s=-1.25 --x 1 --k 6 --t 1 --weights 1,1 --limits 3,3 --q 2",
    "zeta --method finite --s 0.5 --x 1 --k 2 --t 1 --weights 1",
]

_C_VALUES = [
    "c-values --n 5 --k 3 --multi 1,2",
    "c-values --n 5 --k 3 --multi 1,2 --numeric",
    "c-values --n 0 --k 3 --multi 1,2",
    "c-values --n 8 --k 7 --multi 2,3,5",
    "c-values --n 8 --k 7 --multi 2,3,5 --numeric",
    "c-values --n 6 --k 4 --multi 1,1,3",
    "c-values --n 12 --k 12 --multi 1,5,7,11",
    "c-values --n 5 --k 3 --a 2 --star",
    "c-values --n 5 --k 3 --a 2 --star --numeric",
    "c-values --n 7 --k 5 --a 4 --star",
    "c-values --n 4 --k 2 --multi 2",
    "c-values --n -1 --k 3 --multi 1",
    "c-values --n 120 --k 2 --multi 101",
    "c-values --n 120 --k 2 --multi 101 --numeric",
]

_PROBE = [
    "probe --target t4 --scales 10,20,40 --s 0.5 --x 10 --k 2 --t 1 --weights 1 --q 2",
    "probe --target t4 --scales 10,20,40 --s=-2 --x 10 --k 3 --t 1 --weights 1,2 --q 4",
    "probe --target t3 --scales 8,16,32 --s 0.5 --x 1 --k 4 --t 1 --weights 1,3 --q 2",
    "probe --target t3 --scales 4,8,16 --s=-1 --x 1 --k 3 --t 1 --weights 1,2 --q 3",
    "probe --target t4 --scales 10,20,40 --s 0.5 --x 10 --k 2 --t 1 --weights 1",
    "probe --target t3 --scales 8.5,16,32 --s 0.5 --x 1 --k 4 --t 1 --weights 1,3 --q 2",
]

_VERIFY = [f"verify --suite {suite} --seed {seed}" for suite in ("cvalues", "zeta") for seed in (0, 7)]

_SUM = [
    "sum --weights 3,1 --limits 100,150 --x 0 --s 2 --k 2 --t 1 --method both",
    "sum --weights 1,2 --limits 3,4 --x 1/2 --s 3 --k 5 --t 1 --method closed",
    "sum --weights 1,2,4 --limits 3,2,4 --x 2/3 --s 7 --k 3 --t 2 --method brute",
    "sum --weights 3,1 --limits 10,15 --x 0 --s 2 --k 2 --t 1 --trace",
    "sum --weights 2 --limits 3 --x 0 --s 1 --k 2 --t 1",
    "sum --weights " + ",".join(["1"] * 21) + " --limits " + ",".join(["0"] * 21) + " --s 1 --k 2 --t 1",
]

_EULER_GEN = [
    "euler-gen --k 2 --t 1 --weights 1 --order 3",
    "euler-gen --k 5 --t 2 --weights 1,2,3 --order 6",
    "euler-gen --k 2 --t 1 --weights 1,3 --order 2 --poly",
    "euler-gen --k 7 --t 3 --weights 2,3 --order 5 --poly",
]

_C_VALUES_A = [
    "c-values --n 4 --k 3 --a 2",
    "c-values --n 3 --k 5 --a 2 --numeric",
    "c-values --n 4 --k 3 --a 2 --x 1/3",
    "c-values --n 3 --k 5 --a 2 --x 7/2 --numeric",
    "c-values --n 3 --k 3",
]

_EM_SUM = [
    "em-sum --preset poly:0,0,1 --m 0 --n 1 --k 2 --a 1 --q 2",
    "em-sum --preset poly:1/2,0,1/3 --m -1 --n 2 --k 2 --a 1 --q 3",
    "em-sum --preset exp:0.3 --m 0 --n 2 --k 3 --a 1 --q 4",
    "em-sum --preset poly:1,2,0,1 --m 0 --n 3 --k 4 --a 1 --q 3 --scaled",
    "em-sum --preset exp:0.3 --m 0 --n 2 --k 3 --a 1 --q 4 --scaled",
    # a preset that does not parse, or a non-finite rate, is a usage error
    "em-sum --preset exp:nan --m 0 --n 3 --k 3 --a 1 --q 2",
    "em-sum --preset sin:1 --m 0 --n 1 --k 2 --a 1 --q 2",
    "em-sum --preset poly:1,a --m 0 --n 1 --k 2 --a 1 --q 2",
    "em-sum --preset exp:abc --m 0 --n 1 --k 2 --a 1 --q 2",
]

_TEXT = [
    "--text sum --weights 1,2 --limits 3,4 --x 1/2 --s 3 --k 5 --t 1 --trace",
    "--text euler-gen --k 3 --t 1 --weights 1,2 --order 2 --poly",
    "--text c-values --n 5 --k 3 --multi 1,2",
    "--text em-sum --preset exp:0.3 --m 0 --n 2 --k 3 --a 1 --q 4",
    "--text zeta --method asym --s=-2 --x 20 --k 3 --t 1 --weights 1,2 --q 4",
    "--text probe --target t4 --scales 10,20,40 --s 0.5 --x 10 --k 2 --t 1 --weights 1 --q 2",
    "--text verify --suite em --seed 0",
]

_USAGE = [
    "sum --weights 1",
    "zeta --method asym --s abc --x 1 --k 2 --t 1 --weights 1",
    "zeta --method asym --s 1,2,3 --x 1 --k 2 --t 1 --weights 1",
    "probe --target t4 --scales 10,20,40 --s abc --k 2 --t 1 --weights 1",
    "sum --weights 1,2 --limits 3,4 --x abc --s 3 --k 5 --t 1",
    "c-values --n 3 --k 5 --a 2 --x abc",
    "sum --weights 1,a --limits 3,4 --s 3 --k 5 --t 1",
    "probe --target t4 --scales 10,abc,40 --s 0.5 --k 2 --t 1 --weights 1 --q 2",
]

_VERIFY_MORE = [f"verify --suite {suite} --seed 0" for suite in ("exact", "powersum", "euler", "em")]
_VERIFY_MORE.append("verify --suite all --seed 7")

CASES = [
    line.split()
    for line in _ZETA + _C_VALUES + _PROBE + _VERIFY
    + _SUM + _EULER_GEN + _C_VALUES_A + _EM_SUM + _TEXT + _USAGE + _VERIFY_MORE
]


def replay(argv: list[str]) -> dict:
    """One in-process call of ``cli.main``: {"argv", "stdout", "stderr", "code"}.

    A usage error exits through argparse's SystemExit; its code is recorded.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def main() -> None:
    os.environ["COLUMNS"] = USAGE_COLUMNS  # argparse wraps the usage errors to the terminal
    with CORPUS.open("w", encoding="utf-8") as fh:
        for argv in CASES:
            fh.write(json.dumps(replay(argv), sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
