"""What importing twistsum loads: no numpy, and of the package only what a call needs.

Each check runs in a fresh interpreter, so that modules the test session
has already imported do not count.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import twistsum

SRC = str(Path(twistsum.__file__).resolve().parent.parent)


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_leaves_numpy_unloaded():
    proc = run_python("import sys, twistsum, twistsum.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_runs_with_numpy_blocked():
    calls = [
        ["em-sum", "--preset", "poly:0,0,1", "--m", "0", "--n", "1", "--k", "2", "--a", "1", "--q", "2"],
        ["probe", "--target", "t4", "--scales", "10,20,40,80",
         "--s", "0.5", "--x", "10", "--k", "2", "--t", "1", "--weights", "1", "--q", "2"],
    ]
    for argv in calls:
        proc = run_python(
            "import sys; sys.modules['numpy'] = None\n"
            "from twistsum.cli import main\n"
            f"sys.exit(main({argv!r}))"
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        json.loads(proc.stdout)


RUNTIME = ("exact", "bernoulli_euler", "powersum", "twisted_c", "euler_maclaurin", "zeta")
ORACLES = (
    "binomial_convolve",
    "gen_euler_numbers_by_convolution",
    "gen_euler_poly_partition_check",
    "c_poly_gf_check",
    "c_star_multi_gf_check",
    "zero_box_check",
    "check_derivative_consistency",
)


def loaded_after(code: str) -> list[str]:
    """The twistsum modules in sys.modules after running ``code`` in a fresh interpreter."""
    proc = run_python(
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'twistsum')))"
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_submodule():
    assert loaded_after("import twistsum") == ["twistsum"]


def test_every_export_resolves_to_its_defining_module():
    proc = run_python(textwrap.dedent(f"""
        import sys, twistsum
        listed = set(dir(twistsum))
        for name in twistsum.__all__:
            value = getattr(twistsum, name)
            if name in {RUNTIME!r}:
                assert value is sys.modules["twistsum." + name], name
            else:
                assert getattr(sys.modules[value.__module__], name) is value, name
            assert name in listed, name
        try:
            twistsum.no_such_name
        except AttributeError:
            print(len(twistsum.__all__))
    """))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "59"


def test_oracles_live_outside_the_runtime_modules():
    runtime = "".join(f"import twistsum.{name}\n" for name in RUNTIME)
    proc = run_python(runtime + textwrap.dedent(f"""
        import sys, twistsum
        print("twistsum.oracles" in sys.modules)
        print([(m, n) for m in {RUNTIME!r} for n in {ORACLES!r} if hasattr(getattr(twistsum, m), n)])
        import twistsum.oracles
        print(sorted({{getattr(twistsum.oracles, n).__module__ for n in {ORACLES!r}}}))
    """))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "[]", "['twistsum.oracles']"]


def test_verify_leaves_the_cli_unloaded():
    assert "twistsum.cli" not in loaded_after("import twistsum.verify")
    # the zeta suite checks the direct contract in ``zeta``, not through the CLI
    ran = "from twistsum.verify import run_suites\nassert not run_suites('zeta', 0)[0].failures"
    assert "twistsum.cli" not in loaded_after(ran)


def test_sum_and_euler_gen_load_only_their_modules():
    expected = ["twistsum", "twistsum.bernoulli_euler", "twistsum.cli", "twistsum.exact", "twistsum.powersum"]
    calls = [
        ["sum", "--weights", "1,2", "--limits", "3,4", "--x", "1/2", "--s", "3", "--k", "5", "--t", "1"],
        ["euler-gen", "--k", "3", "--t", "1", "--weights", "1,2", "--order", "4", "--poly"],
    ]
    for argv in calls:
        code = f"from twistsum.cli import main\nassert main({argv!r}) == 0"
        assert loaded_after(code) == expected, argv
