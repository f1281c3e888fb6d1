"""twistsum has no runtime dependencies: it imports and runs without numpy."""

import json
import os
import subprocess
import sys
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
