import os
import subprocess
import sys
import textwrap

import pytest

import hyptorsion


@pytest.fixture
def run_optimized():
    """Run a snippet under python -O, which strips assert statements, with
    this checkout's hyptorsion importable; return its stdout lines."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(hyptorsion.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    guard = "import sys\nif __debug__:\n    sys.exit('asserts are live')\n"

    def run(src):
        return subprocess.run(
            [sys.executable, "-O", "-c", guard + textwrap.dedent(src)],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        ).stdout.splitlines()

    return run
