import os
import subprocess
import sys
import textwrap

import pytest

import hyptorsion


def _run_fresh(flags, src):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(hyptorsion.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(src)],
        env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture
def run_fresh():
    """Run a snippet in a fresh interpreter with this checkout's hyptorsion
    importable; return the CompletedProcess."""
    return lambda src: _run_fresh((), src)


@pytest.fixture
def run_optimized():
    """Run a snippet under python -O, which strips assert statements, with
    this checkout's hyptorsion importable; return its stdout lines."""
    guard = "import sys\nif __debug__:\n    sys.exit('asserts are live')\n"

    def run(src):
        proc = _run_fresh(("-O",), guard + textwrap.dedent(src))
        proc.check_returncode()
        return proc.stdout.splitlines()

    return run
