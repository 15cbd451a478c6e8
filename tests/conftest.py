import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def run_optimized():
    """Run a script under ``python -O`` against this checkout's ``src``;
    returns the completed process with its text output captured."""

    def run(script):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)

    return run
