import os
import subprocess
import sys
from pathlib import Path

import pytest

import traincost


@pytest.fixture
def fresh_python():
    """Runs code in a new interpreter that imports this traincost; returns its stdout.

    For checks on sys.modules that the test process's own imports would mask.
    """
    src = str(Path(traincost.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(code: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
