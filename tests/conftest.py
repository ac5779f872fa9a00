import os
import subprocess
import sys
from pathlib import Path

import pytest

import traincost


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Runs a new interpreter that imports this traincost, capturing its output."""
    src = str(Path(traincost.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture
def fresh_python():
    """Runs code in a new interpreter that imports this traincost; returns its stdout.

    For checks on sys.modules that the test process's own imports would mask.
    """

    def run(code: str) -> str:
        done = _python(["-c", code], timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


@pytest.fixture
def cli_process():
    """Runs the CLI in a new process that is killed after timeout seconds.

    For requests that must end in bounded time: a hang fails the test
    (subprocess.TimeoutExpired) instead of stalling the suite.
    """

    def run(*args: str, timeout: float) -> subprocess.CompletedProcess:
        return _python(["-m", "traincost.cli", *args], timeout)

    return run


@pytest.fixture
def philox_rng():
    """numpy Philox generators keyed (seed, replication index).

    The simulator drew its failure gaps from these, as rng.exponential(mtti)
    = mtti * rng.standard_exponential(), under the generator tags
    "philox4x64" and "philox4x64-exp"; tests feed them back in to show that
    output changed only through the stream.
    """
    import numpy as np

    def rng(seed: int, replication_index: int):
        key = np.array([seed, replication_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    return rng


@pytest.fixture
def shake_gaps():
    """The gap stream tagged "shake256-exp", decoded as the simulator once did.

    Block b of replication (seed, index) was shake_256 of the little-endian
    words (seed, index, b), read as 256 little-endian 64-bit words; a word w
    gave the standard-exponential gap -log(1 - (w >> 11) * 2**-53). Tests
    feed it back in to show that output changed only through the stream.
    """
    import hashlib
    import itertools
    import math
    import struct

    block = 256
    words = struct.Struct(f"<{block}Q").unpack

    def gaps(seed: int, index: int):
        log = math.log
        for b in itertools.count():
            key = struct.pack("<QQQ", seed, index, b)
            yield from [
                -log(1.0 - (word >> 11) * 2.0**-53)
                for word in words(hashlib.shake_256(key).digest(8 * block))
            ]

    return gaps
