"""The one ``verify-all`` run that the test session shares, and a runner
for code that may never end.

The ``verify_all`` fixture runs ``wittcount verify-all --format jsonl`` once
per session, in-process through ``cli.main`` with the flag defaults.  It
keeps the exit code, the output text and, for each check group of
``ALL_CHECK_GROUPS``, the records it returned and the seconds it took.

The ``bounded_python`` fixture runs Python source in a fresh interpreter
that imports this package, under a timeout: a test of a loop bound fails
there, rather than hanging the suite, when the bound is missing.
"""

import contextlib
import io
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import pytest

import wittcount
from wittcount import cli

VerifyAll = namedtuple("VerifyAll", "code out records seconds")


@pytest.fixture(scope="session")
def verify_all():
    records, seconds = {}, {}

    def recorded(group):
        def run(cfg):
            started = time.perf_counter()
            records[group] = group(cfg)
            seconds[group] = time.perf_counter() - started
            return records[group]
        return run

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(cli, "ALL_CHECK_GROUPS",
                      tuple((name, recorded(group)) for name, group in cli.ALL_CHECK_GROUPS))
        code = cli.main(["verify-all", "--format", "jsonl"])
    return VerifyAll(code, out.getvalue(), records, seconds)


@pytest.fixture
def bounded_python():
    src = str(Path(wittcount.__file__).parents[1])

    def run(code: str, seconds: float = 20):
        """The finished process; the test fails if it runs past ``seconds``."""
        argv = [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1])\n" + code, src]
        try:  # the child is killed at the timeout
            return subprocess.run(argv, capture_output=True, text=True, timeout=seconds)
        except subprocess.TimeoutExpired:
            pytest.fail(f"still running after {seconds} s")
    return run
