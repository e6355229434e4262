"""The one ``verify-all`` run that the test session shares.

The ``verify_all`` fixture runs ``wittcount verify-all --format jsonl`` once
per session, in-process through ``cli.main``, with every ``WITTCOUNT_``
variable cleared so that the flag defaults hold.  It keeps the exit code,
the output text and, for each check group of ``ALL_CHECK_GROUPS``, the
records it returned and the seconds it took.
"""

import contextlib
import io
import os
import time
from collections import namedtuple

import pytest

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
        for key in [key for key in os.environ if key.startswith(cli.ENV_PREFIX)]:
            patch.delenv(key)
        patch.setattr(cli, "ALL_CHECK_GROUPS",
                      tuple((name, recorded(group)) for name, group in cli.ALL_CHECK_GROUPS))
        code = cli.main(["verify-all", "--format", "jsonl"])
    return VerifyAll(code, out.getvalue(), records, seconds)
