"""A time limit on every test: a stdlib ``SIGALRM`` turns a hang into a
failure instead of a suite that never ends.  The limit is generous; the
slowest test takes a few seconds.  Code stuck inside one C call (a huge
integer power, say) is interrupted only when that call returns."""

import signal

import pytest

LIMIT_S = 60


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):  # not on Windows
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran over {LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
