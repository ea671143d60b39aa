"""Shared pytest plumbing.

The acceptance suite records one verdict per criterion; the summary hook
reprints them after the run so the pass/fail lines survive pytest's
output capture. ``deadline`` bounds a block that could loop forever.
"""
import contextlib
import signal

ACCEPTANCE_LINES = []


def record_acceptance(number: int, passed: bool, text: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:2d} {verdict}: {text}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(set(ACCEPTANCE_LINES)):
        terminalreporter.write_line(line)


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError inside the block once it has run ``seconds``, so
    that code which never ends fails a test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
