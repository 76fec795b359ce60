"""Helpers shared by the test modules."""

import signal
from contextlib import contextmanager


@contextmanager
def time_limit(seconds: float):
    """Fail the test instead of hanging when the body runs too long."""

    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
