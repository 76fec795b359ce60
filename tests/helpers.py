"""Helpers shared by the test modules."""

import signal
import tracemalloc
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


def retained_bytes(fn) -> int:
    """Bytes that ``fn()`` allocates and are still held once it returns,
    with its result, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 -- held so that what it keeps alive is counted
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained
