"""Per-call deadlines for pure-Python calls that may hang.

call() stops a call after a number of wall-clock seconds. within_events()
stops it after a number of interpreter events, which do not depend on how
fast the host runs, so its verdict is the same on every run of the same
inputs.
"""

from __future__ import annotations

import signal
import sys


class Overrun(BaseException):
    """A call ran past its deadline.

    Derived from BaseException so that no `except Exception` inside the
    program can swallow it.
    """


def _alarm(signum, frame):
    raise Overrun()


def install() -> None:
    signal.signal(signal.SIGALRM, _alarm)


def call(seconds: float, fn):
    """Run fn() with SIGALRM armed `seconds` ahead; re-raise Overrun on expiry.

    The alarm interrupts Python code between bytecodes, so a pure-Python
    loop stops within microseconds of the deadline and an overrun costs
    the deadline itself.
    """
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def within_events(events: int, fn) -> bool:
    """Run fn() under a profiler; False, abandoning it, once it passes `events`.

    An event is a call or a return of a Python or a C function, as
    sys.setprofile reports them. The count of the same call in the same
    process state is the same on every run; code that runs without events
    (a C loop) is not limited here, so wrap this in call() as well.
    """
    left = events

    def count(frame, event, arg):
        nonlocal left
        left -= 1
        if left < 0:
            raise Overrun()

    sys.setprofile(count)
    try:
        fn()
    except Overrun:
        if left >= 0:  # the wall-clock alarm, not the count
            raise
        return False
    finally:
        sys.setprofile(None)
    return True
