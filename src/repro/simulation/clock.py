"""Virtual clock used by the discrete-event engine.

All simulation times are expressed in *seconds* as floats.  The clock is one
slot, ``now``: components holding a reference to it always observe the
current time, and reading it is a plain attribute load, not a call.
"""

from __future__ import annotations

# Two times closer than this are considered equal.  The workloads in the paper
# are millisecond scale, so a nanosecond epsilon is far below any meaningful
# quantity while absorbing float rounding noise.
TIME_EPSILON = 1e-9


class VirtualClock:
    """Monotonically non-decreasing simulation clock.

    The engine is the only writer, through :meth:`advance_to` and
    :meth:`reset`; every other component treats :attr:`now` as read-only.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at a negative time: {start}")
        #: Current simulation time in seconds.
        self.now = float(start)

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time``.

        Raises:
            ValueError: if ``time`` would move the clock backwards by more
                than :data:`TIME_EPSILON`.
        """
        if time < self.now - TIME_EPSILON:
            raise ValueError(
                f"clock cannot move backwards: now={self.now!r}, requested={time!r}"
            )
        if time > self.now:
            self.now = time

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock, typically between independent simulation runs."""
        if start < 0:
            raise ValueError(f"clock cannot reset to a negative time: {start}")
        self.now = float(start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self.now:.6f})"


def times_equal(a: float, b: float, epsilon: float = TIME_EPSILON) -> bool:
    """Return True when two simulation times are equal within tolerance."""
    return abs(a - b) <= epsilon
