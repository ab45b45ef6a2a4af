"""Small timing utilities used by the experiment harness and the CLI."""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["Stopwatch"]


class Stopwatch:
    """A context-manager stopwatch measuring wall-clock elapsed seconds.

    Example
    -------
    >>> with Stopwatch() as watch:
    ...     _ = sum(range(1000))
    >>> watch.elapsed >= 0.0
    True
    """

    def __init__(self):
        self._start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start
        return False

    def restart(self) -> None:
        """Reset the stopwatch and start a new measurement."""
        self._start = time.perf_counter()
        self.elapsed = 0.0

    def lap(self) -> float:
        """Return the elapsed time since the last (re)start without stopping."""
        if self._start is None:
            return 0.0
        return time.perf_counter() - self._start
