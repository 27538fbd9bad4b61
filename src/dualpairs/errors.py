"""Shared exception types, and the one check of integer inputs."""

from __future__ import annotations

import numbers


class SolverDivergenceError(RuntimeError):
    """An implicit solve failed to converge.

    Carries the index of the time step at which the fixed-point iteration
    gave up, so callers (and the CLI, which maps this to exit code 4) can
    report where a run went numerically bad.
    """

    def __init__(self, step: int, message: str | None = None):
        self.step = int(step)
        super().__init__(message or f"implicit solve did not converge at step {self.step}")


def _integer(value, message: str, least: int | None = None) -> int:
    """``value`` as a Python int; a float (even ``8.0``), a bool or an int under ``least`` raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or (least is not None and value < least):
        raise ValueError(f"{message}, got {value!r}")
    return int(value)
