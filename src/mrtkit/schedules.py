"""Time schedules for the two-state Hamiltonian parameters.

Only constant values and linear ramps are supported; both have exact
closed-form time integrals, which the coherence and dynamics modules rely
on for phase accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LinearSchedule", "as_schedule"]


@dataclass(frozen=True)
class LinearSchedule:
    """value(t) = initial + rate * t."""

    initial: float
    rate: float = 0.0

    def value(self, t: float):
        return self.initial + self.rate * t

    def integral(self, t: float):
        """Exact integral of the schedule from 0 to t."""
        return self.initial * t + 0.5 * self.rate * t * t

    @property
    def is_constant(self) -> bool:
        return self.rate == 0.0


def as_schedule(value) -> LinearSchedule:
    """Coerce a plain number to a constant schedule; pass schedules through."""
    if isinstance(value, LinearSchedule):
        return value
    return LinearSchedule(float(value))
