"""Shared utilities: seeding, logging, timing and exceptions."""

from repro.utils.exceptions import (
    BufferClosedError,
    CommunicatorError,
    ConfigurationError,
    FaultToleranceError,
    ReproError,
    SchedulerError,
)
from repro.utils.seeding import SeedSequenceFactory, derive_rng, set_global_seed
from repro.utils.timing import Stopwatch, VirtualClock, WallClock

__all__ = [
    "ReproError",
    "ConfigurationError",
    "BufferClosedError",
    "CommunicatorError",
    "SchedulerError",
    "FaultToleranceError",
    "SeedSequenceFactory",
    "derive_rng",
    "set_global_seed",
    "Stopwatch",
    "WallClock",
    "VirtualClock",
]
