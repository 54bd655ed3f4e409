"""Shared utilities: seeding, structured results, logging, and virtual time."""

from repro.utils.seeding import SeedSequence, check_random_state, set_global_seed
from repro.utils.results import MetricPoint, RunRecord, RunStore
from repro.utils.timer import VirtualClock
from repro.utils.logging import configure_logging, get_logger

__all__ = [
    "SeedSequence",
    "check_random_state",
    "set_global_seed",
    "MetricPoint",
    "RunRecord",
    "RunStore",
    "VirtualClock",
    "configure_logging",
    "get_logger",
]
