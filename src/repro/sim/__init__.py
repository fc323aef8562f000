"""Deterministic discrete-event simulation kernel for the UStore repro."""

from repro.sim.kernel import (
    SCHEDULERS,
    CalendarQueue,
    Event,
    EventDigest,
    HeapScheduler,
    Interrupt,
    SimulationError,
    Simulator,
    Timeout,
    default_scheduler,
    set_default_scheduler,
    use_digest,
    use_scheduler,
)
from repro.sim.process import Process
from repro.sim.resources import Container, Resource, Store
from repro.sim.rng import RngRegistry

__all__ = [
    "CalendarQueue",
    "Container",
    "Event",
    "EventDigest",
    "HeapScheduler",
    "Interrupt",
    "Process",
    "Resource",
    "RngRegistry",
    "SCHEDULERS",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "default_scheduler",
    "set_default_scheduler",
    "use_digest",
    "use_scheduler",
]
