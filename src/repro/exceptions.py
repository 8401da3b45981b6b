"""Exception hierarchy for the IMPRESS reproduction.

Every package-specific error derives from :class:`ReproError` so that callers
can catch library failures without also swallowing programming errors such as
``TypeError`` or ``KeyError`` raised by user code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """Raised when a configuration object is internally inconsistent."""


class ResourceError(ReproError):
    """Base class for resource-allocation failures on the simulated platform."""


class InsufficientResourcesError(ResourceError):
    """A request can never be satisfied by the platform (too large)."""


class AllocationError(ResourceError):
    """A request could not be placed right now (but might be later)."""


class SchedulingError(ReproError):
    """Raised for scheduler-internal inconsistencies."""


class SimulationError(ReproError):
    """Raised by the discrete-event engine for invalid event operations."""


class StateTransitionError(ReproError):
    """An illegal task state transition was attempted."""

    def __init__(self, entity: str, current: str, target: str) -> None:
        super().__init__(
            f"illegal state transition for {entity}: {current!r} -> {target!r}"
        )
        self.entity = entity
        self.current = current
        self.target = target


class PipelineError(ReproError):
    """A pipeline could not be constructed or advanced."""


class StageError(PipelineError):
    """A pipeline stage received invalid inputs or produced invalid outputs."""


class CoordinatorError(ReproError):
    """The pipelines coordinator reached an inconsistent state."""


class CampaignError(ReproError):
    """A design campaign was misconfigured or failed to complete."""


class StoreError(ReproError):
    """A persistent run store is corrupt, incompatible or misused."""


class OrchestrationError(ReproError):
    """A work queue is missing, inconsistent or cannot be finalized."""


class TelemetryError(ReproError):
    """A telemetry stream is unreadable by design (incompatible schema)."""


class ProteinError(ReproError):
    """Base class for protein-substrate errors."""


class SequenceError(ProteinError):
    """Invalid amino-acid sequence content."""


class StructureError(ProteinError):
    """Invalid structure or complex definition."""


class DatasetError(ProteinError):
    """A requested dataset entry does not exist or cannot be generated."""
