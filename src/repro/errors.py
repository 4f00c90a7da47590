"""Exception hierarchy for the Fire Phoenix reproduction.

Every exception raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch the library's failures without accidentally swallowing
programming errors (``TypeError`` and friends are never wrapped).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SimulationError(ReproError):
    """The discrete-event engine was driven into an invalid state."""


class ProcessKilled(SimulationError):
    """Raised inside a simulated process when it is killed externally.

    Daemon code may catch this to run cleanup, but must re-raise (or simply
    not catch it); the engine relies on the generator actually terminating.
    """


class ClusterError(ReproError):
    """Invalid cluster specification or hardware-model operation."""


class NodeDown(ClusterError):
    """An operation addressed a node that is powered off or crashed."""


class TransportError(ClusterError):
    """Message could not be bound, routed, or delivered."""


class KernelError(ReproError):
    """A Phoenix kernel service rejected a request or hit a protocol fault."""


class ServiceUnavailable(KernelError):
    """The addressed kernel service instance is not currently running."""


class MembershipError(KernelError):
    """Group membership protocol violation (bad view, unknown member...)."""


class CheckpointError(KernelError):
    """Checkpoint store failure (missing key, version conflict...)."""


class SecurityError(KernelError):
    """Authentication or authorization failure."""


class UserEnvError(ReproError):
    """A user environment (PWS, PBS, GridView, ...) hit an invalid state."""


class SchedulingError(UserEnvError):
    """Job management: unknown job/pool, impossible placement."""


class WorkloadError(ReproError):
    """Workload generator/model misuse (bad sizes, exhausted trace...)."""
