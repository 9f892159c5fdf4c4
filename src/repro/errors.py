"""Exception hierarchy for the NVR reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration mistakes from simulation-state bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent.

    Raised during construction of configs (cache geometry that is not a
    power of two, zero vector width, negative latencies, ...) so problems
    surface before a simulation starts.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state.

    This indicates a bug in the library (or direct misuse of internal
    APIs), not bad user input.
    """


class ProgramError(ReproError):
    """A :class:`~repro.sim.npu.program.SparseProgram` is malformed.

    Raised when an instruction stream violates the invariants the
    executors rely on (e.g. a gather without chain metadata, or a
    compute op referencing an unknown tile).
    """


class ServerError(ReproError):
    """A ``repro serve`` request failed.

    Raised by :class:`repro.client.SweepClient` when the daemon answers
    with an HTTP error (the server's JSON ``error`` message becomes the
    exception text) or cannot be reached at all. The HTTP status code,
    when there is one, is on :attr:`status`.
    """

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class WorkloadError(ReproError):
    """A workload specification cannot be realised.

    Raised by the Table II workload generators for parameter combinations
    that make no sense (more selected tokens than cache entries, graphs
    with zero nodes, ...).
    """


class BuildError(ReproError):
    """The simulator's compiled kernels could not be built.

    Raised on the first import of :mod:`repro.sim.memory.hierarchy` when
    compiling ``_kernels.c`` fails; the message names the compiler
    command and carries its output.
    """
