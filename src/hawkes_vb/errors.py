"""Exception hierarchy shared across the package.

Each class carries the process exit code the CLI ends with when it escapes
a command:

    1  ConfigError, DomainError, UnsupportedLinkError   (bad configuration)
    2  OSError                                          (I/O, not a package error)
    3  DataError, NoGapError                            (bad or degenerate data)
    4  NumericalError, SimulationDivergedError          (numerical failure)
"""


class HawkesVBError(Exception):
    """Base class for package errors."""

    exit_code = 1


class ConfigError(HawkesVBError):
    """Invalid configuration (schema violation, inconsistent settings)."""

    exit_code = 1


class DataError(HawkesVBError):
    """Invalid event data or malformed input files."""

    exit_code = 3


class DomainError(HawkesVBError):
    """Argument outside the mathematical domain of an operation."""

    exit_code = 1


class NumericalError(HawkesVBError):
    """Numerical failure (non-SPD matrix after jitter, divergence)."""

    exit_code = 4


class SimulationDivergedError(NumericalError):
    """Thinning exceeded the event cap; parameters appear explosive."""


class UnsupportedLinkError(HawkesVBError):
    """Operation requires a link kind other than the one supplied."""

    exit_code = 1


class NoGapError(HawkesVBError):
    """Norm values show no gap; a numeric threshold is required."""

    exit_code = 3
