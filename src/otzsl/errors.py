"""Exception types that map onto the command-line exit codes.

ConfigError and DataFormatError indicate bad input (exit code 2); SolverError
indicates a numerical failure at runtime (exit code 1). Every config
dataclass rejects a bad value with ConfigError, which is also a ValueError.
"""


class OtzslError(Exception):
    """Base class for package-specific failures."""


class ConfigError(OtzslError, ValueError):
    """Invalid or inconsistent configuration."""


class DataFormatError(OtzslError):
    """Malformed dataset file or directory."""


class SolverError(OtzslError):
    """Optimal-transport solve failed (non-finite values, broken marginals)."""
