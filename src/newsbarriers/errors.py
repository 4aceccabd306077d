"""The pipeline's two error kinds and the few subclasses some code needs.

``ConfigError`` (bad invocation, unreadable paths) exits 1 from the CLI and
``DataError`` (malformed or inconsistent input data) exits 2; anything else
escaping a stage is an internal error. A failure is told apart by its message.
``MalformedRow`` and ``MalformedLine`` carry the row or line they name, and
``build_barrier_dataset`` drops a pair, by reason, on ``IncompleteMetadata``,
``UnknownAlignment`` or ``ZeroVector``.
"""


class ConfigError(Exception):
    """Invalid configuration or invocation."""


class DataError(Exception):
    """Invalid or inconsistent input data."""


class MalformedRow(DataError):
    def __init__(self, row: int, reason: str):
        self.row = row
        super().__init__(f"malformed row {row}: {reason}")


class MalformedLine(DataError):
    def __init__(self, line: int, reason: str):
        self.line = line
        super().__init__(f"malformed line {line}: {reason}")


class IncompleteMetadata(DataError):
    """A publisher or country lacks a field the current barrier needs."""


class UnknownAlignment(IncompleteMetadata):
    """Political alignment absent for a publisher that needs one."""


class ZeroVector(DataError):
    """All-zero vector where cosine similarity is required."""
