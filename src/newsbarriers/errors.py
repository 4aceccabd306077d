"""The pipeline's two error kinds.

``ConfigError`` (bad invocation, unreadable paths) exits 1 from the CLI and
``DataError`` (malformed or inconsistent input data) exits 2; anything else
escaping a stage is an internal error. A failure is told apart by its message.
The two ``DataError`` subclasses, ``MalformedRow`` and ``MalformedLine``, carry
the row (``.row``) or line (``.line``) they name.
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
