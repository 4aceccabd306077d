"""Exception hierarchy shared across the pipeline.

Two branches matter for the CLI exit code: ``ConfigError`` (bad invocation,
unreadable paths) and ``DataError`` (malformed or inconsistent input data).
Anything else escaping a stage is treated as an internal error.
"""


class ConfigError(Exception):
    """Invalid configuration or invocation."""


class DataError(Exception):
    """Invalid or inconsistent input data."""


class MissingColumn(DataError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"missing column: {column}")


class NonFiniteValue(DataError):
    """A cell that is not a usable finite number."""

    def __init__(self, row: int, column: str, value: str = ""):
        self.row = row
        self.column = column
        super().__init__(f"non-finite value in row {row}, column {column!r}: {value!r}")


class RangeViolation(NonFiniteValue):
    """Finite but outside the documented range for its column."""

    def __init__(self, row: int, column: str, value: float, lo: float, hi: float):
        self.row = row
        self.column = column
        DataError.__init__(self, f"value {value!r} in row {row}, column {column!r} outside [{lo}, {hi}]")


class DuplicateCountry(DataError):
    """A country_code on more than one row of countries.csv."""


class DuplicatePublisher(DataError):
    """A publisher_uri, once normalized, on more than one row of publishers.csv."""


class MalformedRow(DataError):
    def __init__(self, row: int, reason: str):
        self.row = row
        super().__init__(f"malformed row {row}: {reason}")


class MalformedLine(DataError):
    def __init__(self, line: int, reason: str):
        self.line = line
        super().__init__(f"malformed line {line}: {reason}")


class UnknownClassLabel(DataError):
    def __init__(self, row: int, label: str):
        self.row = row
        super().__init__(f"unknown propagation class in row {row}: {label!r}")


class IncompleteMetadata(DataError):
    """A publisher or country lacks a field the current barrier needs."""


class UnknownAlignment(IncompleteMetadata):
    """Political alignment absent for a publisher that needs one."""


class ZeroVector(DataError):
    """All-zero vector where cosine similarity is required."""


class LengthMismatch(DataError):
    pass


class EmptyCorpus(DataError):
    pass


class EmptyInput(DataError):
    pass


class DegenerateTrainingSet(DataError):
    """Training data lacks a class the model family requires."""


class TooFewPerClass(DataError):
    """A class with fewer instances than cross-validation folds."""
