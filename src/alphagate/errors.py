"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument fell outside its mathematical domain. ``field`` names the
    argument, when the message is about one."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class InvalidBattery(ValueError):
    """A test battery violates its structural invariants. ``index`` is the
    position of the offending entry, when one entry is at fault."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


class InvalidMethod(ValueError):
    """The requested adjustment method is not valid for this operation."""


class InvalidScenario(ValueError):
    """A simulation scenario violates its structural invariants. ``field``
    names the argument at fault, when the message is about one."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class FileFormatError(ValueError):
    """An input file failed schema validation; the message carries the location."""
