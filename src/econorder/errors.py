"""Exception types shared across the package."""


class EconOrderError(Exception):
    """Base class for domain errors raised by econorder."""


class ConfigError(EconOrderError):
    """Malformed configuration; the message carries the offending field path."""


class InfeasibleError(EconOrderError):
    """No occupancy vector can satisfy the firm-count and revenue constraints."""


class CapExceededError(EconOrderError):
    """Exhaustive enumeration refused: the space to list exceeds the cap, or
    its count has more decimal digits than the interpreter prints.

    ``count`` is None when listing stopped at the first element past the cap.
    """

    def __init__(
        self, count: int | None, cap: int, space: str = "outcome space", unit: str = "elements"
    ):
        size = "more than %d" % cap if count is None else count
        super().__init__(f"{space} has {size} {unit}, exceeding the cap of {cap}")
        self.count = count
        self.cap = cap


class SingularityError(EconOrderError):
    """Bose-Einstein denominator is zero or negative at some revenue level."""

    def __init__(self, message: str, level_index: int | None = None):
        super().__init__(message)
        self.level_index = level_index
