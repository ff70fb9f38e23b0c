"""Exception types shared across the toolkit."""


class AffSimError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(AffSimError):
    """A constructor or config argument violates its documented range."""


class InvalidSampleError(AffSimError):
    """A throughput sample is unusable (non-positive or non-finite value)."""


class ProfileParseError(AffSimError):
    """A bandwidth trace line could not be parsed.

    Carries the 1-based line number so callers can point at the exact row.
    """

    def __init__(self, line_no, message):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


class ProfileValidationError(AffSimError):
    """A parsed bandwidth trace violates a structural rule."""


class OutOfRangeError(AffSimError):
    """A time lookup fell outside the profile's defined span."""


class ProfileExhaustedError(AffSimError):
    """The bandwidth trace ended before the simulated work completed."""
