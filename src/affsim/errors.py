"""Exception types shared across the toolkit."""


class AffSimError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(AffSimError):
    """A constructor or config argument violates its documented range."""


def check_int(name, value, low):
    """Refuse a bool, a non-int, or an int below `low`, naming the field."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise InvalidParameterError(
            "%s must be an integer >= %g, got %r" % (name, low, value))


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


class ClockHorizonError(AffSimError):
    """A run's clock reached the horizon past which one ulp is too coarse
    to resolve its closing identity."""


class ProfileExhaustedError(AffSimError):
    """The bandwidth trace ended before the simulated work completed."""
