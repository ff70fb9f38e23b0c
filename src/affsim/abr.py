"""Quality selection for a fixed bitrate ladder.

The rule set is deliberately small: pick the highest rung the current
throughput estimate can sustain, drop to the lowest rung when the playout
buffer runs dangerously low, and start the session on a configured rung
before any estimate exists.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidParameterError

REASON_THROUGHPUT = "throughput"
REASON_BUFFER_PANIC = "buffer_panic"
REASON_STARTUP = "startup"

DEFAULT_BITRATES_KBPS = (250.0, 500.0, 1000.0, 2000.0)
DEFAULT_SEGMENT_DURATION_S = 2.0
DEFAULT_PANIC_BUFFER_S = 8.0


@dataclass(frozen=True)
class BitrateLadder:
    bitrates_kbps: tuple = DEFAULT_BITRATES_KBPS
    segment_duration_s: float = DEFAULT_SEGMENT_DURATION_S

    def __post_init__(self):
        rungs = tuple(float(b) for b in self.bitrates_kbps)
        object.__setattr__(self, "bitrates_kbps", rungs)
        if not rungs:
            raise InvalidParameterError("ladder needs at least one bitrate")
        if not (0 < rungs[0] and rungs[-1] < math.inf):
            raise InvalidParameterError(
                "bitrates must be positive and finite, got %r" % (rungs,))
        if not all(b < a for b, a in zip(rungs, rungs[1:])):
            raise InvalidParameterError(
                "bitrates must be strictly increasing, got %r" % (rungs,))
        if not (0 < self.segment_duration_s < math.inf):
            raise InvalidParameterError(
                "segment_duration_s must be positive and finite, got %r"
                % (self.segment_duration_s,))


@dataclass(frozen=True)
class AbrConfig:
    panic_buffer_s: float = DEFAULT_PANIC_BUFFER_S
    initial_quality_index: int = 0

    def __post_init__(self):
        if not (0 <= self.panic_buffer_s < math.inf):
            raise InvalidParameterError(
                "panic_buffer_s must be finite and >= 0, got %r"
                % (self.panic_buffer_s,))
        if self.initial_quality_index < 0:
            raise InvalidParameterError(
                "initial_quality_index must be >= 0, got %r"
                % (self.initial_quality_index,))


# one per request: a NamedTuple builds faster than a frozen dataclass
class Decision(NamedTuple):
    quality_index: int
    reason: str


def select_bitrate(ladder, estimate):
    """Highest rung whose bitrate does not exceed the estimate.

    An estimate below the whole ladder still returns the lowest rung; there
    is no abstention.
    """
    rungs, v = ladder.bitrates_kbps, estimate.value_kbps
    i = len(rungs) - 1
    while i and not rungs[i] <= v:
        i -= 1
    return Decision(i, REASON_THROUGHPUT)


def decide(ladder, cfg, estimate, buffer_level_s, is_first_segment):
    """Full per-request rule: startup rung, then panic floor, then estimate."""
    if is_first_segment:
        if cfg.initial_quality_index >= len(ladder.bitrates_kbps):
            raise InvalidParameterError(
                "initial_quality_index %d outside ladder of %d rungs"
                % (cfg.initial_quality_index, len(ladder.bitrates_kbps)))
        return Decision(cfg.initial_quality_index, REASON_STARTUP)
    if buffer_level_s < cfg.panic_buffer_s:
        return Decision(0, REASON_BUFFER_PANIC)
    if estimate is None:
        raise InvalidParameterError(
            "a throughput estimate is required after the first segment")
    return select_bitrate(ladder, estimate)
