"""Quality selection for a fixed bitrate ladder.

The rule set is deliberately small: pick the highest rung the current
throughput estimate can sustain, drop to the lowest rung when the playout
buffer runs dangerously low, and start the session on a configured rung
before any estimate exists.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InvalidParameterError, check_int

REASON_THROUGHPUT = "throughput"
REASON_BUFFER_PANIC = "buffer_panic"
REASON_STARTUP = "startup"


# what decide returns; a ladder builds its throughput decisions once, so
# a request builds none (a session's start rung is the one built per call)
class Decision(NamedTuple):
    quality_index: int
    reason: str


_PANIC_FLOOR = Decision(0, REASON_BUFFER_PANIC)


@dataclass(frozen=True)
class BitrateLadder:
    bitrates_kbps: tuple = (250.0, 500.0, 1000.0, 2000.0)
    segment_duration_s: float = 2.0
    # Decision(i, REASON_THROUGHPUT) per rung i, for select_bitrate
    decisions: tuple = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "decisions", tuple(
            Decision(i, REASON_THROUGHPUT) for i in range(len(rungs))))


@dataclass(frozen=True)
class AbrConfig:
    panic_buffer_s: float = 8.0
    initial_quality_index: int = 0

    def __post_init__(self):
        if not (0 <= self.panic_buffer_s < math.inf):
            raise InvalidParameterError(
                "panic_buffer_s must be finite and >= 0, got %r"
                % (self.panic_buffer_s,))
        check_int("initial_quality_index", self.initial_quality_index, 0)


def select_bitrate(ladder, estimate_kbps):
    """Highest rung whose bitrate does not exceed the estimate.

    An estimate below the whole ladder still returns the lowest rung; there
    is no abstention.
    """
    rungs = ladder.bitrates_kbps
    i = len(rungs) - 1
    while i and not rungs[i] <= estimate_kbps:
        i -= 1
    return ladder.decisions[i]


def _check_start_rung(ladder, cfg):  # for decide and SimConfig alike
    if cfg.initial_quality_index >= len(ladder.bitrates_kbps):
        raise InvalidParameterError(
            "initial_quality_index %d outside ladder of %d rungs"
            % (cfg.initial_quality_index, len(ladder.bitrates_kbps)))


def decide(ladder, cfg, estimate_kbps, buffer_level_s):
    """Full per-request rule: the start rung while no estimate exists (the
    first request), then the panic floor, then the estimate."""
    if estimate_kbps is None:
        _check_start_rung(ladder, cfg)
        return Decision(cfg.initial_quality_index, REASON_STARTUP)
    if buffer_level_s < cfg.panic_buffer_s:
        return _PANIC_FLOOR
    return select_bitrate(ladder, estimate_kbps)
