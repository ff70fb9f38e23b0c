"""Quality selection for a fixed bitrate ladder.

The rule set is deliberately small: pick the highest rung the current
throughput estimate can sustain, drop to the lowest rung when the playout
buffer runs dangerously low, and start the session on a configured rung
before any estimate exists. The session's SimConfig holds and checks its
knobs (ladder, panic threshold, start rung), so `decide` checks nothing.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InvalidParameterError

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


def decide(cfg, estimate_kbps, buffer_level_s):
    """Full per-request rule of SimConfig cfg: the start rung before any
    estimate (the first request), then the panic floor, then the estimate."""
    if estimate_kbps is None:
        return Decision(cfg.initial_quality_index, REASON_STARTUP)
    if buffer_level_s < cfg.panic_buffer_s:
        return _PANIC_FLOOR
    return select_bitrate(cfg.ladder, estimate_kbps)
