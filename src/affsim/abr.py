"""Quality selection for a fixed bitrate ladder.

`decide` is the whole rule: the configured start rung before any estimate
exists, the lowest rung when the playout buffer runs dangerously low, and
otherwise the highest rung the throughput estimate can sustain. A ladder
sizes each rung's segment once and refuses sizes that are not positive,
finite and strictly increasing. The SimConfig checks the other knobs, so
`decide` checks nothing.
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
    # per rung, built once: its throughput Decision and its segment's kbit
    decisions: tuple = field(init=False, repr=False, compare=False)
    segment_sizes_kbit: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rungs = tuple(float(b) for b in self.bitrates_kbps)
        object.__setattr__(self, "bitrates_kbps", rungs)
        if not rungs:
            raise InvalidParameterError("ladder needs at least one bitrate")
        if not (0 < self.segment_duration_s < math.inf):
            raise InvalidParameterError(
                "segment_duration_s must be positive and finite, got %r"
                % (self.segment_duration_s,))
        sizes = tuple(b * self.segment_duration_s for b in rungs)
        # sizes are positive, finite and strictly increasing when the rungs
        # are, unless the products round, so this test reads the sizes
        if not (0 < sizes[0] and sizes[-1] < math.inf and all(
                b < a for b, a in zip(sizes, sizes[1:]))):
            raise InvalidParameterError(
                "segment sizes must be positive, finite and strictly "
                "increasing: bitrates %r x %r s give %r kbit"
                % (rungs, self.segment_duration_s, sizes))
        object.__setattr__(self, "segment_sizes_kbit", sizes)
        object.__setattr__(self, "decisions", tuple(
            Decision(i, REASON_THROUGHPUT) for i in range(len(rungs))))


def decide(cfg, estimate_kbps, buffer_level_s):
    """Full per-request rule of SimConfig cfg: the start rung before any
    estimate (the first request), then the panic floor below
    cfg.panic_buffer_s, then the highest rung whose bitrate does not
    exceed the estimate. An estimate below the whole ladder still gets
    the lowest rung; there is no abstention."""
    if estimate_kbps is None:
        return Decision(cfg.initial_quality_index, REASON_STARTUP)
    if buffer_level_s < cfg.panic_buffer_s:
        return _PANIC_FLOOR
    rungs = cfg.ladder.bitrates_kbps
    i = len(rungs) - 1
    while i and not rungs[i] <= estimate_kbps:
        i -= 1
    return cfg.ladder.decisions[i]
