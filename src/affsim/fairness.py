"""Multi-client fairness over one shared bandwidth trace.

Clients run on the shared-link engine in `affsim.sim`, which splits the
trace capacity equally among clients with a download in flight. This
module draws their start times, runs them together and scores how evenly
they shared the link over a time window, by Jain's fairness index; the
result keeps the clients' traces. `affsim.sim.run_shared` runs clients
of different configs on one link.
"""

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import InvalidParameterError, check_int
from .profiles import fairness_table3, unit_scale
from .sim import MAX_ROWS, SimConfig, run_shared


@dataclass(frozen=True)
class FairnessConfig:
    n_clients: int = 10
    start_jitter_s: float = 15.0
    window: tuple = (50.0, 350.0)
    profile: object = None  # BandwidthProfile; None picks fairness_table3
    sim: SimConfig = SimConfig(total_segments=180)
    rng_seed: int = 0

    def __post_init__(self):
        check_int("n_clients", self.n_clients, 2)
        if self.n_clients * self.sim.total_segments > MAX_ROWS:
            raise InvalidParameterError(
                "n_clients %d x total_segments %d is over %d records"
                % (self.n_clients, self.sim.total_segments, MAX_ROWS))
        if not (0 <= self.start_jitter_s < math.inf):
            raise InvalidParameterError(
                "start_jitter_s must be finite and >= 0, got %r"
                % (self.start_jitter_s,))
        try:
            w_lo, w_hi = self.window
            if not 0.0 <= w_lo < w_hi < math.inf:
                raise ValueError
        except (TypeError, ValueError):  # also not a pair, or not numbers
            raise InvalidParameterError(
                "window must satisfy 0 <= start < end < inf, got %r"
                % (self.window,)) from None
        check_int("rng_seed", self.rng_seed, -math.inf)
        if self.profile is None:
            object.__setattr__(self, "profile", fairness_table3())


@dataclass(frozen=True)
class FairnessResult:
    """A fairness run's scores; its compared fields, in order, are what
    `to_dict` and `export` write."""

    per_client_avg_kbps: tuple
    jfi: float
    total_avg_kbps: float
    # the clients' SessionTraces; outside repr, equality and the exports
    traces: tuple = field(default=(), repr=False, compare=False)


def jain_index(values):
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1]; the sums
    run on values scaled by `unit_scale`, so no square under/overflows."""
    vals = list(values)
    if not vals:
        raise InvalidParameterError("jain_index needs at least one value")
    if not all(0 <= v < math.inf for v in vals):
        raise InvalidParameterError("allocations must be finite and >= 0")
    if not any(vals):
        raise InvalidParameterError("at least one allocation must be > 0")
    scale = unit_scale(max(vals))
    vals = [v * scale for v in vals]
    s = sum(vals)
    return min(1.0, (s * s) / (len(vals) * sum(v * v for v in vals)))


def run_fairness(cfg):
    """Simulate cfg.n_clients identical clients and score the sharing; the
    result keeps their traces."""
    w_lo, w_hi = cfg.window
    if cfg.profile.duration_s < w_hi:  # the one rule that reads the trace
        raise InvalidParameterError(
            "profile ends at %g, before the window end %g"
            % (cfg.profile.duration_s, w_hi))
    rng = random.Random(cfg.rng_seed)
    traces = run_shared(cfg.profile, [(cfg.sim, rng.uniform(
        0.0, cfg.start_jitter_s)) for _ in range(cfg.n_clients)])
    span = w_hi - w_lo
    # a client's records are in completion order, so two bisections find
    # those landing inside the window, both ends included
    done_at, size = attrgetter("t_complete_s"), attrgetter("size_kbit")
    per_client = []
    for tr in traces:
        records = tr.records
        lo = bisect_left(records, w_lo, key=done_at)
        hi = bisect_right(records, w_hi, lo, key=done_at)
        per_client.append(sum(map(size, records[lo:hi])) / span)
    if not any(per_client):
        raise InvalidParameterError(
            "no client completed a segment inside the window [%g, %g]"
            % (w_lo, w_hi))
    return FairnessResult(
        per_client_avg_kbps=tuple(per_client),
        jfi=jain_index(per_client),
        total_avg_kbps=sum(per_client) / len(per_client),
        traces=tuple(traces))
