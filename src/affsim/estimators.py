"""Online throughput estimators for segmented media downloads.

All three estimators, listed in `estimator_kinds`, share one calling
convention: `EstimatorConfig(...).initial_state` is the checked fresh
state, and an update folds it over per-segment throughputs, floats in
kbit/s. Each update returns the successor state and the new estimate in
kbit/s, so states are plain values to store, replay and compare. Only AFF
can overflow: a sample that would take its estimate or factor past the
largest float raises InvalidSampleError. The EWMA and the sliding mean
stay within the range of their samples.
"""

from dataclasses import dataclass, field
from math import inf
from typing import NamedTuple

from .errors import InvalidParameterError, InvalidSampleError, check_int


# each update tests its sample inline and calls this only when it fails
def _invalid(value):
    raise InvalidSampleError(
        "throughput must be positive and finite, got %r" % (value,))


def _overflow(value):
    raise InvalidSampleError(
        "throughput %r overflows the estimator state" % (value,))


class AffState(NamedTuple):
    """State of the adaptive forgetting factor estimator.

    The estimate is weighted_sum / weight, where both accumulators decay by
    the current forgetting factor before each new sample is added. A factor
    of 1.0 makes the estimate the plain cumulative mean; smaller factors
    discount history geometrically. After each sample the factor itself is
    moved one gradient step downhill on the squared a posteriori error
    (estimate - sample, where the estimate already includes that sample;
    not the one-step-ahead prediction error), then clamped to
    [forgetting_min, forgetting_max]. sum_grad and weight_grad carry the
    derivatives of the two accumulators with respect to the factor, which
    is what makes the gradient computable online.
    """

    weighted_sum: float
    weight: float
    forgetting: float
    sum_grad: float
    weight_grad: float
    step_size: float
    forgetting_min: float
    forgetting_max: float


def _aff_new(cfg):
    """Fresh AFF state; the factor starts at its upper clamp."""
    lo, hi = cfg.forgetting_min, cfg.forgetting_max
    if not (0.0 < cfg.step_size <= 0.1):
        raise InvalidParameterError(
            "step_size must be in (0, 0.1], got %r" % (cfg.step_size,))
    if not (0.0 < lo < hi <= 1.0):
        raise InvalidParameterError(
            "need 0 < forgetting_min < forgetting_max <= 1, got %r, %r"
            % (lo, hi))
    return AffState(0.0, 0.0, hi, 0.0, 0.0, cfg.step_size, lo, hi)


def aff_update(state, value):
    """Consume one sample, return (next_state, estimate).

    Update order matters: the derivative accumulators advance with the
    previous weighted sums, then the sums advance, then the estimate is
    read, and only then does the forgetting factor take its gradient step.
    """
    if not 0.0 < value < inf:
        _invalid(value)
    (weighted_sum, weight, f, sum_grad, weight_grad, step_size, f_min,
     f_max) = state
    sum_grad = f * sum_grad + weighted_sum
    weight_grad = f * weight_grad + weight
    weighted_sum = f * weighted_sum + value
    weight = f * weight + 1.0
    estimate = weighted_sum / weight
    if not estimate < inf:
        _overflow(value)
    error = estimate - value
    # d(estimate)/d(factor) by the quotient rule over the two accumulators
    grad = (sum_grad * weight - weight_grad * weighted_sum) / (weight * weight)
    f_next = f - step_size * 2.0 * error * grad
    if f_next < f_min:
        f_next = f_min
    elif f_next > f_max:
        f_next = f_max
    elif f_next != f_next:  # NaN passes both clamps
        _overflow(value)
    # AffState's own __new__ costs twice as much as tuple's
    return tuple.__new__(AffState, (
        weighted_sum, weight, f_next, sum_grad, weight_grad, step_size,
        f_min, f_max)), estimate


class EwmaState(NamedTuple):
    weight: float
    estimate: float
    n: int


def _ewma_new(cfg):
    if not (0.0 < cfg.ewma_weight < 1.0):
        raise InvalidParameterError(
            "ewma weight must be in (0, 1), got %r" % (cfg.ewma_weight,))
    return EwmaState(cfg.ewma_weight, 0.0, 0)


def ewma_update(state, value):
    """Fixed-weight exponential average, seeded with the first sample."""
    if not 0.0 < value < inf:
        _invalid(value)
    weight, estimate, n = state
    estimate = weight * value + (1.0 - weight) * estimate if n else value
    return tuple.__new__(EwmaState, (weight, estimate, n + 1)), estimate


class SlidingMeanState(NamedTuple):
    window: tuple
    capacity: int


def _sliding_mean_new(cfg):
    check_int("window", cfg.window, 1)
    return SlidingMeanState((), cfg.window)


def sliding_mean_update(state, value):
    """Mean of the last few samples; shorter while warming up."""
    if not 0.0 < value < inf:
        _invalid(value)
    window, capacity = state
    window = (window + (value,))[-capacity:]
    total = sum(window)
    if total < inf:
        estimate = total / len(window)
    else:  # the mean fits: scaled by the largest sample, no term passes 1
        top = max(window)
        estimate = top * (sum(v / top for v in window) / len(window))
    return tuple.__new__(SlidingMeanState, (window, capacity)), estimate


class EstimatorKind(NamedTuple):
    """A row of `estimator_kinds`. `label`, filled in with a config's fields,
    names the kind in reports; under the defaults it is the command-line
    name ("avg{window}" reads "avg3", and "avg5" for a window of 5)."""

    label: str
    state: type
    new: object  # EstimatorConfig -> initial state
    update: object  # (state, kbit/s) -> (next state, estimate in kbit/s)


def estimator_kinds():
    """{kind: EstimatorKind} in command-line order. A new kind is one entry
    plus its new and update functions. Built from the module's names on
    each call, so a function swapped in after import (a tracer's counting
    wrapper, say) is the one that runs."""
    return {
        "aff": EstimatorKind("aff", AffState, _aff_new, aff_update),
        "ewma": EstimatorKind("ewma", EwmaState, _ewma_new, ewma_update),
        "sliding_mean": EstimatorKind("avg{window}", SlidingMeanState,
                                      _sliding_mean_new, sliding_mean_update),
    }


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator a simulation should run, plus its knobs."""

    kind: str = "aff"
    step_size: float = 0.1
    forgetting_min: float = 0.6
    forgetting_max: float = 1.0
    ewma_weight: float = 0.2
    window: int = 3
    # built, so checked, once; states are immutable, so sessions share it
    initial_state: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # checks only the knobs this kind reads
        # compared, not looked up, so an unhashable kind is refused too
        for key, entry in estimator_kinds().items():
            if self.kind == key:
                object.__setattr__(self, "initial_state", entry.new(self))
                return
        raise InvalidParameterError("unknown estimator kind %r" % (self.kind,))

    @property
    def label(self):
        return estimator_kinds()[self.kind].label.format_map(vars(self))


def estimator_update(state, value):
    for entry in estimator_kinds().values():
        if type(state) is entry.state:
            return entry.update(state, value)
    raise InvalidParameterError("not an estimator state: %r" % (state,))
