"""Online throughput estimators for segmented media downloads.

All three estimators, listed in `estimator_kinds`, share one calling
convention: build an initial state once, then fold it over per-segment
throughputs, floats in kbit/s. Each update returns the successor state and
the new estimate in kbit/s, so states are plain values to store, replay
and compare. A sample that would take the estimate (or AFF's factor) past
the largest float raises InvalidSampleError.
"""

from dataclasses import dataclass, field
from math import inf
from typing import NamedTuple

from .errors import InvalidParameterError, InvalidSampleError, check_int

DEFAULT_STEP_SIZE = 0.1
DEFAULT_FORGETTING_MIN = 0.6
DEFAULT_FORGETTING_MAX = 1.0
DEFAULT_EWMA_WEIGHT = 0.2
DEFAULT_WINDOW = 3


def _check(value):
    if not 0.0 < value < inf:
        raise InvalidSampleError(
            "throughput must be positive and finite, got %r" % (value,))


def _overflow(value):
    raise InvalidSampleError(
        "throughput %r overflows the estimator state" % (value,))


@dataclass(frozen=True)
class AffState:
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

    weighted_sum: float = 0.0
    weight: float = 0.0
    forgetting: float = DEFAULT_FORGETTING_MAX
    sum_grad: float = 0.0
    weight_grad: float = 0.0
    step_size: float = DEFAULT_STEP_SIZE
    forgetting_min: float = DEFAULT_FORGETTING_MIN
    forgetting_max: float = DEFAULT_FORGETTING_MAX
    n: int = 0


def aff_new(step_size=DEFAULT_STEP_SIZE,
            forgetting_min=DEFAULT_FORGETTING_MIN,
            forgetting_max=DEFAULT_FORGETTING_MAX):
    """Fresh AFF state; the factor starts at its upper clamp."""
    if not (0.0 < step_size <= 0.1):
        raise InvalidParameterError(
            "step_size must be in (0, 0.1], got %r" % (step_size,))
    if not (0.0 < forgetting_min < forgetting_max <= 1.0):
        raise InvalidParameterError(
            "need 0 < forgetting_min < forgetting_max <= 1, got %r, %r"
            % (forgetting_min, forgetting_max))
    return AffState(step_size=step_size, forgetting_min=forgetting_min,
                    forgetting_max=forgetting_max, forgetting=forgetting_max)


def aff_update(state, value):
    """Consume one sample, return (next_state, estimate).

    Update order matters: the derivative accumulators advance with the
    previous weighted sums, then the sums advance, then the estimate is
    read, and only then does the forgetting factor take its gradient step.
    """
    _check(value)
    f = state.forgetting
    sum_grad = f * state.sum_grad + state.weighted_sum
    weight_grad = f * state.weight_grad + state.weight
    weighted_sum = f * state.weighted_sum + value
    weight = f * state.weight + 1.0
    estimate = weighted_sum / weight
    if not estimate < inf:
        _overflow(value)
    error = estimate - value
    # d(estimate)/d(factor) by the quotient rule over the two accumulators
    grad = (sum_grad * weight - weight_grad * weighted_sum) / (weight * weight)
    f_next = f - state.step_size * 2.0 * error * grad
    if f_next < state.forgetting_min:
        f_next = state.forgetting_min
    elif f_next > state.forgetting_max:
        f_next = state.forgetting_max
    elif f_next != f_next:  # NaN passes both clamps
        _overflow(value)
    # positional: keywords nearly double the cost of a frozen __init__
    next_state = AffState(
        weighted_sum, weight, f_next, sum_grad, weight_grad, state.step_size,
        state.forgetting_min, state.forgetting_max, state.n + 1)
    return next_state, estimate


@dataclass(frozen=True)
class EwmaState:
    weight: float = DEFAULT_EWMA_WEIGHT
    estimate: float = 0.0
    n: int = 0


def ewma_new(weight=DEFAULT_EWMA_WEIGHT):
    if not (0.0 < weight < 1.0):
        raise InvalidParameterError(
            "ewma weight must be in (0, 1), got %r" % (weight,))
    return EwmaState(weight=weight)


def ewma_update(state, value):
    """Fixed-weight exponential average, seeded with the first sample."""
    _check(value)
    if state.n == 0:
        estimate = value
    else:
        estimate = state.weight * value + (1.0 - state.weight) * state.estimate
    return EwmaState(state.weight, estimate, state.n + 1), estimate


@dataclass(frozen=True)
class SlidingMeanState:
    window: tuple = ()
    capacity: int = DEFAULT_WINDOW
    n: int = 0


def sliding_mean_new(window=DEFAULT_WINDOW):
    check_int("window", window, 1)
    return SlidingMeanState(capacity=window)


def sliding_mean_update(state, value):
    """Mean of the last few samples; shorter while warming up."""
    _check(value)
    window = (state.window + (value,))[-state.capacity:]
    estimate = sum(window) / len(window)
    if not estimate < inf:
        _overflow(value)
    return SlidingMeanState(window, state.capacity, state.n + 1), estimate


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
        "aff": EstimatorKind("aff", AffState, lambda c: aff_new(
            c.step_size, c.forgetting_min, c.forgetting_max), aff_update),
        "ewma": EstimatorKind("ewma", EwmaState,
                              lambda c: ewma_new(c.ewma_weight), ewma_update),
        "sliding_mean": EstimatorKind(
            "avg{window}", SlidingMeanState,
            lambda c: sliding_mean_new(c.window), sliding_mean_update),
    }


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator a simulation should run, plus its knobs."""

    kind: str = "aff"
    step_size: float = DEFAULT_STEP_SIZE
    forgetting_min: float = DEFAULT_FORGETTING_MIN
    forgetting_max: float = DEFAULT_FORGETTING_MAX
    ewma_weight: float = DEFAULT_EWMA_WEIGHT
    window: int = DEFAULT_WINDOW
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
