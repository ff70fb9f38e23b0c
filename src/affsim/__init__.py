"""Trace-driven adaptive bitrate simulation toolkit.

Track segment throughput online (adaptive forgetting factor, fixed
EWMA, or a short sliding mean), drive a fixed-ladder quality selector,
play sessions against piecewise-constant bandwidth traces, and score
multi-client fairness on a shared link.
"""

from .abr import (REASON_BUFFER_PANIC, REASON_STARTUP, REASON_THROUGHPUT,
                  BitrateLadder, Decision, decide)
from .errors import (AffSimError, ClockHorizonError, InvalidParameterError,
                     InvalidSampleError, ProfileExhaustedError,
                     ProfileParseError, ProfileValidationError)
from .estimators import (AffState, EstimatorConfig, EwmaState,
                         SlidingMeanState, aff_update, estimator_kinds,
                         estimator_update, ewma_update, sliding_mean_update)
from .fairness import (FairnessConfig, FairnessResult, jain_index,
                       run_fairness)
from .profiles import (BUILTIN_PROFILES, BandwidthProfile, ProfileStats,
                       dump_profile, fairness_table3, load_profile,
                       profile_stats, synthesize_profile)
from .report import QoeReport, export, parse_csv_export, summarize, to_dict
from .sim import (SegmentRecord, SessionTrace, SimConfig, integrate_download,
                  run_session, run_shared)

__version__ = "0.1.0"

__all__ = [
    "AffSimError", "AffState", "BUILTIN_PROFILES", "BandwidthProfile",
    "BitrateLadder", "ClockHorizonError", "Decision", "EstimatorConfig",
    "EwmaState", "FairnessConfig", "FairnessResult", "InvalidParameterError",
    "InvalidSampleError", "ProfileExhaustedError", "ProfileParseError",
    "ProfileStats", "REASON_BUFFER_PANIC", "REASON_STARTUP",
    "REASON_THROUGHPUT", "ProfileValidationError", "QoeReport",
    "SegmentRecord", "SessionTrace", "SimConfig", "SlidingMeanState",
    "aff_update", "decide", "dump_profile", "estimator_kinds",
    "estimator_update", "ewma_update", "export", "fairness_table3",
    "integrate_download", "jain_index", "load_profile", "parse_csv_export",
    "profile_stats", "run_fairness", "run_session", "run_shared",
    "sliding_mean_update", "summarize", "synthesize_profile", "to_dict",
]
