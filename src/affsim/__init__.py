"""Trace-driven adaptive bitrate simulation toolkit.

Estimate segment throughput online (adaptive forgetting factor, fixed
EWMA, or a short sliding mean), drive a fixed-ladder quality selector,
play sessions against piecewise-constant bandwidth traces, and score
multi-client fairness on a shared link.
"""

from .abr import (REASON_BUFFER_PANIC, REASON_STARTUP, REASON_THROUGHPUT,
                  AbrConfig, BitrateLadder, Decision, decide, select_bitrate)
from .errors import (AffSimError, InvalidParameterError, InvalidSampleError,
                     OutOfRangeError, ProfileExhaustedError,
                     ProfileParseError, ProfileValidationError)
from .estimators import (AffState, Estimate, EstimatorConfig, EwmaState,
                         SlidingMeanState, aff_new, aff_update,
                         estimator_kinds, estimator_new, estimator_update,
                         ewma_new, ewma_update, sliding_mean_new,
                         sliding_mean_update)
from .fairness import (FairnessConfig, FairnessResult, jain_index,
                       run_fairness)
from .profiles import (BUILTIN_PROFILES, BandwidthProfile, ProfileStats,
                       bandwidth_at, dump_profile, fairness_table3,
                       load_profile, profile_stats, synthesize_profile)
from .report import QoeReport, export, parse_csv_export, summarize, to_dict
from .sim import (SegmentRecord, SessionTrace, SimConfig, buffer_samples,
                  integrate_download, run_session)

__version__ = "0.1.0"

__all__ = [
    "AbrConfig", "AffSimError", "AffState", "BUILTIN_PROFILES",
    "BandwidthProfile", "BitrateLadder", "Decision", "Estimate",
    "EstimatorConfig", "EwmaState", "FairnessConfig",
    "FairnessResult", "InvalidParameterError", "InvalidSampleError",
    "OutOfRangeError", "ProfileExhaustedError", "ProfileParseError",
    "ProfileStats", "REASON_BUFFER_PANIC", "REASON_STARTUP",
    "REASON_THROUGHPUT", "ProfileValidationError", "QoeReport",
    "SegmentRecord", "SessionTrace", "SimConfig", "SlidingMeanState",
    "aff_new", "aff_update", "bandwidth_at", "buffer_samples", "decide",
    "dump_profile", "estimator_kinds", "estimator_new", "estimator_update",
    "ewma_new", "ewma_update", "export", "fairness_table3",
    "integrate_download", "jain_index", "load_profile", "parse_csv_export",
    "profile_stats", "run_fairness", "run_session", "select_bitrate",
    "sliding_mean_new", "sliding_mean_update", "summarize",
    "synthesize_profile", "to_dict",
]
