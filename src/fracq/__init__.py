"""fracq: simulation and numerical verification for restless multiclass
Mittag-Leffler queues."""

from .errors import (
    DomainError,
    EventCapError,
    FracqError,
    ParameterError,
    SeriesConvergenceError,
)
from .gof import chi_square_counts, ecdf, ks_one_sample, ks_two_sample
from .limitlab import (
    ExperimentReport,
    LimitLawSampler,
    verify_best_ask,
    verify_centered_queue_clt,
    verify_covariance,
    verify_fclt,
    verify_lln,
    verify_oscillation,
    verify_pmf,
    verify_queue_scaling,
    verify_recurrence,
)
from .processes import (
    ClassProbabilities,
    EventTimeline,
    renewal_counts,
    simulate_fpp_renewal,
    simulate_fpp_timechange,
    simulate_subordinator,
    thin_events,
    timechange_counts,
)
from .queueing import (
    ContinuumQueueState,
    LocationSampler,
    QueueTrajectory,
    StepFunction,
    aggregate_lengths,
    simulate_continuum_queue,
    simulate_multiclass_queue,
)
from .samplers import (
    RngStream,
    sample_inverse_subordinator_at,
    sample_mittag_leffler,
    sample_positive_stable,
)
from .special import (
    FppParams,
    MlIndex,
    fpp_pmf,
    fpp_pmf_table,
    inverse_subordinator_moments,
    mittag_leffler,
    ml_cdf,
)

__version__ = "0.1.0"

__all__ = [
    "ClassProbabilities",
    "ContinuumQueueState",
    "DomainError",
    "EventCapError",
    "EventTimeline",
    "ExperimentReport",
    "FppParams",
    "FracqError",
    "LimitLawSampler",
    "LocationSampler",
    "MlIndex",
    "ParameterError",
    "QueueTrajectory",
    "RngStream",
    "SeriesConvergenceError",
    "StepFunction",
    "aggregate_lengths",
    "chi_square_counts",
    "ecdf",
    "fpp_pmf",
    "fpp_pmf_table",
    "inverse_subordinator_moments",
    "ks_one_sample",
    "ks_two_sample",
    "mittag_leffler",
    "ml_cdf",
    "renewal_counts",
    "sample_inverse_subordinator_at",
    "sample_mittag_leffler",
    "sample_positive_stable",
    "simulate_continuum_queue",
    "simulate_fpp_renewal",
    "simulate_fpp_timechange",
    "simulate_multiclass_queue",
    "simulate_subordinator",
    "thin_events",
    "timechange_counts",
    "verify_best_ask",
    "verify_centered_queue_clt",
    "verify_covariance",
    "verify_fclt",
    "verify_lln",
    "verify_oscillation",
    "verify_pmf",
    "verify_queue_scaling",
    "verify_recurrence",
]
