"""Information filter: Kalman filtering, message replay, reachability, fusion."""

from repro.filtering.kalman import KalmanFilter, KalmanState
from repro.filtering.reachability import ReachabilityAnalyzer
from repro.filtering.replay import ReplayKalmanFilter
from repro.filtering.fusion import FusedEstimate
from repro.filtering.info_filter import (
    EstimateProvider,
    InformationFilter,
    RawEstimator,
)

__all__ = [
    "KalmanFilter",
    "KalmanState",
    "ReachabilityAnalyzer",
    "ReplayKalmanFilter",
    "FusedEstimate",
    "InformationFilter",
    "RawEstimator",
    "EstimateProvider",
]
