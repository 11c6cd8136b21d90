"""Pinching-antenna NOMA downlink: channel model, SIC rates, and discrete
activation optimization by one-sided matching."""

from .activation import (BudgetExceededError, Matching, Move, Trajectory,
                         candidate_count, check_stability,
                         conventional_baseline, conventional_positions,
                         distance_based_activation, exhaustive_search,
                         matching_activation, random_matching)
from .channel import amplitudes, effective_channel, power_gains
from .harness import (ConfigError, ExperimentSpec, ResultRow, SweepSpec,
                      TraceRow, build_spec, convergence_trace,
                      parse_config_file, read_results, run_experiment,
                      write_results, write_trace)
from .kernels import SetEvaluator, amplitude_matrix
from .noma import (PowerAllocation, RateReport, jain_fairness, rate_report,
                   sic_rates, sum_rate)
from .scenario import (Deployment, SystemConfig, build_positions,
                       dbm_to_watts, derived_rf, feed_point, make_deployment,
                       sample_users, stream_rng, stream_rngs)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "ConfigError",
    "Deployment", "ExperimentSpec", "Matching", "Move",
    "PowerAllocation", "RateReport", "ResultRow", "SetEvaluator",
    "SweepSpec", "SystemConfig", "TraceRow", "Trajectory",
    "amplitude_matrix", "amplitudes", "build_positions", "build_spec",
    "candidate_count", "check_stability", "conventional_baseline",
    "conventional_positions", "convergence_trace", "dbm_to_watts",
    "derived_rf", "distance_based_activation", "effective_channel",
    "exhaustive_search", "feed_point", "jain_fairness", "make_deployment",
    "matching_activation", "parse_config_file", "power_gains",
    "random_matching", "rate_report", "read_results", "run_experiment",
    "sample_users", "sic_rates", "stream_rng", "stream_rngs", "sum_rate",
    "write_results", "write_trace",
]
