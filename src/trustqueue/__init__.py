"""Incentive-compatible estimate-based scheduling analysis for M/G/1 queues.

Closed-form mean response times for the MeasuredTrust and BlindTrust
punishment policies (plus FCFS and Smallest-Class-First baselines),
punishment-probability region finding, a sample-path simulation oracle,
and sweep/plot experiment harnesses.
"""

from .incentives import (BInterval, BIntervalSet, ICReport, UndefinedColumnError,
                         ic_check, ic_region, pair_threshold, social_benefit_region)
from .model import (BadLambdaError, ConfigError, MatrixNotNormalizedError,
                    NegativeEntryError, NonIncreasingSizesError, OverloadedError,
                    Policy, PolicySpec, SizeEstimateMatrix, SizeGrid, SystemConfig,
                    diagonal_matrix, load_config, uniform_error_matrix, validate_config)
from .ranks import rank_boundaries
from .sim import SimConfig, SimEstimate, SimResult, simulate
from .soap import (MomentTable, ResponseTable, fcfs_mean_response, overall_curve,
                   rank_function, relevant_size_moments, response_table, scf_mean_response)

__version__ = "0.1.0"
