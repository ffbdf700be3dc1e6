"""Deterministic simulator of UAV-assisted vehicular network clustering.

Pipeline: UAV-vehicle assignment by max A2G SNR, threshold-based cluster
head selection, an AHP-ranked CH backup list, plus random and VMaSC
benchmark selectors, with trace-driven stability/SNR/robustness metrics.
"""

from .config import SimConfig, ConfigError, load_config, validate
from .engine import run
from .metrics import (LikelihoodParams, aggregate, compare_schemes,
                      robustness_likelihood, run_metrics)

__all__ = [
    "SimConfig", "ConfigError", "load_config", "validate",
    "run",
    "LikelihoodParams", "aggregate", "compare_schemes",
    "robustness_likelihood", "run_metrics",
]

__version__ = "0.1.0"
