"""Streaming anomaly detection with conformal p-values, adaptive real/synthetic
calibration, and online control of a decaying-memory false discovery rate."""

from .conformal import (EPS_GAMMA, GAMMA_MAX, acquisition_probability,
                        active_pvalue, conformal_pvalue, draw_acquisition)
from .core import Observation, Table, observation
from .fdr import DetectorState, StepRecord, next_threshold, step
from .harness import (MethodVariant, RunConfig, config_from, derive_rng, emit,
                      run_benchmark)
from .metrics import MetricsTracker, RunTrace, aggregate
from .scoring import (fit_density_score, fit_fixed_threshold,
                      fit_kmeans_score, fit_supervised_score)
from .twin import (TwinModel, fit_twin, gamma_of_context, sample_synthetic,
                   superuniformity_gap)

__version__ = "0.1.0"
