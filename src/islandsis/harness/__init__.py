"""Configuration, experiment drivers, file formats, and the CLI."""

from .config import SUITE_NAMES, ConfigError, ExperimentConfig, canonical_hash
from .experiments import (
    ConvergenceRecord,
    ConvergenceReport,
    mean_vs_ode,
    run_compare,
    run_converge,
    run_meanfield,
    run_simulate,
)
from .suites import CheckResult, SuiteReport, run_theorem_suite
from .trajio import TrajectoryData, emit_plot_data, read_manifest, read_trajectory
