"""Conditional independence tests for categorical data.

G² and χ² statistics over multi-way contingency tables, computed both by
the direct marginal formulas and through iteratively fitted hierarchical
log-linear models, with natural-log p-values, batch screening, and a
timing benchmark harness.
"""

from .bench import BenchConfig, BenchRecord, emit_report, run_bench
from .citest import (
    batch_screen,
    chi2_statistic,
    ci_test,
    dof,
    g2_statistic,
    log_sf_chisq,
)
from .core import (
    CategoricalColumn,
    ContingencyTable,
    DataError,
    Dataset,
    FitResult,
    LogLinearModel,
    SpecError,
    TestResult,
    TestSpec,
    validate_spec,
)
from .io import GenConfig, generate, read_delimited, write_delimited
from .loglinear import ci_model, ipf_fit, model_dof, saturated_model
from .tabulate import SliceMarginals, build_table, expected_ci, slice_marginals, table_from_counts

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "BenchRecord",
    "CategoricalColumn",
    "ContingencyTable",
    "DataError",
    "Dataset",
    "FitResult",
    "GenConfig",
    "LogLinearModel",
    "SliceMarginals",
    "SpecError",
    "TestResult",
    "TestSpec",
    "batch_screen",
    "build_table",
    "chi2_statistic",
    "ci_model",
    "ci_test",
    "dof",
    "emit_report",
    "expected_ci",
    "g2_statistic",
    "generate",
    "ipf_fit",
    "log_sf_chisq",
    "model_dof",
    "read_delimited",
    "run_bench",
    "saturated_model",
    "slice_marginals",
    "table_from_counts",
    "validate_spec",
    "write_delimited",
]
