"""Experiment harness: regenerates every figure of the paper.

One module per experiment (see DESIGN.md's experiment index):

* :mod:`repro.harness.fig7` — EXP-F7: per-packet overhead of the
  ITB-support code (paper Figure 7),
* :mod:`repro.harness.fig8` — EXP-F8: per-ITB ejection/re-injection
  overhead (paper Figure 8),
* :mod:`repro.harness.fig1` — EXP-F1: minimal routes enabled by ITBs
  (paper Figure 1),
* :mod:`repro.harness.throughput` — EXP-M1: network-level up*/down*
  vs ITB comparison (the paper's Section 2 motivation, from [2,3]),
* :mod:`repro.harness.ablations` — EXP-A1/A2/A3: design-choice
  ablations called out in DESIGN.md.

All runners return plain dataclasses; :mod:`repro.harness.report`
renders them as ASCII tables with paper-vs-measured columns.
"""

from repro.harness.paths import Fig6Paths, fig6_paths
from repro.harness.fig7 import Fig7Result, measure_fig7_point, run_fig7
from repro.harness.fig8 import Fig8Result, measure_fig8_point, run_fig8
from repro.harness.fig1 import Fig1Result, run_fig1
from repro.harness.throughput import (
    ThroughputPoint,
    ThroughputResult,
    measure_load_point,
    run_throughput,
)
from repro.harness.apps import (
    AppResult,
    AppsResult,
    measure_app_point,
    run_app_comparison,
    run_kernel,
)
from repro.harness.ablations import (
    AblationLoadResult,
    BufferPoolResult,
    BufferPoolStudyResult,
    TimingSweepResult,
    TimingSweepRow,
    run_ablation_buffer_pool,
    run_ablation_load,
    run_ablation_timing,
)
from repro.harness.workloads import (
    TrafficStats,
    drive_traffic,
    hotspot_traffic,
    permutation_traffic,
    uniform_traffic,
)
from repro.harness.paper_claims import CLAIMS, Claim, claim
from repro.harness.ascii_plot import line_plot
from repro.harness.report import format_table, paper_vs_measured
from repro.harness.persist import load_results, save_results
from repro.harness.root_study import (
    RootStudyResult,
    RootStudyRow,
    measure_root_point,
    run_root_study,
)
from repro.harness.validation import ValidationReport, validate_claims

__all__ = [
    "AblationLoadResult",
    "AppResult",
    "AppsResult",
    "BufferPoolResult",
    "BufferPoolStudyResult",
    "CLAIMS",
    "Claim",
    "Fig1Result",
    "Fig6Paths",
    "Fig7Result",
    "Fig8Result",
    "RootStudyResult",
    "RootStudyRow",
    "ThroughputPoint",
    "ThroughputResult",
    "TimingSweepResult",
    "TimingSweepRow",
    "TrafficStats",
    "ValidationReport",
    "claim",
    "drive_traffic",
    "fig6_paths",
    "format_table",
    "hotspot_traffic",
    "line_plot",
    "load_results",
    "measure_app_point",
    "measure_fig7_point",
    "measure_fig8_point",
    "measure_load_point",
    "measure_root_point",
    "paper_vs_measured",
    "permutation_traffic",
    "run_ablation_buffer_pool",
    "run_ablation_load",
    "run_ablation_timing",
    "run_app_comparison",
    "run_fig1",
    "run_fig7",
    "run_fig8",
    "run_kernel",
    "run_root_study",
    "run_throughput",
    "save_results",
    "uniform_traffic",
    "validate_claims",
]
