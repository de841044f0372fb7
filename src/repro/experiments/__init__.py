"""Experiment harness: configs, runners, sweeps, and figure reproductions.

The public surface: :class:`ExperimentConfig` describes a cell,
:func:`run_once` executes one seeded repetition of it, and :func:`run_grid`
is the one engine that runs every repetition of a grid of cells — in this
process, or fanned over worker processes, with per-cell result caching
(:func:`run_cell` is its one-cell call).  The ``figure5``/``figure6``/...
builders reproduce the paper's evaluation on top of it.
"""

from .config import (
    PROCESSOR_SWEEP,
    REPLICATION_SWEEP,
    SLACK_FACTOR_SWEEP,
    ExperimentConfig,
)
from .extensions import (
    ablation_interconnect,
    extension_load_sweep,
    extension_failures,
    extension_reclaiming,
    extension_write_mix,
)
from .figures import (
    AblationResult,
    LaxitySweepResult,
    OverheadResult,
    SweepResult,
    ablation_cost,
    ablation_memory,
    ablation_quantum,
    ablation_representation,
    figure5,
    figure6,
    laxity_sweep,
    overhead_table,
    shard_curve,
)
from .runner import (
    SCHEDULER_NAMES,
    CellResult,
    build_scheduler,
    build_workload,
    run_cell,
    run_once,
    workload_tasks,
)
from .sweep import (
    CellRecord,
    SweepCache,
    SweepCell,
    SweepOutcome,
    SweepStats,
    config_digest,
    run_grid,
)

__all__ = [
    "AblationResult",
    "CellRecord",
    "CellResult",
    "ExperimentConfig",
    "SweepCache",
    "SweepCell",
    "SweepOutcome",
    "SweepStats",
    "config_digest",
    "run_grid",
    "LaxitySweepResult",
    "OverheadResult",
    "PROCESSOR_SWEEP",
    "REPLICATION_SWEEP",
    "SCHEDULER_NAMES",
    "SLACK_FACTOR_SWEEP",
    "SweepResult",
    "ablation_cost",
    "ablation_interconnect",
    "ablation_memory",
    "ablation_quantum",
    "ablation_representation",
    "build_scheduler",
    "extension_failures",
    "extension_load_sweep",
    "extension_reclaiming",
    "extension_write_mix",
    "build_workload",
    "figure5",
    "figure6",
    "laxity_sweep",
    "overhead_table",
    "run_cell",
    "run_once",
    "shard_curve",
    "workload_tasks",
]
