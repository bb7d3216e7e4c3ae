"""repro.runner: parallel sweep execution for experiment grids.

Expresses a grid as independent :class:`SweepPoint` jobs (picklable
spec: module-level run function + keyword params, seed included + label),
fans them out over a process pool, and merges results -- values, metric
registries, spans, snapshots -- deterministically by point index, so
``--jobs N`` output is byte-identical to serial. See DESIGN.md
("Parallel sweep execution").
"""

from .sweep import (
    PointResult,
    SweepError,
    SweepPoint,
    SweepResult,
    TelemetryConfig,
    default_jobs,
    run_sweep,
)

__all__ = [
    "PointResult",
    "SweepError",
    "SweepPoint",
    "SweepResult",
    "TelemetryConfig",
    "default_jobs",
    "run_sweep",
]
