"""repro.telemetry — zero-dependency observability for the simulator.

See :mod:`repro.telemetry.core` for the instrumentation registry
(:data:`TELEMETRY`, process-local, disabled by default: counters,
histograms, the span stack with its phase timers, the stack sampler,
and :meth:`~Telemetry.emit`, the one event entry point),
:mod:`repro.telemetry.manifest` for per-sweep run manifests and
:mod:`repro.telemetry.progress` for ``progress.jsonl``, the filtered
second event sink a sweep attaches to the registry while it runs.
DESIGN.md §9 documents the span model, the metric naming scheme, the
event sinks and the manifest schema.
"""

from repro.telemetry.core import (
    DEFAULT_BOUNDS,
    OVERHEAD_BUDGET,
    Histogram,
    JsonlSink,
    TELEMETRY,
    Telemetry,
    decide_label,
)
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    git_revision,
    next_manifest_path,
    render_manifest,
)
from repro.telemetry.progress import (
    PROGRESS_FILENAME,
    PROGRESS_SCHEMA,
    ProgressSnapshot,
    ProgressStream,
    open_stream,
    read_progress,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "OVERHEAD_BUDGET",
    "Histogram",
    "JsonlSink",
    "TELEMETRY",
    "Telemetry",
    "decide_label",
    "MANIFEST_SCHEMA",
    "RunManifest",
    "git_revision",
    "next_manifest_path",
    "render_manifest",
    "PROGRESS_FILENAME",
    "PROGRESS_SCHEMA",
    "ProgressSnapshot",
    "ProgressStream",
    "open_stream",
    "read_progress",
]
