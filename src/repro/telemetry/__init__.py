"""repro.telemetry — zero-dependency observability for the simulator.

See :mod:`repro.telemetry.core` for the instrumentation registry
(:data:`TELEMETRY`, process-local, disabled by default: counters,
histograms, the span stack with its phase timers, the stack sampler,
and :meth:`~Telemetry.emit`, the one event entry point),
:mod:`repro.telemetry.manifest` for per-sweep run manifests and
:mod:`repro.telemetry.progress` for the live narration a sweep writes
into its event log, ``events.jsonl``, and ``repro watch`` reads back.
DESIGN.md §9 documents the span model, the metric naming scheme, the
event log and the manifest schema.
"""

from repro.telemetry.core import (
    DEFAULT_BOUNDS,
    EVENTS_FILENAME,
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
    PROGRESS_SCHEMA,
    ProgressSnapshot,
    read_progress,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "EVENTS_FILENAME",
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
    "PROGRESS_SCHEMA",
    "ProgressSnapshot",
    "read_progress",
]
