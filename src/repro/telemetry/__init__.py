"""Out-of-band fleet telemetry: spans, events, JSONL streams.

``repro.telemetry`` is the observability side-channel of the orchestrate
stack: :func:`span` and :func:`event` instrument every fleet seam (worker
claim → execute → cycle → checkpoint → publish, lease heartbeats and steals,
store appends and merges, retry attempts, fired faults, chaos kills), and
the records land as schema-stamped JSONL under ``<queue>/telemetry/`` — one
stream per worker, torn-tail tolerant like the run stores.

The hard contract: telemetry is **strictly out of band**.  It draws no
science RNG, crosses no failpoints, and swallows its own I/O failures, so a
traced sweep finalizes byte-identical to an untraced one (the two-worker and
chaos CI smokes ``cmp`` exactly that).  Disabled — the default — a crossing
costs one global read and one comparison, bounded by the orchestrate
benchmark at ≤5% of a drain.

On top of spans and events, :mod:`repro.telemetry.metrics` adds the number
side of the stream — :func:`~repro.telemetry.metrics.counter` /
:func:`~repro.telemetry.metrics.gauge` /
:func:`~repro.telemetry.metrics.histogram` records with the same disabled
cost and the same out-of-band contract — and
:mod:`repro.telemetry.resources` samples per-worker RSS/CPU gauges from a
best-effort daemon thread.

Read it back with :mod:`repro.analysis.timeline` (per-worker timelines,
utilization, stragglers), :func:`repro.telemetry.metrics.read_metrics`
(per-name series and aggregates), or live via ``python -m repro.orchestrate
status --watch`` and ``… report``; ``… scale`` turns the streams of repeated
fleet sizes into a paper-style scaling study.
"""

from repro._lazy import lazy_namespace

#: Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    "TELEMETRY_ENV": "api",
    "active_writer": "api",
    "disable": "api",
    "enable": "api",
    "enabled": "api",
    "event": "api",
    "reset": "api",
    "scoped": "api",
    "span": "api",
    "worker_scope": "api",
    "METRIC_KINDS": "metrics",
    "MetricSample": "metrics",
    "MetricSeries": "metrics",
    "counter": "metrics",
    "gauge": "metrics",
    "histogram": "metrics",
    "metrics_from_records": "metrics",
    "read_metrics": "metrics",
    "ResourceSampler": "resources",
    "start_resource_sampler": "resources",
    "TELEMETRY_SCHEMA_VERSION": "writer",
    "TelemetryWriter": "writer",
    "iter_telemetry_file": "writer",
    "read_telemetry_dir": "writer",
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
