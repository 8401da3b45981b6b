"""Counters, gauges and histograms riding the telemetry stream.

:func:`counter`, :func:`gauge` and :func:`histogram` are the write side: each
call appends one ``metric`` record to the active telemetry stream, under
exactly the contract of :func:`repro.telemetry.span`/:func:`event` — disabled
(the default) a call is one global read and one comparison; enabled it is
best-effort, out-of-band, and draws no science RNG and crosses no
failpoints.  The three verbs only differ in how the read side aggregates
them:

* ``counter`` — monotone occurrence counts; aggregate by *sum*
  (``campaign.cycles``, whose ``accepted`` attribute carries each cycle's
  acceptance decision);
* ``gauge`` — instantaneous levels; aggregate by *last*
  (``worker.rss_bytes``, ``coordinator.max_in_flight``);
* ``histogram`` — per-sample distributions; aggregate by *mean*
  (``campaign.cycle_seconds``, ``checkpoint.bytes``).

The read side is :func:`read_metrics`: one :class:`MetricSeries` per metric
name, reconstructed from a telemetry directory without materialising the
span/event records around them (the ``kinds=`` reader filter).  Worker
labels resolve like spans: explicit ``worker=`` → enclosing
:func:`~repro.telemetry.worker_scope` → the writer's default.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.telemetry import api as _api
from repro.telemetry.api import _UNRESOLVED, _worker_var
from repro.telemetry.writer import read_telemetry_dir

__all__ = [
    "METRIC_KINDS",
    "MetricSample",
    "MetricSeries",
    "counter",
    "gauge",
    "histogram",
    "metrics_from_records",
    "read_metrics",
]

#: The aggregation verbs a metric record may carry.
METRIC_KINDS = ("counter", "gauge", "histogram")


def counter(name: str, value: float = 1.0, **attrs: Any) -> None:
    """Record ``value`` occurrences of ``name`` (sum-aggregated)."""
    writer = _api._writer
    if writer is None:
        return
    _write_metric(writer, name, value, "counter", attrs)


def gauge(name: str, value: float, **attrs: Any) -> None:
    """Record the instantaneous level of ``name`` (last-value-aggregated)."""
    writer = _api._writer
    if writer is None:
        return
    _write_metric(writer, name, value, "gauge", attrs)


def histogram(name: str, value: float, **attrs: Any) -> None:
    """Record one sample of the distribution ``name`` (aggregated by mean)."""
    writer = _api._writer
    if writer is None:
        return
    _write_metric(writer, name, value, "histogram", attrs)


def _write_metric(
    writer: Any, name: str, value: float, metric: str, attrs: Dict[str, Any]
) -> None:
    """The verbs' enabled path: resolve the writer and the worker label, write.

    Each verb keeps its own disabled check (one global read, one compare)
    inline, so a disabled crossing never pays for this call.
    """
    if writer is _UNRESOLVED:
        writer = _api.active_writer()
        if writer is None:
            return
    worker = attrs.pop("worker", None)
    if worker is None:
        worker = _worker_var.get()
    writer.write_metric(name, value, metric, attrs, worker=worker)


@dataclass(frozen=True)
class MetricSample:
    """One metric record, as read back from a stream."""

    name: str
    metric: str
    value: float
    at: float
    worker: str
    attrs: Dict[str, Any]


@dataclass(frozen=True)
class MetricSeries:
    """Every sample one metric name accumulated, with its aggregates."""

    name: str
    metric: str
    samples: Tuple[MetricSample, ...]

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        """Sum of samples — the aggregate a ``counter`` means."""
        return sum(sample.value for sample in self.samples)

    @property
    def last(self) -> float:
        """Latest sample — the aggregate a ``gauge`` means (0.0 when empty)."""
        return self.samples[-1].value if self.samples else 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.samples else 0.0


def metrics_from_records(records) -> Dict[str, MetricSeries]:
    """Group raw telemetry records into per-name :class:`MetricSeries`.

    Non-metric records are ignored, so callers may pass an unfiltered
    stream.  A name whose records disagree on the metric verb keeps the
    first one seen (a writer bug worth seeing in the data, not an error that
    hides the rest of the stream).
    """
    samples: Dict[str, List[MetricSample]] = {}
    verbs: Dict[str, str] = {}
    for record in records:
        if record.get("kind") != "metric":
            continue
        name = str(record.get("name", ""))
        attrs = record.get("attrs")
        verbs.setdefault(name, str(record.get("metric", "gauge")))
        samples.setdefault(name, []).append(
            MetricSample(
                name=name,
                metric=str(record.get("metric", "gauge")),
                value=float(record.get("value", 0.0)),
                at=float(record.get("at", 0.0)),
                worker=str(record.get("worker") or "<unknown>"),
                attrs=attrs if isinstance(attrs, dict) else {},
            )
        )
    return {
        name: MetricSeries(name=name, metric=verbs[name], samples=tuple(points))
        for name, points in samples.items()
    }


def read_metrics(
    directory: Union[str, Path],
    names: Optional[Tuple[str, ...]] = None,
) -> Dict[str, MetricSeries]:
    """The metric series under a telemetry directory, one per metric name.

    Only ``metric`` records are materialised (the ``kinds=`` reader filter),
    so reading the metrics of a large traced sweep does not pay for its
    span/event volume.
    """
    records = read_telemetry_dir(directory, kinds=("metric",), names=names)
    return metrics_from_records(records)
