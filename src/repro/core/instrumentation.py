"""Science-axis metric emission shared by the execution families.

PR 7 instrumented the *fleet* seams (claims, leases, checkpoints, stores);
this module instruments the *science* axis the paper actually argues about:
one call per completed design cycle, emitting the cycle's wall time, its
per-stage durations, the best/mean quality trajectory and the acceptance
decision as out-of-band metric records.

Both execution families funnel through :func:`record_cycle_metrics` —
:meth:`ControlProtocol.step_cycle` at its quiescent boundary and the
:class:`PipelinesCoordinator` after every decision step — so a metric stream
reads the same regardless of runtime.  The calls obey the telemetry
contract: disabled they return at once, before computing any value, and
enabled they draw no science RNG and cross no failpoints (the metrics tests
pin all three).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.trajectory import CycleResult
from repro.protein.metrics import composite_score
from repro.telemetry import metrics
from repro.telemetry.api import active_writer

__all__ = ["record_cycle_metrics", "record_stage_metrics"]


def record_cycle_metrics(
    result: CycleResult,
    wall_seconds: Optional[float] = None,
    **attrs: Any,
) -> None:
    """Emit the per-cycle metric family for one completed design cycle.

    * ``campaign.cycles`` (counter) — one per completed cycle, with the
      acceptance decision riding in its ``accepted`` attribute, so the
      accept/reject trail is auditable sample by sample and the acceptance
      *rate* is the share of samples with ``accepted`` true;
    * ``campaign.cycle_seconds`` (histogram) — wall-clock cost of the cycle,
      when the caller measured one;
    * ``campaign.best_composite`` (gauge) — composite quality of the cycle's
      best design (the fitness trajectory the paper plots);
    * ``campaign.mean_fitness`` (gauge) — mean latent fitness across the
      cycle's evaluated trajectories.
    """
    if active_writer() is None:
        return
    base: Dict[str, Any] = {
        "target": result.target,
        "pipeline": result.pipeline_uid,
        "cycle": result.cycle,
    }
    base.update(attrs)
    metrics.counter("campaign.cycles", 1.0, accepted=result.accepted, **base)
    if wall_seconds is not None:
        metrics.histogram("campaign.cycle_seconds", wall_seconds, **base)
    if result.best_metrics is not None:
        metrics.gauge(
            "campaign.best_composite", composite_score(result.best_metrics), **base
        )
    if result.trajectories:
        mean_fitness = sum(t.fitness for t in result.trajectories) / len(
            result.trajectories
        )
        metrics.gauge("campaign.mean_fitness", mean_fitness, **base)


def record_stage_metrics(
    stage_seconds: Dict[str, float], **attrs: Any
) -> None:
    """Emit one ``campaign.stage_seconds`` histogram sample per stage kind.

    ``stage_seconds`` maps a task kind, which names its stage
    (``"mpnn_generate"``, ``"af_inference"``, ...), to the simulated seconds
    that kind consumed during the cycle — the per-stage breakdown behind the
    paper's phase accounting, reconstructed at the stepping boundary instead
    of from the profiler afterwards.
    """
    if active_writer() is None:
        return
    for stage in sorted(stage_seconds):
        metrics.histogram(
            "campaign.stage_seconds", stage_seconds[stage], stage=stage, **attrs
        )
