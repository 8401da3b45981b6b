"""Fault-tolerant multi-worker sweep orchestration with dynamic work stealing.

Where :mod:`repro.experiments` executes a sweep inside one process and
:mod:`repro.store` makes the results durable, this package coordinates *many
worker processes* — on one machine or many nodes sharing a filesystem — so
uneven run times stop costing wall-clock: the pilot-style pattern of the
paper's IM-RP runtime, applied to the reproduction's own campaign sweeps.

* :mod:`repro.orchestrate.queue` — the shared queue directory: an expanded
  sweep manifest plus fingerprint-keyed claim/done marker files, all mutated
  with atomic filesystem primitives (``O_EXCL`` create, temp + rename).  No
  network, no server.
* :mod:`repro.orchestrate.lease` — heartbeat leases over claim files: live
  workers keep their claims fresh; claims of crashed or stalled workers
  expire and are *stolen* by survivors, so no run is ever lost.
* :mod:`repro.orchestrate.worker` — the claim/execute/stream/mark-done loop
  (``python -m repro.orchestrate worker``), streaming finished runs into a
  per-worker :class:`~repro.store.RunStore`.
* :mod:`repro.orchestrate.coordinator` — ``status`` progress snapshots and
  ``finalize``, which merges the per-worker stores into one canonical,
  fingerprint-sorted store feeding
  :func:`repro.analysis.comparison.protocol_matrix_from_store`.
* :mod:`repro.orchestrate.chaos` — the soak harness
  (``python -m repro.orchestrate chaos``): a real multi-worker sweep under a
  seeded :class:`~repro.faults.FaultPlan` plus adversary SIGKILLs, verified
  byte-for-byte against a clean serial run.
* :mod:`repro.orchestrate.scaling` — the scaling-study harness
  (``python -m repro.orchestrate scale``): the same sweep at each requested
  fleet size under tracing, byte-compared across sizes and reduced to the
  paper-style speedup/utilization table.

Determinism contract, extended to distributed execution: for a fixed sweep
the finalized store's science bytes are independent of worker count, claim
interleaving and steal history, and (timing stripped) byte-identical to a
canonicalised serial ``CampaignSuite.run(store=...)`` store.
"""

from repro._lazy import lazy_namespace

#: Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    "ChaosReport": "chaos",
    "run_chaos": "chaos",
    "finalize_queue": "coordinator",
    "queue_progress": "coordinator",
    "ClaimLease": "lease",
    "Heartbeat": "lease",
    "HeartbeatError": "lease",
    "read_lease": "lease",
    "release_claim": "lease",
    "try_claim": "lease",
    "try_steal": "lease",
    "QueueEntry": "queue",
    "WorkQueue": "queue",
    "validate_worker_id": "queue",
    "ScalingRun": "scaling",
    "run_scaling_study": "scaling",
    "RunTimeout": "worker",
    "WorkerOutcome": "worker",
    "default_worker_id": "worker",
    "run_worker": "worker",
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
