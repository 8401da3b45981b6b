"""Persistent run store: streaming results, RunSpec-keyed caching, shard merging.

Where :mod:`repro.experiments` *executes* scenario matrices, this package
makes them durable artifacts:

* :mod:`repro.store.fingerprint` — canonical JSON + sha256 content identity
  for :class:`~repro.experiments.spec.RunSpec` (stable across processes,
  hash seeds and knob-dict ordering).
* :mod:`repro.store.runstore` — :class:`RunStore`, an append-only JSONL file
  of finished runs keyed by fingerprint, with lazy loads, crash-safe appends
  and :func:`merge_stores` for combining shards.
* :mod:`repro.store.checkpoint` — :class:`CheckpointStore`, fingerprint-keyed
  per-cycle campaign checkpoints (atomic replace, torn-line fallback to the
  previous cycle, schema-versioned) backing mid-run suspend/resume and
  preemptive work stealing.
* :mod:`repro.store.cli` — ``python -m repro.store`` (``inspect`` / ``merge``
  / ``report`` / ``prune``).

Resumable sweep in four lines::

    from repro.experiments import CampaignSuite, SweepSpec
    from repro.store import RunStore

    store = RunStore("sweep.jsonl")
    outcome = CampaignSuite(SweepSpec(seeds=(0, 1, 2))).run(store=store)
    # edit the sweep, re-run: only the new cells execute
    outcome = CampaignSuite(SweepSpec(seeds=(0, 1, 2, 3))).run(store=store)
"""

from repro._lazy import lazy_namespace

#: Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    "CHECKPOINT_SCHEMA_VERSION": "checkpoint",
    "CheckpointStore": "checkpoint",
    "decode_run_spec": "codec",
    "encode_run_spec": "codec",
    "canonical_json": "fingerprint",
    "run_fingerprint": "fingerprint",
    "STORE_SCHEMA_VERSION": "runstore",
    "RunStore": "runstore",
    "StoredCampaignResult": "runstore",
    "StoredRun": "runstore",
    "merge_stores": "runstore",
    "prune_store": "runstore",
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
