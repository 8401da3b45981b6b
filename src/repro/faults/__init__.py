"""Deterministic fault injection for the store/orchestrate durability stack.

The recovery machinery built up through the store and orchestrate layers —
append-only torn-tail healing, ``O_EXCL`` claims, heartbeat leases, cycle
checkpoints — carries a byte-identity contract, but hand-written failure
tests only exercise the fault *sites someone thought of*.  This package
makes the fault space systematic and replayable:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: a seeded schedule mapping
  ``(site, Nth crossing)`` to a named fault (``io_error``, ``enospc``,
  ``torn_write``, ``crash_after_write``, ``crash_before_rename``,
  ``slow_io``, ``clock_skew``), serialisable through the ``REPRO_FAULTS``
  environment variable so worker *subprocesses* inherit it;
* :mod:`repro.faults.registry` — the ``failpoint(site)`` crossings threaded
  through every durability-critical seam (store appends, checkpoint saves,
  claim/steal/refresh, done/failed markers), free when disabled.

The chaos soak harness (``python -m repro.orchestrate chaos``) drives a real
multi-worker sweep under a plan plus seeded worker SIGKILLs and asserts the
finalized store is byte-identical to a clean serial run — the distributed
determinism contract, proven under arbitrary seeded fault schedules.
"""

from repro._lazy import lazy_namespace

#: Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    "FAULT_KINDS": "plan",
    "FAULTS_ENV": "plan",
    "FaultEvent": "plan",
    "FaultPlan": "plan",
    "ForcedFault": "plan",
    "SITE_KINDS": "registry",
    "activate": "registry",
    "active_plan": "registry",
    "crash": "registry",
    "deactivate": "registry",
    "failpoint": "registry",
    "injected_plan": "registry",
    "raise_error": "registry",
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
