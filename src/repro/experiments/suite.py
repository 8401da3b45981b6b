"""The campaign-suite engine: parallel fan-out of a sweep's campaign runs.

Campaign runs are independent simulations (separate platforms, separate RNG
streams), i.e. embarrassingly parallel: :class:`CampaignSuite` fans the
expanded :class:`~repro.experiments.spec.RunSpec` list out over a
``ProcessPoolExecutor`` and aggregates the per-run
:class:`~repro.core.results.CampaignResult` objects into a
:class:`SuiteResult`.  Determinism is preserved — every run builds its
campaign from the declarative spec, so a run inside a suite is identical to
running that campaign alone, regardless of executor or worker count.  Pool
workers build each run's targets too; the serial executor builds each
distinct target set once per :meth:`CampaignSuite.run` call
(:func:`~repro.experiments.spec.shared_target_builds`) and its runs share
those targets read-only.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Executor, ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.campaign import CampaignState, DesignCampaign
from repro.core.results import CampaignResult
from repro.exceptions import CampaignError
from repro.experiments.spec import RunSpec, SweepSpec, shared_target_builds

__all__ = [
    "SUITE_SCHEMA_VERSION",
    "SuiteRunRecord",
    "SuiteResult",
    "CampaignSuite",
    "execute_run",
]

#: Supported executor kinds.
EXECUTORS = ("serial", "process", "thread")

#: Version stamped into :meth:`SuiteResult.as_dict` (and the ``--json`` CLI
#: export).  Bump when the export layout changes incompatibly; consumers can
#: distinguish stamped exports from pre-versioning ones (which lack the key)
#: and from :mod:`repro.store` files (whose lines are fingerprint-keyed run
#: records, not suite aggregates).
SUITE_SCHEMA_VERSION = 1


def execute_run(
    spec: RunSpec,
    *,
    resume_state: Optional[CampaignState] = None,
    on_cycle: Optional[Callable[[CampaignState], None]] = None,
) -> Tuple[CampaignResult, float]:
    """Execute one run spec and return ``(result, wall_seconds)``.

    Module-level so it is picklable as a process-pool work item.  The
    campaign is built from the declarative spec inside the worker, and so are
    the targets, unless an open
    :func:`~repro.experiments.spec.shared_target_builds` scope (a serial
    suite run, a worker drain) already built them; campaigns only read them.

    ``resume_state`` continues an interrupted campaign from a saved
    :class:`~repro.core.campaign.CampaignState` (the result is byte-identical
    to an uninterrupted run; ``wall_seconds`` honestly covers only the
    resumed portion — the one field ``--strip-timing`` zeroes).  ``on_cycle``
    observes every cycle-boundary state — the orchestration worker's
    checkpoint streaming hook.
    """
    start = time.perf_counter()
    campaign = DesignCampaign(spec.targets.build(), spec.campaign_config())
    result = campaign.run_stepwise(resume_from=resume_state, on_state=on_cycle)
    return result, time.perf_counter() - start


@dataclass(frozen=True)
class SuiteRunRecord:
    """One finished run: its spec, its result, and its own wall-clock time.

    ``cached`` marks records satisfied from a :class:`repro.store.RunStore`
    instead of being executed; their ``result`` is then a stored result view
    (duck-typed, bit-identical ``as_dict`` payload for seeded runs) and
    ``wall_seconds`` is the wall-clock time of the *original* execution.
    """

    spec: RunSpec
    result: CampaignResult
    wall_seconds: float
    cached: bool = False

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "wall_seconds": self.wall_seconds,
            "cached": self.cached,
            "result": self.result.as_dict(),
        }


@dataclass
class SuiteResult:
    """Aggregate outcome of one suite execution."""

    records: List[SuiteRunRecord]
    wall_seconds: float
    executor: str
    n_workers: int
    #: How many records came out of the run store instead of being executed.
    n_cached: int = 0

    @property
    def results(self) -> List[CampaignResult]:
        return [record.result for record in self.records]

    @property
    def n_runs(self) -> int:
        return len(self.records)

    @property
    def n_executed(self) -> int:
        return self.n_runs - self.n_cached

    @property
    def total_run_seconds(self) -> float:
        """Sum of per-run wall-clock times (the serial-equivalent cost)."""
        return sum(record.wall_seconds for record in self.records)

    @property
    def speedup(self) -> float:
        """Aggregate per-run time over suite wall-clock time.

        For a parallel execution this estimates the speedup over running the
        same runs back-to-back; for a serial execution it is ~1 minus the
        engine's own overhead.
        """
        if self.wall_seconds <= 0:
            return float("nan")
        return self.total_run_seconds / self.wall_seconds

    def as_dict(self) -> dict:
        return {
            "schema_version": SUITE_SCHEMA_VERSION,
            "executor": self.executor,
            "n_workers": self.n_workers,
            "n_runs": self.n_runs,
            "n_cached": self.n_cached,
            "wall_seconds": self.wall_seconds,
            "total_run_seconds": self.total_run_seconds,
            "speedup": self.speedup,
            "runs": [record.as_dict() for record in self.records],
        }


@dataclass
class CampaignSuite:
    """Executes every run of a :class:`SweepSpec`, optionally in parallel.

    Attributes
    ----------
    spec:
        The sweep to execute.
    executor:
        ``"process"`` (default; one OS process per worker — true parallelism
        for these CPU-bound simulations), ``"thread"`` (lighter weight, GIL
        bound; useful for tests), or ``"serial"`` (in-process, no pool — the
        baseline the speedup is measured against).
    max_workers:
        Pool size; defaults to ``min(n_runs, os.cpu_count())``.
    shard:
        Optional ``(index, count)`` pair restricting this suite to the
        deterministic strided shard ``expand()[index::count]`` of the sweep —
        the cross-machine partition (each machine runs one shard against its
        own store file; :func:`repro.store.merge_stores` combines them).
    """

    spec: SweepSpec
    executor: str = "process"
    max_workers: Optional[int] = None
    shard: Optional[Tuple[int, int]] = None
    _run_specs: List[RunSpec] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise CampaignError(
                f"executor must be one of {list(EXECUTORS)}, got {self.executor!r}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise CampaignError("max_workers must be >= 1")
        self._run_specs = self.spec.expand()
        if self.shard is not None:
            index, count = self.shard
            if count < 1 or not 0 <= index < count:
                raise CampaignError(
                    f"shard must be (index, count) with 0 <= index < count, "
                    f"got {self.shard!r} (shards are zero-based: the first of "
                    "two shards has index 0)"
                )
            if index >= len(self._run_specs):
                raise CampaignError(
                    f"shard {self.shard!r} selects none of the sweep's "
                    f"{len(self._run_specs)} runs"
                )
            # Strided partition: deterministic, order-based (never hash-based),
            # balanced to within one run across shards.
            self._run_specs = self._run_specs[index::count]

    @property
    def run_specs(self) -> List[RunSpec]:
        return list(self._run_specs)

    @property
    def n_runs(self) -> int:
        return len(self._run_specs)

    def _resolve_workers(self, n_pending: int) -> int:
        if self.executor == "serial":
            return 1
        if self.max_workers is not None:
            return max(1, min(self.max_workers, n_pending))
        return max(1, min(n_pending, os.cpu_count() or 1))

    def run(self, store=None) -> SuiteResult:
        """Execute every run and return the aggregated :class:`SuiteResult`.

        Results are returned in sweep order irrespective of completion order.
        A failing run aborts the suite with a :class:`CampaignError` naming
        the run id (fail fast: a failed scenario means the matrix is wrong).

        ``store`` (optionally) is a :class:`repro.store.RunStore` — or any
        object with the same ``fingerprint`` / ``__contains__`` / ``get`` /
        ``append`` surface; the suite stays import-free of the store layer.
        With a store attached:

        * runs whose :func:`~repro.store.fingerprint.run_fingerprint` is
          already stored are *not* executed — their cached records (marked
          ``cached=True``) are merged into the result in sweep position, so
          re-running an edited sweep executes only the new cells;
        * every freshly finished run is streamed to the store the moment it
          completes (append + flush, in completion order), so a crash or
          interrupt loses at most the in-flight runs and the next invocation
          resumes from the survivors.
        """
        start = time.perf_counter()
        specs = self._run_specs
        cached: Dict[int, SuiteRunRecord] = {}
        pending: List[Tuple[int, RunSpec, Optional[str]]] = []
        if store is None:
            pending = [(i, spec, None) for i, spec in enumerate(specs)]
        else:
            for i, spec in enumerate(specs):
                fingerprint = store.fingerprint(spec)
                if fingerprint in store:
                    cached[i] = store.get(fingerprint).as_record(spec=spec)
                else:
                    pending.append((i, spec, fingerprint))
        n_workers = self._resolve_workers(len(pending))
        fresh: Dict[int, SuiteRunRecord] = {}
        if pending:
            if self.executor == "serial":
                with shared_target_builds():
                    for i, spec, fingerprint in pending:
                        result, seconds = execute_run(spec)
                        fresh[i] = self._finish(spec, result, seconds, store, fingerprint)
            else:
                fresh = self._run_pooled(n_workers, pending, store)
        wall = time.perf_counter() - start
        records = [
            cached[i] if i in cached else fresh[i] for i in range(len(specs))
        ]
        return SuiteResult(
            records=records,
            wall_seconds=wall,
            executor=self.executor,
            n_workers=n_workers,
            n_cached=len(cached),
        )

    @staticmethod
    def _finish(
        spec: RunSpec,
        result: CampaignResult,
        seconds: float,
        store,
        fingerprint: Optional[str],
    ) -> SuiteRunRecord:
        """Build the record for a finished run and stream it to the store."""
        record = SuiteRunRecord(spec=spec, result=result, wall_seconds=seconds)
        if store is not None:
            store.append(record, fingerprint=fingerprint)
        return record

    def _run_pooled(
        self,
        n_workers: int,
        pending: List[Tuple[int, RunSpec, Optional[str]]],
        store,
    ) -> Dict[int, SuiteRunRecord]:
        pool: Executor
        if self.executor == "process":
            # Imported here: it loads multiprocessing, which serial and
            # thread suites never need.
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=n_workers)
        else:
            pool = ThreadPoolExecutor(max_workers=n_workers)
        fresh: Dict[int, SuiteRunRecord] = {}
        with pool:
            futures = {
                pool.submit(execute_run, spec): (i, spec, fingerprint)
                for i, spec, fingerprint in pending
            }
            try:
                # Consume in completion order so finished runs stream to the
                # store immediately and the first failure aborts the matrix as
                # soon as it surfaces (queued remainder cancelled, not run).
                for future in as_completed(futures):
                    i, spec, fingerprint = futures[future]
                    error = future.exception()
                    if error is not None:
                        raise CampaignError(
                            f"suite run {spec.run_id!r} failed: {error}"
                        ) from error
                    result, seconds = future.result()
                    fresh[i] = self._finish(spec, result, seconds, store, fingerprint)
            except BaseException:
                # Any abort (failed run, store-append error, interrupt) must
                # cancel the queued remainder, not silently execute it.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        return fresh
