"""Per-layer tracing from the benchmark's own code.

``Tracer.install`` wraps each layer's public entry points (table ``LAYERS``)
for the duration of one traced iteration and ``uninstall`` puts the
originals back; nothing under ``src/`` knows it is being traced.  Each
wrapped call on the main thread records a span ``(name, layer, start, end,
parent)`` in memory.  A layer's self time is its spans' time minus the time
of their child spans (``self_times``); time outside every span is
unattributed.  Calls made on other threads (the orchestrate heartbeat) run
unwrapped.

A few hot functions are counted instead of spanned (``COUNTERS``): the
coordinator calls ``composite_score`` tens of thousands of times per
campaign, and a span per call would dwarf the call itself.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``(layer, module, attribute path)`` of every spanned entry point.  A
#: function is wrapped wherever a ``repro`` module holds it (modules import
#: names directly) and where a function's keyword default holds it.
LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("protein.targets", (
        ("repro.experiments.spec", "TargetSpec.build"),
        ("repro.protein.datasets", "expanded_pdz_set"),
        ("repro.protein.datasets", "named_pdz_targets"),
    )),
    ("protein.mpnn", (("repro.protein.mpnn", "SurrogateProteinMPNN.generate"),)),
    ("protein.fold", (
        ("repro.protein.folding", "SurrogateAlphaFold.predict"),
        ("repro.protein.folding", "SurrogateAlphaFold.predict_batch"),
    )),
    ("protein.score", (("repro.protein.scoring", "ScoringFunction.score"),)),
    ("hpc.loop", (
        ("repro.hpc.events", "EventLoop.run"),
        ("repro.hpc.events", "EventLoop.run_until"),
    )),
    ("hpc.alloc", (
        ("repro.hpc.allocation", "NodeAllocator.allocate"),
        ("repro.hpc.allocation", "NodeAllocator.release"),
        ("repro.hpc.scheduler", "PlacementScheduler.try_place"),
    )),
    ("runtime", (
        ("repro.runtime.task_manager", "TaskManager.submit_tasks"),
        ("repro.runtime.agent", "Agent.submit"),
        ("repro.runtime.sequential", "SequentialRunner.run_task"),
    )),
    ("core.pipeline", (
        ("repro.core.pipeline", "Pipeline.start"),
        ("repro.core.pipeline", "Pipeline.advance"),
    )),
    ("core.control", (("repro.core.control", "ControlProtocol.step_cycle"),)),
    ("core.snapshot", (
        ("repro.core.control", "ControlProtocol.snapshot"),
        ("repro.core.control", "ControlProtocol.restore"),
    )),
    ("experiments", (
        ("repro.experiments.suite", "execute_run"),
        ("repro.experiments.suite", "CampaignSuite.run"),
    )),
    ("store", (
        ("repro.store.runstore", "RunStore.append"),
        ("repro.store.runstore", "RunStore.get"),
        ("repro.store.fingerprint", "run_fingerprint"),
        ("repro.store.runstore", "merge_stores"),
        ("repro.store.checkpoint", "CheckpointStore.save"),
        ("repro.store.checkpoint", "CheckpointStore.latest_restorable"),
    )),
    ("orchestrate", (
        ("repro.orchestrate.queue", "WorkQueue.create"),
        ("repro.orchestrate.worker", "run_worker"),
        ("repro.orchestrate.lease", "try_claim"),
        ("repro.orchestrate.lease", "try_steal"),
        ("repro.orchestrate.queue", "WorkQueue.mark_done"),
        ("repro.orchestrate.coordinator", "finalize_queue"),
    )),
)

#: Callbacks handed to the event loop or the task manager run in the layer
#: of the module that defines them: the agent's placement and completion
#: events, and the coordinator's task-state callback (its decision step).
CALLBACK_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.runtime.", "runtime"),
    ("repro.core.coordinator", "core.coordinator"),
)

#: ``(counter, module, attribute path)`` of counted, not spanned, calls.
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("core.coordinator.composite_calls", "repro.core.coordinator", "composite_score"),
    ("core.coordinator.decisions", "repro.core.coordinator",
     "PipelinesCoordinator._decision_step"),
    ("core.coordinator.spawned", "repro.core.coordinator",
     "PipelinesCoordinator._spawn_subpipeline"),
    ("core.snapshot.snapshots", "repro.core.control", "ControlProtocol.snapshot"),
)

LAYER_NAMES: Tuple[str, ...] = tuple(layer for layer, _ in LAYERS) + (
    "core.coordinator",
)

#: A span: ``(name, layer, start, end, parent index or None)``.
Span = Tuple[str, str, float, float, Optional[int]]


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, layer, start, end, parent) in enumerate(spans):
        totals[layer] += (end - start) - child_time[index]
    return dict(totals)


def unattributed_time(spans: Sequence[Span], wall_seconds: float) -> float:
    """Wall time outside every top-level span."""
    return wall_seconds - sum(
        end - start for _, _, start, end, parent in spans if parent is None
    )


def idle_time(spans: Sequence[Span], outer: str, inner: str) -> float:
    """Time inside ``outer`` spans that no ``inner`` span within them covers."""
    in_outer = [False] * len(spans)
    in_inner = [False] * len(spans)
    total = 0.0
    for index, (name, _, start, end, parent) in enumerate(spans):
        if parent is not None:
            in_outer[index] = in_outer[parent] or spans[parent][0] == outer
            in_inner[index] = in_inner[parent] or spans[parent][0] == inner
        if name == outer and not in_outer[index]:
            total += end - start
        elif name == inner and in_outer[index] and not in_inner[index]:
            total -= end - start
    return total


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)``; raises if the entry point is absent."""
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


class Tracer:
    """Installs the wrappers and collects one iteration's spans and counts."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Entry points this build of the program does not have.
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._main = threading.get_ident()
        self._undo: List[Tuple[Any, str, Any, bool]] = []
        self._platforms: List[Any] = []

    # -- recording ------------------------------------------------------------ #

    def _spanned(self, fn: Callable, name: str, layer: str,
                 on_return: Optional[Callable[[Any], None]] = None) -> Callable:
        spans, stack, main = self.spans, self._stack, self._main

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, layer, start, end, parent)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _counted(self, fn: Callable, counter: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _callback(self, callback: Callable) -> Callable:
        """Wrap a scheduled or registered callback in its module's layer."""
        module = getattr(callback, "__module__", None) or ""
        for prefix, layer in CALLBACK_LAYERS:
            if module.startswith(prefix):
                return self._spanned(callback, callback.__qualname__, layer)
        return callback

    # -- extra per-layer quantities ------------------------------------------ #

    def _on_advance(self, step: Any) -> None:
        cycle = getattr(step, "completed_cycle", None)
        if cycle is not None:
            self.counts["core.pipeline.cycles"] += 1
            self.counts["core.pipeline.accepted"] += bool(cycle.accepted)

    def _on_task(self, result: Any) -> None:
        self.counts["runtime.tasks"] += 1

    def _on_checkpoint(self, path: Any) -> None:
        self.counts["store.checkpoint_saves"] += 1
        try:
            self.counts["store.checkpoint_bytes"] += path.stat().st_size
        except OSError:
            pass

    def _on_loop(self, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(loop: Any, *args: Any, **kwargs: Any) -> Any:
            before = loop.processed
            try:
                return fn(loop, *args, **kwargs)
            finally:
                counts["hpc.events"] += loop.processed - before

        return wrapper

    def event_log_records(self) -> int:
        """Records in the simulated event logs of this iteration's platforms."""
        total = 0
        for platform in self._platforms:
            log = getattr(platform, "event_log", None)
            if log is not None:
                total += len(log)
        return total

    # -- patching ------------------------------------------------------------- #

    def _set(self, owner: Any, name: str, value: Any) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name], True))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name], False))
            setattr(owner, name, value)

    def _patch_function(self, module_name: str, path: str,
                        make: Callable[[Callable], Callable],
                        everywhere: bool = True) -> None:
        try:
            owner, name, raw = _resolve(module_name, path)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module_name}:{path}")
            return
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                self._set(owner, name, classmethod(make(raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(owner, name, staticmethod(make(raw.__func__)))
            else:
                self._set(owner, name, make(raw))
            return
        wrapped = make(raw)
        if not everywhere:
            self._set(owner, name, wrapped)
            return
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not getattr(module, "__name__", "").startswith("repro") or namespace is None:
                continue
            for key, value in list(namespace.items()):
                if value is raw:
                    self._set(namespace, key, wrapped)
                elif callable(value) and getattr(value, "__kwdefaults__", None):
                    defaults = value.__kwdefaults__
                    for argument, default in list(defaults.items()):
                        if default is raw:
                            self._set(defaults, argument, wrapped)

    def install(self) -> None:
        """Wrap every entry point; call ``uninstall`` after the iteration."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self._platforms = []
        self.missing = []
        extras = {
            "Pipeline.advance": self._on_advance,
            "Agent.submit": self._on_task,
            "SequentialRunner.run_task": self._on_task,
            "CheckpointStore.save": self._on_checkpoint,
        }
        for counter, module_name, path in COUNTERS:
            self._patch_function(
                module_name, path,
                lambda fn, counter=counter: self._counted(fn, counter),
                everywhere=False,
            )
        for layer, entries in LAYERS:
            for module_name, path in entries:
                on_return = extras.get(path)
                self._patch_function(
                    module_name, path,
                    lambda fn, path=path, layer=layer, on_return=on_return:
                        self._spanned(fn, path, layer, on_return),
                )
        for path in ("EventLoop.run", "EventLoop.run_until"):
            self._patch_function("repro.hpc.events", path, self._on_loop)
        self._patch_function("repro.hpc.events", "EventLoop.schedule_at",
                             self._wrap_schedule_at)
        self._patch_function("repro.runtime.task_manager",
                             "TaskManager.register_callback",
                             self._wrap_register_callback)
        self._patch_function("repro.hpc.platform", "ComputePlatform.__init__",
                             self._wrap_platform_init)

    def _wrap_schedule_at(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def schedule_at(loop: Any, time: float, callback: Callable,
                        *args: Any, **kwargs: Any) -> Any:
            return fn(loop, time, tracer._callback(callback), *args, **kwargs)

        return schedule_at

    def _wrap_register_callback(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def register_callback(manager: Any, callback: Callable) -> Any:
            return fn(manager, tracer._callback(callback))

        return register_callback

    def _wrap_platform_init(self, fn: Callable) -> Callable:
        platforms = self._platforms

        @functools.wraps(fn)
        def __init__(platform: Any, *args: Any, **kwargs: Any) -> None:
            fn(platform, *args, **kwargs)
            platforms.append(platform)

        return __init__

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            owner, name, original, is_dict = self._undo.pop()
            if is_dict:
                owner[name] = original
            else:
                setattr(owner, name, original)
