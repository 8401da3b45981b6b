"""The benchmark's tracer still finds every entry point it wraps.

``perfledger/spans.py`` attributes self time to layers by wrapping named
functions and the callbacks registered through
``TaskManager.register_callback``.  A refactor that renames or deletes one of
them does not fail a traced run: the tracer lists it in ``missing``, prints
one line, and that layer's time silently moves to its caller.  These tests
make such a refactor fail instead.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from repro.core.coordinator import CoordinatorConfig, PipelinesCoordinator
from repro.core.pipeline import PipelineConfig
from repro.hpc.platform import ComputePlatform
from repro.hpc.resources import amarel_platform
from repro.runtime.task_manager import TaskManager

PERFLEDGER = Path(__file__).resolve().parents[2] / "perfledger"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFLEDGER))
    return importlib.import_module("spans")


def test_every_traced_entry_point_exists(spans):
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_coordinator_callback_is_timed_in_its_own_layer(
    spans, durations, factory, four_targets
):
    tracer = spans.Tracer()
    try:
        tracer.install()
        coordinator = PipelinesCoordinator(
            TaskManager(ComputePlatform(amarel_platform(1)), durations),
            factory,
            CoordinatorConfig(pipeline=PipelineConfig(n_cycles=1, n_sequences=4)),
        )
        coordinator.add_targets(four_targets[:1])
        coordinator.run()
    finally:
        tracer.uninstall()
    self_times = spans.self_times([span for span in tracer.spans if span is not None])
    assert self_times.get("core.coordinator", 0.0) > 0.0
    assert self_times.get("runtime", 0.0) > 0.0
