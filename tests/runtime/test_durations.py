"""Tests for the task duration model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.hpc.resources import ResourceRequest
from repro.runtime.durations import (
    DurationModel,
    KindProfile,
    TaskKind,
    profile_for,
    request_for,
)
from repro.runtime.task import TaskDescription
from repro.utils.rng import spawn_rng


def _description(kind: TaskKind, name: str = "t", **metadata) -> TaskDescription:
    return TaskDescription(
        name=name, kind=kind.value, request=request_for(kind), metadata=metadata
    )


class TestDefaultProfiles:
    def test_msa_is_the_longest_phase(self):
        model = DurationModel()
        msa = model.duration(_description(TaskKind.AF_MSA, "msa"))
        inference = model.duration(_description(TaskKind.AF_INFERENCE, "inf"))
        mpnn = model.duration(_description(TaskKind.MPNN_GENERATE, "gen"))
        rank = model.duration(_description(TaskKind.SEQUENCE_RANK, "rank"))
        assert msa > inference > mpnn > rank

    def test_msa_is_cpu_only_and_inference_uses_gpu(self):
        assert request_for(TaskKind.AF_MSA).gpus == 0
        assert request_for(TaskKind.AF_MSA).cpu_cores >= 4
        assert request_for(TaskKind.AF_INFERENCE).gpus == 1
        assert request_for(TaskKind.MPNN_GENERATE).gpus == 1

    def test_unknown_kind_raises(self):
        # A kind names a pipeline stage; there is no catch-all profile.
        model = DurationModel()
        description = TaskDescription(
            name="weird", kind="not-a-kind", request=ResourceRequest(cpu_cores=1)
        )
        with pytest.raises(ConfigurationError, match="unknown task kind 'not-a-kind'"):
            model.duration(description)
        with pytest.raises(ConfigurationError, match="unknown task kind 'generic'"):
            request_for("generic")


class TestScaling:
    def test_more_sequences_cost_more(self):
        model = DurationModel()
        small = model.duration(_description(TaskKind.MPNN_GENERATE, "a", n_sequences=1))
        large = model.duration(_description(TaskKind.MPNN_GENERATE, "a", n_sequences=40))
        assert large > small

    def test_selection_time_ignores_the_sequence_count(self):
        # Selection compiles the one selected design, and its builder sets no
        # n_sequences: 19.5 s before jitter, whatever the metadata says.
        model = DurationModel(seed=1)
        jitter = float(np.exp(spawn_rng(1, "duration", "s").normal(loc=0.0, scale=0.05)))
        durations = {
            model.duration(_description(TaskKind.SEQUENCE_SELECT, "s", **metadata))
            for metadata in ({}, {"n_sequences": 1}, {"n_sequences": 6}, {"n_sequences": 40})
        }
        assert len(durations) == 1
        assert durations.pop() == 19.5 * jitter

    def test_longer_proteins_cost_more(self):
        model = DurationModel()
        short = model.duration(_description(TaskKind.AF_INFERENCE, "a", n_residues=80))
        long = model.duration(_description(TaskKind.AF_INFERENCE, "a", n_residues=400))
        assert long > short

    def test_msa_duration_includes_the_database_read(self):
        # 3000 s base plus 60 GB over 24 files at 2 GB/s and 20 ms per file,
        # times the task's log-normal jitter (sigma 0.12), keyed by its name.
        model = DurationModel(seed=4)
        jitter = math.exp(spawn_rng(4, "duration", "m").normal(loc=0.0, scale=0.12))
        expected = (3000.0 + 60.0 / 2.0 + 24 * 0.02) * jitter
        assert model.duration(_description(TaskKind.AF_MSA, "m")) == pytest.approx(expected)

    def test_speedup_divides_duration(self):
        slow = DurationModel(seed=1, speedup=1.0)
        fast = DurationModel(seed=1, speedup=100.0)
        description = _description(TaskKind.AF_MSA, "m")
        assert fast.duration(description) == pytest.approx(
            slow.duration(description) / 100.0
        )

    def test_duration_always_positive(self):
        model = DurationModel(speedup=1e9)
        assert model.duration(_description(TaskKind.COMPARE, "c")) > 0


class TestDeterminism:
    def test_same_name_same_duration(self):
        model = DurationModel(seed=3)
        a = model.duration(_description(TaskKind.AF_MSA, "pipeline.c0.msa"))
        b = model.duration(_description(TaskKind.AF_MSA, "pipeline.c0.msa"))
        assert a == b

    def test_different_names_jitter_differently(self):
        model = DurationModel(seed=3)
        a = model.duration(_description(TaskKind.AF_MSA, "task-a"))
        b = model.duration(_description(TaskKind.AF_MSA, "task-b"))
        assert a != b

    def test_seed_changes_jitter(self):
        description = _description(TaskKind.AF_MSA, "same-name")
        assert DurationModel(seed=1).duration(description) != DurationModel(seed=2).duration(description)


class TestValidation:
    def test_invalid_speedup(self):
        # NaN passes a ``<= 0`` check and would make every duration NaN.
        for speedup in (0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigurationError, match="finite and positive"):
                DurationModel(speedup=speedup)

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            KindProfile(base_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            KindProfile(base_seconds=1.0, jitter_sigma=-0.1)

    @pytest.mark.parametrize(
        "field",
        [
            "base_seconds",
            "per_sequence_seconds",
            "per_residue_seconds",
            "io_gigabytes",
            "jitter_sigma",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_profile_rejects_non_finite_or_negative_numbers(self, field, value):
        # A NaN base_seconds or a negative per_sequence_seconds used to put
        # every task of the kind on the 1 ms floor; a NaN jitter_sigma or
        # io_gigabytes was skipped without a word.
        with pytest.raises(ConfigurationError, match=field):
            KindProfile(**{"base_seconds": 1.0, field: value})

    def test_member_and_value_find_the_same_profile(self):
        for kind in TaskKind:
            assert profile_for(kind) is profile_for(kind.value)
            assert request_for(kind) is profile_for(kind).request
