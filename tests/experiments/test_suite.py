"""Tests for the experiments layer: sweep specs and the parallel suite engine."""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.comparison import protocol_matrix
from repro.analysis.reporting import format_protocol_matrix
from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.exceptions import CampaignError
from repro.experiments import (
    CampaignSuite,
    RunSpec,
    SuiteRunRecord,
    SweepSpec,
    TargetSpec,
    execute_run,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.spec import shared_target_builds
from repro.store import RunStore, prune_store
from repro.utils.serialization import to_jsonable

#: Small-but-real sweep shared by the engine tests: 4 protocols x 2 seeds = 8
#: (protocol, seed) combinations, one design cycle each to keep it fast.
SMALL_SWEEP = SweepSpec(
    protocols=("im-rp", "cont-v", "im-rp-random", "cont-v-ranked"),
    seeds=(3, 5),
    targets=TargetSpec(kind="named-pdz", seed=11),
    base={"n_cycles": 1, "n_sequences": 4},
)


class TestTargetSpec:
    def test_named_pdz_build(self):
        targets = TargetSpec(kind="named-pdz", seed=11).build()
        assert [t.name for t in targets] == ["NHERF3", "HTRA1", "SCRIB", "SHANK1"]

    def test_expanded_pdz_build(self):
        targets = TargetSpec(kind="expanded-pdz", seed=2, n_targets=3).build()
        assert [t.name for t in targets] == ["PDZ_001", "PDZ_002", "PDZ_003"]

    def test_build_is_deterministic(self):
        spec = TargetSpec(kind="named-pdz", seed=4)
        first, second = spec.build(), spec.build()
        assert [t.seed for t in first] == [t.seed for t in second]

    def test_invalid_kind_rejected(self):
        with pytest.raises(CampaignError, match="target kind"):
            TargetSpec(kind="kinases")

    def test_target_count_must_be_positive(self):
        with pytest.raises(CampaignError, match="n_targets"):
            TargetSpec(kind="expanded-pdz", n_targets=0)

    @pytest.mark.parametrize("peptide", ["", "XZ1", "epea"])
    def test_invalid_peptide_rejected(self, peptide):
        """Rejected at spec time, not as a ``SequenceError`` in a worker."""
        with pytest.raises(CampaignError, match="peptide"):
            TargetSpec(kind="expanded-pdz", peptide=peptide)

    def test_explicit_peptide_builds(self):
        (target,) = TargetSpec(
            kind="expanded-pdz", seed=2, n_targets=1, peptide="EPEA"
        ).build()
        assert target.peptide_sequence == "EPEA"

    @pytest.mark.parametrize(
        "kind,residues", [("named-pdz", 90), ("named-pdz", 120), ("expanded-pdz", 80)]
    )
    def test_peptide_that_cannot_dock_rejected(self, kind, residues):
        """Rejected at spec time, not as a ``DatasetError`` in a worker's build."""
        with pytest.raises(CampaignError, match="cannot dock"):
            TargetSpec(kind=kind, seed=2025, peptide="A" * residues)

    @pytest.mark.parametrize("kind,residues", [("named-pdz", 89), ("expanded-pdz", 79)])
    def test_longest_dockable_peptide_builds(self, kind, residues):
        targets = TargetSpec(
            kind=kind, seed=2025, n_targets=3, peptide="A" * residues
        ).build()
        assert all(target.peptide_sequence == "A" * residues for target in targets)
        assert all(target.n_designable > 0 for target in targets)


class TestSweepSpec:
    def test_expand_is_full_cartesian_product(self):
        sweep = SweepSpec(
            protocols=("im-rp", "cont-v"),
            seeds=(0, 1, 2),
            knobs=({}, {"max_in_flight_pipelines": 2}),
        )
        runs = sweep.expand()
        assert len(runs) == sweep.n_runs == 2 * 3 * 2
        assert len({run.run_id for run in runs}) == len(runs)

    def test_run_ids_omit_constant_axes(self):
        runs = SweepSpec(protocols=("im-rp",), seeds=(7,)).expand()
        assert [run.run_id for run in runs] == ["im-rp-s7"]

    def test_knob_overrides_reach_campaign_config(self):
        sweep = SweepSpec(
            protocols=("im-rp",),
            seeds=(0,),
            knobs=({"max_in_flight_pipelines": 1}, {"max_in_flight_pipelines": 4}),
            base={"n_cycles": 2},
        )
        configs = [run.campaign_config() for run in sweep.expand()]
        assert [c.max_in_flight_pipelines for c in configs] == [1, 4]
        assert all(c.n_cycles == 2 for c in configs)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(CampaignError, match="unknown protocols"):
            SweepSpec(protocols=("im-rp", "nope"), seeds=(0,))

    def test_unknown_override_field_rejected(self):
        with pytest.raises(CampaignError, match="unknown CampaignConfig field"):
            SweepSpec(protocols=("im-rp",), seeds=(0,), base={"n_cyclez": 2})

    def test_reserved_override_rejected(self):
        with pytest.raises(CampaignError, match="may not override"):
            SweepSpec(protocols=("im-rp",), seeds=(0,), knobs=({"seed": 9},))

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(CampaignError):
            SweepSpec(protocols=("im-rp", "im-rp"), seeds=(0,))
        with pytest.raises(CampaignError):
            SweepSpec(protocols=("im-rp",), seeds=(0, 0))

    def test_empty_axes_rejected(self):
        with pytest.raises(CampaignError, match="at least one protocol and one seed"):
            SweepSpec(protocols=(), seeds=(0,))
        with pytest.raises(CampaignError, match="at least one protocol and one seed"):
            SweepSpec(protocols=("im-rp",), seeds=())
        with pytest.raises(CampaignError, match="at least one entry"):
            SweepSpec(protocols=("im-rp",), seeds=(0,), platform_specs=())
        with pytest.raises(CampaignError, match="at least one entry"):
            SweepSpec(protocols=("im-rp",), seeds=(0,), knobs=())


@pytest.fixture(scope="module")
def serial_outcome():
    return CampaignSuite(SMALL_SWEEP, executor="serial").run()


@pytest.fixture(scope="module")
def process_outcome():
    return CampaignSuite(SMALL_SWEEP, executor="process", max_workers=4).run()


def _record(outcome, run_id):
    """The suite record of the run named ``run_id``."""
    (record,) = [r for r in outcome.records if r.spec.run_id == run_id]
    return record


def _fingerprint(result):
    return (
        result.approach,
        result.protocol,
        result.n_pipelines,
        result.n_subpipelines,
        result.n_trajectories,
        result.makespan_hours,
        result.total_task_hours,
        result.cpu_utilization,
        result.gpu_utilization,
        tuple(sorted(result.net_deltas().items())),
    )


class TestCampaignSuite:
    def test_invalid_executor_rejected(self):
        with pytest.raises(CampaignError, match="executor"):
            CampaignSuite(SMALL_SWEEP, executor="mpi")

    def test_max_workers_must_be_positive(self):
        with pytest.raises(CampaignError, match="max_workers"):
            CampaignSuite(SMALL_SWEEP, executor="thread", max_workers=0)

    def test_serial_covers_every_combination(self, serial_outcome):
        assert serial_outcome.n_runs == 8
        assert serial_outcome.executor == "serial"
        assert {r.spec.protocol for r in serial_outcome.records} == set(
            SMALL_SWEEP.protocols
        )
        assert {r.spec.seed for r in serial_outcome.records} == set(SMALL_SWEEP.seeds)

    def test_process_pool_matches_serial_exactly(self, serial_outcome, process_outcome):
        """Parallel fan-out must not perturb any seeded per-run result."""
        assert process_outcome.n_runs == serial_outcome.n_runs
        for serial_record, process_record in zip(
            serial_outcome.records, process_outcome.records
        ):
            assert serial_record.spec == process_record.spec
            assert _fingerprint(serial_record.result) == _fingerprint(
                process_record.result
            )

    def test_suite_run_identical_to_standalone_campaign(self, process_outcome):
        """A run inside a suite equals running that campaign alone."""
        record = _record(process_outcome, "im-rp-s5")
        standalone = DesignCampaign(
            TargetSpec(kind="named-pdz", seed=11).build(),
            CampaignConfig(protocol="im-rp", seed=5, n_cycles=1, n_sequences=4),
        ).run()
        assert _fingerprint(record.result) == _fingerprint(standalone)

    def test_thread_executor_matches_serial(self, serial_outcome):
        sweep = SweepSpec(
            protocols=("cont-v",),
            seeds=(3,),
            targets=TargetSpec(kind="named-pdz", seed=11),
            base={"n_cycles": 1, "n_sequences": 4},
        )
        outcome = CampaignSuite(sweep, executor="thread", max_workers=2).run()
        want = _record(serial_outcome, "cont-v-s3")
        assert _fingerprint(outcome.records[0].result) == _fingerprint(want.result)

    def test_timing_accounting(self, process_outcome):
        assert process_outcome.wall_seconds > 0
        assert process_outcome.total_run_seconds > 0
        assert process_outcome.speedup > 0
        assert all(r.wall_seconds > 0 for r in process_outcome.records)

    @pytest.mark.parametrize("speedup", [float("nan"), float("inf")])
    def test_non_finite_speedup_fails_before_simulating(self, tmp_path, monkeypatch,
                                                        speedup):
        """A NaN or infinite speedup would simulate NaN/inf times and store
        non-JSON tokens: the sweep must fail before any campaign runs."""
        simulated = []
        real = DesignCampaign.run_stepwise

        def counting(self, *args, **kwargs):
            simulated.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(DesignCampaign, "run_stepwise", counting)
        sweep = SweepSpec(
            protocols=("cont-v", "im-rp"),
            seeds=(3,),
            targets=TargetSpec(kind="named-pdz", seed=11),
            base={"n_cycles": 1, "n_sequences": 4, "duration_speedup": speedup},
        )
        path = tmp_path / "runs.jsonl"
        with pytest.raises(CampaignError, match="duration_speedup"):
            CampaignSuite(sweep, executor="serial").run(store=RunStore(path))
        assert simulated == []
        assert not path.exists() or path.read_bytes() == b""

    def test_result_is_json_serialisable(self, serial_outcome):
        payload = to_jsonable(serial_outcome.as_dict())
        assert payload["n_runs"] == 8
        assert len(payload["runs"]) == 8

    def test_execute_run_helper(self):
        result, seconds = execute_run(SMALL_SWEEP.expand()[1])
        assert result.approach == "IM-RP"
        assert seconds > 0


def _target_digest(targets) -> str:
    """sha256 over every field of ``targets``, landscapes included."""
    digest = hashlib.sha256()

    def add(*parts):
        for part in parts:
            digest.update(part if isinstance(part, bytes) else repr(part).encode())

    for target in targets:
        structure, landscape = target.complex, target.landscape
        add(target.name, target.seed, structure.name, structure.backbone_quality,
            structure.designable_positions)
        for chain in (structure.receptor, structure.peptide):
            add(chain.sequence.residues, chain.sequence.chain_id, chain.sequence.name,
                chain.coordinates.shape, chain.coordinates.tobytes())
        add(landscape.target_name, landscape.receptor_length,
            landscape.designable_positions, landscape.native_sequence.residues,
            landscape.seed, landscape._additive.tobytes(),
            landscape._coupling_tensor.tobytes(), landscape._pairs,
            landscape._pair_a.tobytes(), landscape._pair_b.tobytes(),
            landscape._calibration)
    return digest.hexdigest()


def _bump(array):
    array[(0,) * array.ndim] += 1.0


#: One in-place edit per field family the digest must see.
_TARGET_EDITS = {
    "backbone_quality": lambda t: object.__setattr__(t.complex, "backbone_quality", 0.9),
    "designable_positions": lambda t: object.__setattr__(
        t.complex, "designable_positions", (0,)
    ),
    "seed": lambda t: object.__setattr__(t, "seed", t.seed + 1),
    "receptor_sequence": lambda t: object.__setattr__(
        t.complex.receptor.sequence, "residues", "A" * len(t.complex.receptor)
    ),
    "peptide_sequence": lambda t: object.__setattr__(
        t.complex.peptide.sequence, "residues", "A" * len(t.complex.peptide)
    ),
    "receptor_coordinates": lambda t: _bump(t.complex.receptor.coordinates),
    "peptide_coordinates": lambda t: _bump(t.complex.peptide.coordinates),
    "additive": lambda t: _bump(t.landscape._additive),
    "coupling_tensor": lambda t: _bump(t.landscape._coupling_tensor),
    "pair_index": lambda t: t.landscape._pair_b.__setitem__(0, -1),
    "calibration": lambda t: object.__setattr__(t.landscape._calibration, "offset", 0.0),
}


class TestSharedTargetBuilds:
    """Shared ≡ fresh: one build per target set and scope, identical results."""

    def test_scope_builds_each_distinct_spec_once(self, dataset_builds):
        named = TargetSpec(kind="named-pdz", seed=11)
        expanded = TargetSpec(kind="expanded-pdz", seed=2, n_targets=3)
        with shared_target_builds():
            first = named.build()
            first.pop()  # every call gets its own list
            with shared_target_builds():  # a nested scope joins the open one
                second = named.build()
            assert len(second) == 4
            assert all(a is b for a, b in zip(named.build(), second))
            assert expanded.build()[0] is expanded.build()[0]
        assert dataset_builds == ["named_pdz_targets", "expanded_pdz_set"]
        assert named.build()[0] is not second[0]  # the scope has ended
        assert dataset_builds[2:] == ["named_pdz_targets"]

    def test_scope_ends_with_the_run_call(self, dataset_builds):
        suite = CampaignSuite(
            SweepSpec(protocols=("cont-v",), seeds=(3, 5),
                      targets=SMALL_SWEEP.targets, base=SMALL_SWEEP.base),
            executor="serial",
        )
        suite.run()
        suite.run()
        assert dataset_builds == ["named_pdz_targets"] * 2

    def test_serial_suite_builds_once_and_equals_fresh_runs(self, tmp_path, dataset_builds):
        store = RunStore(tmp_path / "shared.jsonl")
        outcome = CampaignSuite(SMALL_SWEEP, executor="serial").run(store=store)
        assert outcome.n_runs == 8
        assert dataset_builds == ["named_pdz_targets"]  # per-run building took 8
        fresh_store = RunStore(tmp_path / "fresh.jsonl")
        for record in outcome.records:
            result, seconds = execute_run(record.spec)  # outside any scope
            assert result.as_dict() == record.result.as_dict()
            fresh_store.append(
                SuiteRunRecord(spec=record.spec, result=result, wall_seconds=seconds)
            )
        assert dataset_builds == ["named_pdz_targets"] * (1 + outcome.n_runs)
        shared = prune_store(store.path, tmp_path / "shared-c.jsonl", strip_timing=True)
        fresh = prune_store(fresh_store.path, tmp_path / "fresh-c.jsonl", strip_timing=True)
        assert shared.path.read_bytes() == fresh.path.read_bytes()

    def test_campaigns_never_mutate_shared_targets(self, dataset_builds):
        spec = SMALL_SWEEP.targets
        auto_cap = RunSpec(
            run_id="im-rp-auto", protocol="im-rp", seed=3, targets=spec,
            overrides=(("max_in_flight_pipelines", "auto"), ("n_cycles", 2),
                       ("n_sequences", 4)),
        )
        with shared_target_builds():
            targets = spec.build()
            before = _target_digest(targets)
            CampaignSuite(SMALL_SWEEP, executor="serial").run()
            execute_run(auto_cap)
            assert all(a is b for a, b in zip(spec.build(), targets))
        assert dataset_builds == ["named_pdz_targets"]  # every campaign shared them
        assert _target_digest(targets) == before

    @pytest.mark.parametrize("field", sorted(_TARGET_EDITS))
    def test_target_digest_sees_every_field(self, field):
        targets = TargetSpec(kind="named-pdz", seed=11).build()
        before = _target_digest(targets)
        _TARGET_EDITS[field](targets[0])
        assert _target_digest(targets) != before


class TestProtocolMatrix:
    def test_one_row_per_protocol(self, serial_outcome):
        rows = protocol_matrix(serial_outcome.results)
        assert [row.protocol for row in rows] == list(SMALL_SWEEP.protocols)
        for row in rows:
            assert row.n_runs == len(SMALL_SWEEP.seeds)

    def test_empty_input_rejected(self):
        with pytest.raises(CampaignError):
            protocol_matrix([])

    def test_formatting(self, serial_outcome):
        rows = protocol_matrix(serial_outcome.results)
        text = format_protocol_matrix(rows)
        for protocol in SMALL_SWEEP.protocols:
            assert protocol in text


class TestCli:
    def test_list_protocols(self, capsys):
        assert cli_main(["--list-protocols"]) == 0
        out = capsys.readouterr().out
        assert "im-rp" in out and "cont-v" in out

    def test_small_serial_sweep(self, capsys):
        code = cli_main(
            [
                "--protocols", "cont-v",
                "--seeds", "3",
                "--cycles", "1",
                "--sequences", "4",
                "--target-seed", "11",
                "--executor", "serial",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cont-v-s3" in out
        assert "Suite: 1 runs" in out

    def test_unknown_protocol_is_a_clean_error(self, capsys):
        assert cli_main(["--protocols", "warp-drive", "--executor", "serial"]) == 2
        assert "unknown protocols" in capsys.readouterr().err

    def test_max_in_flight_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--max-in-flight", "0", "--executor", "serial"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_max_in_flight_none_vs_values(self):
        from repro.experiments.cli import build_parser, sweep_from_args

        parser = build_parser()
        default = sweep_from_args(parser.parse_args(["--executor", "serial"]))
        assert default.knobs == ({},)
        swept = sweep_from_args(
            parser.parse_args(["--max-in-flight", "1", "2", "--executor", "serial"])
        )
        assert swept.knobs == (
            {"max_in_flight_pipelines": 1},
            {"max_in_flight_pipelines": 2},
        )
