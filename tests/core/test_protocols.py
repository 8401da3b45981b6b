"""Tests for the execution-protocol table and the refactored protocols.

The golden tests pin the exact numbers the pre-refactor ``DesignCampaign``
branches (`_run_adaptive` / `_run_control`) produced for seeded runs, so
dispatch by protocol name is provably behaviour-preserving.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.decision import AcceptancePolicy
from repro.core.pipeline import PipelineConfig
from repro.core.protocols import available_protocols, get_protocol
from repro.exceptions import CampaignError, ConfigurationError

#: Exact fingerprints captured from the pre-refactor if/else implementation
#: (commit 16c280d) for named_pdz_targets(seed=11), n_cycles=2, n_sequences=6.
GOLDEN = {
    ("im-rp", 13): {
        "approach": "IM-RP",
        "n_pipelines": 4,
        "n_subpipelines": 8,
        "n_trajectories": 22,
        "makespan_hours": 12.749651921756888,
        "total_task_hours": 39.804923368901875,
        "cpu_utilization": 0.5596410505025873,
        "gpu_utilization": 0.3329328115529481,
        "net_deltas": {
            "plddt": 22.614511347366456,
            "ptm": 39.26193333555688,
            "interchain_pae": -33.498080315724025,
        },
    },
    ("cont-v", 13): {
        "approach": "CONT-V",
        "n_pipelines": 1,
        "n_subpipelines": 0,
        "n_trajectories": 8,
        "makespan_hours": 15.236887474494477,
        "total_task_hours": 15.236887474494477,
        "cpu_utilization": 0.17579700078697758,
        "gpu_utilization": 0.11146490433301147,
        "net_deltas": {
            "plddt": 6.09748134603556,
            "ptm": -1.0466735729598744,
            "interchain_pae": -2.2522072890049367,
        },
    },
    ("im-rp", 5): {
        "approach": "IM-RP",
        "n_pipelines": 4,
        "n_subpipelines": 8,
        "n_trajectories": 20,
        "makespan_hours": 16.379046283789645,
        "total_task_hours": 37.5069728376449,
        "cpu_utilization": 0.4131043564550126,
        "gpu_utilization": 0.2431282202339574,
        "net_deltas": {
            "plddt": 20.41534654892899,
            "ptm": 47.300614434383235,
            "interchain_pae": -43.91053745216929,
        },
    },
    ("cont-v", 5): {
        "approach": "CONT-V",
        "n_pipelines": 1,
        "n_subpipelines": 0,
        "n_trajectories": 8,
        "makespan_hours": 14.976594591092145,
        "total_task_hours": 14.976594591092145,
        "cpu_utilization": 0.17725109439430836,
        "gpu_utilization": 0.10942909968719115,
        "net_deltas": {
            "plddt": 1.736867308794284,
            "ptm": 10.693574576374438,
            "interchain_pae": -8.161327867255686,
        },
    },
}


#: sha256 of ``json.dumps(result.as_dict(), sort_keys=True)`` for ``im-rp`` on
#: the same targets and sizes, on the two placement paths ``GOLDEN`` (FIFO,
#: static cap) does not run: backfill placement and the adaptive in-flight
#: cap.  Captured before the pilot runtime was reduced to one placement
#: scheduler and name-keyed tasks, so they pin that refactor's outputs.
PLACEMENT_DIGESTS = {
    ("backfill", 13): "d1f4ca355757fb83886254e74a2bbe0df6f4401f4a3ac1b8d26be3449aad9ade",
    ("backfill", 5): "1b1aa0f5108f594f45874f469a2eb268d3248e4786cadb55bc651a04a9934628",
    ("auto", 13): "6c7cf60b18dd0a068f83e2cd9a4fb5ab3a206f2033f4285e23a56e5ad3dbe5e6",
    ("auto", 5): "18423ae1041d60360b030b8396067cb401477ffdac0a4cc2f543cc368ad3fb87",
}
_PLACEMENT_OPTIONS = {
    "backfill": {"scheduler_policy": "backfill"},
    "auto": {"max_in_flight_pipelines": "auto"},
}


#: ``PipelineConfig`` fields the campaign derives from its protocol's row; the
#: rest come from the campaign config.  Captured from the per-family
#: ``ExecutionProtocol.pipeline_config`` these rows replaced (commit 008578f).
_DERIVED = {
    "im-rp": {"adaptive": True, "random_selection": False},
    "im-rp-random": {"adaptive": True, "random_selection": True},
    "cont-v": {"adaptive": False, "random_selection": True},
    "cont-v-ranked": {"adaptive": False, "random_selection": False},
}


class TestProtocolTable:
    def test_the_table_holds_exactly_the_four_protocols(self):
        names = ("cont-v", "cont-v-ranked", "im-rp", "im-rp-random")
        assert available_protocols() == names
        assert [get_protocol(name).name for name in names] == list(names)

    @pytest.mark.parametrize(
        "name,approach,sequential,random_selection",
        [
            ("im-rp", "IM-RP", False, False),
            ("im-rp-random", "IM-RP-RAND", False, True),
            ("cont-v", "CONT-V", True, True),
            ("cont-v-ranked", "CONT-V-RANK", True, False),
        ],
    )
    def test_each_row_names_its_engine_and_selection(
        self, name, approach, sequential, random_selection
    ):
        row = get_protocol(name)
        assert row.approach == approach
        assert row.sequential is sequential
        assert row.random_selection is random_selection
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.sequential = not sequential

    @pytest.mark.parametrize("name", sorted(_DERIVED))
    def test_the_derived_pipeline_config_is_the_per_family_one(self, four_targets, name):
        config = CampaignConfig(
            protocol=name, seed=7, n_cycles=3, n_sequences=5, max_retries=6,
            adaptivity_schedule=(True, True, False),
            acceptance=AcceptancePolicy(min_delta=0.5, strict=True),
        )
        campaign = DesignCampaign(four_targets, config)
        assert campaign._pipeline_config() == PipelineConfig(
            n_cycles=3,
            n_sequences=5,
            max_retries=6,
            acceptance=AcceptancePolicy(min_delta=0.5, strict=True, metric="composite"),
            adaptivity_schedule=(True, True, False),
            selection_seed=3322606427570500947,
            **_DERIVED[name],
        )

    def test_unknown_protocol_raises(self):
        with pytest.raises(CampaignError, match="unknown protocol"):
            get_protocol("no-such-protocol")

    def test_unknown_protocol_rejected_at_config_construction(self):
        with pytest.raises(CampaignError, match="unknown protocol"):
            CampaignConfig(protocol="no-such-protocol")


class TestConfigValidation:
    def test_scheduler_policy_validated_at_construction(self):
        with pytest.raises(CampaignError, match="scheduler_policy"):
            CampaignConfig(scheduler_policy="round-robin")

    def test_msa_mode_validated_at_construction(self):
        with pytest.raises(CampaignError, match="msa_mode"):
            CampaignConfig(msa_mode="no_msa")

    @pytest.mark.parametrize("protocol", ["im-rp", "cont-v"])
    @pytest.mark.parametrize("schedule", [(True, True, False), (False,)])
    def test_adaptivity_schedule_needs_one_entry_per_cycle(self, protocol, schedule):
        # cont-v used to ignore a mismatched schedule, and im-rp rejected it
        # only inside the protocol step (in a sweep, inside a worker).
        with pytest.raises(CampaignError, match="adaptivity_schedule has"):
            CampaignConfig(protocol=protocol, n_cycles=2, adaptivity_schedule=schedule)

    def test_valid_values_accepted(self):
        config = CampaignConfig(scheduler_policy="backfill", msa_mode="single_sequence")
        assert config.scheduler_policy == "backfill"
        assert config.msa_mode == "single_sequence"

    def test_backfill_window_below_one_is_refused_when_a_pilot_run_starts(
        self, four_targets
    ):
        config = CampaignConfig(
            protocol="im-rp", n_cycles=1, n_sequences=4,
            scheduler_policy="backfill", backfill_window=0,
        )
        with pytest.raises(ConfigurationError, match="backfill window"):
            DesignCampaign(four_targets, config).run()

    def test_fifo_ignores_the_backfill_window(self, four_targets):
        results = [
            DesignCampaign(
                four_targets,
                CampaignConfig(
                    protocol="im-rp", n_cycles=1, n_sequences=4, seed=3,
                    backfill_window=window,
                ),
            ).run().as_dict()
            for window in (0, 16)
        ]
        assert results[0] == results[1]


@pytest.mark.parametrize("protocol,seed", sorted(GOLDEN))
def test_golden_equivalence_with_pre_refactor_branches(four_targets, protocol, seed):
    """Runs dispatched by protocol name reproduce the pre-refactor results exactly."""
    config = CampaignConfig(protocol=protocol, n_cycles=2, n_sequences=6, seed=seed)
    result = DesignCampaign(four_targets, config).run()
    want = GOLDEN[(protocol, seed)]
    assert result.approach == want["approach"]
    assert result.protocol == protocol
    assert result.n_pipelines == want["n_pipelines"]
    assert result.n_subpipelines == want["n_subpipelines"]
    assert result.n_trajectories == want["n_trajectories"]
    exact = pytest.approx(want["makespan_hours"], rel=0, abs=0)
    assert result.makespan_hours == exact
    assert result.total_task_hours == pytest.approx(want["total_task_hours"], rel=0, abs=0)
    assert result.cpu_utilization == pytest.approx(want["cpu_utilization"], rel=0, abs=0)
    assert result.gpu_utilization == pytest.approx(want["gpu_utilization"], rel=0, abs=0)
    deltas = result.net_deltas()
    for metric, value in want["net_deltas"].items():
        assert deltas[metric] == pytest.approx(value, rel=0, abs=0), metric


@pytest.mark.parametrize("variant,seed", sorted(PLACEMENT_DIGESTS))
def test_placement_paths_match_their_pinned_digests(four_targets, variant, seed):
    config = CampaignConfig(
        protocol="im-rp", n_cycles=2, n_sequences=6, seed=seed,
        **_PLACEMENT_OPTIONS[variant],
    )
    result = DesignCampaign(four_targets, config).run()
    text = json.dumps(result.as_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PLACEMENT_DIGESTS[(variant, seed)]
    # Each path places differently from the FIFO, static-cap run it is not.
    assert result.makespan_hours != GOLDEN[("im-rp", seed)]["makespan_hours"]


class TestNewProtocols:
    def test_im_rp_random_runs_on_pilot_runtime(self, four_targets):
        config = CampaignConfig(
            protocol="im-rp-random", n_cycles=1, n_sequences=4, seed=3
        )
        result = DesignCampaign(four_targets, config).run()
        assert result.approach == "IM-RP-RAND"
        assert result.protocol == "im-rp-random"
        assert result.n_pipelines == 4  # one concurrent root pipeline per target
        assert result.n_trajectories >= 4

    def test_cont_v_ranked_differs_from_cont_v(self, four_targets):
        ranked = DesignCampaign(
            four_targets,
            CampaignConfig(protocol="cont-v-ranked", n_cycles=2, n_sequences=6, seed=3),
        ).run()
        control = DesignCampaign(
            four_targets,
            CampaignConfig(protocol="cont-v", n_cycles=2, n_sequences=6, seed=3),
        ).run()
        assert ranked.approach == "CONT-V-RANK"
        # Same sequential execution model (identical simulated durations) ...
        assert ranked.n_pipelines == control.n_pipelines == 1
        assert ranked.n_trajectories == control.n_trajectories
        # ... but ranked selection evaluates different sequences.
        assert ranked.net_deltas() != control.net_deltas()

    def test_im_rp_random_differs_from_im_rp(self, four_targets):
        random_result = DesignCampaign(
            four_targets,
            CampaignConfig(protocol="im-rp-random", n_cycles=2, n_sequences=6, seed=13),
        ).run()
        adaptive = GOLDEN[("im-rp", 13)]
        assert random_result.net_deltas() != adaptive["net_deltas"]
