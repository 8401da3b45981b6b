"""FaultPlan scheduling: determinism, independence, forcing, serialisation."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import (
    FAULT_KINDS,
    FAULTS_ENV,
    FaultPlan,
    ForcedFault,
    SITE_KINDS,
)
from repro.faults import plan as plan_module


def schedule(plan, site, crossings, kinds=FAULT_KINDS):
    """The (index, kind) pairs that fire over ``crossings`` of ``site``."""
    fired = []
    for _ in range(crossings):
        event = plan.decide(site, kinds)
        if event is not None:
            fired.append((event.index, event.kind))
    return fired


class TestDeterminism:
    def test_same_seed_replays_the_same_schedule(self):
        rates = {"io_error": 0.2, "torn_write": 0.1, "crash_after_write": 0.05}
        first = schedule(FaultPlan(7, rates=rates), "store.append", 200)
        second = schedule(FaultPlan(7, rates=rates), "store.append", 200)
        assert first == second
        assert first  # the rates are high enough that something fired

    def test_schedule_is_pinned_not_just_self_consistent(self):
        """The exact schedule for one (seed, site, rates) tuple.

        A refactor that changes the hash input or the ladder order silently
        reshuffles every chaos soak; this pin makes that loud.
        """
        plan = FaultPlan(42, rates={"io_error": 0.25, "torn_write": 0.25})
        assert schedule(plan, "store.append", 12) == [
            (4, "torn_write"),
            (6, "io_error"),
            (7, "io_error"),
            (8, "io_error"),
            (9, "torn_write"),
            (10, "io_error"),
        ]

    def test_different_seeds_diverge(self):
        rates = {"io_error": 0.3}
        seeds = {
            tuple(schedule(FaultPlan(seed, rates=rates), "store.append", 100))
            for seed in range(5)
        }
        assert len(seeds) == 5

    def test_sites_are_independent(self):
        """Crossing one site never perturbs another site's schedule."""
        rates = {"io_error": 0.3}
        lone = FaultPlan(3, rates=rates)
        noisy = FaultPlan(3, rates=rates)
        for _ in range(50):  # extra crossings of an unrelated site
            noisy.decide("checkpoint.save")
        assert schedule(lone, "store.append", 100) == schedule(
            noisy, "store.append", 100
        )


class TestForcedFaults:
    def test_forced_fault_fires_at_exactly_its_crossing(self):
        plan = FaultPlan(
            0, force=[ForcedFault("store.append", 3, "crash_after_write")]
        )
        assert schedule(plan, "store.append", 10) == [(3, "crash_after_write")]

    def test_forced_fault_fires_even_against_zero_rates(self):
        plan = FaultPlan(0, force=[ForcedFault("queue.mark_done", 1, "enospc")])
        event = plan.decide("queue.mark_done")
        assert event is not None and event.kind == "enospc"

    def test_parse_round_trip(self):
        forced = ForcedFault.parse("store.append:2:torn_write")
        assert forced == ForcedFault("store.append", 2, "torn_write")

    @pytest.mark.parametrize(
        "text", ["store.append:torn_write", "a:b:torn_write", "a:1:nope"]
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ConfigurationError):
            ForcedFault.parse(text)


class TestKindMasking:
    def test_site_kinds_mask_the_draw(self):
        """A kind a site cannot express is never scheduled there."""
        plan = FaultPlan(1, rates={"clock_skew": 1.0})
        fired = schedule(
            plan, "store.append", 50, SITE_KINDS["store.append"]
        )
        assert fired == []

    def test_clock_skew_only_at_the_clock_site(self):
        plan = FaultPlan(1, rates={"clock_skew": 1.0})
        event = plan.decide("lease.clock", SITE_KINDS["lease.clock"])
        assert event is not None and event.kind == "clock_skew"
        assert -plan_module._MAX_SKEW <= event.skew <= plan_module._MAX_SKEW
        assert event.skew != 0.0

    def test_slow_io_delay_is_bounded_and_deterministic(self):
        first = FaultPlan(9, rates={"slow_io": 1.0})
        second = FaultPlan(9, rates={"slow_io": 1.0})
        for _ in range(20):
            a = first.decide("store.append")
            b = second.decide("store.append")
            assert a is not None and a == b
            assert 0.0 <= a.delay <= plan_module._MAX_DELAY

    def test_bounds_scale_the_drawn_delay_and_skew(self, monkeypatch):
        default = FaultPlan(9, rates={"slow_io": 1.0}).decide("store.append")
        skewed = FaultPlan(9, rates={"clock_skew": 1.0}).decide("lease.clock")
        monkeypatch.setattr(plan_module, "_MAX_DELAY", 0.01)
        monkeypatch.setattr(plan_module, "_MAX_SKEW", 30.0)
        delay = FaultPlan(9, rates={"slow_io": 1.0}).decide("store.append").delay
        skew = FaultPlan(9, rates={"clock_skew": 1.0}).decide("lease.clock").skew
        assert delay == pytest.approx(default.delay * 0.01 / 0.05)
        assert skew == pytest.approx(skewed.skew * 30.0 / 60.0)


class TestValidation:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultPlan(0, rates={"meteor": 0.1})

    def test_rate_out_of_range_is_rejected(self):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            FaultPlan(0, rates={"io_error": 1.5})

    def test_rates_summing_past_one_are_rejected(self):
        with pytest.raises(ConfigurationError, match="sum"):
            FaultPlan(0, rates={"io_error": 0.6, "torn_write": 0.6})

    def test_forced_index_must_be_one_based(self):
        with pytest.raises(ConfigurationError, match="1-based"):
            ForcedFault("store.append", 0, "io_error")


class TestEnvRoundTrip:
    def test_to_env_from_env_preserves_the_schedule(self):
        plan = FaultPlan(
            13,
            rates={"io_error": 0.1, "slow_io": 0.2},
            force=[ForcedFault("store.append", 5, "enospc")],
            log_dir="/tmp/nowhere",
        )
        clone = FaultPlan.from_env(plan.to_env())
        assert clone.as_dict() == plan.as_dict()
        # The delay and skew bounds are module constants, not plan fields.
        assert set(plan.as_dict()) == {"seed", "rates", "force", "log_dir"}
        assert schedule(clone, "store.append", 50) == schedule(
            plan, "store.append", 50
        )

    def test_unset_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert FaultPlan.from_env() is None

    def test_unreadable_env_is_a_loud_error(self, monkeypatch):
        """A typo'd plan must not silently become a fault-free chaos run."""
        monkeypatch.setenv(FAULTS_ENV, "{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            FaultPlan.from_env()
        with pytest.raises(ConfigurationError, match="JSON object"):
            FaultPlan.from_env(json.dumps([1, 2]))

    @pytest.mark.parametrize(
        "payload",
        [
            {"rates": {"io_error": 0.1}},
            {"seed": "not-a-seed"},
            {"seed": 1, "force": [{"site": "store.append", "kind": "enospc"}]},
        ],
        ids=["no-seed", "bad-seed", "forced-fault-without-index"],
    )
    def test_incomplete_payload_is_a_loud_error(self, payload):
        with pytest.raises(ConfigurationError, match="unreadable fault plan payload"):
            FaultPlan.from_env(json.dumps(payload))
