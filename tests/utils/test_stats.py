"""Tests for the relative-change and net-delta computations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.stats import net_delta_percent, relative_change


class TestRelativeChange:
    def test_positive_change(self):
        assert relative_change(10.0, 15.0) == pytest.approx(0.5)

    def test_negative_change(self):
        assert relative_change(10.0, 5.0) == pytest.approx(-0.5)

    def test_zero_to_zero(self):
        assert relative_change(0.0, 0.0) == 0.0

    def test_zero_initial_positive_final(self):
        assert relative_change(0.0, 1.0) == np.inf

    def test_zero_initial_negative_final(self):
        assert relative_change(0.0, -1.0) == -np.inf

    def test_negative_initial_uses_absolute(self):
        # pAE-style improvements (from -6.7 to -6.61) stay interpretable.
        assert relative_change(-10.0, -5.0) == pytest.approx(0.5)


class TestNetDeltaPercent:
    def test_simple_percentage(self):
        assert net_delta_percent(0.28, 0.32) == pytest.approx(14.2857, rel=1e-3)

    def test_matches_paper_plddt_style(self):
        # A 5.8 -> 7.7 style change expressed in percent of the start.
        assert net_delta_percent(100.0, 107.7) == pytest.approx(7.7)
