"""Shared fixtures for the test suite.

Everything here is intentionally small and fast: tiny targets, few cycles,
and compressed task durations keep even the full-campaign integration tests
well under a second each.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.stages import StageFactory, StageModels
from repro.hpc.platform import ComputePlatform
from repro.hpc.resources import amarel_platform
from repro.protein.datasets import (
    ALPHA_SYNUCLEIN_C10,
    make_pdz_target,
    named_pdz_targets,
)
from repro.protein.folding import SurrogateAlphaFold
from repro.protein.mpnn import SurrogateProteinMPNN
from repro.protein.scoring import ScoringFunction
from repro.runtime.durations import DurationModel
from repro.runtime.task_manager import TaskManager

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def pytest_sessionstart(session):
    """Fail fast if any ``repro`` package resolves outside ``src/``.

    Stale build residue — an orphaned ``__pycache__`` directory left behind
    by a deleted module, an ``egg-info`` on ``sys.path`` — silently shadows
    the tracked sources: imports succeed, but the suite exercises bytecode
    for files that no longer exist.  Every already-imported ``repro``
    module must be a real ``.py`` file under ``src/``, and no package may
    be a source-less namespace directory (the ``__pycache__``-only case).
    """
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        origin = getattr(module, "__file__", None)
        if origin is None:
            # A package with no __init__.py is a namespace shell — exactly
            # what an orphaned __pycache__ directory produces.
            raise pytest.UsageError(
                f"module {name!r} resolved to a namespace package "
                f"{getattr(module, '__path__', '?')}; stale residue under "
                f"src/ is shadowing the tracked sources"
            )
        path = Path(origin).resolve()
        if path.suffix != ".py" or SRC_ROOT not in path.parents:
            raise pytest.UsageError(
                f"module {name!r} imported from {origin}; expected a .py "
                f"file under {SRC_ROOT}"
            )


@pytest.fixture(scope="session")
def target():
    """One small PDZ-peptide design target."""
    return make_pdz_target("NHERF3", peptide_residues=ALPHA_SYNUCLEIN_C10, seed=11)


@pytest.fixture(scope="session")
def four_targets():
    """The four named PDZ targets of the paper's first experiment."""
    return named_pdz_targets(seed=11)


@pytest.fixture()
def platform():
    """A fresh single-node Amarel-like platform."""
    return ComputePlatform(amarel_platform(1))


@pytest.fixture()
def durations():
    """A duration model with mild compression for fast simulated runs."""
    return DurationModel(seed=5, speedup=60.0)


@pytest.fixture()
def task_manager(durations):
    """A task manager (and its agent) on a fresh platform."""
    return TaskManager(ComputePlatform(amarel_platform(1)), durations)


@pytest.fixture(scope="session")
def models():
    """Shared surrogate models with fixed seeds."""
    return StageModels(
        mpnn=SurrogateProteinMPNN(seed=21),
        folding=SurrogateAlphaFold(seed=22),
        scoring=ScoringFunction(),
    )


@pytest.fixture()
def factory(models, durations):
    """Stage factory bound to the shared models and a fast duration model."""
    return StageFactory(models, durations)


@pytest.fixture(scope="session")
def small_imrp_result(four_targets):
    """A small adaptive campaign result, shared by read-only tests."""
    config = CampaignConfig(protocol="im-rp", n_cycles=2, n_sequences=6, seed=13)
    return DesignCampaign(four_targets, config).run()


@pytest.fixture(scope="session")
def small_control_result(four_targets):
    """A small control campaign result, shared by read-only tests."""
    config = CampaignConfig(protocol="cont-v", n_cycles=2, n_sequences=6, seed=13)
    return DesignCampaign(four_targets, config).run()
