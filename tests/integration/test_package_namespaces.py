"""The lazy package namespaces: exports, import closures, import order.

Every package ``__init__`` maps its public names to their defining
submodules (``repro._lazy``), so a process imports only the modules whose
names it touches.  These tests pin the three things that can silently break:

* a typo in an export table, which would otherwise surface only at first use;
* the import closure of the common entry points, checked in fresh
  interpreters (structural, no timing);
* an import cycle, which the old eager ``__init__`` files could hide by
  fixing the import order: every module must import first, on its own.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = Path(repro.__file__).resolve().parents[1]

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC_DIR).parts)
    for path in (SRC_DIR / "repro").rglob("__init__.py")
)


def _fresh_interpreter(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(statement: str) -> set:
    """Modules in ``sys.modules`` after ``statement`` runs in a new process."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))\n"
    return set(json.loads(_fresh_interpreter(code)))


def _repro_modules(modules: set) -> set:
    return {name for name in modules if name == "repro" or name.startswith("repro.")}


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves(name):
    package = importlib.import_module(name)
    exports = package._EXPORTS
    assert set(package.__all__) - set(exports) <= {"__version__"}
    for public, submodule in exports.items():
        module = importlib.import_module(f"{name}.{submodule}")
        value = getattr(package, public)
        assert value is getattr(module, public), public
        if inspect.isclass(value) or inspect.isfunction(value):
            # The table names the defining module, not a re-export.
            assert value.__module__ == module.__name__, public

    star: dict = {}
    exec(f"from {name} import *", star)
    assert set(star) - {"__builtins__"} == set(package.__all__)
    assert set(package.__all__) <= set(dir(package))

    with pytest.raises(AttributeError):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_submodules_resolve_as_attributes():
    assert repro.experiments.suite is importlib.import_module("repro.experiments.suite")
    assert repro.faults.registry is importlib.import_module("repro.faults.registry")


class TestImportClosure:
    """What a fresh interpreter loads for each entry point."""

    def test_bare_import_loads_only_the_package(self):
        loaded = _loaded_after(
            "import repro\n"
            "assert not hasattr(repro, '__wrapped__')\n"
            "assert not hasattr(repro, 'no_such_name')"
        )
        assert _repro_modules(loaded) == {"repro", "repro._lazy"}
        assert "multiprocessing" not in loaded

    def test_campaign_path_skips_the_sweep_layers(self):
        loaded = _loaded_after("import repro.core.campaign, repro.protein.datasets")
        for package in ("analysis", "experiments", "orchestrate", "store", "faults"):
            assert not {
                name for name in loaded if name.startswith(f"repro.{package}")
            }, package
        assert "multiprocessing" not in loaded

    def test_suite_skips_the_store_and_the_fleet(self):
        loaded = _loaded_after("import repro.experiments.suite")
        for package in ("store", "orchestrate", "analysis"):
            assert not {
                name for name in loaded if name.startswith(f"repro.{package}")
            }, package
        assert "multiprocessing" not in loaded

    def test_building_targets_leaves_out_numpy_ma(self):
        # np.quantile would import numpy.ma in every process that builds a
        # target set; the docking threshold is computed without it.
        loaded = _loaded_after(
            "from repro.protein.datasets import expanded_pdz_set, named_pdz_targets\n"
            "named_pdz_targets(seed=1)\n"
            "expanded_pdz_set(n_targets=12, seed=2025)"
        )
        assert "repro.protein.datasets" in loaded
        assert "numpy.ma" not in loaded

    def test_public_name_loads_its_defining_module(self):
        loaded = _loaded_after("from repro import DesignCampaign")
        assert "repro.core.campaign" in loaded
        assert not {name for name in loaded if name.startswith("repro.analysis")}


def test_every_module_imports_first_on_its_own():
    """Import each module with every ``repro`` module cleared first.

    Runs in one fresh interpreter, so the suite's own imports stay intact.
    """
    modules = sorted(
        ".".join(path.relative_to(SRC_DIR).with_suffix("").parts).removesuffix(".__init__")
        for path in (SRC_DIR / "repro").rglob("*.py")
        if path.name != "__main__.py"
    )
    code = (
        "import importlib, json, sys, traceback\n"
        f"modules = {modules!r}\n"
        "failures = []\n"
        "for name in modules:\n"
        "    for key in [k for k in sys.modules if k == 'repro' or k.startswith('repro.')]:\n"
        "        del sys.modules[key]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception:\n"
        "        failures.append(name + ': ' + traceback.format_exc())\n"
        "print(json.dumps(failures))\n"
    )
    failures = json.loads(_fresh_interpreter(code))
    assert failures == [], "\n".join(failures)
    # The walk reached every source file on disk but the entry scripts.
    on_disk = [
        name
        for _, _, names in os.walk(SRC_DIR / "repro")
        for name in names
        if name.endswith(".py") and name != "__main__.py"
    ]
    assert len(modules) == len(on_disk) > 0
