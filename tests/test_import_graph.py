"""Import-graph guards: a command imports only the modules it runs.

Package ``__init__`` files export lazily (:func:`repro.utils.lazy.lazy_exports`)
and path-specific modules are imported inside the function that needs them,
so a ``fig3`` or single-policy ``campaign`` process never loads the chaos
harness, the socket scheduler, the strategy sweep, the timing/energy/bypass
models or the other modules below.  Each command runs in a fresh interpreter, since this test
process has imported everything already.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules neither command runs.
DEFERRED = {
    "repro.campaign.chaos",
    "repro.campaign.scheduler",
    "repro.campaign.transport",
    "repro.campaign.sweep",
    "repro.experiments.fig2",
    "repro.experiments.compare",
    "repro.accelerator.timing",
    "repro.accelerator.energy",
    "repro.accelerator.bypass",
    "repro.mitigation.fam",
    "repro.mitigation.saliency",
    "repro.core.adaptive",
    "repro.core.overhead",
    "repro.analysis.statistics",
    "repro.observability.summary",
    "repro.models.vgg",
    "repro.models.lenet",
}

_PROBE = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(m for m in sys.modules if m.startswith("repro"))}))
"""


def _modules_loaded_by(argv, cwd: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], cwd=cwd, env=env,
        capture_output=True, text=True,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    probe = json.loads(completed.stdout.strip().splitlines()[-1])
    assert probe["code"] == 0
    return set(probe["modules"])


@pytest.mark.parametrize("argv", [
    ["fig3", "--preset", "smoke", "--chips", "2"],
    ["campaign", "--preset", "smoke", "--chips", "2", "--policy", "fixed",
     "--fixed-epochs", "0.05", "--campaign-dir", "campaigns"],
], ids=["fig3", "campaign"])
def test_command_imports_only_what_it_runs(argv, tmp_path):
    loaded = _modules_loaded_by(argv, tmp_path)
    assert {"repro.campaign.engine", "repro.accelerator.batched",
            "repro.mitigation.strategy"} <= loaded
    assert not loaded & DEFERRED, sorted(loaded & DEFERRED)


#: Modules a command that trains nothing must not load.
TRAINING = {
    "repro.accelerator.batched",
    "repro.nn",
    "repro.training",
    "repro.core.resilience",
}


def test_verify_store_imports_no_training_code(tmp_path):
    """``verify-store`` audits a real store (one checksummed row) without
    loading the trainer, the ``nn`` package or the experiment layer."""
    from repro.campaign.store import CampaignStore
    from repro.core.results import ChipRetrainingResult

    store = CampaignStore.open(tmp_path / "campaigns", "0" * 64, {"policy": "fixed"})
    store.append(ChipRetrainingResult(
        chip_id="chip-0", fault_rate=0.1, epochs_allocated=0.5, epochs_trained=0.5,
        accuracy_before=0.5, accuracy_after=0.9, meets_constraint=True,
        masked_weight_fraction=0.1,
    ))
    loaded = _modules_loaded_by(["verify-store", "campaigns"], tmp_path)
    assert "repro.campaign.store" in loaded
    assert not loaded & TRAINING, sorted(loaded & TRAINING)
    assert not any(name.startswith("repro.experiments") for name in loaded)


def test_info_imports_no_trainer(tmp_path):
    """``info`` describes a preset: it loads neither the stacked trainer nor
    any compute backend."""
    loaded = _modules_loaded_by(["info", "--preset", "smoke"], tmp_path)
    assert "repro.experiments.presets" in loaded
    assert "repro.accelerator.batched" not in loaded
    assert not any(name.startswith("repro.backends") for name in loaded), sorted(loaded)


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    checked = 0
    for package in _packages():
        exported = package.__all__
        assert len(exported) == len(set(exported)), f"{package.__name__}.__all__ repeats a name"
        for name in exported:
            assert getattr(package, name) is not None, f"{package.__name__}.{name}"
            checked += 1
    assert checked > 200


def test_lazy_exports_reject_unknown_names():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro.core, "no_such_name")
    from repro.campaign import CampaignEngine
    from repro.campaign.engine import CampaignEngine as defined

    assert CampaignEngine is defined
