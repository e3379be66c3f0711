"""What importing a module loads, each check in a fresh interpreter.

Package ``__init__``s import nothing (``repro.utils.lazy``), so a
process loads only what its own imports name: a trainer never loads the
scheduler, the serve daemon, faults or the brain, and the daemon's
client never loads numpy.  Each registry registers its own built-ins,
so importing the module that defines it is enough to find them.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Subsystems a training process has no use for.
NOT_TRAINING = ("sched", "serve", "faults", "brain", "elastic", "experiments")

#: Defining module -> the registries it defines.
REGISTRIES = {
    "repro.api.registry": ["SCHEMES", "COMPRESSORS", "MODELS", "CLUSTERS"],
    "repro.brain.base": ["BRAINS"],
    "repro.exec.backend": ["BACKENDS"],
    "repro.faults.registry": ["FAULTS"],
    "repro.sched.policies": ["POLICIES"],
    "repro.experiments.runner": ["EXPERIMENTS"],
}

#: Imports every module of the package, so every registration has run.
IMPORT_EVERYTHING = (
    "import importlib, pkgutil, repro\n"
    "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
    "    importlib.import_module(info.name)\n"
)

#: Prints every loaded registry's entries (name -> aliases) as JSON.
DUMP_REGISTRIES = f"""
import json, sys
entries = {{}}
for module, names in {REGISTRIES!r}.items():
    for name in names if module in sys.modules else ():
        registry = getattr(sys.modules[module], name)
        if isinstance(registry, tuple):  # EXPERIMENTS: (name, entry) pairs
            entries[name] = {{key: [] for key, _ in registry}}
        else:
            entries[name] = {{key: registry.aliases_of(key) for key in registry.available()}}
print(json.dumps(entries))
"""


def fresh(code: str) -> str:
    """``code``'s stdout, run by a new interpreter on this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def loaded_after(module: str) -> set[str]:
    return set(fresh(f"import sys, {module}; print(' '.join(sys.modules))").split())


@pytest.mark.parametrize(
    "module", ["repro.comm.hitopkcomm", "repro.models.nn.convnet", "repro.train.trainer"]
)
def test_training_modules_load_no_scheduler_daemon_faults_or_brain(module):
    loaded = loaded_after(module)
    assert module in loaded
    subsystems = {".".join(name.split(".")[:2]) for name in loaded}
    assert not subsystems & {f"repro.{name}" for name in NOT_TRAINING}


@pytest.mark.parametrize("module", ["repro.serve.client", "repro.api.cli"])
def test_the_daemon_client_and_the_cli_load_no_numpy(module):
    loaded = loaded_after(module)
    assert module in loaded
    assert "numpy" not in loaded


@pytest.fixture(scope="module")
def every_registry() -> dict:
    """Each registry's entries once every ``repro`` module is imported."""
    entries = json.loads(fresh(IMPORT_EVERYTHING + DUMP_REGISTRIES))
    assert set(entries) == {name for names in REGISTRIES.values() for name in names}
    return entries


@pytest.mark.parametrize("module", sorted(REGISTRIES))
def test_a_registry_holds_its_builtins_after_importing_only_its_module(module, every_registry):
    entries = json.loads(fresh(f"import {module}\n" + DUMP_REGISTRIES))
    for name in REGISTRIES[module]:
        assert entries[name] == every_registry[name], name
        assert entries[name], name


def test_every_package_export_resolves():
    # The root first, in an interpreter that has loaded nothing else: a
    # name that resolved only once some other module had loaded would
    # hide an import cycle.  A star import resolves every ``__all__`` name.
    fresh(
        "from repro import *\n"
        "import pkgutil, repro\n"
        "assert repro.sched.traces.load_trace.__module__ == 'repro.sched.traces.ingest'\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if info.ispkg:\n"
        "        exec(f'from {info.name} import *', {})\n"
    )
