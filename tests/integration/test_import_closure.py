"""Import layering: what a learning process loads, and what the lazy facades expose.

``repro``, ``repro.core``, ``repro.stats``, ``repro.stream`` and
``repro.evaluation`` import each re-exported name from its defining submodule
on first use (``repro._lazy``).  A fresh interpreter running the end-to-end
benchmark's stream-job imports must therefore load none of the serving stack,
persistence, the bulk loaders or the scenario battery; and every facade must
still expose its whole ``__all__``.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

LAZY_FACADES = ["repro", "repro.core", "repro.stats", "repro.stream", "repro.evaluation"]

#: Modules a process that only learns from a stream has no use for.
NOT_FOR_LEARNING = [
    "asyncio",
    "repro.serving",
    "repro.persist",
    "repro.bulkload",
    "repro.scenarios",
    "repro.baselines",
    "repro.evaluation.battery",
]

# The imports of the end-to-end benchmark's learn_stream job, in a fresh
# interpreter; prints the modules they loaded.
_STREAM_JOB_SCRIPT = """
import json
import sys

from repro import AnytimeBayesClassifier
from repro.data import Dataset
from repro.evaluation.experiment import DEFAULT_EXPERIMENT_CONFIG
from repro.stream import DataStream, PoissonArrival

print(json.dumps(sorted(sys.modules)))
"""


def test_the_stream_job_imports_no_serving_persistence_or_harness():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, "-c", _STREAM_JOB_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    modules = set(json.loads(completed.stdout.strip().splitlines()[-1]))
    assert "repro.core.classifier" in modules  # the probe imported the package
    loaded = [name for name in NOT_FOR_LEARNING if name in modules]
    assert loaded == [], f"the stream job's imports loaded {loaded}"


@pytest.mark.parametrize("facade_name", LAZY_FACADES)
def test_every_export_resolves_to_its_defining_module(facade_name):
    facade = importlib.import_module(facade_name)
    table = facade._EXPORTS
    # Everything public is lazy, except a plain constant like __version__.
    assert set(facade.__all__) - set(table) <= {"__version__"}
    assert set(table) <= set(facade.__all__)
    listed = dir(facade)
    for name in facade.__all__:
        value = getattr(facade, name)
        assert name in listed
        if name not in table:
            continue
        defining = importlib.import_module(table[name], facade_name)
        assert value is getattr(defining, name), f"{facade_name}.{name}"
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == defining.__name__, f"{facade_name}.{name}"


@pytest.mark.parametrize("facade_name", LAZY_FACADES)
def test_star_import_binds_every_public_name(facade_name):
    namespace: dict = {}
    exec(f"from {facade_name} import *", namespace)
    facade = importlib.import_module(facade_name)
    assert set(facade.__all__) <= set(namespace)
    for name in facade.__all__:
        assert namespace[name] is getattr(facade, name)


@pytest.mark.parametrize("facade_name", LAZY_FACADES)
def test_an_unknown_name_is_an_attribute_error(facade_name):
    facade = importlib.import_module(facade_name)
    with pytest.raises(AttributeError, match=facade_name):
        facade.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec(f"from {facade_name} import no_such_name", {})
