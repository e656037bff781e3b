"""The names the benchmark's traced run looks up in the program.

perfbench/tracing.py wraps functions by module and attribute name, and
perfbench/client.py reads lru_cache counters by name.  A binding that
disappears makes the traced run fail, so it is caught here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import wkit.cli
import wkit.seqcore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def load(monkeypatch):
    # client.py imports its sibling modules by bare name.
    monkeypatch.syspath_prepend(str(PERFBENCH))

    def load_module(name):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load_module


def test_every_traced_binding_exists(load):
    tracing = load("tracing")
    for module_name, attr, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )
    for key, _ in tracing.WRAPPED_CHECKS:
        assert key in wkit.cli._CHECKS


def test_every_counted_cache_is_an_lru_cache(load):
    client = load("client")
    assert client.CACHES
    for name in client.CACHES:
        assert hasattr(getattr(wkit.seqcore, name, None), "cache_info"), name
