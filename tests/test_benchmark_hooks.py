"""The names the benchmark's traced run looks up in the program.

perfbench/tracing.py wraps functions by module and attribute name,
perfbench/client.py reads lru_cache counters by name, and
perfbench/workloads.py runs fixed search command lines.  A binding or a
flag that disappears makes the benchmark run fail, so it is caught here
first.
"""

import importlib
import importlib.util
import sys
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
        # dataclasses look their module up in sys.modules while it loads.
        monkeypatch.setitem(sys.modules, spec.name, module)
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


def test_every_search_argv_parses(load):
    # perfbench/workloads.py passes these command lines to `wkit`; a flag
    # it uses must not be dropped from the parser.
    workloads = load("workloads")
    for seed in (0, 1):
        for op in workloads.search_ops(seed):
            args = wkit.cli.build_parser().parse_args(list(op.cmd))
            assert args.func is wkit.cli.cmd_search


def test_commands_look_traced_names_up_when_they_run(monkeypatch, tmp_path):
    # The traced run replaces these wkit.cli attributes after import, so a
    # command that captured them earlier (in a table built at import, say)
    # would skip the wrappers and its spans would read 0.
    names = (
        "parse_quadruple",
        "parse_sequence",
        "stack_quadruples",
        "williamson_rows",
        "product_rows",
        "mod4_rows",
        "hall_rows",
    )
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(wkit.cli, name, counting(name, getattr(wkit.cli, name)))
    line = "++;++;+-;+-"  # an even-order Williamson quadruple
    quad_in = tmp_path / "quad.txt"
    quad_in.write_text(line + "\n")
    seq_in = tmp_path / "seq.txt"
    seq_in.write_text(line.split(";")[0] + "\n")
    out = str(tmp_path / "out.txt")
    assert wkit.cli.main(["verify", "--in", str(quad_in), "--out", out]) == 0
    assert wkit.cli.main(["check", "williamson", "--in", str(quad_in), "--out", out]) == 0
    assert wkit.cli.main(["check", "symmetric", "--in", str(seq_in), "--out", out]) == 0
    assert all(calls.values()), calls
