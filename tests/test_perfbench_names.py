"""perfbench rebinds simbound names given as strings; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr, span", load_perfbench("spans").TRACED)
def test_traced_name_resolves(module_name, attr, span):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_certify_captured_names_exist_on_cli():
    import simbound.cli

    for name in load_perfbench("workloads").Certify.captured_functions:
        assert callable(getattr(simbound.cli, name))
