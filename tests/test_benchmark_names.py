"""The per-layer metrics of BENCHMARK.json name public gaugeflow functions."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
TRACED_STATS = ("calls", "s", "self_s")


def traced_functions() -> list:
    """(module, function) for every traced per-layer metric of a gaugeflow module."""
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    traced = set()
    for name in names:
        module, _, rest = name.partition(".")
        function, _, stat = rest.rpartition(".")
        if stat in TRACED_STATS and importlib.util.find_spec(f"gaugeflow.{module}"):
            traced.add((module, function))
    return sorted(traced)


def test_some_layers_are_traced():
    assert ("gauge", "minimize_gauge") in traced_functions()


@pytest.mark.parametrize("module, function", traced_functions())
def test_traced_function_is_public(module, function):
    # A metric whose function left its module's __all__ reads 0 for ever.
    assert function in importlib.import_module(f"gaugeflow.{module}").__all__
