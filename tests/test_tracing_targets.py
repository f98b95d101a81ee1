"""The benchmark's tracer finds each layer by the current name of a function
in the package (``perfbench/tracing.py``), and a name it cannot find leaves
that layer's metrics out of every traced run.  These tests read the
tracer's target lists from ``perfbench/`` without changing anything there,
so a rename in the package fails here instead of emptying a metric."""

import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """``perfbench/tracing.py`` run as a module of its own name, compiled
    from its source so that no bytecode is written next to it; its
    dataclasses look their module up in ``sys.modules`` while it runs."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    sys.modules[module.__name__] = module
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = load_tracing()
TARGETS = tracing.SPAN_TARGETS + tracing.TALLY_TARGETS


@pytest.mark.parametrize(
    "name, module_name, attr", TARGETS, ids=[f"{module}.{attr}" for _, module, attr in TARGETS]
)
def test_traced_layer_resolves(name, module_name, attr):
    """Each target is a function of the package, looked up as the tracer's
    ``install`` looks it up, whose signature has every parameter the
    tracer's annotator for that layer reads."""
    module = importlib.import_module(module_name)
    owner_name, _, method = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    function = owner.__dict__.get(method)
    assert callable(function), f"{module_name}.{attr} is gone"
    needed = tracing._NEEDED_PARAMETERS.get(name, ())
    assert set(needed) <= set(inspect.signature(function).parameters)


def test_needed_parameters_name_traced_layers():
    """Every layer with needed parameters is a target, and the verify suites
    the tracer wraps one by one are a registry of functions."""
    assert set(tracing._NEEDED_PARAMETERS) <= {name for name, _, _ in TARGETS}
    suites = importlib.import_module("condorcet.verify").SUITES
    assert suites and all(callable(suite) for suite in suites.values())
