"""The benchmark's layer view names functions that exist.

perfbench/tracer.py wraps every (owner, attribute) of its FUNCTIONS table and
counts the bytes of the ARRAY_ARG parameter of some of them.  A renamed or
deleted function would otherwise surface only as an error in a traced
benchmark run.  The tracer is loaded by path and only read.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name, owner, attrs", tracer.FUNCTIONS,
                         ids=[entry[0] for entry in tracer.FUNCTIONS])
def test_traced_functions_resolve(name, owner, attrs):
    holder = tracer._resolve(owner)
    for attr in attrs:
        assert callable(getattr(holder, attr, None)), f"{owner}.{attr}"


@pytest.mark.parametrize("name", sorted(tracer.ARRAY_ARG))
def test_array_argument_is_a_parameter(name):
    owner, attrs = next((o, a) for n, o, a in tracer.FUNCTIONS if n == name)
    holder = tracer._resolve(owner)
    for attr in attrs:
        params = inspect.signature(getattr(holder, attr)).parameters
        assert tracer.ARRAY_ARG[name] in params, f"{owner}.{attr}"
