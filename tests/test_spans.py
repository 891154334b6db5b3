"""The names the benchmark's per-layer spans wrap still exist in the package.

``perfbench/spans.py`` wraps functions and agent methods by name; a rename in
the package would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from epochfpa.mechanism import Mechanism

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("home, name", sorted(spans.FUNCTION_SPANS))
def test_every_wrapped_function_exists(home, name):
    assert callable(getattr(importlib.import_module(home), name, None))


@pytest.mark.parametrize("name", spans.AGENT_CLASSES)
def test_every_wrapped_agent_class_has_a_kind_bid_and_observe(name):
    cls = getattr(importlib.import_module("epochfpa.agents"), name)
    assert isinstance(cls.kind, str)
    assert callable(cls.bid) and callable(cls.observe)


def test_the_wrapped_mechanism_methods_exist():
    for name in ("view", "participants", "advance", "run_round"):
        assert callable(getattr(Mechanism, name, None))
