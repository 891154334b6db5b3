"""The names the benchmark's per-layer spans wrap still exist in the package,
every boundary a workload must exercise still fires, and a full-size unit of
each workload still matches ``perfbench/reference.json``.

``perfbench/spans.py`` wraps functions and agent methods by name; a rename in
the package, a call that no longer goes through the wrapped name, or a byte
that moves in a workload's outputs would otherwise surface only when the
benchmark runs.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from epochfpa.mechanism import Mechanism

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """A ``perfbench`` module, loaded by path under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans, run, workloads = load("spans"), load("run"), load("workloads")


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


@pytest.mark.parametrize("name", sorted(run.EXERCISED))
def test_every_exercised_boundary_fires_in_a_tiny_unit(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    workload = cls(cls.default_seed, tmp_path, tiny=True)
    tracer = spans.Tracer()
    with spans.Installed(tracer):
        workload.run()
    assert [key for key in run.EXERCISED[name] if tracer.calls(key) == 0] == []


def test_layer_metrics_read_a_tiny_base_run(tmp_path):
    # the benchmark reads .phase and .cleared off run_round's outcomes, and
    # policy-replay rebuilds views from the base run's Trajectory.rounds
    cls = workloads.WORKLOADS["policy-replay"]
    workload = cls(cls.default_seed, tmp_path, tiny=True)
    tracer = spans.Tracer()
    with spans.Installed(tracer):
        out = workload.run()
    assert tracer.counts["mechanism.bad_phase_rounds"] > 0
    assert tracer.counts["mechanism.cleared_good_rounds"] > 0
    assert len(out["base"].rounds) == workload.horizon
    metrics = workload.layer_metrics(out)
    assert set(metrics) == {
        "harness.replay_shared_prefix_share",
        *(f"harness.replay_shared_prefix_share.buyer{b}" for b in workload.replay_buyers),
    }
    assert all(0.0 <= share <= 1.0 for share in metrics.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_size_units_match_the_benchmark_reference(name, tmp_path):
    # the benchmark checks its reference only at full size; byte drift in the
    # ndjson or the regret profiles shows up here first
    cls = workloads.WORKLOADS[name]
    workload = cls(cls.default_seed, tmp_path)
    reference = json.loads(run.REFERENCE.read_text())[name]
    checks = workloads.Checks()
    workload.check(workload.run(), checks, reference)
    assert checks.attempted > 0 and checks.failures == []
