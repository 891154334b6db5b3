"""Per-layer spans for the traced benchmark run.

Wrappers are installed from outside the package, around the public functions
and methods that form each layer boundary, and removed again afterwards, so
untraced runs execute the package unchanged.  A wrapper records the call
count and the self time of its span: the span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
import os
from time import perf_counter

PACKAGE_MODULES = (
    "epochfpa",
    "epochfpa.distributions",
    "epochfpa.mechanism",
    "epochfpa.agents",
    "epochfpa.harness",
    "epochfpa.cli",
    "epochfpa.suites",
)

# module-level functions: (defining module, name) -> span key.  Every module
# namespace that binds the same function object gets the wrapper too, e.g.
# run_simulation in harness, cli, suites and the package root.
FUNCTION_SPANS = {
    ("epochfpa.distributions", "tail_quantile"): "distributions.scalar",
    ("epochfpa.distributions", "upper_tail_mean"): "distributions.scalar",
    ("epochfpa.distributions", "win_quantile"): "distributions.scalar",
    ("epochfpa.distributions", "monopoly_reserve"): "distributions.scalar",
    ("epochfpa.distributions", "myerson_detail"): "distributions.scalar",
    ("epochfpa.distributions", "myerson_revenue"): "distributions.scalar",
    ("epochfpa.distributions", "myerson_win_prob"): "distributions.scalar",
    ("epochfpa.mechanism", "derive_epoch_config"): "mechanism.derive_epoch_config",
    ("epochfpa.harness", "run_simulation"): "harness.run_simulation",
    ("epochfpa.harness", "external_regret_profile"): "harness.external_regret",
    ("epochfpa.harness", "estimate_policy_regret"): "harness.policy_regret",
    ("epochfpa.harness", "trajectory_ndjson"): "exporters.ndjson",
    ("epochfpa.harness", "write_trajectory"): "exporters.ndjson",
    ("epochfpa.harness", "write_epoch_csv"): "exporters.epoch_csv",
    ("epochfpa.cli", "main"): "cli.simulate",
}

AGENT_CLASSES = (
    "GoodStrategyAgent",
    "LookaheadAgent",
    "MyopicAgent",
    "Exp3Agent",
    "EtcAgent",
    "ExpertAgent",
)


class Tracer:
    """Call counts, self times and counters gathered by installed wrappers."""

    def __init__(self):
        self._stack: list[float] = []
        self._slots: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.scalar_cache = (0, 0)

    def calls(self, key: str) -> int:
        return self._slots.get(key, (0, 0.0))[0]

    def self_s(self, key: str) -> float:
        return self._slots.get(key, (0, 0.0))[1]

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, key: str, fn, after=None):
        slot = self._slots.setdefault(key, [0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                slot[0] += 1
                slot[1] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced


def _lru_totals(functions) -> tuple[int, int]:
    hits = misses = 0
    for fn in functions:
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


class Installed:
    """Context manager that installs a tracer's wrappers and removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object, bool]] = []
        self._lru = ()

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__.get(name), name in owner.__dict__))
        setattr(owner, name, value)

    def __enter__(self) -> Tracer:
        tracer = self.tracer
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        hooks = {
            "trajectory_ndjson": self._after_ndjson,
            "write_epoch_csv": self._after_epoch_csv,
            "run_simulation": self._after_run_simulation,
        }
        originals = []
        for (home, name), key in FUNCTION_SPANS.items():
            original = getattr(importlib.import_module(home), name)
            wrapper = tracer.wrap(key, original, hooks.get(name))
            bound = [m for m in modules if m.__dict__.get(name) is original]
            if importlib.import_module(home) not in bound:
                raise RuntimeError(f"{home}.{name} is not bound where it is defined")
            for module in bound:
                self._set(module, name, wrapper)
            if hasattr(original, "cache_info"):
                originals.append(original)
        self._lru = tuple(originals)

        mechanism = importlib.import_module("epochfpa.mechanism")
        for name in ("view", "participants", "advance"):
            method = getattr(mechanism.Mechanism, name)
            self._set(mechanism.Mechanism, name, tracer.wrap(f"mechanism.{name}", method))
        self._set(
            mechanism.Mechanism,
            "run_round",
            tracer.wrap("mechanism.run_round", mechanism.Mechanism.run_round, self._after_round),
        )

        distributions = importlib.import_module("epochfpa.distributions")
        for cls in (distributions.FiniteSupport, distributions.Uniform, distributions.InverseCdf):
            self._set(
                cls,
                "sample_block",
                tracer.wrap("distributions.sample_block", cls.sample_block, self._after_sample),
            )

        agents = importlib.import_module("epochfpa.agents")
        classes = [getattr(agents, name) for name in AGENT_CLASSES]
        # capture every original before patching, since subclasses inherit
        methods = [(cls, name, getattr(cls, name)) for cls in classes for name in ("bid", "observe")]
        for cls, name, method in methods:
            self._set(cls, name, tracer.wrap(f"agents.{cls.kind}.{name}", method))

        tracer.scalar_cache = _lru_totals(self._lru)
        return tracer

    def __exit__(self, *exc) -> None:
        before = self.tracer.scalar_cache
        after = _lru_totals(self._lru)
        self.tracer.scalar_cache = (after[0] - before[0], after[1] - before[1])
        for owner, name, value, owned in reversed(self._undo):
            if owned:
                setattr(owner, name, value)
            else:
                delattr(owner, name)
        self._undo.clear()

    # -- counters taken from the values crossing a boundary -----------------

    def _after_round(self, outcome, args, kwargs) -> None:
        tracer = self.tracer
        if outcome.phase == "bad":
            tracer.add("mechanism.bad_phase_rounds", 1)
        else:
            tracer.add("mechanism.good_phase_rounds", 1)
            if outcome.cleared:
                tracer.add("mechanism.cleared_good_rounds", 1)

    def _after_sample(self, block, args, kwargs) -> None:
        self.tracer.add("distributions.sample_block_draws", block.size)

    def _after_run_simulation(self, traj, args, kwargs) -> None:
        tracer = self.tracer
        tracer.add("harness.rounds", traj.rounds_executed)
        tracer.add("mechanism.epochs", len(traj.epochs))
        if kwargs.get("substitutes") or len(args) > 3 and args[3]:
            tracer.add("harness.replays", 1)

    def _after_ndjson(self, text, args, kwargs) -> None:
        self.tracer.add("exporters.ndjson_bytes", len(text.encode()))

    def _after_epoch_csv(self, _, args, kwargs) -> None:
        self.tracer.add("exporters.epoch_csv_bytes", os.path.getsize(args[1]))
