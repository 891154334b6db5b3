"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.  The
workload's unit of work is repeated until ``--seconds`` would be exceeded
(at least ``MIN_UNITS`` times).  ``wall_s`` is the mean unit time, the timed
seconds over the units timed: on a host whose speed flips for seconds at a
time, it is steadier from run to run than the median of a few units.  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced units alternate and it reports the
per-layer metrics.  Either way every unit's outputs are checked.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKLOAD_NAMES = ("learners-export", "policy-replay")
SETUP_REPEATS = 5
MIN_UNITS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "passed_share": "share",
}

AGENT_KINDS = ("good-strategy", "lookahead", "myopic", "exp3", "etc", "expert")
PER_LAYER = {
    "distributions.scalar_calls": "count",
    "distributions.scalar_s": "s",
    "distributions.scalar_cache_hit_ratio": "share",
    "distributions.sample_block_calls": "count",
    "distributions.sample_block_s": "s",
    "distributions.sample_block_draws": "count",
    "mechanism.run_round_calls": "count",
    "mechanism.run_round_s": "s",
    "mechanism.view_s": "s",
    "mechanism.participants_s": "s",
    "mechanism.advance_s": "s",
    "mechanism.derive_epoch_config_calls": "count",
    "mechanism.derive_epoch_config_s": "s",
    "mechanism.epochs": "count",
    "mechanism.bad_phase_rounds": "count",
    "mechanism.cleared_share": "share",
    **{
        f"agents.{kind}.{metric}": unit
        for kind in AGENT_KINDS
        for metric, unit in (("bid_calls", "count"), ("bid_s", "s"), ("observe_s", "s"))
    },
    "harness.run_simulation_calls": "count",
    "harness.rounds": "count",
    "harness.loop_self_s": "s",
    "harness.external_regret_s": "s",
    "harness.policy_regret_s": "s",
    "harness.replays": "count",
    "harness.replay_shared_prefix_share": "share",
    "harness.replay_shared_prefix_share.buyer0": "share",
    "harness.replay_shared_prefix_share.buyer1": "share",
    "exporters.ndjson_s": "s",
    "exporters.ndjson_bytes": "bytes",
    "exporters.epoch_csv_s": "s",
    "exporters.epoch_csv_bytes": "bytes",
    "cli.simulate_self_s": "s",
    "trace.overhead_share": "share",
}

# span keys each workload must see fire at least once in a traced unit, so a
# wrapper installed on the wrong binding fails instead of reading as zero
_CORE = (
    "distributions.scalar",
    "distributions.sample_block",
    "mechanism.run_round",
    "mechanism.view",
    "mechanism.participants",
    "mechanism.advance",
    "mechanism.derive_epoch_config",
    "harness.run_simulation",
    "agents.lookahead.bid",
    "agents.lookahead.observe",
    "agents.myopic.bid",
    "agents.myopic.observe",
)
EXERCISED = {
    "learners-export": _CORE + (
        "agents.etc.bid", "agents.etc.observe", "agents.exp3.bid", "agents.exp3.observe",
        "exporters.ndjson", "exporters.epoch_csv", "cli.simulate",
    ),
    "policy-replay": _CORE + (
        "agents.exp3.bid", "agents.exp3.observe", "agents.expert.bid", "agents.expert.observe",
        "harness.external_regret", "harness.policy_regret",
    ),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_package():
    """Import epochfpa from this checkout's sources, never from elsewhere."""
    if not (SRC / "epochfpa" / "__init__.py").is_file():
        raise SystemExit(f"error: no epochfpa sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import epochfpa

    if Path(epochfpa.__file__).resolve().parent != SRC / "epochfpa":
        raise SystemExit(f"error: epochfpa imported from {epochfpa.__file__}, not {SRC}")
    import workloads

    return workloads


def setup_probe(workload: str, seed: int) -> float:
    """Import and set-up time of the workload, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


@contextlib.contextmanager
def work_dir():
    """A per-process directory for workload files, removed afterwards."""
    path = OUT / str(os.getpid())
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()


def git_commit() -> str | None:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
        "T": workload.horizon,
        "n": workload.n,
        "rounds": workload.rounds,
    }


def layer_metrics(tracer, workload, out) -> dict:
    calls, self_s, count = tracer.calls, tracer.self_s, tracer.counts.get
    hits, misses = tracer.scalar_cache
    good = count("mechanism.good_phase_rounds", 0)
    metrics = {
        "distributions.scalar_calls": calls("distributions.scalar"),
        "distributions.scalar_s": self_s("distributions.scalar"),
        "distributions.scalar_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "distributions.sample_block_calls": calls("distributions.sample_block"),
        "distributions.sample_block_s": self_s("distributions.sample_block"),
        "distributions.sample_block_draws": count("distributions.sample_block_draws", 0),
        "mechanism.run_round_calls": calls("mechanism.run_round"),
        "mechanism.run_round_s": self_s("mechanism.run_round"),
        "mechanism.view_s": self_s("mechanism.view"),
        "mechanism.participants_s": self_s("mechanism.participants"),
        "mechanism.advance_s": self_s("mechanism.advance"),
        "mechanism.derive_epoch_config_calls": calls("mechanism.derive_epoch_config"),
        "mechanism.derive_epoch_config_s": self_s("mechanism.derive_epoch_config"),
        "mechanism.epochs": count("mechanism.epochs", 0),
        "mechanism.bad_phase_rounds": count("mechanism.bad_phase_rounds", 0),
        "mechanism.cleared_share": count("mechanism.cleared_good_rounds", 0) / good if good else 0.0,
        "harness.run_simulation_calls": calls("harness.run_simulation"),
        "harness.rounds": count("harness.rounds", 0),
        "harness.loop_self_s": self_s("harness.run_simulation"),
        "harness.external_regret_s": self_s("harness.external_regret"),
        "harness.policy_regret_s": self_s("harness.policy_regret"),
        "harness.replays": count("harness.replays", 0),
        "harness.replay_shared_prefix_share": 0.0,
        "harness.replay_shared_prefix_share.buyer0": 0.0,
        "harness.replay_shared_prefix_share.buyer1": 0.0,
        "exporters.ndjson_s": self_s("exporters.ndjson"),
        "exporters.ndjson_bytes": count("exporters.ndjson_bytes", 0),
        "exporters.epoch_csv_s": self_s("exporters.epoch_csv"),
        "exporters.epoch_csv_bytes": count("exporters.epoch_csv_bytes", 0),
        "cli.simulate_self_s": self_s("cli.simulate"),
    }
    for kind in AGENT_KINDS:
        metrics[f"agents.{kind}.bid_calls"] = calls(f"agents.{kind}.bid")
        metrics[f"agents.{kind}.bid_s"] = self_s(f"agents.{kind}.bid")
        metrics[f"agents.{kind}.observe_s"] = self_s(f"agents.{kind}.observe")
    metrics.update(workload.layer_metrics(out))
    missed = [key for key in EXERCISED[workload.name] if tracer.calls(key) == 0]
    if missed:
        raise RuntimeError(f"{workload.name}: wrapped boundaries never fired: {missed}")
    if metrics["harness.rounds"] != workload.rounds:
        raise RuntimeError(
            f"{workload.name}: traced {metrics['harness.rounds']} rounds, expected {workload.rounds}"
        )
    return metrics


def measure(
    name: str,
    seed: int | None,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    setup_repeats: int = SETUP_REPEATS,
    min_units: int = MIN_UNITS,
) -> tuple[dict, dict]:
    """Run one workload; return the result object and the environment block."""
    workloads = load_package()
    import spans

    if seed is None:
        seed = workloads.WORKLOADS[name].default_seed
    with work_dir() as workdir:
        setup = [setup_probe(name, seed) for _ in range(setup_repeats)]
        workload = workloads.WORKLOADS[name](seed, workdir, tiny)
        reference = None
        if seed == workload.default_seed and not tiny:
            reference = json.loads(REFERENCE.read_text())[name]
        checks = workloads.Checks()
        plain, traced, layers = [], [], []
        deadline = perf_counter() + seconds
        while True:
            unit_start = start = perf_counter()
            out = workload.run()
            plain.append(perf_counter() - start)
            workload.check(out, checks, reference)
            if trace:
                tracer = spans.Tracer()
                with spans.Installed(tracer):
                    start = perf_counter()
                    out = workload.run()
                    traced.append(perf_counter() - start)
                workload.check(out, checks, reference)
                layers.append(layer_metrics(tracer, workload, out))
            now = perf_counter()
            if len(plain) >= min_units and now + (now - unit_start) > deadline:
                break
        env = environment(workload, seed)

    wall = statistics.fmean(plain)
    if trace:
        values = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        values["trace.overhead_share"] = statistics.fmean(traced) / wall - 1.0
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "rounds_per_s": workload.rounds / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_share": 1.0 - len(checks.failures) / checks.attempted,
        }
        units = END_TO_END
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    env["unit_wall_s"] = plain
    return result, env


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        start = perf_counter()
        workload = load_package().WORKLOADS[args.workload]
        with work_dir() as workdir:
            workload(workload.default_seed if args.seed is None else args.seed, workdir)
        print(perf_counter() - start)
        return 0
    result, env = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment " + json.dumps(env, sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} failed_share {result['failed'] / result['attempted']:.6g} share")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
