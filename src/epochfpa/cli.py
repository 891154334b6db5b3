"""Command-line interface.

Subcommands: ``simulate`` runs a config and writes trajectories plus
summaries, ``inspect`` prints the auction scalars of a prior, ``bounds``
prints the theoretical bound report for a config, and ``verify`` runs a named
verification suite.  Exit codes: 0 success, 1 failed verification, 2 bad
configuration or usage.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import sys
from pathlib import Path

from .distributions import (
    from_spec,
    monopoly_reserve,
    myerson_revenue,
    myerson_win_prob,
    tail_quantile,
    upper_tail_mean,
    win_quantile,
)
from .harness import (
    ConfigError,
    RunConfig,
    bound_report,
    mean_se,
    run_replications,
    summarize,
    write_epoch_csv,
    write_trajectory,
)
from .rng import _seed
from .suites import SUITES, run_suite

# every error the package raises for bad input is a ValueError
_USER_ERRORS = (ValueError, OSError)


def _load_dist(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        with open(text) as fh:
            doc = json.load(fh)
    return from_spec(doc)


def _cmd_inspect(args) -> int:
    dist, m, n = _load_dist(args.dist), args.m, args.n
    # all computed before the first line, so a bad count prints nothing
    lines = [
        f"kind={dist.kind}",
        f"m={m}",
        f"n={n}",
        f"mean={dist.mean():.10g}",
        f"tail_quantile={tail_quantile(dist, m):.10g}",
        f"upper_tail_mean={upper_tail_mean(dist, m):.10g}",
        f"win_prob={myerson_win_prob(dist, m):.10g}",
        f"win_quantile={win_quantile(dist, m):.10g}",
        f"monopoly_reserve={monopoly_reserve(dist):.10g}",
        f"myerson_revenue={myerson_revenue(dist, n):.10g}",
    ]
    print("\n".join(lines))
    return 0


def _load_config(path) -> RunConfig:
    """Read a run config and build its roster once, so a bad agent spec fails
    before any work is done or any file is written."""
    config = RunConfig.from_file(path)
    config.build_agents()
    return config


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)  # a new config checks it
    target = args.out if args.out is not None else config.out_dir
    if target is None:
        raise ConfigError("no output directory: pass --out or set out_dir in the config")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    # no enumerate: its result tuple would hold the last trajectory too
    for traj in run_replications(config, record="full"):
        rep = traj.replication
        write_trajectory(traj, out / f"trajectory_rep{rep:03d}.ndjson")
        write_epoch_csv(traj, out / f"epochs_rep{rep:03d}.csv")
        summary = summarize(traj)
        rows.append(summary)
        (out / f"summary_rep{rep:03d}.json").write_text(
            json.dumps(dataclasses.asdict(summary), indent=2, sort_keys=True) + "\n"
        )
        # the loop variable would hold it while the next replication runs
        del traj
    rates = [s.revenue_per_round for s in rows]
    mean, se = mean_se(rates)
    with open(out / "runs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replication", "rounds", "revenue_per_round", "total_revenue"])
        for rep, s in enumerate(rows):
            writer.writerow(
                [rep, s.rounds, repr(float(s.revenue_per_round)), repr(float(s.total_revenue))]
            )
        writer.writerow(["aggregate", rows[0].rounds, repr(mean), f"ci95=±{1.96 * se:.6g}"])
    print(f"wrote {config.replications} replication(s) to {out}")
    print(f"revenue_per_round={mean:.6g} ci95=±{1.96 * se:.6g}")
    return 0


def _cmd_bounds(args) -> int:
    config = _load_config(args.config)
    report = bound_report(config, measure=args.measure)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = _seed(args.seed, ConfigError)
    if args.replications is not None:
        overrides["replications"] = args.replications
    accepted = inspect.signature(SUITES[args.suite]).parameters
    for name in overrides:
        if name not in accepted:
            raise ConfigError(f"suite {args.suite} does not take --{name}")
    report = run_suite(args.suite, **overrides)
    print(f"=== suite {report.name}: {'PASS' if report.passed else 'FAIL'} ===")
    for line in report.lines:
        print(line)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epochfpa",
        description="Epoch-based state-dependent repeated first-price auctions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="print auction scalars for a prior")
    p.add_argument("--dist", required=True, help="distribution JSON (inline or a file path)")
    p.add_argument("--m", type=int, required=True, help="competing-buyer count for quantiles")
    p.add_argument("--n", type=int, required=True, help="buyer count for optimal revenue")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("simulate", help="run a config and write trajectories")
    p.add_argument("--config", required=True, help="run config JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument(
        "--out", default=None, help="output directory (falls back to the config's out_dir)"
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bounds", help="print the bound report for a config")
    p.add_argument("--config", required=True, help="run config JSON file")
    p.add_argument(
        "--measure", action="store_true", help="also run the config and measure revenue"
    )
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--replications", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
