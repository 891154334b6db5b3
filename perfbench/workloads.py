"""The benchmark's batch workloads.

Each workload is built once (its set-up), then run as a fixed unit of work
that the benchmark repeats, and its outputs are checked after every unit.
All use epsilon = delta = 0.3 and rho = eps(1-eps)^4/12.  Why each workload
exists, and which layer it stresses, is in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

from epochfpa import agents, cli, harness
from epochfpa.distributions import InverseCdf, Uniform
from epochfpa.mechanism import AgentView, BuyerState, Mechanism, MechanismParams

EPSILON = 0.3
RHO = EPSILON * (1.0 - EPSILON) ** 4 / 12.0
REL_TOL = 1e-9  # totals summed in a different order
REF_TOL = 1e-12  # reference values recorded at the seed commit


def _params(n: int, horizon: int, reset_round=None) -> MechanismParams:
    return MechanismParams(
        n=n, horizon=horizon, epsilon=EPSILON, delta=EPSILON, rho=RHO, reset_round=reset_round
    )


def _close(a: float, b: float, tol: float) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


class Checks:
    """Output checks attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Workload:
    """A batch workload: built from its seed, then run as one fixed unit of work.

    Subclasses set ``name``, ``default_seed``, ``n``, ``horizon`` and
    ``rounds`` (simulated rounds per unit, replays included) and implement
    ``run``, ``check`` (outputs of one unit, against ``reference`` values
    recorded at the default seed when given) and ``reference``.
    """

    def layer_metrics(self, out: dict) -> dict:
        """Per-layer metrics computed from a unit's outputs."""
        return {}


class LearnersExport(Workload):
    """``epochfpa simulate`` in-process on a learner roster, writing every export."""

    name = "learners-export"
    default_seed = 42

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.n = 6
        self.horizon = 1_000 if tiny else 20_000
        self.replications = 3
        self.dist = Uniform(0.0, 1.0)
        doc = {
            "params": {
                "n": self.n, "T": self.horizon, "epsilon": EPSILON, "delta": EPSILON,
                "rho": RHO, "reset_round": 750,  # where ETC exploration ends: 15 x 50
            },
            "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "agents": [
                {"kind": "lookahead"},
                {"kind": "etc"},
                {"kind": "myopic", "good_mode": "empirical"},
                {"kind": "myopic", "good_mode": "empirical"},
                {"kind": "exp3", "levels": 6},
                {"kind": "myopic", "good_mode": "zero"},
            ],
            "seed": seed,
            "replications": self.replications,
        }
        harness.RunConfig.from_dict(doc)
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(doc))
        self.out_dir = workdir / "out"
        Mechanism(_params(self.n, self.horizon), self.dist)
        self.rounds = self.replications * self.horizon

    def run(self) -> dict:
        argv = ["simulate", "--config", str(self.config_path), "--out", str(self.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return {"exit_code": code}

    def check(self, out: dict, checks: Checks, reference) -> None:
        checks(out["exit_code"] == 0, f"simulate exited with {out['exit_code']}")
        with open(self.out_dir / "runs.csv", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["replication"] != "aggregate"]
        checks(len(rows) == self.replications, f"runs.csv holds {len(rows)} replications")
        for row in rows:
            rep = int(row["replication"])
            total = float(row["total_revenue"])
            payments = 0.0
            with open(self.out_dir / f"trajectory_rep{rep:03d}.ndjson") as fh:
                for line in fh:
                    payments += json.loads(line)["payment"]
            checks(_close(payments, total, REL_TOL),
                   f"rep {rep}: ndjson payments {payments!r} != runs.csv revenue {total!r}")
            epoch_revenue = 0.0
            with open(self.out_dir / f"epochs_rep{rep:03d}.csv", newline="") as fh:
                for epoch in csv.DictReader(fh):
                    epoch_revenue += float(epoch["good_revenue"]) + float(epoch["bad_revenue"])
            checks(_close(epoch_revenue, total, REL_TOL),
                   f"rep {rep}: epoch CSV revenue {epoch_revenue!r} != runs.csv revenue {total!r}")
        if reference is not None:
            for name, digest in self.reference(out).items():
                checks(digest == reference.get(name),
                       f"{name}: sha256 {digest} != reference {reference.get(name)}")

    def reference(self, out: dict) -> dict:
        names = [f"trajectory_rep{rep:03d}.ndjson" for rep in range(self.replications)]
        return {
            name: hashlib.sha256((self.out_dir / name).read_bytes()).hexdigest()
            for name in names + ["runs.csv"]
        }


def _sqrt_icdf(p: float) -> float:
    return p**0.5


class PolicyReplay(Workload):
    """One full-mode base run, hindsight profiles, then counterfactual replays."""

    name = "policy-replay"
    default_seed = 5
    replay_buyers = (0, 1)  # exp3 and lookahead

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.n = 4
        self.horizon = 1_000 if tiny else 20_000
        self.dist = InverseCdf(_sqrt_icdf, label="sqrt")
        self.config = harness.RunConfig(
            params=_params(self.n, self.horizon),
            distribution=self.dist,
            agents=[
                {"kind": "exp3"},
                {"kind": "lookahead"},
                {"kind": "myopic"},
                {"kind": "myopic", "good_mode": "zero"},
            ],
            seed=seed,
        )
        self.family = agents.default_expert_family(self.dist)
        # the lookahead buyer's own strategy, as a one-expert family
        self.own = agents.ExpertFamily((agents.Expert(agents.GOOD_TEMPLATE),), self.family.grid)
        Mechanism(self.config.params, self.dist)
        self.rounds = (1 + len(self.replay_buyers) * len(self.family)) * self.horizon

    def run(self) -> dict:
        base = harness.run_simulation(self.config, 0, record="full")
        profiles = [
            harness.external_regret_profile(base, i, self.family) for i in range(self.n)
        ]
        regrets = [
            harness.estimate_policy_regret(self.config, b, self.family, base=base)
            for b in self.replay_buyers
        ]
        return {"base": base, "profiles": profiles, "regrets": regrets}

    def check(self, out: dict, checks: Checks, reference) -> None:
        own = harness.estimate_policy_regret(self.config, 1, self.own, base=out["base"])
        checks(own == 0.0, f"lookahead policy regret against its own strategy is {own!r}")
        if reference is not None:
            for name, values in self.reference(out).items():
                expected = reference[name]
                checks(len(values) == len(expected), f"{name}: {len(values)} values")
                for j, (got, want) in enumerate(zip(values, expected)):
                    checks(_close(got, want, REF_TOL), f"{name}[{j}]: {got!r} != {want!r}")

    def reference(self, out: dict) -> dict:
        ref = {f"external_regret_profile.buyer{i}": [float(x) for x in p]
               for i, p in enumerate(out["profiles"])}
        ref["policy_regret"] = [float(r) for r in out["regrets"]]
        return ref

    def layer_metrics(self, out: dict) -> dict:
        shares = {b: shared_prefix_shares(out["base"], b, self.family) for b in self.replay_buyers}
        metrics = {
            f"harness.replay_shared_prefix_share.buyer{b}": sum(s) / len(s)
            for b, s in shares.items()
        }
        every = [x for s in shares.values() for x in s]
        metrics["harness.replay_shared_prefix_share"] = sum(every) / len(every)
        return metrics


def shared_prefix_shares(base, buyer: int, family) -> list[float]:
    """Per expert, the share of rounds a replay shares with the base run.

    Under common random numbers a replay that substitutes an expert for the
    buyer repeats the base run exactly up to the first round in which the
    expert would bid differently from the realized bid.
    """
    configs = {e.config.index: e.config for e in base.epochs}
    views = []
    for outcome in base.rounds:
        states = outcome.states_before
        view = AgentView(
            t=outcome.t,
            phase=outcome.phase,
            config=configs[outcome.epoch],
            uncleared=outcome.uncleared_before,
            states=states,
            num_good=sum(1 for s in states if s == BuyerState.GOOD),
            num_bad=sum(1 for s in states if s == BuyerState.BAD),
        )
        views.append((view, outcome.bids.get(buyer), float(base.values[outcome.t][buyer])))
    shares = []
    for j in range(len(family)):
        first = base.rounds_executed
        for view, realized, value in views:
            if realized is not None and family.bid(j, view, buyer, value) != realized:
                first = view.t
                break
        shares.append(first / base.rounds_executed)
    return shares


WORKLOADS = {w.name: w for w in (LearnersExport, PolicyReplay)}
