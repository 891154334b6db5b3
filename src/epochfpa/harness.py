"""Simulation driver, bound calculators, regret estimators, and exports.

A run is fully determined by its config and seed: the value generator, the
tie-breaker, and every agent draw from independently named streams, so two
runs with the same seed produce byte-identical trajectory files and replacing
one agent in a counterfactual re-run perturbs no other stream (common random
numbers).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from .agents import Agent, AgentError, ExpertAgent, ExpertFamily, build_agent
from .distributions import (
    ValueDistribution,
    from_spec,
    myerson_revenue,
    to_spec,
    upper_tail_mean,
)
from .mechanism import (
    GOOD_PHASE,
    AgentView,
    BuyerState,
    EpochRecord,
    Mechanism,
    MechanismError,
    MechanismParams,
    RoundOutcome,
)
from .rng import substream

__all__ = [
    "ConfigError",
    "RunConfig",
    "Trajectory",
    "RunSummary",
    "run_simulation",
    "run_replications",
    "summarize",
    "mean_se",
    "theorem_lower_bound",
    "revenue_upper_bound",
    "revenue_slack",
    "classify_roster",
    "BoundReport",
    "bound_report",
    "estimate_external_regret",
    "external_regret_profile",
    "estimate_policy_regret",
    "trajectory_ndjson",
    "write_trajectory",
    "write_epoch_csv",
]


class ConfigError(ValueError):
    """Malformed run configuration."""


def _integer(x, name: str, optional: bool = False):
    """``x`` as an int if it is an integer; bools and floats such as 50.0 are refused."""
    if optional and x is None:
        return None
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {x!r}")
    return int(x)


@dataclass
class RunConfig:
    """A reproducible simulation: parameters, prior, roster, seed, replications."""

    params: MechanismParams
    distribution: ValueDistribution
    agents: list[dict]
    seed: int
    replications: int = 1
    out_dir: Optional[str] = None

    def __post_init__(self):
        if len(self.agents) != self.params.n:
            raise ConfigError(
                f"roster size {len(self.agents)} must equal n={self.params.n}"
            )
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        for i, spec in enumerate(self.agents):
            if not isinstance(spec, dict):
                raise ConfigError(f"roster entry {i} must be an object, got {spec!r}")
        ids = [spec.get("id", i) for i, spec in enumerate(self.agents)]
        if sorted(ids) != list(range(self.params.n)):
            raise ConfigError("agent ids must be exactly 0..n-1")
        self.agents = [s for _, s in sorted(zip(ids, self.agents))]

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        try:
            p = doc["params"]
            params = MechanismParams(
                n=_integer(p["n"], "n"),
                horizon=_integer(p["T"], "T"),
                epsilon=p["epsilon"],
                delta=p["delta"],
                rho=p["rho"],
                reset_round=_integer(p.get("reset_round"), "reset_round", optional=True),
            )
            return cls(
                params=params,
                distribution=from_spec(doc["distribution"]),
                agents=list(doc["agents"]),
                seed=_integer(doc["seed"], "seed"),
                replications=_integer(doc.get("replications", 1), "replications"),
                out_dir=doc.get("out_dir"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed run config: {exc}") from None

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        p = self.params
        doc = {
            "params": {
                "n": p.n,
                "T": p.horizon,
                "epsilon": p.epsilon,
                "delta": p.delta,
                "rho": p.rho,
                "reset_round": p.reset_round,
            },
            "distribution": to_spec(self.distribution),
            "agents": [dict(spec) for spec in self.agents],
            "seed": self.seed,
            "replications": self.replications,
        }
        if self.out_dir is not None:
            doc["out_dir"] = self.out_dir
        return doc

    def build_agents(
        self,
        replication: int = 0,
        substitutes: Optional[dict[int, Callable[[], Agent]]] = None,
    ) -> list[Agent]:
        """The roster of one replication, each agent built and bound to its slot.

        ``substitutes`` swaps in freshly built agents for selected slots; every
        agent draws from its own named stream either way.
        """
        agents = [
            substitutes[i]() if substitutes and i in substitutes else build_agent(spec)
            for i, spec in enumerate(self.agents)
        ]
        for i, agent in enumerate(agents):
            agent.bind(
                i,
                self.params,
                self.distribution,
                substream(self.seed, "rep", replication, "agent", i),
            )
        return agents


@dataclass
class Trajectory:
    """Complete log of one run, sufficient for seeded counterfactual replay."""

    seed: int
    replication: int
    rounds_executed: int
    values: np.ndarray
    epochs: list[EpochRecord]
    final_states: tuple[BuyerState, ...]
    agent_utilities: np.ndarray
    agent_wins: np.ndarray
    state_rounds: np.ndarray
    epoch_agent_utilities: list[np.ndarray]
    good_rounds: int
    uncleared_good_rounds: int
    rounds: Optional[list[RoundOutcome]] = None

    @property
    def total_revenue(self) -> float:
        return float(sum(e.good_revenue + e.bad_revenue for e in self.epochs))

    @property
    def revenue_per_round(self) -> float:
        if self.rounds_executed == 0:
            return 0.0
        return self.total_revenue / self.rounds_executed


def run_simulation(
    config: RunConfig,
    replication: int = 0,
    record: str = "full",
    substitutes: Optional[dict[int, Callable[[], Agent]]] = None,
    *,
    values: Optional[np.ndarray] = None,
) -> Trajectory:
    """Execute one replication, deterministic given (config, replication).

    ``record="full"`` keeps every round outcome (needed for hindsight-regret
    replay and trajectory export); ``"light"`` keeps only per-epoch records
    and aggregate accounting.  ``substitutes`` swaps in freshly built agents
    for selected buyer slots; all other streams are unaffected.

    ``values`` supplies the (T, n) valuation block instead of drawing it.  It
    must be the block this (config, replication) draws, e.g. the ``values``
    of an earlier run of it, which makes a counterfactual replay skip
    re-sampling the prior; the trajectory then shares that array.  A block
    of another shape raises ``ConfigError``.
    """
    if record not in ("full", "light"):
        raise ConfigError(f"unknown record mode {record!r}")
    params, dist, n = config.params, config.distribution, config.params.n
    horizon = params.horizon

    agents = config.build_agents(replication, substitutes)

    if values is None:
        values = dist.sample_block(
            substream(config.seed, "rep", replication, "values"), (horizon, n)
        ).reshape(horizon, n)
    else:
        values = np.asarray(values, dtype=float)
        if values.shape != (horizon, n):
            raise ConfigError(
                f"values must have shape (T, n) = {(horizon, n)}, got {values.shape}"
            )
    ties = substream(config.seed, "rep", replication, "tie").random(horizon).tolist()

    mech = Mechanism(params, dist)
    bidders = [agent.bid for agent in agents]
    # Agent.observe does nothing, so agents that keep it are never told
    observers = [
        agent.observe if type(agent).observe is not Agent.observe else None
        for agent in agents
    ]
    utilities = [0.0] * n
    wins = [0] * n
    state_rounds = [[0, 0, 0] for _ in range(n)]
    epoch_utils: list[list[float]] = []
    epoch_util = [0.0] * n
    epochs_seen = 0
    good_rounds = 0
    uncleared_good = 0
    rounds: Optional[list[RoundOutcome]] = [] if record == "full" else None
    # the mechanism replaces its states tuple whenever a state changes, so
    # occupancy is counted once per run of rounds sharing one tuple
    segment_states, segment_start = mech.states_snapshot(), 0

    t = 0
    while t < horizon:
        while len(mech.epoch_records) > epochs_seen:
            epoch_utils.append(epoch_util)
            epoch_util = [0.0] * n
            epochs_seen += 1
        states = mech.states_snapshot()
        if states is not segment_states:
            _count_states(state_rounds, segment_states, t - segment_start)
            segment_states, segment_start = states, t
        participants = mech.participants()
        if not participants:
            # the phase stays empty until it ends or the reset fires, and no
            # agent, value or tie is read meanwhile: one mechanism step
            good = mech.phase == GOOD_PHASE
            k = mech.run_idle(horizon - t, rounds)
            if good:
                good_rounds += k
                uncleared_good += k
            t += k
            continue
        view = mech.view()
        vrow = values[t].tolist()
        try:
            bids = {i: bidders[i](view, vrow[i]) for i in participants}
            outcome = mech.run_round(bids, ties[t])
        except (MechanismError, AgentError) as exc:
            raise type(exc)(
                f"round {t} ({view.phase} phase, epoch {view.config.index}): {exc}"
            ) from exc
        winner = outcome.winner
        if outcome.phase == GOOD_PHASE:
            good_rounds += 1
            if not outcome.cleared:
                uncleared_good += 1
        gain = 0.0
        if winner is not None:
            gain = vrow[winner] - outcome.payment
            utilities[winner] += gain
            epoch_util[winner] += gain
            wins[winner] += 1
        for i in participants:
            observe = observers[i]
            if observe is not None:
                observe(view, vrow[i], gain if i == winner else 0.0, bids, winner)
        if rounds is not None:
            rounds.append(outcome)
        mech.advance()
        t += 1

    _count_states(state_rounds, segment_states, horizon - segment_start)
    final_states = mech.states_snapshot()
    mech.finish()
    while len(epoch_utils) < len(mech.epoch_records):
        epoch_utils.append(epoch_util)
        epoch_util = [0.0] * n

    return Trajectory(
        seed=config.seed,
        replication=replication,
        rounds_executed=horizon,
        values=values,
        epochs=list(mech.epoch_records),
        final_states=final_states,
        agent_utilities=np.array(utilities, dtype=float),
        agent_wins=np.array(wins, dtype=int),
        state_rounds=np.array(state_rounds, dtype=int),
        epoch_agent_utilities=[np.array(u, dtype=float) for u in epoch_utils],
        good_rounds=good_rounds,
        uncleared_good_rounds=uncleared_good,
        rounds=rounds,
    )


def _count_states(state_rounds: list[list[int]], states, rounds: int) -> None:
    for i, s in enumerate(states):
        state_rounds[i][s] += rounds


def run_replications(config: RunConfig, record: str = "light") -> Iterator[Trajectory]:
    """Every replication of ``config`` in order, one trajectory at a time, so
    that no caller holds more than the one it is reading."""
    for rep in range(config.replications):
        yield run_simulation(config, rep, record=record)


# ---------------------------------------------------------------------------
# summaries and statistics
# ---------------------------------------------------------------------------


@dataclass
class RunSummary:
    rounds: int
    revenue_per_round: float
    total_revenue: float
    good_revenue: float
    bad_revenue: float
    epoch_revenue: list[tuple[float, float]]
    agent_utilities: list[float]
    agent_wins: list[int]
    state_occupancy: list[dict[str, float]]
    uncleared_good_fraction: float

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "revenue_per_round": self.revenue_per_round,
            "total_revenue": self.total_revenue,
            "good_revenue": self.good_revenue,
            "bad_revenue": self.bad_revenue,
            "epoch_revenue": [list(pair) for pair in self.epoch_revenue],
            "agent_utilities": self.agent_utilities,
            "agent_wins": self.agent_wins,
            "state_occupancy": self.state_occupancy,
            "uncleared_good_fraction": self.uncleared_good_fraction,
        }


def summarize(traj: Trajectory) -> RunSummary:
    """Aggregate a trajectory into revenue, utility, and occupancy statistics."""
    good = sum(e.good_revenue for e in traj.epochs)
    bad = sum(e.bad_revenue for e in traj.epochs)
    occupancy = []
    for i in range(traj.state_rounds.shape[0]):
        total = max(1, traj.rounds_executed)
        occupancy.append(
            {
                "good": traj.state_rounds[i][BuyerState.GOOD] / total,
                "bad": traj.state_rounds[i][BuyerState.BAD] / total,
                "rest": traj.state_rounds[i][BuyerState.REST] / total,
            }
        )
    return RunSummary(
        rounds=traj.rounds_executed,
        revenue_per_round=traj.revenue_per_round,
        total_revenue=traj.total_revenue,
        good_revenue=good,
        bad_revenue=bad,
        epoch_revenue=[(e.good_revenue, e.bad_revenue) for e in traj.epochs],
        agent_utilities=[float(u) for u in traj.agent_utilities],
        agent_wins=[int(w) for w in traj.agent_wins],
        state_occupancy=occupancy,
        uncleared_good_fraction=(
            traj.uncleared_good_rounds / traj.good_rounds if traj.good_rounds else 0.0
        ),
    )


def mean_se(samples) -> tuple[float, float]:
    """Sample mean and its standard error (0 for fewer than two samples)."""
    xs = np.asarray(list(samples), dtype=float)
    if xs.size == 0:
        return 0.0, 0.0
    if xs.size == 1:
        return float(xs[0]), 0.0
    return float(xs.mean()), float(xs.std(ddof=1) / math.sqrt(xs.size))


# ---------------------------------------------------------------------------
# theoretical bounds
# ---------------------------------------------------------------------------


def theorem_lower_bound(
    dist: ValueDistribution,
    params: MechanismParams,
    n_soph: int,
    n_naive: int,
    variant: str = "main",
) -> float:
    """Guaranteed per-round revenue for a split roster.

    ``variant="main"`` is the headline constant; ``"conservative"`` carries
    the extra (1-delta)(1-rho) factor from the fully explicit analysis.
    """
    if n_soph < 0 or n_naive < 0 or n_soph + n_naive != params.n:
        raise ConfigError("sophisticated and naive counts must partition the roster")
    eps, rho = params.epsilon, params.rho
    tail = upper_tail_mean(dist, n_soph) if n_soph > 0 else 0.0
    opt = myerson_revenue(dist, n_naive) if n_naive > 0 else 0.0
    if variant == "main":
        lead = (1.0 - eps) / 4.0
    elif variant == "conservative":
        lead = (1.0 - eps) * (1.0 - params.delta) * (1.0 - rho) / 4.0
    else:
        raise ConfigError(f"unknown bound variant {variant!r}")
    return lead * tail + (rho * (1.0 - eps) / 2.0) * (1.0 - 1.0 / math.e) * opt


def revenue_upper_bound(dist: ValueDistribution, n_soph: int, n_naive: int) -> float:
    """No mechanism can beat this per-round revenue for the given split."""
    if n_soph < 0 or n_naive < 0:
        raise ConfigError("counts must be nonnegative")
    tail = upper_tail_mean(dist, n_soph) if n_soph > 0 else 0.0
    opt = myerson_revenue(dist, n_naive) if n_naive > 0 else 0.0
    return tail + opt


def revenue_slack(
    params: MechanismParams,
    dist: ValueDistribution,
    rounds: int,
    extra_epochs: int = 0,
) -> float:
    """Finite-horizon slack: one discounted epoch per buyer that can turn bad,
    plus one per epoch containing flagged learner behavior."""
    if rounds <= 0:
        return 0.0
    max_good_reserve = (1.0 - params.epsilon) * upper_tail_mean(dist, params.n)
    return (params.n + extra_epochs) * params.max_epoch_length * max_good_reserve / rounds


def classify_roster(config: RunConfig) -> tuple[int, int]:
    """Count sophisticated vs naive buyers, as each bound agent declares itself."""
    n_soph = sum(agent.sophisticated for agent in config.build_agents())
    return n_soph, config.params.n - n_soph


@dataclass
class BoundReport:
    n_soph: int
    n_naive: int
    lower_bound: float
    lower_bound_conservative: float
    upper_bound: float
    slack: float
    measured_mean: Optional[float] = None
    measured_se: Optional[float] = None
    checks: list[tuple[str, bool, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> list[str]:
        out = [
            f"roster: {self.n_soph} sophisticated, {self.n_naive} naive",
            f"lower_bound_per_round={self.lower_bound:.6f}",
            f"lower_bound_conservative={self.lower_bound_conservative:.6f}",
            f"upper_bound_per_round={self.upper_bound:.6f}",
            f"slack={self.slack:.6f}",
        ]
        if self.measured_mean is not None:
            out.append(
                f"measured_per_round={self.measured_mean:.6f} "
                f"ci95=±{1.96 * self.measured_se:.6f}"
            )
        for name, ok, margin in self.checks:
            out.append(f"[{'PASS' if ok else 'FAIL'}] {name} (margin {margin:+.6f})")
        return out


def bound_report(config: RunConfig, measure: bool = True) -> BoundReport:
    """Theoretical bounds for a config, optionally with measured revenue."""
    n_soph, n_naive = classify_roster(config)
    dist, params = config.distribution, config.params
    report = BoundReport(
        n_soph=n_soph,
        n_naive=n_naive,
        lower_bound=theorem_lower_bound(dist, params, n_soph, n_naive),
        lower_bound_conservative=theorem_lower_bound(
            dist, params, n_soph, n_naive, variant="conservative"
        ),
        upper_bound=revenue_upper_bound(dist, n_soph, n_naive),
        slack=revenue_slack(params, dist, params.horizon),
    )
    if not measure:
        return report
    mean, se = mean_se(t.revenue_per_round for t in run_replications(config))
    report.measured_mean, report.measured_se = mean, se
    floor = report.lower_bound - report.slack - 3.0 * se
    ceil = report.upper_bound + 3.0 * se
    report.checks.append(("revenue >= lower bound - slack - 3se", mean >= floor, mean - floor))
    report.checks.append(("revenue <= upper bound + 3se", mean <= ceil, ceil - mean))
    return report


# ---------------------------------------------------------------------------
# regret estimation
# ---------------------------------------------------------------------------


def _rebuild_view(outcome: RoundOutcome, configs: dict[int, object]) -> AgentView:
    states = outcome.states_before
    return AgentView(
        t=outcome.t,
        phase=outcome.phase,
        config=configs[outcome.epoch],
        uncleared=outcome.uncleared_before,
        states=states,
        num_good=sum(1 for s in states if s == BuyerState.GOOD),
        num_bad=sum(1 for s in states if s == BuyerState.BAD),
    )


def external_regret_profile(
    traj: Trajectory, agent: int, family: ExpertFamily
) -> np.ndarray:
    """Hindsight total utility of each expert holding everyone else fixed.

    Each realized round is rescored with the agent's bid replaced by the
    expert's bid, the other bids and the mechanism state frozen.  A bid equal
    to the realized one reproduces the realized outcome exactly; a changed bid
    that ties the top rival is scored as a loss (a conservative convention).
    """
    if traj.rounds is None:
        raise ConfigError("hindsight regret needs a trajectory recorded in full mode")
    if len(family) == 0:
        raise ConfigError("expert family must be non-empty")
    configs = {e.config.index: e.config for e in traj.epochs}
    totals = np.zeros(len(family))
    for outcome in traj.rounds:
        if agent not in outcome.bids:
            continue
        view = _rebuild_view(outcome, configs)
        value = float(traj.values[outcome.t][agent])
        reserve = (
            view.config.good_reserve if outcome.phase == GOOD_PHASE else view.config.bad_reserve
        )
        own = outcome.bids[agent]
        rival = max((b for i, b in outcome.bids.items() if i != agent), default=None)
        realized = (value - outcome.payment) if outcome.winner == agent else 0.0
        for j in range(len(family)):
            b = family.bid(j, view, agent, value)
            if b == own:
                totals[j] += realized
            elif b >= reserve and (rival is None or b > rival):
                totals[j] += value - b
    return totals


def estimate_external_regret(traj: Trajectory, agent: int, family: ExpertFamily) -> float:
    """Hindsight regret: best expert total minus the realized total."""
    totals = external_regret_profile(traj, agent, family)
    return float(totals.max() - traj.agent_utilities[agent])


def estimate_policy_regret(
    config: RunConfig,
    agent: int,
    family: ExpertFamily,
    replication: int = 0,
    base: Optional[Trajectory] = None,
) -> float:
    """Counterfactual regret under common random numbers.

    Each expert replaces the agent for a full re-run with the same master
    seed: identical value draws, identical tie-break draws, and identical
    internal streams for every other agent.  Returns the best counterfactual
    total utility minus the realized one.

    ``base`` is the realized run of ``(config, replication)``, if one exists;
    the replays reuse its value block rather than drawing it again.  A base
    with another seed, replication, horizon or roster size raises
    ``ConfigError``.
    """
    if len(family) == 0:
        raise ConfigError("expert family must be non-empty")
    params = config.params
    if base is None:
        base = run_simulation(config, replication, record="light")
    elif (base.seed, base.replication) != (config.seed, replication):
        raise ConfigError(
            "base trajectory seed metadata does not match the config; "
            "counterfactual replays need identical streams"
        )
    elif base.values.shape != (params.horizon, params.n):
        raise ConfigError(
            f"base trajectory holds values for {base.values.shape} (rounds, buyers) "
            f"but the config has horizon {params.horizon} and n={params.n}"
        )
    realized = float(base.agent_utilities[agent])
    best = -math.inf
    for j in range(len(family)):
        counter = run_simulation(
            config,
            replication,
            record="light",
            substitutes={agent: lambda j=j: ExpertAgent(family, j)},
            values=base.values,
        )
        best = max(best, float(counter.agent_utilities[agent]))
    return best - realized


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def trajectory_ndjson(traj: Trajectory) -> str:
    """Line-delimited JSON, one record per round; byte-stable across runs.

    Each line is the text ``json.dumps(record, sort_keys=True,
    separators=(",", ":"))`` gives for a record with the keys ``allocations``,
    ``bids``, ``cleared``, ``epoch``, ``participants``, ``payment``,
    ``phase``, ``t``, ``transitions`` (``[buyer, from, to]`` with state
    labels), ``uncleared`` (after the round) and ``winner``, in that order.
    Bid keys are buyer ids as decimal strings, sorted as strings, so ``"10"``
    comes before ``"2"``.  Lines are formatted directly: an exact finite
    ``float`` is written with ``float.__repr__`` as the encoder does, and any
    other number (an ``int`` bid, ``np.float64``, a non-finite float) goes
    through the encoder itself.
    """
    if traj.rounds is None:
        raise ConfigError("trajectory was not recorded in full mode")
    encode = _COMPACT_ENCODER.encode
    part_texts: dict[tuple, str] = {}  # the mechanism reuses participants tuples
    key_orders: dict[tuple, tuple] = {}  # bid keys -> ((key, '"key":'), ...) in string order
    lines = []
    # text of the last allocations: it stands until a win changes them
    last_allocations = alloc_text = None
    for o in traj.rounds:
        bids = o.bids
        if bids:
            keys = tuple(bids)
            order = key_orders.get(keys)
            if order is None:
                order = key_orders[keys] = tuple(
                    (k, f'"{k}":') for k in sorted(keys, key=str)
                )
            bid_text = ",".join(
                [
                    label + (repr(b) if type(b) is float and b - b == 0.0 else encode(b))
                    for k, label in order
                    for b in (bids[k],)
                ]
            )
        else:
            bid_text = ""
        participants = o.participants
        part_text = part_texts.get(participants)
        if part_text is None:
            part_text = part_texts[participants] = encode(participants)
        if o.allocations != last_allocations:
            last_allocations = o.allocations
            alloc_text = encode(last_allocations)
        transitions = o.transitions
        move_text = ",".join(
            f'[{i},"{frm.label}","{to.label}"]' for i, frm, to in transitions
        ) if transitions else ""
        payment = o.payment
        if type(payment) is float and payment - payment == 0.0:
            pay_text = repr(payment)
        else:
            pay_text = encode(payment)
        winner = o.winner
        lines.append(
            f'{{"allocations":{alloc_text},"bids":{{{bid_text}}},'
            f'"cleared":{"true" if o.cleared else "false"},"epoch":{o.epoch},'
            f'"participants":{part_text},"payment":{pay_text},'
            f'"phase":"{o.phase}","t":{o.t},"transitions":[{move_text}],'
            f'"uncleared":{o.uncleared},"winner":{"null" if winner is None else winner}}}'
        )
    return "\n".join(lines) + ("\n" if lines else "")


# for the values a line does not format itself: id lists, and numbers other
# than exact finite floats (ints, float subclasses, inf and nan)
_COMPACT_ENCODER = json.JSONEncoder(separators=(",", ":"))


def write_trajectory(traj: Trajectory, path) -> None:
    Path(path).write_text(trajectory_ndjson(traj))


def write_epoch_csv(traj: Trajectory, path) -> None:
    """Per-epoch summary CSV: schedule constants and the revenue split."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "m_g", "m_b", "r_g", "r_b", "good_revenue", "bad_revenue"]
        )
        for e in traj.epochs:
            writer.writerow(
                [
                    e.config.index,
                    e.config.good_count,
                    e.config.bad_count,
                    repr(float(e.config.good_reserve)),
                    repr(float(e.config.bad_reserve)),
                    repr(float(e.good_revenue)),
                    repr(float(e.bad_revenue)),
                ]
            )
