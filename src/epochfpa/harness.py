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
from functools import cached_property
from itertools import count, repeat
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .agents import Agent, AgentError, ExpertAgent, ExpertFamily, build_agent
from .distributions import (
    ValueDistribution,
    _integer,
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
    _roster,
)
from .rng import _seed, substream

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
        self.seed = _seed(self.seed, ConfigError)
        self.replications = _integer(self.replications, "replications", ConfigError, 1)
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        if len(self.agents) != self.params.n:
            raise ConfigError(
                f"roster size {len(self.agents)} must equal n={self.params.n}"
            )
        for i, spec in enumerate(self.agents):
            if not isinstance(spec, dict):
                raise ConfigError(f"roster entry {i} must be an object, got {spec!r}")
        ids = [
            _integer(spec.get("id", i), f"roster entry {i} id", ConfigError)
            for i, spec in enumerate(self.agents)
        ]
        if sorted(ids) != list(range(self.params.n)):
            raise ConfigError("agent ids must be exactly 0..n-1")
        self.agents = [s for _, s in sorted(zip(ids, self.agents))]

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        try:
            p = doc["params"]
            params = MechanismParams(
                n=p["n"],
                horizon=_integer(p["T"], "T", ConfigError),
                epsilon=p["epsilon"],
                delta=p["delta"],
                rho=p["rho"],
                reset_round=p.get("reset_round"),
            )
            return cls(
                params=params,
                distribution=from_spec(doc["distribution"]),
                agents=list(doc["agents"]),
                seed=doc["seed"],
                replications=doc.get("replications", 1),
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
        agent draws from its own named stream either way.  A slot outside
        the roster, or a factory that builds no ``Agent``, raises
        ``ConfigError``.
        """
        substitutes = substitutes or {}
        for slot in substitutes:
            _buyer(slot, self.params.n)
        agents = [
            substitutes[i]() if i in substitutes else build_agent(spec)
            for i, spec in enumerate(self.agents)
        ]
        for i, agent in enumerate(agents):
            if not isinstance(agent, Agent):
                raise ConfigError(f"the substitute for buyer {i} built {agent!r}, not an Agent")
            agent.bind(
                i,
                self.params,
                self.distribution,
                substream(self.seed, "rep", replication, "agent", i),
            )
        return agents


@dataclass
class RoundColumns:
    """The rounds of a full-mode run, as a bid array and the segments.

    A segment is a stretch of rounds sharing phase, epoch and buyer states,
    and ``segments[s]`` is the ``AgentView`` of its first round; it runs up
    to the next one's start.  Phase, epoch, the states and the uncleared
    count before the segment's first round are read from that view, and its
    participants follow from the view's states and phase.  Row ``t`` of the
    (T, n) array ``bids`` holds round ``t``'s bids, NaN where a buyer did
    not bid; its winner and payment are in the trajectory's arrays.  The
    rounds that moved a buyer map to their moves in ``transitions``.  The
    rest follows from the mechanism's rules: an uncleared good round adds 1
    to the uncleared count, and a good round's win adds 1 to its winner's
    allocations, 0 when an epoch starts.
    """

    bids: np.ndarray
    segments: list[AgentView] = field(default_factory=list)
    transitions: dict[int, tuple] = field(default_factory=dict)

    def segment_ends(self) -> Iterator[tuple[AgentView, tuple[int, ...], int]]:
        """Every segment's view, with its participants and the round its
        successor starts at."""
        segments = self.segments
        ends = [view.t for view in segments[1:]] + [len(self.bids)]
        for view, end in zip(segments, ends):
            yield view, _roster(view.states, view.phase), end


@dataclass
class Trajectory:
    """Complete log of one run, sufficient for seeded counterfactual replay.

    ``winners[t]`` is round ``t``'s winner, -1 if it was uncleared, and
    ``payments[t]`` its payment.  Each buyer's wins and utility, its value
    minus the payment summed over the rounds it won, are derived on first read.
    """

    seed: int
    replication: int
    rounds_executed: int
    values: np.ndarray
    epochs: list[EpochRecord]
    final_states: tuple[BuyerState, ...]
    state_rounds: np.ndarray
    winners: np.ndarray
    payments: np.ndarray
    columns: Optional[RoundColumns] = None

    @cached_property
    def agent_wins(self) -> np.ndarray:
        return np.bincount(self.winners[self.winners >= 0], minlength=self.values.shape[1])

    @cached_property
    def agent_utilities(self) -> np.ndarray:
        return self._utilities([self.rounds_executed])[0]

    @cached_property
    def epoch_agent_utilities(self) -> list[np.ndarray]:
        return list(self._utilities([e.end for e in self.epochs]))

    def _utilities(self, ends: list[int]) -> np.ndarray:
        """Row ``k``: each buyer's utility over the rounds ``ends[k-1]`` (0 for
        row 0) to ``ends[k]``, added in round order from 0.0 as a loop would
        (np.sum adds pairwise), on a grid row padded with 0.0, which adds nothing."""
        out = np.empty((len(ends), self.values.shape[1]))
        for i in range(out.shape[1]):
            rounds = np.flatnonzero(self.winners == i)
            stretch = np.searchsorted(ends, rounds, side="right")
            counts = np.bincount(stretch, minlength=len(ends))
            column = np.arange(len(rounds)) - (np.cumsum(counts) - counts)[stretch] + 1
            grid = np.zeros((len(ends), counts.max(initial=0) + 1))
            grid[stretch, column] = self.values[rounds, i] - self.payments[rounds]
            out[:, i] = np.add.accumulate(grid, axis=1)[:, -1]
        return out

    @property
    def rounds(self) -> Optional[list[RoundOutcome]]:
        """Each round's outcome, built from the arrays on every access, with
        its bids keyed by participant; ``None`` for a light-mode run."""
        c = self.columns
        if c is None:
            return None
        out, epoch = [], None
        for view, participants, end in c.segment_ends():
            start, phase, index = view.t, view.phase, view.config.index
            if index != epoch:
                epoch, allocations = index, [0] * len(view.states)
            good, counts, after = phase == GOOD_PHASE, tuple(allocations), view.uncleared
            rows = c.bids[start:end, participants].tolist()
            cols = self.winners[start:end].tolist(), self.payments[start:end].tolist()
            for t, row, winner, payment in zip(range(start, end), rows, *cols):
                bids, before = dict(zip(participants, row)), after
                if winner < 0:
                    winner, after = None, after + good
                elif good:
                    allocations[winner] += 1
                    counts = tuple(allocations)
                out.append(
                    RoundOutcome(
                        t, phase, index, participants, bids, winner, payment, winner is not None,
                        c.transitions.get(t, ()), before, after, counts, view.states,
                    )
                )
        return out

    @property
    def good_rounds(self) -> int:
        # every epoch opens with its bad phase
        return sum(max(0, e.end - e.start - e.config.bad_rounds) for e in self.epochs)

    @property
    def uncleared_good_rounds(self) -> int:
        return sum(e.uncleared for e in self.epochs)

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

    Both record modes keep each round's winner and payment and the epoch
    records; ``record="full"`` keeps the rest of every round in ``columns``
    (needed for hindsight-regret replay and export).  ``substitutes`` swaps
    in freshly built agents for selected buyer slots; all other streams are
    unaffected.

    A light-mode run settles a phase whose participants all declare
    themselves ``stationary`` at once, from its first round: their ``bids``
    give the bids of the phase, and ``Mechanism.run_block`` settles it,
    rests and an idle tail included, up to an invalid bid or the threshold
    crossing with bidders, which run round by round like every round of a
    full-mode run.  Once the partition holds from one epoch to the next, the
    same bids cover that phase in the coming epochs too, bid under one view.
    Stationary agents are not shown the rounds of a block.  Both modes give
    the same epochs, winners, payments and states, bit for bit.

    ``values`` supplies the (T, n) valuation block instead of drawing it.  It
    must be the block this (config, replication) draws, e.g. the ``values``
    of an earlier run of it, which makes a counterfactual replay skip
    re-sampling the prior; the trajectory then shares that array.  A block
    of another shape raises ``ConfigError``, as does a ``replication`` that
    is not an integer of at least 0.
    """
    if record not in ("full", "light"):
        raise ConfigError(f"unknown record mode {record!r}")
    replication = _integer(replication, "replication", ConfigError, 0)
    params, dist, n = config.params, config.distribution, config.params.n
    horizon = params.horizon

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
    # after the values check, so a bad block fails before any agent is built
    agents = config.build_agents(replication, substitutes)
    tie_draws = substream(config.seed, "rep", replication, "tie").random(horizon)
    ties = tie_draws.tolist()

    mech = Mechanism(params, dist)
    bidders = [agent.bid for agent in agents]
    # Agent.observe does nothing, so agents that keep it are never told
    observers = [
        agent.observe if type(agent).observe is not Agent.observe else None
        for agent in agents
    ]
    winners = np.full(horizon, -1, dtype=np.min_scalar_type(-n))
    payments = np.zeros(horizon)
    blocks = record == "light"
    columns = None if blocks else RoundColumns(np.full((horizon, n), math.nan))
    segment = None  # the view the current segment starts with
    # and its bids so far, row after row in participant order, which
    # write_bids moves to their rows once the segment ends before round
    # ``end``: one array write per segment costs less than one per round
    pending: list[float] = []

    def write_bids(end: int) -> None:
        if pending:
            roster = _roster(segment.states, segment.phase)
            columns.bids[segment.t : end, roster] = np.reshape(pending, (end - segment.t, -1))
            pending.clear()

    unsteady = frozenset(i for i, agent in enumerate(agents) if not agent.stationary)

    def block_bids(view, ids, rounds):
        bids = np.empty((len(ids), len(rounds)))
        for j, i in enumerate(ids):
            bids[j] = agents[i].bids(view, values[rounds, i])
        return bids

    while mech.t < horizon:
        participants = mech.participants()
        if not participants:
            # the phase stays empty until it ends or the reset fires, and no
            # agent, value or tie is read meanwhile: one mechanism step
            if columns is not None:
                write_bids(mech.t)
                segment = mech.view()
                columns.segments.append(segment)
            mech.run_idle()
            continue
        if blocks and unsteady.isdisjoint(participants):
            rounds, won, paid = mech.run_block(block_bids, tie_draws)
            settled = rounds >= 0
            if settled.any():
                winners[rounds[settled]] = won[settled]
                payments[rounds[settled]] = paid[settled]
                continue
            # it settled none: the phase had begun, or its first round is
            # left to run_round
        view = mech.view()
        t = view.t
        vrow = values[t].tolist()
        try:
            bids = {i: bidders[i](view, vrow[i]) for i in participants}
            outcome = mech.run_round(bids, ties[t])
        except (MechanismError, AgentError) as exc:
            raise type(exc)(
                f"round {t} ({view.phase} phase, epoch {view.config.index}): {exc}"
            ) from exc
        winner = outcome.winner
        gain = 0.0
        if winner is not None:
            gain = vrow[winner] - outcome.payment
            winners[t] = winner
            payments[t] = outcome.payment
        for i in participants:
            observe = observers[i]
            if observe is not None:
                observe(view, vrow[i], gain if i == winner else 0.0, outcome.bids, winner)
        if columns is not None:
            if segment is None or view.states is not segment.states or view.phase != segment.phase:
                write_bids(t)
                segment = view
                columns.segments.append(view)
            pending += outcome.bids.values()
            if outcome.transitions:
                columns.transitions[t] = outcome.transitions
    write_bids(horizon)

    final_states = mech.states
    mech.finish()

    return Trajectory(
        seed=config.seed,
        replication=replication,
        rounds_executed=horizon,
        values=values,
        epochs=list(mech.epoch_records),
        final_states=final_states,
        state_rounds=np.array(mech.state_rounds, dtype=int),
        winners=winners,
        payments=payments,
        columns=columns,
    )


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
    """Sample mean and its standard error (0 for fewer than two samples).
    No samples have no mean: it is NaN, which fails every ``Check``."""
    xs = np.asarray(list(samples), dtype=float)
    if xs.size == 0:
        return math.nan, 0.0
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


def revenue_slack(params: MechanismParams, dist: ValueDistribution, rounds: int) -> float:
    """Finite-horizon slack: one discounted epoch per buyer that can turn bad."""
    if rounds <= 0:
        return 0.0
    max_good_reserve = (1.0 - params.epsilon) * upper_tail_mean(dist, params.n)
    return params.n * params.max_epoch_length * max_good_reserve / rounds


def classify_roster(config: RunConfig) -> tuple[int, int]:
    """Count sophisticated vs naive buyers, as each bound agent declares itself."""
    n_soph = sum(agent.sophisticated for agent in config.build_agents())
    return n_soph, config.params.n - n_soph


class Check(NamedTuple):
    """One verification check.  Sense ``">="`` passes when observed >= bound -
    3se, ``"<="`` when observed <= bound + 3se, and ``"=="`` only on exact
    equality.  A NaN observed value fails every sense."""

    name: str
    observed: float
    bound: float
    se: float = 0.0
    sense: str = ">="

    @property
    def margin(self) -> float:
        """Distance from ``observed`` to the tolerated limit, negative on failure."""
        if self.sense == ">=":
            return self.observed - (self.bound - 3.0 * self.se)
        if self.sense == "<=":
            return self.bound + 3.0 * self.se - self.observed
        if self.sense == "==":
            return 0.0 if self.observed == self.bound else -abs(self.observed - self.bound)
        raise ValueError(f"unknown check sense {self.sense!r}")

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0

    def line(self) -> str:
        """The verdict, name, observed value, bound, se and margin on one line."""
        return (
            f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.observed:.6g} "
            f"{self.sense} {self.bound:.6g} (se {self.se:.6g}, margin {self.margin:+.6g})"
        )


@dataclass
class BoundReport:
    """The theorem's per-round revenue bounds for a roster, and the checks of
    a measured run against them: none until ``bound_report`` measures, then
    the floor check first, whose ``observed`` and ``se`` are the measured
    mean revenue per round and its standard error."""

    n_soph: int
    n_naive: int
    lower_bound: float
    lower_bound_conservative: float
    upper_bound: float
    slack: float
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def vacuous(self) -> bool:
        """Whether the floor minus the slack is at most 0 at this horizon, so
        that no measured revenue can fail the floor check."""
        return self.lower_bound - self.slack <= 0.0

    def lines(self) -> list[str]:
        out = [
            f"roster: {self.n_soph} sophisticated, {self.n_naive} naive",
            f"lower_bound_per_round={self.lower_bound:.6f}",
            f"lower_bound_conservative={self.lower_bound_conservative:.6f}",
            f"upper_bound_per_round={self.upper_bound:.6f}",
            f"slack={self.slack:.6f}",
            f"floor={self.lower_bound - self.slack:.6f}" + (" (vacuous)" if self.vacuous else ""),
        ]
        if self.checks:
            floor = self.checks[0]
            out.append(f"measured_per_round={floor.observed:.6f} ci95=±{1.96 * floor.se:.6f}")
        return out + [check.line() for check in self.checks]


def bound_report(config: RunConfig, measure: bool = True) -> BoundReport:
    """Theoretical bounds for a config, optionally with revenue measured over T > 0 rounds."""
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
    if params.horizon == 0:
        raise ConfigError("T=0 runs no round, so there is no revenue to measure")
    mean, se = mean_se(t.revenue_per_round for t in run_replications(config))
    name = "revenue >= lower bound - slack - 3se"
    if report.vacuous:
        name += " [vacuous: lower bound - slack <= 0]"
    report.checks = [
        Check(name, mean, report.lower_bound - report.slack, se, ">="),
        Check("revenue <= upper bound + 3se", mean, report.upper_bound, se, "<="),
    ]
    return report


# ---------------------------------------------------------------------------
# regret estimation
# ---------------------------------------------------------------------------


def _buyer(agent, n: int) -> int:
    """``agent`` as a buyer slot of an ``n``-buyer run; anything else is refused."""
    if isinstance(agent, bool) or not isinstance(agent, (int, np.integer)) or not 0 <= agent < n:
        raise ConfigError(f"buyer index {agent!r} is outside 0..{n - 1} (n={n})")
    return int(agent)


def external_regret_profile(
    traj: Trajectory, agent: int, family: ExpertFamily
) -> np.ndarray:
    """Hindsight total utility of each expert holding everyone else fixed.

    Each round the agent bid in is rescored with its bid replaced by the
    expert's, the other bids and the mechanism state frozen.  The agent's
    bidding rounds of one epoch are bid by one ``ExpertFamily.bids`` call
    per expert: the agent bids in only one phase of an epoch, in one state
    (good in the good phase, bad in the bad phase), so the expert's bid
    there depends on the value alone.  A bid equal to the realized one
    reproduces the realized outcome; another wins, for value minus bid, only
    if it reaches the reserve and beats the top rival bid, so a tie with
    that rival is scored as a loss (a conservative convention).  Scores are
    summed in round order.
    """
    columns = traj.columns
    if columns is None:
        raise ConfigError("hindsight regret needs a trajectory recorded in full mode")
    if len(family) == 0:
        raise ConfigError("expert family must be non-empty")
    agent = _buyer(agent, traj.values.shape[1])
    reserve = []  # of each round the agent bid in
    stretches = []  # (index of the epoch's first such round, view)
    epoch, gathered = None, 0
    for view, participants, end in columns.segment_ends():
        if agent in participants:
            config = view.config
            if config.index != epoch:
                epoch = config.index
                stretches.append((gathered, view))
            gathered += end - view.t
            good = view.phase == GOOD_PHASE
            reserve.append(np.full(end - view.t, config.good_reserve if good else config.bad_reserve))
    if not stretches:
        return np.zeros(len(family))
    # of the same rounds, in order: value, own bid, top rival bid, realized utility
    bid = ~np.isnan(columns.bids[:, agent])
    rows, vals = columns.bids[bid], traj.values[bid, agent]
    own, reserve = rows[:, agent], np.concatenate(reserve)
    rival = np.fmax.reduce(np.delete(rows, agent, axis=1), axis=1, initial=-math.inf)
    realized = np.where(traj.winners[bid] == agent, vals - traj.payments[bid], 0.0)
    ends = [lo for lo, _ in stretches[1:]] + [gathered]
    totals = np.empty(len(family))
    for j in range(len(family)):
        b = np.concatenate(
            [family.bids(j, view, agent, vals[lo:hi]) for (lo, view), hi in zip(stretches, ends)]
        )
        wins = (b >= reserve) & (b > rival)
        totals[j] = np.cumsum(np.where(b == own, realized, np.where(wins, vals - b, 0.0)))[-1]
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
    agent = _buyer(agent, params.n)
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
    experts = ({agent: lambda j=j: ExpertAgent(family, j)} for j in range(len(family)))
    # each replay is read and let go before the next one runs
    best = max(
        run_simulation(config, replication, "light", e, values=base.values).agent_utilities[agent]
        for e in experts
    )
    return float(best) - realized


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
    comes before ``"2"``.

    The text is the segments' chunks that ``write_trajectory`` writes one at
    a time, joined.  A full-mode trajectory is required: a light-mode one
    raises ``ConfigError``.
    """
    return "".join(_ndjson_chunks(_full(traj)))


def write_trajectory(traj: Trajectory, path) -> None:
    """Write ``trajectory_ndjson(traj)`` to ``path``, one segment at a time.

    A segment lies within one phase, so no more than ``max_epoch_length``
    lines are held at once.  A light-mode trajectory raises ``ConfigError``
    before the file is opened, so no file is left behind.
    """
    chunks = _ndjson_chunks(_full(traj))
    with open(path, "w") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _full(traj: Trajectory) -> Trajectory:
    if traj.columns is None:
        raise ConfigError("trajectory was not recorded in full mode")
    return traj


def _ndjson_chunks(traj: Trajectory) -> Iterator[str]:
    """The ndjson lines of each segment, as one string per segment.

    Lines are formatted from the trajectory's arrays directly, one
    segment's rows of them at a time, with the uncleared count and the
    allocations derived as ``RoundColumns`` says.  The texts a segment
    shares are formatted once per segment, an idle round's line comes from
    its segment's template, and the allocations are formatted again only
    after a good round's win.  Each distinct bid row of a participant order,
    and each distinct payment, is formatted once.  Every bid is a plain
    finite float and none is ``-0.0``, as ``Mechanism.run_round`` records
    them, so equal numbers share a text, and ``repr`` writes each as the
    encoder does.
    """
    columns, winners, payments = traj.columns, traj.winners, traj.payments
    bids, moves = columns.bids, columns.transitions
    # a row carries no buyer ids, so its text is cached per participant order
    bid_texts: dict[tuple[int, ...], dict[tuple[float, ...], str]] = {}
    pay_texts: dict[float, str] = {}
    epoch = None
    for view, participants, end in columns.segment_ends():
        start, phase = view.t, view.phase
        if view.config.index != epoch:
            epoch = view.config.index
            allocations = [0] * len(view.states)
            alloc_text = _ids_text(allocations)
        good = phase == GOOD_PHASE
        uncleared = view.uncleared
        if not participants:
            head = (
                f'{{"allocations":{alloc_text},"bids":{{}},"cleared":false,'
                f'"epoch":{epoch},"participants":[],"payment":0.0,"phase":"{phase}","t":'
            )
            # an empty good auction is uncleared
            counts = count(uncleared + 1) if good else repeat(uncleared)
            yield "".join([
                f'{head}{t},"transitions":[],"uncleared":{u},"winner":null}}\n'
                for t, u in zip(range(start, end), counts)
            ])
            continue
        texts = bid_texts.setdefault(participants, {})
        order = [
            (participants.index(k), f'"{k}":') for k in sorted(participants, key=str)
        ]
        middle = f',"epoch":{epoch},"participants":{_ids_text(participants)},"payment":'
        tail = f',"phase":"{phase}","t":'
        rows = map(tuple, bids[start:end, participants].tolist())
        cols = winners[start:end].tolist(), payments[start:end].tolist()
        lines = []
        for t, round_bids, winner, payment in zip(range(start, end), rows, *cols):
            bid_text = texts.get(round_bids)
            if bid_text is None:
                bid_text = texts[round_bids] = ",".join(
                    [label + repr(round_bids[j]) for j, label in order]
                )
            if winner < 0:
                cleared = '"cleared":false'
                pay_text = "0.0"
                winner = "null"
                if good:
                    uncleared += 1
            else:
                cleared = '"cleared":true'
                pay_text = pay_texts.get(payment)
                if pay_text is None:
                    pay_text = pay_texts[payment] = repr(payment)
                if good:
                    allocations[winner] += 1
                    alloc_text = _ids_text(allocations)
            move = moves.get(t)
            move_text = ",".join(
                f'[{i},"{frm.label}","{to.label}"]' for i, frm, to in move
            ) if move else ""
            lines.append(
                f'{{"allocations":{alloc_text},"bids":{{{bid_text}}},{cleared}{middle}'
                f'{pay_text}{tail}{t},"transitions":[{move_text}],'
                f'"uncleared":{uncleared},"winner":{winner}}}\n'
            )
        yield "".join(lines)


def _ids_text(ints: tuple[int, ...]) -> str:
    """A sequence of plain ints, such as buyer ids or counts, as a JSON list."""
    return f"[{','.join(map(str, ints))}]"


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
