"""Named verification suites for the mechanism's revenue and utility bounds.

Each suite runs a self-contained, seeded experiment and records one
``harness.Check`` per claim (name, observed value, bound, standard error and
sense), whose verdict and margin follow from those numbers.  A check prints as
``[PASS] name: observed >= bound (se ..., margin +...)``, where an inequality
passes within 3 se and the margin is the distance to that limit; a floor that
no measured revenue can fail carries ``[vacuous: ...]`` in its name.  The
suites double as the acceptance battery: property checks replace asymptotic
statements with confidence-interval bounds at desk scale, with every tolerance
fixed here rather than tuned after the fact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .agents import (
    BAD_THRESHOLD,
    GOOD_TEMPLATE,
    ZERO_BID,
    EtcAgent,
    Exp3Learner,
    Expert,
    ExpertFamily,
    ValueGrid,
)
from .distributions import (
    FiniteSupport,
    Uniform,
    myerson_revenue,
    myerson_win_prob,
    upper_tail_mean,
)
from .harness import (
    Check,
    RunConfig,
    bound_report,
    estimate_policy_regret,
    mean_se,
    run_simulation,
    trajectory_ndjson,
)
from .mechanism import BuyerState, MechanismParams, derive_epoch_config
from .rng import substream

__all__ = [
    "SuiteReport",
    "SUITES",
    "run_suite",
    "brute_force_myerson",
]

EPSILON = 0.3
RHO = EPSILON * (1.0 - EPSILON) ** 4 / 12.0
_CONFIG_CHECK = "completed epochs whose recorded config differs from derive_epoch_config"


@dataclass
class SuiteReport:
    """A suite's checks and notes, in the order they were made."""

    name: str
    entries: list[Check | str] = field(default_factory=list)

    def check(self, name: str, observed, bound, se: float = 0.0, sense: str = ">=") -> None:
        self.entries.append(Check(name, observed, bound, se, sense))

    def note(self, message: str) -> None:
        self.entries.append(message)

    @property
    def checks(self) -> list[Check]:
        return [e for e in self.entries if isinstance(e, Check)]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def lines(self) -> list[str]:
        return [e.line() if isinstance(e, Check) else f"       {e}" for e in self.entries]


def _params(n: int, horizon: int, reset_round=None) -> MechanismParams:
    return MechanismParams(
        n=n, horizon=horizon, epsilon=EPSILON, delta=EPSILON, rho=RHO,
        reset_round=reset_round,
    )


def _config_mismatches(config: RunConfig, traj) -> int:
    """How many completed epochs of ``traj`` recorded another config than the
    specification's for their state partition."""
    params, dist = config.params, config.distribution
    return sum(
        e.config != derive_epoch_config(params, e.good_start, e.bad_start, dist, e.config.index)
        for e in traj.epochs
        if e.completed
    )


def _config(agents, horizon, seed, dist=None, reset_round=None, replications=1) -> RunConfig:
    """A run of the roster ``agents`` on ``dist``, Uniform(0, 1) by default."""
    return RunConfig(
        params=_params(len(agents), horizon, reset_round),
        distribution=Uniform(0.0, 1.0) if dist is None else dist,
        agents=agents,
        seed=seed,
        replications=replications,
    )


# ---------------------------------------------------------------------------
# optimal-auction oracle
# ---------------------------------------------------------------------------


def brute_force_myerson(dist: FiniteSupport, n: int, budget: int = 10**7):
    """Exhaustive-enumeration oracle for the optimal second-price-with-reserve
    auction on a finite support: every value profile, every candidate reserve,
    ties among maximal values credited uniformly.

    Returns (reserve, revenue, win probability of buyer 0).
    """
    values = [v for v, _ in dist.support]
    probs = [p for _, p in dist.support]
    s = len(values)
    if s**n > budget:
        raise ValueError(f"enumeration budget exceeded: {s}^{n} profiles")
    best = None
    for r in values:
        revenue = 0.0
        win0 = 0.0
        for profile in product(range(s), repeat=n):
            weight = 1.0
            for idx in profile:
                weight *= probs[idx]
            vals = [values[idx] for idx in profile]
            top = max(vals)
            if top < r:
                continue
            second = max([x for i, x in enumerate(vals) if i != vals.index(top)], default=r)
            revenue += weight * max(r, second)
            ties = vals.count(top)
            if vals[0] == top:
                win0 += weight / ties
        if best is None or revenue > best[1]:
            best = (r, revenue, win0)
    return best


def _random_finite(rng: np.random.Generator, size: int) -> FiniteSupport:
    values = np.cumsum(rng.uniform(0.2, 1.5, size))
    probs = rng.dirichlet(np.ones(size))
    return FiniteSupport(tuple(zip(values.tolist(), probs.tolist())))


def suite_myerson_oracle(seed: int = 20260810, supports: int = 20) -> SuiteReport:
    report = SuiteReport("myerson-oracle")
    rng = substream(seed, "supports")
    worst_rev, worst_win = 0.0, 0.0
    for k in range(supports):
        dist = _random_finite(rng, 2 + k % 3)
        for n in (1, 2, 3):
            reserve, revenue, win = brute_force_myerson(dist, n)
            got = myerson_revenue(dist, n)
            got_win = myerson_win_prob(dist, n)
            worst_rev = max(worst_rev, abs(got - revenue))
            worst_win = max(worst_win, abs(got_win - win))
    report.check("finite-support revenue vs enumeration, worst gap", worst_rev, 1e-12, sense="<=")
    report.check("finite-support win prob vs enumeration, worst gap", worst_win, 1e-12, sense="<=")
    uniform = Uniform(0.0, 1.0)
    for n, target in ((1, 0.25), (2, 5.0 / 12.0), (3, 17.0 / 32.0)):
        gap = abs(myerson_revenue(uniform, n) - target)
        report.check(f"uniform(0,1) revenue n={n}, gap to {target:.8f}", gap, 1e-6, sense="<=")
    gap = abs(myerson_win_prob(uniform, 2) - 0.375)
    report.check("uniform(0,1) win prob m=2, gap to 0.375", gap, 1e-6, sense="<=")
    return report


# ---------------------------------------------------------------------------
# revenue/utility lemma suites
# ---------------------------------------------------------------------------


def suite_lemma_b1(runs: int = 100, seed: int = 101) -> SuiteReport:
    """Deterministic per-epoch revenue floor from good-phase auctions."""
    report = SuiteReport("lemma-b1")
    violations = mismatches = epochs_checked = 0
    for r in range(runs):
        n = (2, 4, 6)[r % 3]
        horizon = 2 * _params(n, 1).max_epoch_length + 5
        config = _config([{"kind": "good-strategy"}] * n, horizon, seed + r)
        traj = run_simulation(config, record="light")
        params, dist = config.params, config.distribution
        h = params.rest_threshold
        completed = [e for e in traj.epochs if e.completed]
        if len(completed) < 2:
            report.check(f"run {r}: completed epochs", len(completed), 2)
            continue
        epochs_checked += len(completed)
        mismatches += _config_mismatches(config, traj)
        for e in completed:
            # the specification's reserve, not the one the run recorded
            reserve = (1.0 - params.epsilon) * upper_tail_mean(dist, max(1, len(e.good_start)))
            if e.good_revenue < len(e.good_end) * h * reserve - 1e-9:
                violations += 1
    name = "epochs with good-phase revenue < |G_end|*H*(1-eps)*upper_tail_mean(|G_start|)"
    report.check(name, violations, 0, sense="==")
    report.check(_CONFIG_CHECK, mismatches, 0, sense="==")
    report.note(f"{epochs_checked} completed epochs checked")
    return report


def suite_lemma_b3(epochs: int = 200, seed: int = 303) -> SuiteReport:
    """Per-epoch utility floor of the good strategy, plus its tail event."""
    report = SuiteReport("lemma-b3")
    n = 4
    horizon = epochs * _params(n, 1).max_epoch_length + 3
    config = _config([{"kind": "good-strategy"}] * n, horizon, seed)
    traj = run_simulation(config, record="light")
    completed = [k for k, e in enumerate(traj.epochs) if e.completed][:epochs]
    report.check("completed epochs", len(completed), epochs)
    mean, se = mean_se(float(traj.epoch_agent_utilities[k][0]) for k in completed)
    h = config.params.rest_threshold
    bound = EPSILON * (1.0 - EPSILON) * upper_tail_mean(Uniform(0, 1), n) * h
    report.check("mean per-epoch utility", mean, bound, se)
    uncrossed = sum(traj.epochs[k].threshold_round is None for k in completed)
    report.check("completed epochs without an uncleared threshold", uncrossed, 0, sense="==")
    events = [
        traj.epochs[k].threshold_round is not None
        and 0 in traj.epochs[k].good_at_threshold
        for k in completed
    ]
    freq = mean_se(events)[0]
    se_freq = math.sqrt(freq * (1.0 - freq) / len(events)) if events else 0.0
    report.check("unrested-at-threshold frequency", freq, EPSILON**2, se_freq, "<=")
    return report


def _bad_population(n: int, epochs: int, seed: int, bad_mode: str):
    """Run ``n`` myopic buyers whose zero bids in good rounds turn them all bad in
    epoch 0, then ``epochs`` all-bad epochs.  Returns the config, the run and the
    bad-phase rounds the specification gives an epoch with no good buyer."""
    params = _params(n, 1)
    horizon = params.max_epoch_length + epochs * params.epoch_length(1) + 3
    agents = [{"kind": "myopic", "good_mode": "zero", "bad_mode": bad_mode}] * n
    config = _config(agents, horizon, seed)
    bad_rounds = math.ceil(params.rho * params.epoch_length(1))
    return config, run_simulation(config, record="light"), bad_rounds


def suite_lemma_b4(epochs: int = 200, seed: int = 404) -> SuiteReport:
    """Per-epoch utility ceiling for bad-state buyers, under two bad-state
    behaviors: bidding the valuation above the reserve, and bidding the
    reserve itself (the per-win utility-maximal rule)."""
    report = SuiteReport("lemma-b4")
    n = 4
    for bad_mode in ("value", "reserve"):
        config, traj, bad_rounds = _bad_population(n, epochs, seed, bad_mode)
        cap = (1.0 + EPSILON) * (bad_rounds / n) * upper_tail_mean(config.distribution, n)
        full = [k for k, e in enumerate(traj.epochs) if e.completed and len(e.bad_start) == n]
        samples = [float(u) for k in full for u in traj.epoch_agent_utilities[k]]
        mean, se = mean_se(samples)
        report.check(f"bad_mode={bad_mode}: mean per-epoch bad utility", mean, cap, se, "<=")
        mismatches = _config_mismatches(config, traj)
        report.check(f"bad_mode={bad_mode}: {_CONFIG_CHECK}", mismatches, 0, sense="==")
        report.note(f"bad_mode={bad_mode}: {len(samples)} samples")
    return report


def suite_lemma_b2(epochs: int = 200, seed: int = 202) -> SuiteReport:
    """Per-round revenue floor of the bad-phase auctions with a myopic-only
    bad population filling the bad count exactly."""
    report = SuiteReport("lemma-b2")
    n = 4
    config, traj, bad_rounds = _bad_population(n, epochs, seed, "reserve")
    full = [e for e in traj.epochs if e.completed and len(e.bad_start) == n]
    mean, se = mean_se(e.bad_revenue / bad_rounds for e in full)
    floor = (1.0 - EPSILON) * (1.0 - 1.0 / math.e) * myerson_revenue(config.distribution, n)
    report.check("mean bad-phase revenue per round", mean, floor, se)
    report.check(_CONFIG_CHECK, _config_mismatches(config, traj), 0, sense="==")
    report.note(f"{len(full)} completed epochs with {n} bad buyers")
    return report


# ---------------------------------------------------------------------------
# headline revenue bound
# ---------------------------------------------------------------------------


def _check_bounds(report, split, horizon, seed, replications, dist=None, prior="") -> None:
    """Measure ``split[0]`` lookahead and ``split[1]`` myopic buyers through
    ``bound_report`` and add its floor and ceiling checks, after checking that
    the agents declare the intended split."""
    roster = [{"kind": "lookahead"}] * split[0] + [{"kind": "myopic"}] * split[1]
    config = _config(roster, horizon, seed, dist, replications=replications)
    label = f"{prior}roster ({split[0]},{split[1]})"
    bounds = bound_report(config)
    report.check(f"{label}: sophisticated agents declared", bounds.n_soph, split[0], sense="==")
    report.note(
        f"{label}: T={config.params.horizon}, lower {bounds.lower_bound:.6g}, "
        f"slack {bounds.slack:.6g}"
    )
    report.entries.extend(check._replace(name=f"{label}: {check.name}") for check in bounds.checks)


def suite_theorem_1(
    replications: int = 32, min_epochs: int = 50, seed: int = 606
) -> SuiteReport:
    """Measured per-round revenue against the guaranteed floor and the
    information-theoretic ceiling, for three roster mixes."""
    report = SuiteReport("theorem-1")
    n = 6
    # epochs never exceed the all-good length, so this horizon guarantees the
    # requested number of epochs under any roster dynamics
    horizon = (min_epochs + 1) * _params(n, 1).max_epoch_length
    for split in ((6, 0), (3, 3), (0, 6)):
        _check_bounds(report, split, horizon, seed, replications)
    return report


def suite_upper_bound(replications: int = 8, seed: int = 808) -> SuiteReport:
    """Floor and ceiling checks across priors and roster mixes."""
    report = SuiteReport("upper-bound")
    dists = {
        "uniform(0,1)": Uniform(0.0, 1.0),
        "two-point{1,2}": FiniteSupport(((1.0, 0.5), (2.0, 0.5))),
    }
    n = 2
    horizon = 2 * _params(n, 1).max_epoch_length + 5
    for label, dist in dists.items():
        for split in ((2, 0), (1, 1), (0, 2)):
            _check_bounds(report, split, horizon, seed, replications, dist, f"{label} ")
    return report


# ---------------------------------------------------------------------------
# learner suites
# ---------------------------------------------------------------------------

SMOKE_LEVELS = (0.0, 0.02, 0.08, 0.30, 0.55, 0.75, 0.90, 0.97)


def _smoke_reward_table(horizon: int, seed: int) -> np.ndarray:
    """Stationary one-shot environment: values uniform on [0,1], a rival top
    bid uniform on [0, 0.25], experts shade the value by fixed factors.
    Returns the full reward table g[t, expert]."""
    rng = substream(seed, "smoke-env")
    levels = np.asarray(SMOKE_LEVELS)
    v = rng.random(horizon)
    rival = 0.25 * rng.random(horizon)
    bids = levels[None, :] * v[:, None]
    win = bids > rival[:, None]
    return np.where(win, v[:, None] - bids, 0.0)


def _smoke_regret(horizon: int, seed: int) -> float:
    g = _smoke_reward_table(horizon, seed)
    n_arms = g.shape[1]
    learner = Exp3Learner(
        n_arms,
        Exp3Learner.tuned_gamma(n_arms, horizon),
        1.0,
        substream(seed, "smoke-learner"),
    )
    realized = 0.0
    for t in range(horizon):
        arm, _ = learner.select_arm()
        learner.update(float(g[t, arm]))
        realized += g[t, arm]
    return float(g.sum(axis=0).max() - realized)


def _etc_family() -> ExpertFamily:
    grid = ValueGrid(0.0, 1.0, 1.0 / 64.0)
    experts = (
        Expert(GOOD_TEMPLATE),
        Expert(BAD_THRESHOLD),
        Expert(ZERO_BID),
        Expert(GOOD_TEMPLATE, level=1.0),
    )
    return ExpertFamily(experts, grid)


def suite_regret(seeds: int = 8, horizon: int = 8000, seed: int = 707) -> SuiteReport:
    """No-regret learner: sublinear hindsight regret in a stationary
    environment; explore-then-commit learner: negligible bad-state occupancy
    in the full mechanism once exploration fits the budget."""
    report = SuiteReport("regret")
    n_arms = len(SMOKE_LEVELS)
    per_round = []
    for t in (horizon, 4 * horizon):
        per_round.append(np.mean([_smoke_regret(t, seed + s) for s in range(seeds)]) / t)
        bound = 3.0 * math.sqrt(n_arms * math.log(n_arms) / t)
        report.check(f"per-round regret at T={t}", per_round[-1], bound, sense="<=")
    per_t, per_4t = per_round
    report.check("per-round regret at 4T, against 0.6 x at T", per_4t, 0.6 * per_t, sense="<=")

    family = _etc_family()
    horizon_etc = 20000
    explore_len = max(1, math.ceil(horizon_etc ** (2.0 / 3.0) / len(family)))
    explore_total = len(family) * explore_len
    name = f"explore-then-commit rounds N*L (N={len(family)}, L={explore_len})"
    report.check(name, explore_total, 0.05 * horizon_etc, sense="<=")
    for s in range(4):
        config = _config(
            [{"kind": "etc"}, {"kind": "lookahead"}], horizon_etc, seed + 40 + s,
            reset_round=explore_total,
        )
        traj = run_simulation(
            config,
            record="light",
            substitutes={0: lambda: EtcAgent(family=family, explore_len=explore_len)},
        )
        # an occupancy below 5% of the rounds is at most 999 bad-state rounds
        rounds = traj.state_rounds[0][BuyerState.BAD]
        report.check(f"etc seed {s}: bad-state rounds", rounds, 0.05 * horizon_etc - 1, sense="<=")
    return report


def suite_policy_regret(seed: int = 909) -> SuiteReport:
    """Replay soundness under common random numbers, and byte-level
    determinism of serialized trajectories."""
    report = SuiteReport("policy-regret")
    n = 2
    horizon = _params(n, 1).max_epoch_length + 5
    config = _config([{"kind": "good-strategy"}] * n, horizon, seed)
    family = ExpertFamily((Expert(GOOD_TEMPLATE),), ValueGrid(0.0, 1.0, 1.0 / 64.0))
    regret = estimate_policy_regret(config, 0, family)
    report.check("policy regret of an agent against itself", regret, 0.0, sense="==")
    first = trajectory_ndjson(run_simulation(config))
    second = trajectory_ndjson(run_simulation(config))
    report.check("reruns of one seed with another trajectory", int(first != second), 0, sense="==")
    return report


SUITES = {
    "myerson-oracle": suite_myerson_oracle,
    "lemma-b1": suite_lemma_b1,
    "lemma-b2": suite_lemma_b2,
    "lemma-b3": suite_lemma_b3,
    "lemma-b4": suite_lemma_b4,
    "theorem-1": suite_theorem_1,
    "regret": suite_regret,
    "policy-regret": suite_policy_regret,
    "upper-bound": suite_upper_bound,
}


def run_suite(name: str, **overrides) -> SuiteReport:
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        ) from None
    start = time.perf_counter()
    report = suite(**overrides)
    report.note(f"elapsed {time.perf_counter() - start:.1f}s")
    return report
