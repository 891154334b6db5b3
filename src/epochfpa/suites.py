"""Named verification suites for the mechanism's revenue and utility bounds.

Each suite runs a self-contained, seeded experiment and reports one pass/fail
line per check.  The suites double as the acceptance battery: property checks
replace asymptotic statements with confidence-interval bounds at desk scale,
with every tolerance fixed here rather than tuned after the fact.
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
    RunConfig,
    bound_report,
    estimate_policy_regret,
    mean_se,
    run_simulation,
    trajectory_ndjson,
)
from .mechanism import BuyerState, MechanismParams
from .rng import substream

__all__ = [
    "SuiteReport",
    "SUITES",
    "run_suite",
    "brute_force_myerson",
]

EPSILON = 0.3
RHO = EPSILON * (1.0 - EPSILON) ** 4 / 12.0


@dataclass
class SuiteReport:
    name: str
    passed: bool = True
    lines: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.passed = self.passed and bool(ok)
        self.lines.append(f"[{'PASS' if ok else 'FAIL'}] {message}")
        return bool(ok)

    def note(self, message: str) -> None:
        self.lines.append(f"       {message}")


def _params(n: int, horizon: int, reset_round=None) -> MechanismParams:
    return MechanismParams(
        n=n, horizon=horizon, epsilon=EPSILON, delta=EPSILON, rho=RHO,
        reset_round=reset_round,
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
    report.check(worst_rev <= 1e-12, f"finite-support revenue vs enumeration, worst gap {worst_rev:.2e}")
    report.check(worst_win <= 1e-12, f"finite-support win prob vs enumeration, worst gap {worst_win:.2e}")
    uniform = Uniform(0.0, 1.0)
    targets = {1: 0.25, 2: 5.0 / 12.0, 3: 17.0 / 32.0}
    for n, target in targets.items():
        got = myerson_revenue(uniform, n)
        report.check(
            abs(got - target) <= 1e-6, f"uniform(0,1) revenue n={n}: {got:.8f} vs {target:.8f}"
        )
    theta2 = myerson_win_prob(uniform, 2)
    report.check(abs(theta2 - 0.375) <= 1e-6, f"uniform(0,1) win prob m=2: {theta2:.8f} vs 0.375")
    return report


# ---------------------------------------------------------------------------
# revenue/utility lemma suites
# ---------------------------------------------------------------------------


def suite_lemma_b1(runs: int = 100, seed: int = 101) -> SuiteReport:
    """Deterministic per-epoch revenue floor from good-phase auctions."""
    report = SuiteReport("lemma-b1")
    violations = 0
    epochs_checked = 0
    for r in range(runs):
        n = (2, 4, 6)[r % 3]
        horizon = 2 * _params(n, 1).max_epoch_length + 5
        config = _config([{"kind": "good-strategy"}] * n, horizon, seed + r)
        traj = run_simulation(config, record="light")
        h = config.params.rest_threshold
        completed = [e for e in traj.epochs if e.completed]
        if len(completed) < 2:
            report.check(False, f"run {r}: expected 2 completed epochs, got {len(completed)}")
            continue
        for e in completed:
            epochs_checked += 1
            floor = len(e.good_end) * h * e.config.good_reserve
            if e.good_revenue < floor - 1e-9:
                violations += 1
    report.check(
        violations == 0,
        f"good-phase revenue >= |G_end|*H*r_g in all {epochs_checked} completed epochs "
        f"({violations} violations)",
    )
    return report


def suite_lemma_b3(epochs: int = 200, seed: int = 303) -> SuiteReport:
    """Per-epoch utility floor of the good strategy, plus its tail event."""
    report = SuiteReport("lemma-b3")
    n = 4
    horizon = epochs * _params(n, 1).max_epoch_length + 3
    config = _config([{"kind": "good-strategy"}] * n, horizon, seed)
    traj = run_simulation(config, record="light")
    params = config.params
    completed = [k for k, e in enumerate(traj.epochs) if e.completed][:epochs]
    report.check(len(completed) >= epochs, f"{len(completed)} completed epochs")
    utilities = [float(traj.epoch_agent_utilities[k][0]) for k in completed]
    mean, se = mean_se(utilities)
    h = params.rest_threshold
    bound = EPSILON * (1.0 - EPSILON) * upper_tail_mean(Uniform(0, 1), n) * h
    report.check(
        mean >= bound - 3.0 * se,
        f"mean per-epoch utility {mean:.3f} >= {bound:.3f} - 3se ({se:.3f})",
    )
    crossings = [traj.epochs[k].threshold_round is not None for k in completed]
    report.check(all(crossings), "uncleared threshold reached in every completed epoch")
    events = [
        traj.epochs[k].threshold_round is not None
        and 0 in traj.epochs[k].good_at_threshold
        for k in completed
    ]
    freq = float(np.mean(events))
    se_freq = math.sqrt(freq * (1.0 - freq) / len(events)) if events else 0.0
    cap = EPSILON**2
    report.check(
        freq <= cap + 3.0 * se_freq,
        f"unrested-at-threshold frequency {freq:.4f} <= {cap:.4f} + 3se ({se_freq:.4f})",
    )
    return report


def _bad_population_config(n: int, epochs: int, seed: int, bad_mode: str) -> RunConfig:
    # zero bids in good rounds walk the whole roster into the bad state in
    # epoch 0; measurements start once the bad population is in place
    horizon = _params(n, 1).max_epoch_length + epochs * _params(n, 1).epoch_length(1) + 3
    agents = [{"kind": "myopic", "good_mode": "zero", "bad_mode": bad_mode}] * n
    return _config(agents, horizon, seed)


def suite_lemma_b4(epochs: int = 200, seed: int = 404) -> SuiteReport:
    """Per-epoch utility ceiling for bad-state buyers, under two bad-state
    behaviors: bidding the valuation above the reserve, and bidding the
    reserve itself (the per-win utility-maximal rule)."""
    report = SuiteReport("lemma-b4")
    n = 4
    for bad_mode in ("value", "reserve"):
        config = _bad_population_config(n, epochs, seed, bad_mode)
        traj = run_simulation(config, record="light")
        samples = []
        cap = None
        for k, e in enumerate(traj.epochs):
            if not e.completed or len(e.bad_start) != n:
                continue
            cfg = e.config
            cap = (
                (1.0 + EPSILON)
                * (cfg.bad_rounds / cfg.bad_count)
                * cfg.bad_tail_mean
            )
            samples.extend(float(u) for u in traj.epoch_agent_utilities[k])
        mean, se = mean_se(samples)
        report.check(
            cap is not None and mean <= cap + 3.0 * se,
            f"bad_mode={bad_mode}: mean per-epoch bad utility {mean:.4f} <= "
            f"{cap:.4f} + 3se ({se:.4f}) over {len(samples)} samples",
        )
    return report


def suite_lemma_b2(epochs: int = 200, seed: int = 202) -> SuiteReport:
    """Per-round revenue floor of the bad-phase auctions with a myopic-only
    bad population filling the bad count exactly."""
    report = SuiteReport("lemma-b2")
    n = 4
    config = _bad_population_config(n, epochs, seed, "reserve")
    traj = run_simulation(config, record="light")
    samples = []
    for e in traj.epochs:
        if e.completed and len(e.bad_start) == n and e.config.bad_count == n:
            samples.append(e.bad_revenue / e.config.bad_rounds)
    mean, se = mean_se(samples)
    floor = (
        (1.0 - EPSILON)
        * (1.0 - 1.0 / math.e)
        * myerson_revenue(Uniform(0.0, 1.0), n)
    )
    report.check(
        mean >= floor - 3.0 * se,
        f"mean bad-phase revenue/round {mean:.4f} >= {floor:.4f} - 3se ({se:.4f}) "
        f"over {len(samples)} epochs",
    )
    return report


# ---------------------------------------------------------------------------
# headline revenue bound
# ---------------------------------------------------------------------------


def _theorem_roster(n_soph: int, n_naive: int) -> list[dict]:
    return [{"kind": "lookahead"}] * n_soph + [{"kind": "myopic"}] * n_naive


def _check_bounds(report: SuiteReport, config: RunConfig, split: tuple, prior: str = "") -> None:
    """Measure ``config`` through ``bound_report`` and add its floor and ceiling
    checks, after checking that the agents declare the intended split."""
    label = f"{prior}roster ({split[0]},{split[1]})"
    bounds = bound_report(config)
    report.check(
        (bounds.n_soph, bounds.n_naive) == split,
        f"{label}: agents declare {bounds.n_soph} sophisticated, {bounds.n_naive} naive",
    )
    report.note(
        f"{label}: T={config.params.horizon}, measured {bounds.measured_mean:.4f} "
        f"(se {bounds.measured_se:.5f}), lower {bounds.lower_bound:.4f}, "
        f"slack {bounds.slack:.4f}, upper {bounds.upper_bound:.4f}"
    )
    for name, ok, margin in bounds.checks:
        report.check(ok, f"{label}: {name} (margin {margin:+.4f})")


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
        config = _config(_theorem_roster(*split), horizon, seed, replications=replications)
        _check_bounds(report, config, split)
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
            roster = _theorem_roster(*split)
            config = _config(roster, horizon, seed, dist, replications=replications)
            _check_bounds(report, config, split, f"{label} ")
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

    def bound(t: int) -> float:
        return 3.0 * math.sqrt(n_arms * math.log(n_arms) / t)

    per_t = np.mean([_smoke_regret(horizon, seed + s) for s in range(seeds)]) / horizon
    per_4t = np.mean([_smoke_regret(4 * horizon, seed + s) for s in range(seeds)]) / (
        4 * horizon
    )
    report.check(
        per_t <= bound(horizon),
        f"per-round regret at T={horizon}: {per_t:.5f} <= {bound(horizon):.5f}",
    )
    report.check(
        per_4t <= bound(4 * horizon),
        f"per-round regret at 4T={4 * horizon}: {per_4t:.5f} <= {bound(4 * horizon):.5f}",
    )
    report.check(
        per_4t <= 0.6 * per_t,
        f"sublinearity: {per_4t:.5f} <= 0.6 * {per_t:.5f}",
    )

    family = _etc_family()
    horizon_etc = 20000
    explore_len = max(1, math.ceil(horizon_etc ** (2.0 / 3.0) / len(family)))
    explore_total = len(family) * explore_len
    report.note(
        f"explore-then-commit: N={len(family)}, L={explore_len}, "
        f"N*L={explore_total} <= {0.05 * horizon_etc:.0f}"
    )
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
        occupancy = traj.state_rounds[0][BuyerState.BAD] / horizon_etc
        report.check(
            occupancy < 0.05,
            f"etc seed {s}: bad-state occupancy {occupancy:.4f} < 0.05",
        )
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
    report.check(regret == 0.0, f"policy regret of an agent against itself: {regret!r}")
    first = trajectory_ndjson(run_simulation(config))
    second = trajectory_ndjson(run_simulation(config))
    report.check(first == second, "identical seeds give byte-identical trajectories")
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
