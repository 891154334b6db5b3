import dataclasses
import math
import warnings
from collections import deque

import numpy as np
import pytest

from epochfpa.agents import (
    BAD_THRESHOLD,
    GOOD_TEMPLATE,
    ZERO_BID,
    Agent,
    AgentError,
    EtcAgent,
    Exp3Agent,
    Exp3Learner,
    Expert,
    ExpertAgent,
    ExpertFamily,
    GoodStrategyAgent,
    LookaheadAgent,
    MyopicAgent,
    ValueGrid,
    build_agent,
    default_expert_family,
)
from epochfpa.distributions import FiniteSupport, Uniform
from epochfpa.mechanism import (
    AgentView,
    BuyerState,
    MechanismParams,
    derive_epoch_config,
)
from epochfpa.rng import substream

EPS = 0.3
RHO = EPS * (1 - EPS) ** 4 / 12


def make_view(n=2, uncleared=0, states=None, phase="good", dist=None):
    params = MechanismParams(n=n, horizon=1000, epsilon=EPS, delta=EPS, rho=RHO)
    good = [i for i in range(n) if states is None or states[i] != BuyerState.BAD]
    bad = [i for i in range(n) if states is not None and states[i] == BuyerState.BAD]
    cfg = derive_epoch_config(params, good, bad, dist or Uniform(0.0, 1.0))
    states = tuple(states or [BuyerState.GOOD] * n)
    return params, AgentView(
        t=0,
        phase=phase,
        config=cfg,
        uncleared=uncleared,
        states=states,
        num_good=sum(1 for s in states if s == BuyerState.GOOD),
        num_bad=sum(1 for s in states if s == BuyerState.BAD),
    )


def bind(agent, params, buyer=0, seed=123, dist=None):
    agent.bind(buyer, params, dist or Uniform(0.0, 1.0), substream(seed, "agent", buyer))
    return agent


# -- good strategy ----------------------------------------------------------------


def test_good_strategy_bids_reserve_above_cutoff():
    params, view = make_view()
    agent = bind(GoodStrategyAgent(), params)
    cfg = view.config
    assert agent.bid(view, 0.9) == cfg.good_reserve
    assert agent.bid(view, cfg.good_cutoff) == cfg.good_reserve
    assert agent.bid(view, 0.3) == 0.0


def test_lookahead_defaults_to_sophisticated_depth():
    params, view = make_view()
    agent = bind(LookaheadAgent(), params)
    assert agent.k == params.lookahead_threshold
    assert agent.sophisticated
    assert agent.bid(view, 0.9) == view.config.good_reserve


def test_lookahead_warns_below_threshold_but_still_plays_safe():
    params, view = make_view()
    with pytest.warns(UserWarning):
        agent = bind(LookaheadAgent(k=3), params)
    assert not agent.sophisticated
    assert agent.bid(view, 0.9) == view.config.good_reserve
    assert agent.bid(view, 0.1) == 0.0


def test_good_strategy_bids_only_zero_or_reserve():
    params, _ = make_view()
    agent = bind(LookaheadAgent(), params)
    for uncleared in (0, 10_000):
        _, view = make_view(uncleared=uncleared)
        for v in np.linspace(0.0, 1.0, 33):
            assert agent.bid(view, float(v)) in (0.0, view.config.good_reserve)


# -- myopic ----------------------------------------------------------------------


def test_myopic_bad_state_reserve_rule():
    params, view = make_view(states=[BuyerState.BAD, BuyerState.GOOD], phase="bad")
    agent = bind(MyopicAgent(), params)
    r_b = view.config.bad_reserve
    assert agent.bid(view, r_b + 0.2) == r_b
    assert agent.bid(view, r_b - 0.1) == 0.0
    assert agent.bid(view, r_b) == 0.0  # indifferent at the reserve, stays out


def test_myopic_bad_state_value_rule():
    params, view = make_view(states=[BuyerState.BAD, BuyerState.GOOD], phase="bad")
    agent = bind(MyopicAgent(bad_mode="value"), params)
    r_b = view.config.bad_reserve
    assert agent.bid(view, r_b + 0.2) == pytest.approx(r_b + 0.2)
    assert agent.bid(view, r_b - 0.1) == 0.0


def test_myopic_bad_state_bid_sides_of_reserve():
    params, view = make_view(states=[BuyerState.BAD, BuyerState.GOOD], phase="bad")
    r_b = view.config.bad_reserve
    for mode in ("reserve", "value"):
        agent = bind(MyopicAgent(bad_mode=mode), params)
        for v in np.linspace(0, 1, 41):
            bid = agent.bid(view, float(v))
            if v > r_b:
                assert bid >= r_b
            else:
                assert bid < r_b or v == r_b


def test_myopic_good_state_default_and_zero_modes():
    params, view = make_view()
    r_g = view.config.good_reserve
    agent = bind(MyopicAgent(), params)
    assert agent.bid(view, 0.9) == r_g
    assert agent.bid(view, r_g - 0.01) == 0.0
    zero = bind(MyopicAgent(good_mode="zero"), params)
    assert zero.bid(view, 0.99) == 0.0


def test_myopic_empirical_mode_bids_between_reserve_and_value():
    params, view = make_view()
    agent = bind(MyopicAgent(good_mode="empirical"), params)
    r_g = view.config.good_reserve
    # before enough observations it falls back to the reserve rule
    assert agent.bid(view, 0.9) == r_g
    for _ in range(40):
        agent.observe(view, 0.5, 0.0, {0: 0.0, 1: r_g + 0.05}, 1)
    bid = agent.bid(view, 0.95)
    assert r_g <= bid <= 0.95
    assert agent.bid(view, r_g - 0.05) == 0.0


def oracle_empirical_bid(dist, rivals, reserve, value):
    """The empirical best response as one numpy mean per candidate bid."""
    if value < reserve:
        return 0.0
    rivals = np.array(rivals)
    step = (dist.support_max - dist.support_min) / 64.0
    candidates = np.arange(reserve, value + 1e-12, step if step > 0 else 1.0)
    if candidates.size == 0:
        candidates = np.array([reserve])
    win = np.array([(b > rivals).mean() for b in candidates])
    surplus = (value - candidates) * win
    return float(candidates[int(np.argmax(surplus))])


@pytest.mark.parametrize(
    "dist, seed",
    [(Uniform(0.0, 1.0), 1), (Uniform(0.0, 1.0), 2), (Uniform(2.0, 5.0), 3)],
    ids=["unit-1", "unit-2", "uniform-2-5"],
)
def test_myopic_empirical_bid_matches_per_candidate_oracle(dist, seed):
    params, view = make_view(n=3, dist=dist)
    # buyer 0 stays good while the good count, and with it the reserve, changes
    _, view2 = make_view(n=3, states=[BuyerState.GOOD, BuyerState.GOOD, BuyerState.BAD], dist=dist)
    assert view2.config.good_reserve != view.config.good_reserve
    agent = bind(MyopicAgent(good_mode="empirical"), params, dist=dist)
    lo, hi = dist.support_min, dist.support_max
    rng = np.random.default_rng(seed)
    window = deque(maxlen=512)
    for k in range(1300):
        if k and k % 300 == 0:  # switch reserves, and back again 300 rounds later
            view, view2 = view2, view
        reserve = view.config.good_reserve
        # rival bids that equal candidate bids exactly, so the strict ">" matters
        grid = np.arange(reserve, hi + 1e-12, (hi - lo) / 64.0).tolist()
        draw = rng.random()
        if draw < 0.4:
            rival = grid[rng.integers(len(grid))]
        elif draw < 0.6:
            rival = 0.0
        else:
            rival = float(rng.uniform(lo, hi))
        other = float(rng.uniform(0.0, rival)) if rival > 0 else 0.0
        winner = 1 if rival >= reserve else None
        agent.observe(view, 0.0, 0.0, {0: 0.0, 1: rival, 2: other}, winner)
        window.append(rival)
        if len(window) < 20:
            continue
        values = (reserve, dist.support_max, float(rng.uniform(lo, hi)), grid[rng.integers(len(grid))])
        for value in values:
            assert agent.bid(view, value) == oracle_empirical_bid(dist, window, reserve, value)
    assert list(agent._rival_bids) == list(window)


def test_expert_agent_refuses_an_index_outside_its_family():
    family = default_expert_family(Uniform(0.0, 1.0), levels=1)
    for index in (-1, len(family)):
        with pytest.raises(AgentError, match=f"expert index {index} outside the family"):
            ExpertAgent(family, index)


def test_myopic_rejects_unknown_modes():
    with pytest.raises(AgentError):
        MyopicAgent(good_mode="wat")
    with pytest.raises(AgentError):
        MyopicAgent(bad_mode="wat")


# -- experts ----------------------------------------------------------------------


def test_bad_threshold_expert_rule():
    _, view = make_view(states=[BuyerState.BAD, BuyerState.GOOD], phase="bad")
    grid = ValueGrid(0.0, 1.0, 1 / 64)
    cfg = view.config
    family = ExpertFamily((Expert(BAD_THRESHOLD),), grid)
    assert family.bid(0, view, 0, cfg.bad_cutoff + 0.1) == cfg.bad_reserve
    assert family.bid(0, view, 0, cfg.bad_cutoff - 0.1) == 0.0
    # not in the bad state: always zero
    assert family.bid(0, view, 1, 0.99) == 0.0


def test_leveled_experts_snap_values_to_grid():
    _, view = make_view()
    grid = ValueGrid(0.0, 1.0, 1 / 4)
    leveled = ExpertFamily((Expert(GOOD_TEMPLATE, level=0.9),), grid)
    cutoff = view.config.good_cutoff  # 0.5 for two good buyers on uniform
    # 0.6 snaps down to 0.5 which still meets the cutoff
    assert leveled.bid(0, view, 0, 0.6) == 0.9
    # 0.45 snaps down to 0.25, below the cutoff
    assert leveled.bid(0, view, 0, 0.45) == 0.0
    assert cutoff == 0.5


def test_expert_rule_table():
    # buyer 0 is GOOD and buyer 1 BAD under one view; every style resolves
    # to "bid level if the (snapped) value reaches cutoff"
    _, view = make_view(states=[BuyerState.GOOD, BuyerState.BAD])
    cfg = view.config
    off = (0.0, math.inf, False)
    table = [
        (Expert(GOOD_TEMPLATE), (cfg.good_reserve, cfg.good_cutoff, False), off),
        (Expert(GOOD_TEMPLATE, level=0.75), (0.75, cfg.good_cutoff, True), off),
        (Expert(BAD_THRESHOLD), off, (cfg.bad_reserve, cfg.bad_cutoff, False)),
        (Expert(BAD_THRESHOLD, level=0.5, cutoff=0.625), off, (0.5, 0.625, True)),
        (Expert(BAD_THRESHOLD, level=0.5), off, (0.5, cfg.bad_cutoff, True)),
        (Expert(BAD_THRESHOLD, cutoff=0.625), off, (cfg.bad_reserve, 0.625, True)),
        (Expert(ZERO_BID), off, off),
        (Expert(ZERO_BID, level=0.5, cutoff=0.5), off, off),
    ]
    for expert, good, bad in table:
        assert expert.rule(view, 0) == good, expert
        assert expert.rule(view, 1) == bad, expert
    with pytest.raises(AgentError, match="unknown expert style"):
        Expert("wat").rule(view, 0)


def test_expert_bids_nonnegative_and_finite_everywhere():
    rng = substream(11, "bids")
    family = default_expert_family(Uniform(0.0, 1.0))
    for states in ([BuyerState.GOOD] * 2, [BuyerState.BAD, BuyerState.GOOD]):
        for uncleared in (0, 10_000):
            _, view = make_view(states=states, uncleared=uncleared)
            for _ in range(40):
                v = float(rng.random())
                for j in range(len(family)):
                    b = family.bid(j, view, 0, v)
                    assert math.isfinite(b) and b >= 0.0


def test_expert_outputs_lie_on_grid_or_current_reserves():
    rng = substream(12, "grid-outputs")
    family = default_expert_family(Uniform(0.0, 1.0))
    grid_points = {
        round(family.grid.lo + k * family.grid.step, 12)
        for k in range(int((family.grid.hi - family.grid.lo) / family.grid.step) + 1)
    }
    for states in ([BuyerState.GOOD] * 2, [BuyerState.BAD, BuyerState.GOOD]):
        for uncleared in (0, 10_000):
            _, view = make_view(states=states, uncleared=uncleared)
            allowed = grid_points | {
                0.0,
                view.config.good_reserve,
                view.config.bad_reserve,
            }
            for _ in range(30):
                v = float(rng.random())
                for j in range(len(family)):
                    b = family.bid(j, view, 0, v)
                    assert b in allowed or round(b, 12) in allowed


def test_default_family_contains_benchmarks_and_zero():
    family = default_expert_family(Uniform(0.0, 1.0))
    styles = [(e.style, e.level) for e in family.experts]
    assert styles[0] == (GOOD_TEMPLATE, None)
    assert (BAD_THRESHOLD, None) in styles
    assert (ZERO_BID, None) in styles
    assert len(family) <= 16
    # a point mass has no spread, so its grid spans one unit above the point
    point = default_expert_family(FiniteSupport(((3.0, 1.0),)))
    assert (point.grid.lo, point.grid.hi) == (3.0, 4.0)
    assert [e.style for e in point.experts] == [e.style for e in family.experts]


# -- learners ---------------------------------------------------------------------


def test_exp3_fresh_probabilities_uniform():
    learner = Exp3Learner(4, 0.1, 1.0, substream(1, "l"))
    assert np.allclose(learner.probabilities(), 0.25)


def test_exp3_zero_rewards_keep_uniform():
    learner = Exp3Learner(4, 0.1, 1.0, substream(2, "l"))
    for _ in range(50):
        learner.select_arm()
        learner.update(0.0)
    assert np.allclose(learner.probabilities(), 0.25)


def test_exp3_single_step_hand_value():
    # gamma=0.1, N=2, importance-weighted reward 1.0 applied to arm 0:
    # w = (e^{0.05}, 1) and p_0 = 0.9 * e^{0.05}/(e^{0.05}+1) + 0.05
    learner = Exp3Learner(2, 0.1, 1.0, substream(3, "l"))
    while True:
        arm, prob = learner.select_arm()
        if arm == 0:
            break
        learner.update(0.0)
    learner.update(prob * 1.0)  # importance-weighted estimate becomes exactly 1.0
    w = math.exp(0.05)
    expect = 0.9 * w / (w + 1.0) + 0.05
    assert learner.probabilities()[0] == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(0.51125, abs=1e-4)


@pytest.mark.parametrize(
    "n_arms, gamma, message",
    [(0, 0.1, "at least one arm"), (2, 0.0, "gamma must lie"), (2, 1.5, "gamma must lie")]
    + [(2, g, "gamma must lie") for g in (True, "0.1", math.nan, None)]
    + [(k, 0.1, "n_arms must be an integer") for k in ("3", 2.5, True, None)],
)
def test_exp3_learner_rejects_no_arms_or_gamma_outside_its_range(n_arms, gamma, message):
    with pytest.raises(AgentError, match=message):
        Exp3Learner(n_arms, gamma, 1.0, substream(4, "l"))


@pytest.mark.parametrize(
    "scale, message",
    [("1", "reward_scale must be a number"), (True, "reward_scale must be a number")]
    + [(x, "reward_scale must be finite") for x in (math.nan, math.inf)]
    + [(x, "reward_scale must be positive") for x in (0.0, -1.0)],
)
def test_exp3_learner_rejects_a_reward_scale_that_is_no_positive_number(scale, message):
    with pytest.raises(AgentError, match=message):
        Exp3Learner(2, 0.1, scale, substream(4, "l"))


def test_exp3_agent_on_a_point_mass_at_zero_scales_rewards_by_one():
    params, _ = make_view()
    agent = bind(Exp3Agent(), params, dist=FiniteSupport(((0.0, 1.0),)))
    assert agent.learner.reward_scale == 1.0


def test_exp3_learner_takes_numpy_scalars_as_plain_numbers():
    learner = Exp3Learner(np.int64(3), np.float64(0.5), 1.0, substream(4, "l"))
    assert type(learner.n_arms) is int and learner.n_arms == 3
    assert type(learner.gamma) is float and learner.gamma == 0.5
    assert type(Exp3Agent(gamma=np.float64(0.5)).gamma) is float


def test_exp3_update_pairing_enforced():
    learner = Exp3Learner(3, 0.2, 1.0, substream(4, "l"))
    with pytest.raises(AgentError):
        learner.update(0.5)
    learner.select_arm()
    with pytest.raises(AgentError):
        learner.select_arm()
    learner.update(0.5)
    with pytest.raises(AgentError):
        learner.update(0.5)


def test_exp3_importance_weight_bounded_by_floor():
    gamma, n = 0.2, 5
    learner = Exp3Learner(n, gamma, 1.0, substream(5, "l"))
    for _ in range(200):
        _, prob = learner.select_arm()
        assert prob >= gamma / n - 1e-12
        learner.update(1.0)
        assert np.all(learner.weights > 0)
        assert learner.probabilities().sum() == pytest.approx(1.0, abs=1e-12)


class NumpyDrawExp3:
    """The learner as it drew before its draw was cached: the distribution
    rebuilt in numpy every round and every update applied, kept as the
    reference."""

    def __init__(self, n_arms, gamma, reward_scale, rng):
        self.n_arms, self.gamma, self.reward_scale, self.rng = n_arms, gamma, reward_scale, rng
        self.weights = np.ones(n_arms)
        self.pending = None

    def select_arm(self):
        w = self.weights / self.weights.sum()
        p = (1.0 - self.gamma) * w + self.gamma / self.n_arms
        idx = int(np.searchsorted(np.cumsum(p), self.rng.random(), side="right"))
        idx = min(idx, self.n_arms - 1)
        self.pending = (idx, float(p[idx]))
        return self.pending

    def update(self, utility):
        idx, prob = self.pending
        reward = min(max(utility, 0.0), self.reward_scale) / self.reward_scale
        self.weights[idx] *= math.exp(self.gamma * (reward / prob) / self.n_arms)
        self.weights /= self.weights.max()


def test_exp3_cached_draw_matches_the_numpy_draw():
    stream = substream(9, "utilities")
    kinds = stream.integers(0, 4, 3000)
    sizes = stream.uniform(0.0, 2.0, 3000)
    # zeros, negatives, values above the reward scale of 2, and positives
    utilities = np.select([kinds == 0, kinds == 1, kinds == 2], [0.0, -sizes, 2.0 + sizes], sizes)
    learner = Exp3Learner(5, 0.3, 2.0, substream(9, "learner"))
    reference = NumpyDrawExp3(5, 0.3, 2.0, substream(9, "learner"))
    arms = set()
    for utility in utilities.tolist():
        pick = learner.select_arm()
        assert pick == reference.select_arm()
        arms.add(pick[0])
        learner.update(utility)
        reference.update(utility)
        assert learner.weights.tobytes() == reference.weights.tobytes()
    assert arms == set(range(5)) and len(set(learner.weights.tolist())) == 5


def test_exp3_agent_runs_against_family():
    params, view = make_view()
    agent = bind(Exp3Agent(levels=2), params)
    bid = agent.bid(view, 0.8)
    assert math.isfinite(bid) and bid >= 0
    agent.observe(view, 0.8, 0.1, {0: bid, 1: 0.0}, 0)


# -- explore-then-commit ------------------------------------------------------------


def etc_with_family(params, n_experts=2, explore_len=50):
    grid = ValueGrid(0.0, 1.0, 1 / 64)
    experts = tuple(
        [Expert(GOOD_TEMPLATE)] + [Expert(ZERO_BID)] * (n_experts - 1)
    )
    agent = EtcAgent(family=ExpertFamily(experts, grid), explore_len=explore_len)
    return bind(agent, params)


def test_etc_exploration_schedule():
    params, _ = make_view()
    with pytest.warns(UserWarning, match="no mechanism reset"):
        agent = etc_with_family(params, n_experts=2, explore_len=50)
    assert [agent._arm_for(t) for t in (0, 49, 50, 99)] == [0, 0, 1, 1]


def test_etc_commits_to_best_average():
    params, view = make_view()
    with pytest.warns(UserWarning, match="no mechanism reset"):
        agent = etc_with_family(params, n_experts=2, explore_len=2)
    agent._scores[:] = (0.1 * 2, 0.3 * 2)
    assert agent._arm_for(4) == 1
    assert agent.committed_index == 1


def test_etc_tie_breaks_to_lowest_index():
    params, _ = make_view()
    with pytest.warns(UserWarning, match="no mechanism reset"):
        agent = etc_with_family(params, n_experts=3, explore_len=2)
    agent._scores[:] = (0.2, 0.2, 0.2)
    assert agent._arm_for(6) == 0


def test_etc_default_exploration_length():
    params, _ = make_view()
    with pytest.warns(UserWarning, match="no mechanism reset"):
        agent = bind(EtcAgent(levels=1), params)
    n = len(agent.family)
    assert agent.explore_len == max(1, math.ceil(params.horizon ** (2 / 3) / n))


def test_etc_warns_when_reset_precedes_exploration_end():
    params = MechanismParams(
        n=2, horizon=1000, epsilon=EPS, delta=EPS, rho=RHO, reset_round=10
    )
    with pytest.warns(UserWarning, match="precedes the end of exploration"):
        agent = bind(EtcAgent(levels=1), params)
    assert not agent.sophisticated


def test_etc_warns_without_reset_and_counts_as_naive():
    params, _ = make_view()
    with pytest.warns(UserWarning, match="no mechanism reset"):
        agent = bind(EtcAgent(levels=1), params)
    assert not agent.sophisticated


@pytest.mark.parametrize("reset", [100, 400])
def test_etc_is_sophisticated_with_reset_at_or_after_exploration_end(reset):
    params = MechanismParams(
        n=2, horizon=1000, epsilon=EPS, delta=EPS, rho=RHO, reset_round=reset
    )
    agent = etc_with_family(params, n_experts=2, explore_len=50)
    assert agent.explore_total == 100
    assert agent.sophisticated


# -- roster construction -------------------------------------------------------------


def test_build_agent_from_specs():
    assert isinstance(build_agent({"kind": "myopic"}), MyopicAgent)
    agent = build_agent({"kind": "myopic", "good_mode": "zero"})
    assert agent.good_mode == "zero"
    with pytest.raises(AgentError):
        build_agent({"kind": "unheard-of"})
    with pytest.raises(AgentError):
        build_agent({"good_mode": "zero"})
    with pytest.raises(AgentError):
        build_agent({"kind": "myopic", "bogus_option": 1})


@pytest.mark.parametrize(
    "spec",
    [{"kind": "exp3", "levels": v} for v in ("6", 1.5, True, -3, None)]
    + [{"kind": "etc", "levels": v} for v in ("6", 1.5, True, -3)]
    + [{"kind": "exp3", "gamma": v} for v in ("0.5", 0.0, 1.5, math.nan, True)],
)
def test_learner_options_are_checked_when_built(spec):
    with pytest.raises(AgentError, match=r"levels must be an integer|gamma must lie in \(0, 1\]"):
        build_agent(spec)


def test_learner_options_accept_their_ranges():
    assert build_agent({"kind": "exp3", "levels": 0, "gamma": 1}).gamma == 1
    assert build_agent({"kind": "etc", "levels": np.int64(2)}).levels == 2


# -- stationary agents -------------------------------------------------------------------

STATIONARY_SPECS = [
    {"kind": "good-strategy"},
    {"kind": "lookahead"},
    {"kind": "myopic"},
    {"kind": "myopic", "bad_mode": "value"},
    {"kind": "myopic", "good_mode": "zero"},
    {"kind": "myopic", "good_mode": "zero", "bad_mode": "value"},
]


@pytest.mark.parametrize(
    "spec, stationary",
    [(spec, True) for spec in STATIONARY_SPECS]
    + [
        ({"kind": "myopic", "good_mode": "empirical"}, False),
        ({"kind": "myopic", "good_mode": "empirical", "bad_mode": "value"}, False),
        ({"kind": "exp3", "levels": 1}, False),
        ({"kind": "etc", "levels": 1}, False),
    ],
)
def test_each_agent_declares_whether_it_is_stationary(spec, stationary):
    params, _ = make_view()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # etc without a reset
        agent = bind(build_agent(spec), params)
    assert agent.stationary is stationary


def test_replay_experts_are_stationary_and_the_base_agent_is_not():
    assert ExpertAgent(default_expert_family(Uniform(0.0, 1.0)), 0).stationary is True
    assert Agent.stationary is False


def _edge_values(view, grid, rng):
    """Values at, just below and just above every point a bid rule compares
    with, plus random ones inside and outside the grid."""
    cfg = view.config
    points = [grid.lo, grid.hi, cfg.good_reserve, cfg.good_cutoff, cfg.bad_reserve]
    points += [cfg.bad_cutoff, *grid.levels(6), grid.lo + 3 * grid.step]
    values = [0.0]
    for p in points:
        values += [math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)]
    span = grid.hi - grid.lo
    values += (grid.lo - 0.1 * span + 1.2 * span * rng.random(200)).tolist()
    return np.array(values)


@pytest.mark.parametrize(
    "dist",
    [Uniform(0.0, 1.0), FiniteSupport(((1.0, 0.5), (2.0, 0.5)))],
    ids=["uniform", "two-point"],
)
def test_stationary_bids_equal_bid_bit_for_bit(dist):
    family = default_expert_family(dist)
    rng = np.random.default_rng(7)
    for state in (BuyerState.GOOD, BuyerState.BAD):
        params, view = make_view(n=3, states=[state, BuyerState.GOOD, BuyerState.BAD], dist=dist)
        values = _edge_values(view, family.grid, rng)
        threshold = view.config.uncleared_threshold
        for uncleared in (0, threshold - 1, threshold, threshold + 5):
            view = view._replace(uncleared=uncleared)
            agents = [build_agent(spec) for spec in STATIONARY_SPECS]
            agents += [ExpertAgent(family, j) for j in range(len(family))]
            for agent in agents:
                bind(agent, params, dist=dist)
                got = agent.bids(view, values)
                want = np.array([agent.bid(view, v) for v in values.tolist()])
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), agent


@pytest.mark.parametrize(
    "dist",
    [Uniform(0.0, 1.0), FiniteSupport(((1.0, 0.5), (2.0, 0.5)))],
    ids=["uniform", "two-point"],
)
def test_stationary_bids_read_only_the_phase_the_config_and_their_own_state(dist):
    """The stationary contract ``run_block`` relies on: views that differ
    only in the round, the uncleared count, the config's index and the
    other buyers' states give equal bids."""
    family = default_expert_family(dist)
    rng = np.random.default_rng(11)
    for own in (BuyerState.GOOD, BuyerState.BAD):
        for phase in ("good", "bad"):
            params, view = make_view(n=3, states=[own, BuyerState.GOOD, BuyerState.BAD], dist=dist)
            view = view._replace(phase=phase)
            values = _edge_values(view, family.grid, rng)
            others = [
                view._replace(t=517, uncleared=view.config.uncleared_threshold + 3),
                view._replace(config=dataclasses.replace(view.config, index=9)),
                view._replace(states=(own, BuyerState.REST, BuyerState.GOOD), num_bad=0),
                view._replace(states=(own, BuyerState.BAD, BuyerState.REST), num_good=0),
            ]
            agents = [build_agent(spec) for spec in STATIONARY_SPECS]
            agents += [ExpertAgent(family, j) for j in range(len(family))]
            for agent in agents:
                bind(agent, params, dist=dist)
                assert agent.stationary
                want = agent.bids(view, values).tobytes()
                for other in others:
                    assert agent.bids(other, values).tobytes() == want, (agent, other)


def test_snap_all_equals_snap():
    grid = ValueGrid(0.25, 2.0, 1.0 / 64.0)
    values = np.concatenate([np.linspace(-1.0, 3.0, 4001), [0.25, 2.0, 0.25 + 1 / 64]])
    assert grid.snap_all(values).tolist() == [grid.snap(v) for v in values.tolist()]
