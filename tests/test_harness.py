import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epochfpa import suites
from epochfpa.agents import (
    GOOD_TEMPLATE,
    Agent,
    ZERO_BID,
    EtcAgent,
    Expert,
    ExpertAgent,
    ExpertFamily,
    GoodStrategyAgent,
    ValueGrid,
    default_expert_family,
)
from epochfpa.distributions import FiniteSupport, InverseCdf, Uniform
from epochfpa.harness import (
    Check,
    ConfigError,
    RunConfig,
    bound_report,
    classify_roster,
    estimate_external_regret,
    estimate_policy_regret,
    external_regret_profile,
    mean_se,
    revenue_slack,
    revenue_upper_bound,
    run_simulation,
    summarize,
    theorem_lower_bound,
    trajectory_ndjson,
    write_epoch_csv,
    write_trajectory,
)
from epochfpa.mechanism import (
    AgentView,
    BuyerState,
    Mechanism,
    MechanismError,
    MechanismParams,
    RoundOutcome,
    _PLAN_ROUNDS,
)
from epochfpa.rng import substream

EPS = 0.3
RHO = EPS * (1 - EPS) ** 4 / 12


def make_config(n=2, horizon=700, agents=None, seed=5, dist=None, **kw):
    params = MechanismParams(n=n, horizon=horizon, epsilon=EPS, delta=EPS, rho=RHO, **kw)
    return RunConfig(
        params=params,
        distribution=dist or Uniform(0.0, 1.0),
        agents=agents or [{"kind": "good-strategy"}] * n,
        seed=seed,
    )


GOOD_ONLY_FAMILY = ExpertFamily((Expert(GOOD_TEMPLATE),), ValueGrid(0.0, 1.0, 1 / 64))


# -- config ------------------------------------------------------------------------


def test_config_validates_roster_size_and_ids():
    with pytest.raises(ConfigError):
        make_config(n=2, agents=[{"kind": "myopic"}])
    with pytest.raises(ConfigError):
        make_config(
            n=2, agents=[{"id": 0, "kind": "myopic"}, {"id": 0, "kind": "myopic"}]
        )
    cfg = make_config(
        n=2,
        agents=[{"id": 1, "kind": "myopic"}, {"id": 0, "kind": "good-strategy"}],
    )
    assert cfg.agents[0]["kind"] == "good-strategy"


@pytest.mark.parametrize(
    "field, bad",
    [("seed", 1.5), ("seed", "x"), ("seed", None), ("seed", True),
     ("replications", 2.5), ("replications", "2"), ("replications", True), ("out_dir", 5)],
)
def test_config_checks_its_fields_on_construction(field, bad):
    fields = {"seed": 5, "replications": 1, field: bad}
    kind = {"seed": "an integer", "replications": "an integer of at least 1"}
    message = f"^{field} must be {kind.get(field, 'a string')}, got {re.escape(repr(bad))}$"
    with pytest.raises(ConfigError, match=message):
        RunConfig(
            params=make_config().params, distribution=Uniform(0.0, 1.0),
            agents=[{"kind": "myopic"}] * 2, **fields,
        )


@pytest.mark.parametrize("seed", [2**64, -1])
def test_config_refuses_a_seed_outside_the_stream_range(seed):
    with pytest.raises(ConfigError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
        make_config(seed=seed)


def test_seeds_name_streams_one_to_one():
    # 2**64 - 1 and 0 were 2**64 apart from -1 and 2**64, which named their streams
    texts = [trajectory_ndjson(run_simulation(make_config(seed=s))) for s in (0, 2**64 - 1)]
    assert texts[0] != texts[1]
    for seed in (2**64, -1):
        with pytest.raises(ValueError, match=r"^seed must lie in \[0, 2\*\*64\)"):
            substream(seed, "values")
    with pytest.raises(ValueError, match=r"^stream label must lie in \[0, 2\*\*64\)"):
        substream(0, "rep", 2**64)


def test_config_refuses_zero_replications():
    base = make_config()
    message = "^replications must be an integer of at least 1, got 0$"
    with pytest.raises(ConfigError, match=message):
        RunConfig(base.params, base.distribution, base.agents, 5, replications=0)


def test_config_stores_numpy_integers_as_ints():
    base = make_config()
    cfg = RunConfig(base.params, base.distribution, base.agents, np.int64(7), np.int64(2))
    assert (type(cfg.seed), type(cfg.replications)) == (int, int)
    assert (cfg.seed, cfg.replications) == (7, 2)


def test_config_json_round_trip(tmp_path):
    cfg = make_config(n=2, agents=[{"kind": "lookahead"}, {"kind": "myopic"}])
    doc = cfg.to_dict()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    loaded = RunConfig.from_file(path)
    assert loaded.to_dict() == doc
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"params": {}})
    cfg.out_dir = "runs"
    assert cfg.to_dict() == {**doc, "out_dir": "runs"}
    assert RunConfig.from_dict(cfg.to_dict()).out_dir == "runs"


# -- simulation ---------------------------------------------------------------------


def test_zero_horizon_gives_empty_trajectory():
    traj = run_simulation(make_config(horizon=0))
    assert traj.rounds == []
    assert traj.epochs == []
    assert traj.total_revenue == 0.0
    assert traj.revenue_per_round == 0.0


def test_run_simulation_rejects_an_unknown_record_mode():
    with pytest.raises(ConfigError, match="unknown record mode 'x'"):
        run_simulation(make_config(horizon=10), record="x")


@pytest.mark.parametrize("replication", [1.0, "1", True, -1])
def test_run_simulation_rejects_a_replication_that_is_no_index(replication):
    message = rf"replication must be an integer of at least 0, got {re.escape(repr(replication))}"
    for record in ("full", "light"):
        with pytest.raises(ConfigError, match=message):
            run_simulation(make_config(horizon=300), replication, record)


def test_a_numpy_replication_runs_that_replication():
    cfg = make_config(horizon=300, agents=[{"kind": "myopic"}, {"kind": "exp3"}])
    want, got = run_simulation(cfg, 1), run_simulation(cfg, np.int64(1))
    assert type(got.replication) is int and got.replication == 1
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.agent_utilities, want.agent_utilities)
    assert trajectory_ndjson(got) == trajectory_ndjson(want)
    # and another replication draws other streams
    assert not np.array_equal(run_simulation(cfg, 0).values, want.values)


def test_single_buyer_single_epoch_round_count():
    cfg = make_config(n=1, horizon=160, agents=[{"kind": "myopic"}])
    traj = run_simulation(cfg)
    epoch = traj.epochs[0]
    assert epoch.config.bad_rounds + epoch.config.good_rounds == epoch.end - epoch.start
    assert len(traj.rounds) == 160
    assert all(r.t == k for k, r in enumerate(traj.rounds))


def test_identical_seeds_identical_serialization(tmp_path):
    cfg = make_config()
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert trajectory_ndjson(a) == trajectory_ndjson(b)
    pa, pb = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    write_trajectory(a, pa)
    write_trajectory(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = run_simulation(make_config(seed=6))
    assert trajectory_ndjson(c) != trajectory_ndjson(a)


def test_values_recorded_for_all_buyers_every_round():
    cfg = make_config(horizon=50)
    traj = run_simulation(cfg)
    assert traj.values.shape == (50, 2)
    assert np.all((traj.values >= 0.0) & (traj.values <= 1.0))


def test_revenue_conservation_round_sum_matches_epochs():
    cfg = make_config(horizon=700)
    traj = run_simulation(cfg)
    by_rounds = sum(r.payment for r in traj.rounds)
    assert by_rounds == pytest.approx(traj.total_revenue, abs=1e-9)
    good = sum(r.payment for r in traj.rounds if r.phase == "good")
    assert good == pytest.approx(sum(e.good_revenue for e in traj.epochs), abs=1e-9)


def test_epoch_agent_utilities_align_with_totals():
    cfg = make_config(horizon=700)
    traj = run_simulation(cfg)
    stacked = np.vstack(traj.epoch_agent_utilities).sum(axis=0)
    assert np.allclose(stacked, traj.agent_utilities)


def test_good_strategy_wins_pay_exactly_the_reserve():
    cfg = make_config(horizon=700)
    traj = run_simulation(cfg)
    epoch_cfg = {e.config.index: e.config for e in traj.epochs}
    for r in traj.rounds:
        if r.phase == "good" and r.cleared:
            c = epoch_cfg[r.epoch]
            assert r.payment == c.good_reserve
            assert r.payment == r.bids[r.winner]


def test_winner_pays_own_bid_at_or_above_reserve():
    cfg = make_config(
        n=2, horizon=700, agents=[{"kind": "lookahead"}, {"kind": "myopic"}]
    )
    traj = run_simulation(cfg)
    epoch_cfg = {e.config.index: e.config for e in traj.epochs}
    for r in traj.rounds:
        if r.winner is not None:
            c = epoch_cfg[r.epoch]
            reserve = c.good_reserve if r.phase == "good" else c.bad_reserve
            assert r.payment == r.bids[r.winner] >= reserve
        else:
            assert r.payment == 0.0


def test_threshold_reached_or_everyone_rested_each_epoch():
    cfg = make_config(n=4, horizon=2500)
    traj = run_simulation(cfg, record="light")
    h = cfg.params.rest_threshold
    for e in traj.epochs:
        if not e.completed:
            continue
        all_rested = all(e.allocations[i] >= h for i in e.good_start)
        assert e.threshold_round is not None or all_rested


def test_crossing_records_an_unrested_bidder():
    # lemma-b3's tail event can be true: the zero bidder is still in the good
    # phase at epoch 0's crossing, once the good-strategy buyers have rested
    agents = [{"kind": "myopic", "good_mode": "zero"}] + [{"kind": "good-strategy"}] * 3
    cfg = make_config(n=4, horizon=2500, agents=agents, seed=303)
    for record in ("light", "full"):
        epochs = run_simulation(cfg, record=record).epochs
        assert epochs[0].good_at_threshold == (0,)
        # later good phases are idle when they cross
        later = {e.good_at_threshold for e in epochs[1:] if e.threshold_round is not None}
        assert later == {()}


def test_epoch_idle_rounds_count_participantless_rounds():
    # good-strategy buyers are rested at their quota and zero bidders punished,
    # so good blocks end idle; with nobody bad, every bad block is idle too
    agents = [
        {"kind": "good-strategy"},
        {"kind": "myopic", "good_mode": "zero"},
        {"kind": "myopic"},
    ]
    cfg = make_config(n=3, horizon=3000, agents=agents, reset_round=900)
    full = run_simulation(cfg, record="full")
    light = run_simulation(cfg, record="light")
    idle = [o for o in full.rounds if not o.participants]
    assert {o.phase for o in idle} == {"good", "bad"}
    per_epoch = [sum(1 for o in idle if o.epoch == e.config.index) for e in full.epochs]
    assert [e.idle_rounds for e in full.epochs] == per_epoch
    assert sum(per_epoch) == len(idle)
    assert light.epochs == full.epochs
    good = [o for o in full.rounds if o.phase == "good"]
    assert full.good_rounds == light.good_rounds == len(good)
    uncleared = sum(1 for o in good if not o.cleared)
    assert full.uncleared_good_rounds == light.uncleared_good_rounds == uncleared


def twelve_buyer_config():
    # good-strategy and lookahead buyers reach their quota and rest; once they
    # have, zero bidders leave the good block uncleared and are punished
    agents = (
        [{"kind": "good-strategy"}] * 3
        + [{"kind": "myopic", "good_mode": "zero"}] * 2
        + [{"kind": "lookahead"}] * 3
        + [{"kind": "myopic"}] * 2
        + [{"kind": "exp3", "levels": 2}, {"kind": "myopic", "good_mode": "zero"}]
    )
    return make_config(n=12, horizon=4000, agents=agents, seed=7, reset_round=2500)


def test_epoch_punishments_and_rests_count_transitions():
    cfg = twelve_buyer_config()
    full = run_simulation(cfg, record="full")
    light = run_simulation(cfg, record="light")
    moves = [(o.epoch, to) for o in full.rounds for _, _, to in o.transitions]
    for e in full.epochs:
        i = e.config.index
        assert e.punishments == moves.count((i, BuyerState.BAD))
        assert e.rests == moves.count((i, BuyerState.REST))
    punished = sum(e.punishments for e in full.epochs)
    rested = sum(e.rests for e in full.epochs)
    assert punished > 0 and rested > 0
    assert punished + rested == len(moves)
    assert light.epochs == full.epochs


def test_good_strategy_agent_never_turns_bad():
    # three saboteurs force threshold crossings every epoch; the good-strategy
    # buyer must never be punished
    cfg = make_config(
        n=4,
        horizon=2500,
        agents=[{"kind": "good-strategy"}]
        + [{"kind": "myopic", "good_mode": "zero"}] * 3,
    )
    traj = run_simulation(cfg)
    from epochfpa.mechanism import BuyerState

    for r in traj.rounds:
        assert r.states_before[0] != BuyerState.BAD
    assert traj.final_states[0] != BuyerState.BAD
    assert traj.state_rounds[0][BuyerState.BAD] == 0


def test_agent_errors_carry_round_context():
    from epochfpa.agents import Agent, AgentError

    class BrokenAgent(Agent):
        def bid(self, view, value):
            raise AgentError("boom")

    cfg = make_config(n=2, horizon=10)
    with pytest.raises(AgentError, match=r"round \d+ .*boom"):
        run_simulation(cfg, substitutes={0: BrokenAgent})


@pytest.mark.parametrize("slot", [7, -1, 2, True])
def test_a_substitute_outside_the_roster_is_refused(slot):
    cfg = make_config(n=2, horizon=10)
    with pytest.raises(ConfigError, match=rf"buyer index {slot!r} is outside 0\.\.1 \(n=2\)"):
        run_simulation(cfg, substitutes={slot: GoodStrategyAgent})


def test_a_substitute_that_builds_no_agent_is_refused():
    cfg = make_config(n=2, horizon=10)
    with pytest.raises(ConfigError, match=r"the substitute for buyer 1 built 0\.5, not an Agent"):
        run_simulation(cfg, substitutes={1: lambda: 0.5})


def test_policy_regret_rejects_mismatched_base():
    cfg = make_config(n=2, horizon=100)
    base = run_simulation(make_config(n=2, horizon=100, seed=999), record="light")
    with pytest.raises(ConfigError):
        estimate_policy_regret(cfg, 0, GOOD_ONLY_FAMILY, base=base)


def test_policy_regret_rejects_base_of_another_horizon_or_roster():
    cfg = make_config(n=2, horizon=100)
    longer = run_simulation(make_config(n=2, horizon=120), record="light")
    with pytest.raises(ConfigError, match=r"\(120, 2\) \(rounds, buyers\)"):
        estimate_policy_regret(cfg, 0, GOOD_ONLY_FAMILY, base=longer)
    wider = run_simulation(make_config(n=3, horizon=100), record="light")
    with pytest.raises(ConfigError, match=r"\(100, 3\) \(rounds, buyers\)"):
        estimate_policy_regret(cfg, 0, GOOD_ONLY_FAMILY, base=wider)


def _sqrt_icdf(p):
    return p**0.5


def inverse_cdf_replay_config():
    from epochfpa.distributions import InverseCdf

    return make_config(
        n=3,
        horizon=1500,
        seed=11,
        dist=InverseCdf(_sqrt_icdf, label="sqrt"),
        agents=[{"kind": "exp3"}, {"kind": "lookahead"}, {"kind": "myopic", "good_mode": "zero"}],
    )


# recorded before replays reused the base run's values
INVERSE_CDF_POLICY_REGRET = 64.58426661230942


def test_policy_regret_on_inverse_cdf_prior_matches_recorded_value():
    from epochfpa.agents import default_expert_family

    cfg = inverse_cdf_replay_config()
    family = default_expert_family(cfg.distribution)
    assert estimate_policy_regret(cfg, 0, family) == INVERSE_CDF_POLICY_REGRET
    base = run_simulation(cfg, record="full")
    assert estimate_policy_regret(cfg, 0, family, base=base) == INVERSE_CDF_POLICY_REGRET


def test_policy_regret_replays_sample_no_values(monkeypatch):
    from epochfpa.agents import default_expert_family
    from epochfpa.distributions import InverseCdf

    cfg = inverse_cdf_replay_config()
    family = default_expert_family(cfg.distribution, levels=1)
    base = run_simulation(cfg, record="light")
    calls = []
    original = InverseCdf.sample_block

    def counting(self, rng, shape):
        calls.append(shape)
        return original(self, rng, shape)

    monkeypatch.setattr(InverseCdf, "sample_block", counting)
    estimate_policy_regret(cfg, 0, family, base=base)
    assert calls == []
    estimate_policy_regret(cfg, 0, family)
    assert calls == [(1500, 3)]


def test_run_simulation_with_supplied_values_is_identical():
    cfg = make_config(n=3, horizon=700, agents=[{"kind": "exp3"}, {"kind": "myopic"}, {"kind": "etc"}])
    with pytest.warns(UserWarning, match="no mechanism reset"):
        drawn = run_simulation(cfg)
    with pytest.warns(UserWarning, match="no mechanism reset"):
        reused = run_simulation(cfg, values=drawn.values)
    assert trajectory_ndjson(reused) == trajectory_ndjson(drawn)
    assert np.array_equal(reused.agent_utilities, drawn.agent_utilities)
    for shape in [(699, 3), (700, 2), (2100,)]:
        with pytest.raises(ConfigError, match=r"\(700, 3\)"):
            run_simulation(cfg, values=np.zeros(shape))


def test_empirical_myopic_runs_end_to_end():
    cfg = make_config(
        n=2,
        horizon=700,
        agents=[{"kind": "myopic", "good_mode": "empirical"}, {"kind": "good-strategy"}],
    )
    traj = run_simulation(cfg)
    epoch_cfg = {e.config.index: e.config for e in traj.epochs}
    for r in traj.rounds:
        if r.phase == "good" and 0 in r.bids:
            b = r.bids[0]
            assert b >= 0.0
            v = float(traj.values[r.t][0])
            c = epoch_cfg[r.epoch]
            assert b == 0.0 or c.good_reserve <= b <= max(v, c.good_reserve)


def test_inverse_cdf_prior_runs_end_to_end():
    from epochfpa.distributions import InverseCdf

    cfg = make_config(n=2, horizon=400, dist=InverseCdf(lambda p: p * p))
    traj = run_simulation(cfg, record="light")
    assert traj.rounds_executed == 400
    assert traj.total_revenue >= 0.0


def test_summarize_all_uncleared_run():
    cfg = make_config(
        n=2, horizon=200, agents=[{"kind": "myopic", "good_mode": "zero"}] * 2
    )
    s = summarize(run_simulation(cfg))
    assert s.revenue_per_round == 0.0
    assert s.uncleared_good_fraction == 1.0


def test_summarize_accounting():
    cfg = make_config(horizon=700)
    traj = run_simulation(cfg)
    s = summarize(traj)
    assert s.rounds == 700
    assert s.revenue_per_round == pytest.approx(s.total_revenue / 700)
    assert s.total_revenue == pytest.approx(s.good_revenue + s.bad_revenue)
    assert [round(sum(o.values()), 6) for o in s.state_occupancy] == [1.0, 1.0]
    assert 0.0 <= s.uncleared_good_fraction <= 1.0


def test_summarize_epoch_split_totals():
    from epochfpa.harness import Trajectory
    from epochfpa.mechanism import EpochRecord, derive_epoch_config

    # a small rho gives each epoch a one-round bad phase
    params = MechanismParams(n=2, horizon=10, epsilon=EPS, delta=EPS, rho=0.003)
    cfg = derive_epoch_config(params, [0, 1], [], Uniform(0.0, 1.0))
    assert cfg.bad_rounds == 1

    def record(index, good, bad):
        # rounds 5*index..5*index+4: one bad round, four good ones, one uncleared
        return EpochRecord(
            config=cfg,
            start=5 * index,
            end=5 * index + 5,
            completed=True,
            reset=False,
            good_revenue=good,
            bad_revenue=bad,
            good_start=(0, 1),
            bad_start=(),
            good_end=(0, 1),
            uncleared=1,
            allocations=(0, 0),
            threshold_round=None,
            good_at_threshold=None,
        )

    traj = Trajectory(
        seed=0,
        replication=0,
        rounds_executed=10,
        values=np.zeros((10, 2)),
        epochs=[record(0, 10.0, 0.5), record(1, 12.0, 0.0)],
        final_states=(0, 0),
        agent_utilities=np.zeros(2),
        agent_wins=np.zeros(2, dtype=int),
        state_rounds=np.array([[10, 0, 0], [10, 0, 0]]),
        epoch_agent_utilities=[np.zeros(2), np.zeros(2)],
    )
    assert (traj.good_rounds, traj.uncleared_good_rounds) == (8, 2)
    s = summarize(traj)
    assert s.epoch_revenue == [(10.0, 0.5), (12.0, 0.0)]
    assert s.total_revenue == pytest.approx(22.5)
    assert s.revenue_per_round == pytest.approx(2.25)
    assert s.uncleared_good_fraction == pytest.approx(0.25)


def test_horizon_on_exact_epoch_boundary():
    cfg = make_config(n=1, horizon=156, agents=[{"kind": "myopic"}])
    traj = run_simulation(cfg)
    assert len(traj.epochs) == 1
    assert traj.epochs[0].completed
    assert traj.epochs[0].end == 156


def test_reset_during_bad_phase():
    cfg = make_config(n=2, horizon=50, reset_round=1)
    traj = run_simulation(cfg)
    assert traj.epochs[0].reset
    assert traj.epochs[0].end == 1


def test_mean_se_basics():
    mean, se = mean_se([])
    assert math.isnan(mean) and se == 0.0
    assert mean_se([2.0]) == (2.0, 0.0)
    mean, se = mean_se([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert se == pytest.approx(1.0 / math.sqrt(3))


# -- bounds ------------------------------------------------------------------------


def test_theorem_lower_bound_reference_value():
    # uniform(0,1), eps=delta=0.3, rho=eps(1-eps)^4/12, split (3,3):
    # 0.175 * 5/6 + rho*0.35*(1-1/e)*17/32
    params = MechanismParams(n=6, horizon=10, epsilon=0.3, delta=0.3, rho=RHO)
    dist = Uniform(0.0, 1.0)
    got = theorem_lower_bound(dist, params, 3, 3)
    expect = 0.175 * (5 / 6) + RHO * 0.35 * (1 - 1 / math.e) * (17 / 32)
    assert got == pytest.approx(expect, abs=1e-6)
    assert got == pytest.approx(0.1465, abs=2e-4)


def test_theorem_lower_bound_degenerate_splits():
    params = MechanismParams(n=6, horizon=10, epsilon=0.3, delta=0.3, rho=RHO)
    dist = Uniform(0.0, 1.0)
    only_naive = theorem_lower_bound(dist, params, 0, 6)
    assert only_naive == pytest.approx(
        RHO * 0.35 * (1 - 1 / math.e) * 0.716517857142857, abs=1e-6
    )
    only_soph = theorem_lower_bound(dist, params, 6, 0)
    assert only_soph == pytest.approx(0.175 * (11 / 12), abs=1e-9)
    with pytest.raises(ConfigError):
        theorem_lower_bound(dist, params, 2, 2)


def test_conservative_variant_is_smaller():
    params = MechanismParams(n=6, horizon=10, epsilon=0.3, delta=0.3, rho=RHO)
    dist = Uniform(0.0, 1.0)
    main = theorem_lower_bound(dist, params, 3, 3)
    cons = theorem_lower_bound(dist, params, 3, 3, variant="conservative")
    assert cons < main
    with pytest.raises(ConfigError, match="unknown bound variant 'x'"):
        theorem_lower_bound(dist, params, 3, 3, variant="x")


def test_revenue_upper_bound_values():
    dist = Uniform(0.0, 1.0)
    assert revenue_upper_bound(dist, 3, 3) == pytest.approx(5 / 6 + 17 / 32, abs=1e-6)
    assert revenue_upper_bound(dist, 0, 6) == pytest.approx(0.7165178, abs=1e-6)
    assert revenue_upper_bound(dist, 6, 0) == pytest.approx(11 / 12, abs=1e-9)
    for split in ((-1, 3), (3, -1)):
        with pytest.raises(ConfigError, match="counts must be nonnegative"):
            revenue_upper_bound(dist, *split)


def test_revenue_slack_formula():
    params = MechanismParams(n=6, horizon=1000, epsilon=0.3, delta=0.3, rho=RHO)
    dist = Uniform(0.0, 1.0)
    expect = 6 * params.max_epoch_length * (0.7 * 11 / 12) / 1000
    assert revenue_slack(params, dist, 1000) == pytest.approx(expect)


def test_classify_roster():
    roster = [
        {"kind": "lookahead"},
        {"kind": "etc"},
        {"kind": "myopic"},
        {"kind": "exp3"},
    ]
    # the etc buyer explores 15 experts for 2 rounds each; the reset forgives them
    cfg = make_config(n=4, horizon=100, agents=roster, reset_round=30)
    assert classify_roster(cfg) == (2, 2)
    cfg_no_reset = make_config(n=4, horizon=100, agents=roster)
    with pytest.warns(UserWarning, match="no mechanism reset"):
        assert classify_roster(cfg_no_reset) == (1, 3)
    cfg2 = make_config(
        n=2, horizon=100, agents=[{"kind": "lookahead", "k": 1}, {"kind": "myopic"}]
    )
    with pytest.warns(UserWarning, match="below the sophistication threshold"):
        assert classify_roster(cfg2) == (0, 2)


def test_bind_warnings_name_each_buyer():
    # one message per slot, so the once-per-location filter shows every buyer
    cfg = make_config(n=2, horizon=100, agents=[{"kind": "etc"}] * 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        cfg.build_agents()
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2
    assert all(m.startswith("no mechanism reset") for m in messages)
    assert "buyer 0 " in messages[0] and "buyer 1 " in messages[1]


@pytest.mark.parametrize("sense, side", [(">=", -1.0), ("<=", 1.0)])
def test_check_passes_up_to_exactly_three_standard_errors(sense, side):
    bound, se = 0.7, 0.1
    limit = bound + side * 3.0 * se
    at_limit = Check("floor or ceiling", limit, bound, se, sense)
    assert at_limit.passed and at_limit.margin == 0.0
    beyond = Check("floor or ceiling", np.nextafter(limit, side * math.inf), bound, se, sense)
    assert not beyond.passed and beyond.margin < 0.0
    inside = Check("floor or ceiling", bound, bound, se, sense)
    assert inside.passed and inside.margin == pytest.approx(3.0 * se)


def test_check_equality_is_exact_whatever_the_se():
    assert Check("count", 3, 3, sense="==").passed
    assert Check("count", 3, 3, sense="==").margin == 0.0
    missed = Check("count", 3, 4, sense="==")
    assert not missed.passed and missed.margin == -1.0
    assert not Check("count", 3.0, 3.0 + 1e-12, se=1.0, sense="==").passed


@pytest.mark.parametrize("sense", [">=", "<=", "=="])
def test_check_fails_a_nan_observation(sense):
    check = Check("no samples", math.nan, 0.0, 0.0, sense)
    assert not check.passed
    assert check.line() == f"[FAIL] no samples: nan {sense} 0 (se 0, margin +nan)"


def test_check_line_and_unknown_sense():
    check = Check("mean revenue", 0.5, 0.25, 0.05, ">=")
    assert check.line() == "[PASS] mean revenue: 0.5 >= 0.25 (se 0.05, margin +0.4)"
    with pytest.raises(ValueError, match="unknown check sense '>'"):
        Check("typo", 1.0, 0.0, sense=">").passed


def test_bound_report_measures_and_checks():
    cfg = make_config(n=2, horizon=700)
    cfg.replications = 2
    report = bound_report(cfg)
    # the floor check first: its observed value and se are the measurement
    assert [check.sense for check in report.checks] == [">=", "<="]
    assert report.passed
    assert any("lower" in line for line in report.lines())
    floor = report.checks[0]
    assert f"measured_per_round={floor.observed:.6f} ci95=±{1.96 * floor.se:.6f}" in report.lines()
    skeleton = bound_report(cfg, measure=False)
    assert skeleton.checks == []
    assert not any(line.startswith("measured") for line in skeleton.lines())


def test_bound_report_flags_a_vacuous_floor():
    # six myopic buyers at the theorem-1 horizon: the floor is below the slack
    naive = make_config(n=6, horizon=47_532, agents=[{"kind": "myopic"}] * 6)
    report = bound_report(naive, measure=False)
    assert report.vacuous and report.lower_bound - report.slack <= 0
    assert f"floor={report.lower_bound - report.slack:.6f} (vacuous)" in report.lines()
    sophisticated = make_config(n=6, horizon=47_532, agents=[{"kind": "lookahead"}] * 6)
    report = bound_report(sophisticated, measure=False)
    assert not report.vacuous and report.lower_bound - report.slack > 0
    assert not any("vacuous" in line for line in report.lines())
    # a short measured run: the floor check passes, and says it could not fail
    short = make_config(n=2, horizon=700, agents=[{"kind": "lookahead"}, {"kind": "myopic"}])
    report = bound_report(short)
    assert report.vacuous and report.passed
    floor = [line for line in report.lines() if "lower bound - slack - 3se" in line]
    assert len(floor) == 1 and "[vacuous: lower bound - slack <= 0]" in floor[0]
    assert not any("vacuous" in line for line in report.lines() if "upper bound" in line)


# -- hindsight regret -----------------------------------------------------------------


def test_external_regret_zero_for_agent_playing_best_expert():
    cfg = make_config(n=2, horizon=700)
    traj = run_simulation(cfg)
    regret = estimate_external_regret(traj, 0, GOOD_ONLY_FAMILY)
    assert regret == 0.0


def test_external_regret_nonnegative_with_zero_expert():
    family = ExpertFamily(
        (Expert(GOOD_TEMPLATE), Expert(ZERO_BID)), ValueGrid(0.0, 1.0, 1 / 64)
    )
    cfg = make_config(
        n=2, horizon=700, agents=[{"kind": "myopic", "good_mode": "zero"}] * 2
    )
    traj = run_simulation(cfg)
    # the zero bidder realizes zero utility; the zero expert matches it and the
    # good expert can only add, so the maximum is nonnegative
    regret = estimate_external_regret(traj, 0, family)
    assert regret >= 0.0


def test_external_regret_single_round_construction():
    # one good round: the agent bids 0 (utility 0); the good-strategy expert
    # would have won at the reserve
    cfg = make_config(
        n=2,
        horizon=3,
        agents=[{"kind": "myopic", "good_mode": "zero"}, {"kind": "myopic", "good_mode": "zero"}],
    )
    traj = run_simulation(cfg)
    profile = external_regret_profile(traj, 0, GOOD_ONLY_FAMILY)
    good_rounds = [r for r in traj.rounds if r.phase == "good"]
    # recompute by hand: expert bids the reserve when the value clears the cutoff
    expect = 0.0
    epoch_cfg = {e.config.index: e.config for e in traj.epochs}
    for r in good_rounds:
        v = float(traj.values[r.t][0])
        c = epoch_cfg[r.epoch]
        if v >= c.good_cutoff and c.good_reserve > max(
            b for i, b in r.bids.items() if i != 0
        ):
            expect += v - c.good_reserve
    assert profile[0] == pytest.approx(expect, abs=1e-12)
    assert estimate_external_regret(traj, 0, GOOD_ONLY_FAMILY) == pytest.approx(
        expect, abs=1e-12
    )


def test_external_regret_requires_full_record():
    cfg = make_config(n=2, horizon=100)
    traj = run_simulation(cfg, record="light")
    with pytest.raises(ConfigError):
        estimate_external_regret(traj, 0, GOOD_ONLY_FAMILY)


def test_external_regret_rejects_empty_family():
    traj = run_simulation(make_config(n=2, horizon=100))
    with pytest.raises(ConfigError, match="expert family must be non-empty"):
        external_regret_profile(traj, 0, ExpertFamily((), ValueGrid(0.0, 1.0, 1 / 64)))


# -- policy regret ---------------------------------------------------------------------


def test_policy_regret_of_self_is_exactly_zero():
    cfg = make_config(n=2, horizon=700)
    assert estimate_policy_regret(cfg, 0, GOOD_ONLY_FAMILY) == 0.0


def test_policy_regret_rejects_empty_family():
    cfg = make_config(n=2, horizon=100)
    with pytest.raises(ConfigError):
        estimate_policy_regret(
            cfg, 0, ExpertFamily((), ValueGrid(0.0, 1.0, 1 / 64))
        )


def test_policy_regret_positive_for_sabotaged_agent():
    # an agent that never bids forfeits every win; the good-strategy expert
    # collects them under the same draws
    cfg = make_config(
        n=2,
        horizon=700,
        agents=[{"kind": "myopic", "good_mode": "zero"}, {"kind": "good-strategy"}],
    )
    regret = estimate_policy_regret(cfg, 0, GOOD_ONLY_FAMILY)
    assert regret > 0.0


# -- exports ---------------------------------------------------------------------------


ROSTER_KINDS = (
    {"kind": "lookahead"},
    {"kind": "good-strategy"},
    {"kind": "myopic"},
    {"kind": "myopic", "good_mode": "zero"},
    {"kind": "myopic", "good_mode": "empirical"},
    {"kind": "exp3", "levels": 2},
    {"kind": "etc", "levels": 1},
)


@st.composite
def mixed_runs(draw):
    n = draw(st.integers(1, 6))
    eps = draw(st.sampled_from((0.2, 0.3, 0.4)))
    delta = draw(st.sampled_from((0.3, 0.4, 0.5)))
    # below both admissibility caps, since (1 - rho) > 0.99 at these sizes
    cap = min(eps * (1 - eps) ** 4, eps * (1 - eps) * (1 - delta) / (1 + eps)) / 12
    rho = draw(st.floats(0.2, 0.99)) * cap
    horizon = draw(st.integers(150, 1500))
    reset = draw(st.one_of(st.none(), st.integers(0, horizon)))
    params = MechanismParams(
        n=n, horizon=horizon, epsilon=eps, delta=delta, rho=rho, reset_round=reset
    )
    return RunConfig(
        params=params,
        distribution=Uniform(0.0, 1.0),
        agents=draw(st.lists(st.sampled_from(ROSTER_KINDS), min_size=n, max_size=n)),
        seed=draw(st.integers(0, 2**16)),
    )


@pytest.mark.filterwarnings("ignore:mechanism reset at round")  # ETC explores past it
@pytest.mark.filterwarnings("ignore:no mechanism reset")  # ETC explores unforgiven
@settings(max_examples=100, derandomize=True, deadline=None)
@given(mixed_runs())
def test_mixed_roster_fuzz_invariants(cfg):
    params = cfg.params
    h = params.rest_threshold
    traj = run_simulation(cfg)
    rounds = traj.rounds  # built on each access
    epoch_cfg = {e.config.index: e.config for e in traj.epochs}
    epoch_starts = {e.start for e in traj.epochs}
    revenue = {}  # (epoch, phase) -> payments summed in round order
    moves = []  # (epoch, new state) of every transition
    prev_states = None
    for r in rounds:
        c = epoch_cfg[r.epoch]
        assert set(r.bids) == set(r.participants)
        assert all(b >= 0.0 for b in r.bids.values())
        assert all(a <= h for a in r.allocations)
        if r.winner is not None:
            assert r.winner in r.participants
            reserve = c.good_reserve if r.phase == "good" else c.bad_reserve
            assert r.payment == r.bids[r.winner] >= reserve
        else:
            assert r.payment == 0.0
        if prev_states is not None and r.t != params.reset_round:
            for i, was in enumerate(prev_states):
                if was == BuyerState.BAD:  # absorbing, except at the reset
                    assert r.states_before[i] == BuyerState.BAD
        if r.t in epoch_starts:  # rested buyers return to good at the boundary
            assert BuyerState.REST not in r.states_before
        prev_states = r.states_before
        key = (r.epoch, r.phase)
        revenue[key] = revenue.get(key, 0.0) + r.payment
        moves += [(r.epoch, to) for _, _, to in r.transitions]
    assert len(rounds) == params.horizon
    for i in range(params.n):
        for s in BuyerState:
            held = sum(1 for r in rounds if r.states_before[i] == s)
            assert traj.state_rounds[i][s] == held
    good = [r for r in rounds if r.phase == "good"]
    assert traj.good_rounds == len(good)
    assert traj.uncleared_good_rounds == sum(1 for r in good if not r.cleared)
    for e in traj.epochs:
        i = e.config.index
        assert e.uncleared <= e.config.good_rounds
        assert e.end - e.start <= params.max_epoch_length
        assert e.good_revenue == revenue.get((i, "good"), 0.0)
        assert e.bad_revenue == revenue.get((i, "bad"), 0.0)
        assert e.punishments == moves.count((i, BuyerState.BAD))
        assert e.rests == moves.count((i, BuyerState.REST))


def test_epoch_csv_schema(tmp_path):
    cfg = make_config(n=2, horizon=700)
    traj = run_simulation(cfg)
    path = tmp_path / "epochs.csv"
    write_epoch_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,m_g,m_b,r_g,r_b,good_revenue,bad_revenue"
    assert len(lines) == len(traj.epochs) + 1


def _round_record(outcome):
    # the record the writer used to build per round, kept as its reference
    return {
        "t": outcome.t,
        "phase": outcome.phase,
        "epoch": outcome.epoch,
        "participants": list(outcome.participants),
        "bids": {str(i): b for i, b in sorted(outcome.bids.items())},
        "winner": outcome.winner,
        "payment": outcome.payment,
        "cleared": outcome.cleared,
        "transitions": [[i, frm.label, to.label] for i, frm, to in outcome.transitions],
        "uncleared": outcome.uncleared,
        "allocations": list(outcome.allocations),
    }


def reference_ndjson(traj):
    lines = [
        json.dumps(_round_record(o), sort_keys=True, separators=(",", ":"))
        for o in traj.rounds
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def assert_same_text(text, expected):
    # line by line, so that a failure shows one line, not a diff of megabytes
    got, want = text.split("\n"), expected.split("\n")
    for k, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"line {k}"
    assert len(got) == len(want)


class IntBidder(Agent):
    def bid(self, view, value):
        return 1 if value > 0.8 else 0


class Float64Bidder(Agent):
    def bid(self, view, value):
        return np.float64(value)


def test_ndjson_matches_reference_encoder_on_twelve_buyers():
    traj = run_simulation(twelve_buyer_config())
    moves = {to for o in traj.rounds for _, _, to in o.transitions}
    assert {BuyerState.BAD, BuyerState.REST} <= moves
    assert any(e.reset for e in traj.epochs)
    text = reference_ndjson(traj)
    # string order puts buyers 10 and 11 before buyer 2
    assert '"bids":{"0":' in text and '"11":' in text
    assert all(
        line.index('"11":') < line.index('"2":')
        for line in text.splitlines()
        if '"2":' in line and '"11":' in line
    )
    assert_same_text(trajectory_ndjson(traj), text)


def test_ndjson_matches_reference_encoder_on_int_and_float64_bids():
    cfg = make_config(n=3, horizon=700, agents=[{"kind": "myopic"}] * 3)
    traj = run_simulation(cfg, substitutes={0: IntBidder, 2: Float64Bidder})
    # the int and np.float64 bids are recorded, and paid, as plain floats
    assert {type(o.payment) for o in traj.rounds} == {float}
    assert {type(b) for o in traj.rounds for b in o.bids.values()} == {float}
    text = reference_ndjson(traj)
    assert '"payment":1.0,' in text and '"payment":1,' not in text
    assert_same_text(trajectory_ndjson(traj), text)


class SignedZeroBidder(Agent):
    # -0.0 and int 0 below the good reserve, the value itself above it
    def bid(self, view, value):
        if value < 0.3:
            return -0.0
        return 0 if value < 0.6 else value


class Count(int):
    """An int subclass, recorded as a plain float like any int."""


class CountBidder(Agent):
    def bid(self, view, value):
        return Count(1) if value > 0.7 else Count(0)


def mixed_number_rosters():
    twelve = twelve_buyer_config()
    five = make_config(n=5, horizon=700, agents=[{"kind": "myopic"}] * 5, reset_round=300)
    # the good-strategy buyer rests and the zero bidder is punished, so the
    # good phase runs idle; a completed epoch follows the reset epoch, and
    # the horizon cuts the last one short
    three = make_config(
        n=3,
        horizon=1300,
        agents=[{"kind": "good-strategy"}] + [{"kind": "myopic", "good_mode": "zero"}] * 2,
        reset_round=600,
    )
    return {
        # ids 10 and 11 sort before 2, and every kind of number is bid
        "twelve": (twelve, {2: IntBidder, 4: SignedZeroBidder, 10: Float64Bidder, 11: IntBidder}),
        "five": (five, {0: IntBidder, 1: SignedZeroBidder, 3: Float64Bidder, 4: CountBidder}),
        "three": (three, {2: IntBidder}),
    }


def exact(value):
    # repr tells 0 from 0.0 from -0.0, and np.float64 from float, inside a dict too
    return type(value), repr(value)


@pytest.mark.parametrize("roster", ["twelve", "five", "three"])
def test_columns_give_the_outcomes_run_round_returned(roster, monkeypatch):
    config, substitutes = mixed_number_rosters()[roster]
    traj = run_simulation(config, substitutes=substitutes)
    # a reset epoch, idle good rounds and a truncated last epoch
    assert any(e.reset for e in traj.epochs)
    assert not traj.epochs[-1].completed and not traj.epochs[-1].reset
    assert any(o.phase == "good" and not o.participants for o in traj.rounds)
    # ints, an int subclass, np.float64 and -0.0 were bid: each is recorded
    # as a plain float, -0.0 as 0.0
    numbers = [b for o in traj.rounds for b in o.bids.values()] + [o.payment for o in traj.rounds]
    assert {0.0, 1.0} <= set(numbers) and {type(x) for x in numbers} == {float}
    assert all(math.copysign(1.0, x) == 1.0 for x in numbers)
    assert_same_text(trajectory_ndjson(traj), reference_ndjson(traj))

    # the same run with every round, idle ones too, through run_round
    outcomes = []
    run_round = Mechanism.run_round

    def recording(self, bids, tie=0.0):
        outcomes.append(run_round(self, bids, tie))
        return outcomes[-1]

    def one_idle_round(self):
        if self.t >= self.params.horizon or self.participants():
            return 0
        self.run_round({})
        return 1

    monkeypatch.setattr(Mechanism, "run_round", recording)
    monkeypatch.setattr(Mechanism, "run_idle", one_idle_round)
    by_rounds = run_simulation(config, substitutes=substitutes)
    assert any(not o.participants for o in outcomes)
    for rounds in (traj.rounds, by_rounds.rounds):
        assert len(rounds) == len(outcomes) == config.params.horizon
        for got, want in zip(rounds, outcomes):
            for name, a, b in zip(RoundOutcome._fields, got, want):
                assert exact(a) == exact(b), (got.t, name)
    assert trajectory_ndjson(by_rounds) == trajectory_ndjson(traj)


def test_ndjson_of_zero_horizon_is_empty():
    traj = run_simulation(make_config(horizon=0))
    assert trajectory_ndjson(traj) == reference_ndjson(traj) == ""


@pytest.mark.parametrize("roster", ["twelve", "five", "zero-horizon"])
def test_written_file_equals_the_text(roster, tmp_path):
    if roster == "zero-horizon":
        traj = run_simulation(make_config(horizon=0))
    else:
        config, substitutes = mixed_number_rosters()[roster]
        traj = run_simulation(config, substitutes=substitutes)
    path = tmp_path / "trajectory.ndjson"
    write_trajectory(traj, path)
    assert path.read_bytes() == trajectory_ndjson(traj).encode()


def test_columns_hold_bid_and_winner_arrays():
    for roster in ("five", "three"):
        config, substitutes = mixed_number_rosters()[roster]
        assert_bid_and_winner_arrays(run_simulation(config, substitutes=substitutes), config.params)


def assert_bid_and_winner_arrays(traj, params):
    columns, n = traj.columns, params.n
    assert [f.name for f in dataclasses.fields(columns)] == [
        "bids", "winners", "segments", "transitions"
    ]
    assert columns.bids.shape == (params.horizon, n) and columns.bids.dtype == float
    assert columns.winners.shape == (params.horizon,)
    assert np.issubdtype(columns.winners.dtype, np.integer)
    uncleared = dict.fromkeys(range(len(traj.epochs)), 0)
    idle = 0
    for view, participants, end in columns.segment_ends():
        rows, winners = columns.bids[view.t : end], columns.winners[view.t : end]
        # NaN exactly off the roster
        off = [i not in participants for i in range(n)]
        assert (np.isnan(rows) == off).all()
        reserve = view.config.good_reserve if view.phase == "good" else view.config.bad_reserve
        top = rows[:, list(participants)].max(axis=1, initial=-math.inf)
        # -1 exactly on the uncleared rounds: those whose top bid missed the reserve
        assert ((winners == -1) == (top < reserve)).all()
        cleared = winners >= 0
        assert set(winners[cleared].tolist()) <= set(participants)
        assert (rows[cleared, winners[cleared]] == top[cleared]).all()
        if view.phase == "good":
            uncleared[view.config.index] += int(np.count_nonzero(~cleared))
        if not participants:
            # an idle stretch is one segment and nothing more
            idle += 1
            assert not any(view.t <= t < end for t in columns.transitions)
    assert idle > 0
    assert uncleared == {e.config.index: e.uncleared for e in traj.epochs}
    assert np.bincount(columns.winners[columns.winners >= 0], minlength=n).tolist() == (
        traj.agent_wins.tolist()
    )


def test_write_trajectory_holds_one_segment_at_a_time(tmp_path):
    # the peak of traced allocations while writing stays a small share of the
    # file, where holding the whole text took more than three times it
    agents = [
        {"kind": "myopic", "good_mode": "empirical"},
        {"kind": "exp3", "levels": 4},
        {"kind": "myopic", "good_mode": "zero"},
    ]
    traj = run_simulation(make_config(n=3, horizon=10_000, agents=agents))
    path = tmp_path / "trajectory.ndjson"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_trajectory(traj, path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    written = path.stat().st_size
    assert written > 10_000 * 100
    assert peak < written / 4, (peak, written)


def test_write_trajectory_refuses_light_mode_before_creating_the_file(tmp_path):
    traj = run_simulation(make_config(horizon=50), record="light")
    path = tmp_path / "trajectory.ndjson"
    with pytest.raises(ConfigError, match="full mode"):
        write_trajectory(traj, path)
    assert not path.exists()


def test_ndjson_schema_fields():
    cfg = make_config(n=2, horizon=5)
    traj = run_simulation(cfg)
    record = json.loads(trajectory_ndjson(traj).splitlines()[0])
    assert set(record) == {
        "t",
        "phase",
        "epoch",
        "participants",
        "bids",
        "winner",
        "payment",
        "cleared",
        "transitions",
        "uncleared",
        "allocations",
    }


# -- light-mode blocks ---------------------------------------------------------------

STATIONARY_KINDS = (
    {"kind": "good-strategy"},
    {"kind": "lookahead"},
    {"kind": "myopic"},
    {"kind": "myopic", "bad_mode": "value"},
    {"kind": "myopic", "good_mode": "zero"},
    {"kind": "myopic", "good_mode": "zero", "bad_mode": "value"},
)
BLOCK_PRIORS = (
    Uniform(0.0, 1.0),
    FiniteSupport(((1.0, 0.5), (2.0, 0.5))),  # ties between value bids
    FiniteSupport(((0.0, 0.25), (0.5, 0.25), (1.0, 0.5))),
)

MIXED_PRIORS = BLOCK_PRIORS + (InverseCdf(_sqrt_icdf, label="sqrt"),)


def assert_same_accounts(light, full):
    assert light.epochs == full.epochs
    assert light.agent_utilities.tobytes() == full.agent_utilities.tobytes()
    assert light.agent_wins.tolist() == full.agent_wins.tolist()
    assert [u.tobytes() for u in light.epoch_agent_utilities] == [
        u.tobytes() for u in full.epoch_agent_utilities
    ]
    assert light.state_rounds.tolist() == full.state_rounds.tolist()
    assert light.final_states == full.final_states


def expert_substitutes(family, slots):
    return {i: (lambda j=j: ExpertAgent(family, j)) for i, j in slots.items()}


@st.composite
def stationary_runs(draw):
    n = draw(st.integers(1, 6), label="n")
    eps = draw(st.sampled_from((0.2, 0.3, 0.4)), label="epsilon")
    delta = draw(st.sampled_from((0.3, 0.5, 0.7)), label="delta")
    cap = min(eps * (1 - eps) ** 4, eps * (1 - eps) * (1 - delta) / (1 + eps)) / 12
    rho = draw(st.floats(0.2, 0.99), label="rho share") * cap
    horizon = draw(st.integers(1, 2500), label="horizon")
    reset = draw(st.one_of(st.none(), st.integers(0, horizon)), label="reset_round")
    dist = draw(st.sampled_from(BLOCK_PRIORS), label="prior")
    config = RunConfig(
        params=MechanismParams(
            n=n, horizon=horizon, epsilon=eps, delta=delta, rho=rho, reset_round=reset
        ),
        distribution=dist,
        agents=draw(st.lists(st.sampled_from(STATIONARY_KINDS), min_size=n, max_size=n)),
        seed=draw(st.integers(0, 2**16), label="seed"),
    )
    family = default_expert_family(dist)
    slots = draw(
        st.dictionaries(st.integers(0, n - 1), st.integers(0, len(family) - 1)),
        label="expert slots",
    )
    return config, expert_substitutes(family, slots)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(stationary_runs())
def test_light_mode_blocks_match_the_per_round_path(run):
    """Light mode settles stationary rosters in blocks and full mode runs
    every round: the accounts agree bit for bit."""
    config, substitutes = run
    light = run_simulation(config, record="light", substitutes=substitutes)
    full = run_simulation(config, record="full", substitutes=substitutes)
    assert_same_accounts(light, full)


LEARNER_KINDS = (
    {"kind": "exp3", "levels": 2},
    {"kind": "etc", "levels": 1},
    {"kind": "myopic", "good_mode": "empirical"},
)


@st.composite
def learner_runs(draw):
    """A roster of stationary buyers and at least one learner, so that only
    the phases or stretches the learners sit out run in blocks."""
    n = draw(st.integers(2, 5), label="n")
    eps = draw(st.sampled_from((0.2, 0.3, 0.4)), label="epsilon")
    delta = draw(st.sampled_from((0.3, 0.5, 0.7)), label="delta")
    cap = min(eps * (1 - eps) ** 4, eps * (1 - eps) * (1 - delta) / (1 + eps)) / 12
    horizon = draw(st.integers(1, 2500), label="horizon")
    learners = draw(st.lists(st.sampled_from(LEARNER_KINDS), min_size=1, max_size=n - 1))
    others = n - len(learners)
    steady = draw(st.lists(st.sampled_from(STATIONARY_KINDS), min_size=others, max_size=others))
    return RunConfig(
        params=MechanismParams(
            n=n,
            horizon=horizon,
            epsilon=eps,
            delta=delta,
            rho=draw(st.floats(0.2, 0.99), label="rho share") * cap,
            reset_round=draw(st.one_of(st.none(), st.integers(0, horizon)), label="reset_round"),
        ),
        distribution=draw(st.sampled_from(MIXED_PRIORS), label="prior"),
        agents=draw(st.permutations(learners + steady), label="roster"),
        seed=draw(st.integers(0, 2**16), label="seed"),
    )


@pytest.mark.filterwarnings("ignore:mechanism reset at round")  # ETC explores past it
@pytest.mark.filterwarnings("ignore:no mechanism reset")  # ETC explores unforgiven
@settings(max_examples=40, derandomize=True, deadline=None)
@given(learner_runs())
def test_light_mode_blocks_match_beside_learners(config):
    """Blocks of the stationary buyers, rests inside them included, leave
    the same accounts as full mode when exp3, etc or empirical myopic buyers
    share the roster."""
    light = run_simulation(config, record="light")
    full = run_simulation(config, record="full")
    assert_same_accounts(light, full)


@pytest.mark.parametrize("dist", BLOCK_PRIORS[:2], ids=["uniform", "two-point"])
def test_light_mode_blocks_match_for_every_default_expert(dist):
    family = default_expert_family(dist)
    agents = [{"kind": "lookahead"}, {"kind": "myopic"}, {"kind": "myopic", "good_mode": "zero"}]
    config = make_config(n=3, horizon=3000, agents=agents, dist=dist, reset_round=1200)
    for j in range(len(family)):
        substitutes = expert_substitutes(family, {2: j})
        assert_same_accounts(
            run_simulation(config, record="light", substitutes=substitutes),
            run_simulation(config, record="full", substitutes=substitutes),
        )


def test_light_mode_settles_most_stationary_rounds_in_blocks(monkeypatch):
    settled = []
    run_block = Mechanism.run_block

    def counted(self, bids_for, ties):
        # a block that rests a buyer changes the participants: read them first
        ids = self.participants()
        rounds, winners, payments = run_block(self, bids_for, ties)
        settled.append((ids, int(np.count_nonzero(rounds >= 0))))
        return rounds, winners, payments

    monkeypatch.setattr(Mechanism, "run_block", counted)
    agents = [{"kind": "lookahead"}] * 3 + [{"kind": "myopic"}] * 3
    run_simulation(make_config(n=6, horizon=5000, agents=agents), record="full")
    assert settled == []
    run_simulation(make_config(n=6, horizon=5000, agents=agents), record="light")
    assert sum(k for _, k in settled) > 2500
    # an exp3 buyer is not stationary: only phases it is not part of run in blocks
    settled.clear()
    agents = [{"kind": "exp3"}] + [{"kind": "lookahead"}]
    run_simulation(make_config(n=2, horizon=2000, agents=agents), record="light")
    assert settled and all(ids == (1,) for ids, _ in settled)


def test_blocks_beside_a_resting_learner_start_at_a_phase_start(monkeypatch):
    """The regret suite's roster, an etc buyer beside a lookahead one, reset
    where exploration ends: once the etc buyer rests, the lookahead buyer
    bids alone for the rest of the good phase, round by round."""
    family = suites._etc_family()
    horizon = 20000
    explore_len = max(1, math.ceil(horizon ** (2.0 / 3.0) / len(family)))
    config = suites._config(
        [{"kind": "etc"}, {"kind": "lookahead"}], horizon, 747,
        reset_round=len(family) * explore_len,
    )
    substitutes = {0: lambda: EtcAgent(family=family, explore_len=explore_len)}
    calls = []  # per run_block call: whether it began a phase, and the rows it settled
    run_block = Mechanism.run_block

    def logged(self, bids_for, ties):
        cfg, start = self.config, self._epoch.start
        first = self.t == start + (cfg.bad_rounds if self.phase == "good" else 0)
        rounds, winners, payments = run_block(self, bids_for, ties)
        calls.append((first, int(np.count_nonzero(rounds >= 0))))
        return rounds, winners, payments

    monkeypatch.setattr(Mechanism, "run_block", logged)
    light = run_simulation(config, record="light", substitutes=substitutes)
    assert_same_accounts(light, run_simulation(config, record="full", substitutes=substitutes))
    assert any(not first for first, _ in calls), "no call came after a rest"
    assert all(first for first, settled in calls if settled)


# -- phases settled ahead, across epochs -----------------------------------------------

GOOD_PAIR = [{"kind": "good-strategy"}, {"kind": "good-strategy"}]
PAIR_CONFIG = Mechanism(make_config().params, Uniform(0.0, 1.0)).config
PAIR_EPOCH = PAIR_CONFIG.bad_rounds + PAIR_CONFIG.good_rounds  # two good buyers, none bad


def ahead_case(name):
    """A config whose light run settles phases of coming epochs ahead, and
    a check of the epochs it must give."""
    if name == "reset inside an epoch":
        reset = 4 * PAIR_EPOCH + PAIR_CONFIG.bad_rounds + 50
        config = make_config(n=2, horizon=3000, agents=GOOD_PAIR, reset_round=reset)
        return config, lambda e: e[4].reset and (e[4].start, e[4].end) == (4 * PAIR_EPOCH, reset)
    if name == "reset at an epoch end":
        config = make_config(n=2, horizon=3000, agents=GOOD_PAIR, reset_round=4 * PAIR_EPOCH)
        return config, lambda e: e[3].reset and not e[3].completed and e[3].end == 4 * PAIR_EPOCH
    if name == "horizon inside an epoch":
        horizon = 5 * PAIR_EPOCH + PAIR_CONFIG.bad_rounds + 40
        config = make_config(n=2, horizon=horizon, agents=GOOD_PAIR)
        return config, lambda e: len(e) == 6 and not e[5].completed and e[5].end == horizon
    if name == "crossing in an idle tail":
        # a lone buyer rests at its quota before the threshold, every epoch
        config = make_config(n=1, horizon=3000, agents=[{"kind": "good-strategy"}])
        return config, lambda e: all(
            x.threshold_round is not None and x.good_at_threshold == () for x in e[2:-1]
        )
    if name == "crossing with bidders after clean epochs":
        # value 1 bids nothing, so the threshold is crossed with a bidder now and then
        config = make_config(
            n=1, horizon=3000, seed=1, agents=[{"kind": "myopic"}], dist=BLOCK_PRIORS[1]
        )
        return config, lambda e: [x.punishments for x in e[:10]] == [0] * 9 + [1]
    if name == "empty good roster":
        agents = [{"kind": "myopic", "good_mode": "zero"}] * 2
        config = make_config(n=2, horizon=3000, agents=agents)
        return config, lambda e: all(x.good_start == () for x in e[1:])
    if name == "empty bad roster":  # and a horizon past the window
        config = make_config(n=2, horizon=10_000, agents=GOOD_PAIR)
        return config, lambda e: all(x.bad_start == () and x.idle_rounds for x in e)
    assert name == "ties at the reserve"
    # both bid exactly the good reserve: lookahead above the cutoff, myopic
    # above the reserve
    config = make_config(n=2, horizon=3000, agents=[{"kind": "lookahead"}, {"kind": "myopic"}])
    return config, lambda e: all(x.punishments == 0 for x in e)


AHEAD_CASES = (
    "reset inside an epoch",
    "reset at an epoch end",
    "horizon inside an epoch",
    "crossing in an idle tail",
    "crossing with bidders after clean epochs",
    "empty good roster",
    "empty bad roster",
    "ties at the reserve",
)


@pytest.mark.parametrize("name", AHEAD_CASES)
def test_phases_settled_ahead_keep_the_accounts(monkeypatch, name):
    config, expected = ahead_case(name)
    ahead = []  # per run_block call: its phase and the coming epochs it settled rows of
    run_block, run_round = Mechanism.run_block, Mechanism.run_round
    punished = []  # rounds whose punishments run_round applied

    def logged(self, bids_for, ties):
        phase, t, records = self.phase, self.t, self.epoch_records
        rounds, winners, payments = run_block(self, bids_for, ties)
        coming = rounds[1:][rounds[1:] >= 0]
        # only after a closed epoch without punishments, and within the window
        held = bool(records) and records[-1].punishments == 0
        assert not coming.size or held and coming.max() < t + _PLAN_ROUNDS
        ahead.append((phase, int((rounds[1:] >= 0).any(axis=1).sum())))
        return rounds, winners, payments

    def watched(self, bids, tie=0.0):
        out = run_round(self, bids, tie)
        if any(to == BuyerState.BAD for _, _, to in out.transitions):
            punished.append(out.t)
        return out

    monkeypatch.setattr(Mechanism, "run_block", logged)
    monkeypatch.setattr(Mechanism, "run_round", watched)
    light = run_simulation(config, record="light")
    assert any(coming for _, coming in ahead), "no phase was settled ahead"
    full = run_simulation(config, record="full")
    assert_same_accounts(light, full)
    assert expected(light.epochs)
    crossings = [e.threshold_round for e in light.epochs if e.punishments]
    assert punished == crossings + crossings  # light, then full mode
    if name == "empty good roster":
        assert any(phase == "bad" and coming for phase, coming in ahead)
    if name == "ties at the reserve":
        reserve = full.epochs[0].config.good_reserve
        assert (full.columns.bids == reserve).all(axis=1).sum() > 100


class DefectsFrom(GoodStrategyAgent):
    """The good strategy up to epoch ``epoch``, and 0 from then on: not
    stationary, since it reads the epoch index."""

    stationary = False

    def __init__(self, epoch):
        super().__init__()
        self.epoch = epoch

    def bid(self, view, value):
        return 0.0 if view.config.index >= self.epoch else super().bid(view, value)


def test_a_bad_phase_is_not_settled_ahead_of_a_good_phase_that_may_punish(monkeypatch):
    # buyer 0 is punished in epoch 0 and bids alone in the bad phases after;
    # buyer 1 bids alone in the good phases, round by round, and is punished
    # in epoch 3, which changes the bad roster of epoch 4
    agents = [{"kind": "myopic", "good_mode": "zero"}, {"kind": "good-strategy"}]
    config = make_config(n=2, horizon=3000, agents=agents)
    substitutes = {1: lambda: DefectsFrom(3)}
    coming = recorded_coming(monkeypatch)
    light = run_simulation(config, record="light", substitutes=substitutes)
    full = run_simulation(config, record="full", substitutes=substitutes)
    assert_same_accounts(light, full)
    assert [e.punishments for e in light.epochs[:5]] == [1, 0, 0, 1, 0]
    assert coming and not any(coming)


def recorded_coming(monkeypatch):
    """Patch ``Mechanism.run_block`` to log, per call, the coming epochs it
    settled rows of."""
    calls = []
    run_block = Mechanism.run_block

    def logged(self, bids_for, ties):
        rounds, winners, payments = run_block(self, bids_for, ties)
        calls.append(int((rounds[1:] >= 0).any(axis=1).sum()))
        return rounds, winners, payments

    monkeypatch.setattr(Mechanism, "run_block", logged)
    return calls


class InvalidBidFor(GoodStrategyAgent):
    """The good strategy, but bidding ``bad`` when its value is ``value``: a
    stationary agent reads no round, so its value names the round."""

    def __init__(self, value, bad):
        super().__init__()
        self.value, self.bad = value, bad

    def bid(self, view, value):
        return self.bad if value == self.value else super().bid(view, value)

    def bids(self, view, values):
        return np.where(values == self.value, self.bad, super().bids(view, values))


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
@pytest.mark.parametrize("at", [3, 40, 333])
def test_invalid_block_bid_raises_as_on_the_per_round_path(at, bad):
    config = make_config(n=2, horizon=700)
    value = run_simulation(config, record="light").values[at, 1]
    messages = []
    for record in ("light", "full"):
        with pytest.raises(MechanismError) as caught:
            run_simulation(
                config, record=record, substitutes={1: lambda: InvalidBidFor(value, bad)}
            )
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert re.match(rf"round {at} \(good phase, epoch \d+\): ", messages[0])
    assert messages[0].endswith(f"buyer 1 submitted an invalid bid {bad!r}")


def recorded_blocks(monkeypatch):
    """Patch ``Mechanism.run_block`` to log, per call, the phase, the uncleared
    count and threshold it started from and the rows it settled."""
    calls = []
    run_block = Mechanism.run_block

    def logged(self, bids_for, ties):
        before = (self.phase, self.uncleared, self.config.uncleared_threshold)
        rounds, winners, payments = run_block(self, bids_for, ties)
        calls.append((*before, int(np.count_nonzero(rounds >= 0))))
        return rounds, winners, payments

    monkeypatch.setattr(Mechanism, "run_block", logged)
    return calls


class InvalidInGoodPhases(Agent):
    """Stationary, bidding -1 in good phases and 0 in bad ones."""

    stationary = True

    def bid(self, view, value):
        return -1.0 if view.phase == "good" else 0.0

    def bids(self, view, values):
        return np.full(len(values), self.bid(view, 0.0))


def test_a_block_that_settles_nothing_raises_as_on_the_per_round_path(monkeypatch):
    config = make_config(n=2, horizon=700)
    good_start = Mechanism(config.params, config.distribution).config.bad_rounds
    substitutes = dict.fromkeys(range(2), InvalidInGoodPhases)
    blocks = recorded_blocks(monkeypatch)
    messages = []
    for record in ("light", "full"):
        with pytest.raises(MechanismError) as caught:
            run_simulation(config, record=record, substitutes=substitutes)
        messages.append(str(caught.value))
    assert blocks == [("good", 0, blocks[0][2], 0)]  # light mode's one block
    assert messages[0] == messages[1]
    assert messages[0] == (
        f"round {good_start} (good phase, epoch 0): buyer 0 submitted an invalid bid -1.0"
    )


class HighFor(Agent):
    """Stationary, bidding 1.0 when its value is one of ``high`` and 0
    otherwise: a stationary agent reads no round, so values name them."""

    stationary = True

    def __init__(self, high):
        super().__init__()
        self.high = np.array(sorted(high))

    def bid(self, view, value):
        return 1.0 if value in self.high else 0.0

    def bids(self, view, values):
        return np.where(np.isin(values, self.high), 1.0, 0.0)


def test_a_block_opening_on_the_threshold_crossing_keeps_the_accounts(monkeypatch):
    # buyer 0 wins its quota right after the good phase's first threshold - 1
    # uncleared rounds, so that the round after its rest is the crossing:
    # the block runs on past the rest and stops there, and buyer 1, who bids
    # in it, is punished by run_round
    config = make_config(n=2, horizon=700)
    cfg = Mechanism(config.params, config.distribution).config
    quota, threshold = config.params.rest_threshold, cfg.uncleared_threshold
    first_win = cfg.bad_rounds + threshold - 1
    crossing = first_win + quota
    values = run_simulation(config, record="light").values[first_win:crossing, 0]
    substitutes = {0: lambda: HighFor(values.tolist()), 1: lambda: HighFor([])}
    blocks = recorded_blocks(monkeypatch)
    light = run_simulation(config, record="light", substitutes=substitutes)
    assert blocks[0] == ("good", 0, threshold, crossing - cfg.bad_rounds)
    full = run_simulation(config, record="full", substitutes=substitutes)
    assert_same_accounts(light, full)
    assert light.epochs[0].threshold_round == crossing
    assert full.columns.transitions[crossing - 1] == ((0, BuyerState.GOOD, BuyerState.REST),)
    assert light.agent_wins.tolist() == [quota, 0]


# -- hindsight rescoring in stretches ----------------------------------------------


def reference_profile(traj, agent, family):
    # the per-round loop external_regret_profile used to run, kept as its reference
    configs = {e.config.index: e.config for e in traj.epochs}
    totals = np.zeros(len(family))
    for outcome in traj.rounds:
        if agent not in outcome.bids:
            continue
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
        value = float(traj.values[outcome.t][agent])
        reserve = view.config.good_reserve if outcome.phase == "good" else view.config.bad_reserve
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


PROFILE_EXAMPLES = (
    # one buyer: no round has a rival bid
    (make_config(n=1, horizon=600, agents=[{"kind": "exp3", "levels": 2}]), {}),
    # T shorter than the opening bad phase, which nobody is in: nobody bids
    (make_config(n=3, horizon=2, agents=[{"kind": "myopic"}] * 3), {}),
    # a lone int bidder leaves good rounds uncleared until the threshold
    # crossing, which it bids in and is punished at; a reset follows
    (make_config(n=1, horizon=500, seed=1, reset_round=300), {0: IntBidder}),
)


@st.composite
def profile_runs(draw):
    n = draw(st.integers(1, 5), label="n")
    horizon = draw(st.integers(0, 1000), label="horizon")
    reset = draw(st.one_of(st.none(), st.integers(0, horizon)), label="reset_round")
    config = make_config(
        n=n,
        horizon=horizon,
        agents=draw(st.lists(st.sampled_from(ROSTER_KINDS), min_size=n, max_size=n)),
        seed=draw(st.integers(0, 2**16), label="seed"),
        dist=draw(st.sampled_from(BLOCK_PRIORS[:2]), label="prior"),
        reset_round=reset,
    )
    substitutes = draw(
        st.dictionaries(st.integers(0, n - 1), st.sampled_from((IntBidder, Float64Bidder))),
        label="substitutes",
    )
    return config, substitutes


@pytest.mark.filterwarnings("ignore:mechanism reset at round")  # ETC explores past it
@pytest.mark.filterwarnings("ignore:no mechanism reset")  # ETC explores unforgiven
@settings(max_examples=50, derandomize=True, deadline=None)
@given(profile_runs())
@example(PROFILE_EXAMPLES[0])
@example(PROFILE_EXAMPLES[1])
@example(PROFILE_EXAMPLES[2])
def test_external_regret_profile_matches_the_per_round_loop(run):
    config, substitutes = run
    traj = run_simulation(config, substitutes=substitutes)
    family = default_expert_family(config.distribution, levels=2)
    for agent in range(config.params.n):
        profile = external_regret_profile(traj, agent, family)
        assert np.array_equal(profile, reference_profile(traj, agent, family))


def test_profile_examples_cover_the_edge_cases():
    alone, idle, crossing = (run_simulation(c, substitutes=s) for c, s in PROFILE_EXAMPLES)
    family = default_expert_family(Uniform(0.0, 1.0), levels=2)
    assert any(o.bids for o in alone.rounds)
    assert not any(o.bids for o in idle.rounds)
    for agent in range(3):
        assert np.array_equal(external_regret_profile(idle, agent, family), np.zeros(len(family)))
    thresholds = {e.config.index: e.config.uncleared_threshold for e in crossing.epochs}
    assert any(
        o.phase == "good" and 0 in o.bids
        and o.uncleared_before < thresholds[o.epoch] <= o.uncleared
        for o in crossing.rounds
    )
    # the int bids are recorded as floats
    int_bids = {o.bids[0] for o in crossing.rounds if 0 in o.bids}
    assert int_bids == {0.0, 1.0} and {type(b) for b in int_bids} == {float}


@pytest.mark.parametrize("agent", [-1, 2, 5, True, 0.0])
def test_external_regret_rejects_a_buyer_outside_the_roster(agent):
    traj = run_simulation(make_config(n=2, horizon=200))
    for estimate in (external_regret_profile, estimate_external_regret):
        with pytest.raises(ConfigError, match=rf"buyer index {agent!r} is outside 0\.\.1 \(n=2\)"):
            estimate(traj, agent, GOOD_ONLY_FAMILY)


@pytest.mark.parametrize("agent", [-1, 2, 5, True, 0.0])
def test_policy_regret_rejects_a_buyer_outside_the_roster(agent):
    agents = [{"kind": "good-strategy"}, {"kind": "myopic", "good_mode": "zero"}]
    cfg = make_config(n=2, horizon=200, agents=agents)
    base = run_simulation(cfg, record="light")
    for kwargs in ({}, {"base": base}):
        with pytest.raises(ConfigError, match=rf"buyer index {agent!r} is outside 0\.\.1 \(n=2\)"):
            estimate_policy_regret(cfg, agent, GOOD_ONLY_FAMILY, **kwargs)
