import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epochfpa.distributions import FiniteSupport, Uniform, tail_quantile
from epochfpa.mechanism import (
    BAD_PHASE,
    GOOD_PHASE,
    BuyerState,
    Mechanism,
    MechanismError,
    MechanismParams,
    derive_epoch_config,
)

EPS = 0.3
RHO = EPS * (1 - EPS) ** 4 / 12


def make_params(n=4, horizon=10_000, rho=RHO, **kw):
    return MechanismParams(
        n=n, horizon=horizon, epsilon=EPS, delta=EPS, rho=rho, **kw
    )


def fresh(n=4, horizon=10_000, dist=None, **kw):
    return Mechanism(make_params(n, horizon, **kw), dist or Uniform(0.0, 1.0))


def bad_round(mech, bids, tie=0.0):
    assert mech.phase == BAD_PHASE
    return mech.run_round(bids, tie)


def good_round(mech, bids, tie=0.0):
    assert mech.phase == GOOD_PHASE
    return mech.run_round(bids, tie)


def drain_bad_phase(mech):
    while mech.phase == BAD_PHASE:
        bad_round(mech, {i: 0.0 for i in mech.participants()})


def table_bids(table):
    """A ``run_block`` bid source: buyer ``i`` bids ``table[t, i]`` in round ``t``."""
    return lambda view, ids, rounds: table[rounds][:, ids].T


# -- parameters ----------------------------------------------------------------


def test_params_validation():
    with pytest.raises(MechanismError):
        make_params(n=0)
    with pytest.raises(MechanismError):
        MechanismParams(n=2, horizon=10, epsilon=1.5, delta=0.3, rho=0.005)
    with pytest.raises(MechanismError):
        MechanismParams(n=2, horizon=10, epsilon=0.3, delta=0.3, rho=0.5)
    with pytest.raises(MechanismError):
        make_params(horizon=-1)
    # counts are integers: bools and floats such as 10.0 are refused
    for field, value in (
        ("horizon", "x"),
        ("horizon", None),
        ("horizon", 10.0),
        ("reset_round", "5"),
        ("n", 2.5),
        ("n", True),
    ):
        with pytest.raises(MechanismError, match=f"^{field} must be an integer"):
            make_params(**{field: value})
    params = make_params(n=np.int64(4), horizon=np.int32(10), reset_round=np.int64(5))
    assert (params.n, params.horizon, params.reset_round) == (4, 10, 5)
    assert all(type(x) is int for x in (params.n, params.horizon, params.reset_round))
    with pytest.raises(MechanismError, match="epsilon must be a number, got 'x'"):
        MechanismParams(n=2, horizon=10, epsilon="x", delta=0.3, rho=0.005)
    with pytest.raises(MechanismError, match="rho must be a number, got None"):
        make_params(rho=None)


@pytest.mark.parametrize(
    "field, value, minimum", [("n", 0, 1), ("horizon", -1, 0), ("reset_round", -1, 0)]
)
def test_params_refuse_counts_below_their_minimum(field, value, minimum):
    message = f"^{field} must be an integer of at least {minimum}, got {value}$"
    with pytest.raises(MechanismError, match=message):
        make_params(**{field: value})


def test_rest_threshold_values():
    assert make_params().rest_threshold == 54
    p = MechanismParams(
        n=4, horizon=10, epsilon=0.1, delta=0.1, rho=0.005, enforce_rho_cap=False
    )
    assert p.rest_threshold == 922


def test_rho_cap_is_min_of_both_conditions():
    p = make_params()
    main = EPS * (1 - EPS) ** 4 / 12
    conservative = EPS * (1 - EPS) * (1 - EPS) * (1 - RHO) / (12 * (1 + EPS))
    assert p.rho_cap == pytest.approx(min(main, conservative))


def test_max_epoch_length_and_lookahead_threshold():
    p = make_params(n=6)
    expect = math.ceil(2 * 54 * 6 / ((1 - EPS) * (1 - RHO)))
    assert p.max_epoch_length == expect
    assert p.lookahead_threshold == math.ceil(10 / (EPS * (1 - EPS)) * expect)


# -- epoch configuration ---------------------------------------------------------


def test_derive_epoch_config_reference_values():
    # n=4, eps=delta=0.1, rho=0.01: H=922 and ceilings give E=8279, E_b=83
    p = MechanismParams(
        n=4, horizon=10, epsilon=0.1, delta=0.1, rho=0.01, enforce_rho_cap=False
    )
    cfg = derive_epoch_config(p, range(4), [], Uniform(0.0, 1.0))
    assert (cfg.good_count, cfg.bad_count) == (4, 2)
    assert (cfg.bad_rounds + cfg.good_rounds, cfg.bad_rounds, cfg.good_rounds) == (8279, 83, 8196)
    assert cfg.good_reserve == pytest.approx(0.9 * 0.875)
    assert cfg.bad_reserve == pytest.approx(0.625 - 0.025 * 0.5, abs=1e-6)
    assert cfg.uncleared_threshold == math.ceil(4 * 922 / 0.9)


def test_derive_epoch_config_floors():
    p = make_params(n=4)
    cfg = derive_epoch_config(p, [], range(4), Uniform(0.0, 1.0))
    assert cfg.good_count == 1
    assert cfg.bad_count == 4
    cfg = derive_epoch_config(p, range(4), [], Uniform(0.0, 1.0))
    assert cfg.bad_count == 2  # ceil(n/2) floor


def test_derive_epoch_config_odd_n_uses_ceiling_half():
    p = MechanismParams(n=5, horizon=10, epsilon=EPS, delta=EPS, rho=RHO)
    cfg = derive_epoch_config(p, range(5), [], Uniform(0.0, 1.0))
    assert cfg.bad_count == 3


def test_derive_epoch_config_rejects_bad_partition():
    p = make_params(n=4)
    with pytest.raises(MechanismError):
        derive_epoch_config(p, [0, 1], [1, 2, 3], Uniform(0.0, 1.0))
    with pytest.raises(MechanismError):
        derive_epoch_config(p, [0, 1], [2], Uniform(0.0, 1.0))


def test_bad_reserve_floor_holds():
    p = make_params(n=4)
    for dist in (Uniform(0.0, 1.0), Uniform(0.5, 4.0)):
        cfg = derive_epoch_config(p, range(4), [], dist)
        assert cfg.bad_reserve >= (1 - EPS / 4) * tail_quantile(dist, cfg.bad_count) - 1e-9


# -- bad rounds -------------------------------------------------------------------


def test_bad_round_requires_bad_phase_participants():
    mech = fresh()
    assert mech.phase == BAD_PHASE
    with pytest.raises(MechanismError):
        bad_round(mech, {0: 1.0})  # buyer 0 is good, not bad
    out = bad_round(mech, {})
    assert out.winner is None and not out.cleared and out.payment == 0.0


def test_bad_round_first_price_rule():
    mech = fresh()
    mech._move([(2, BuyerState.GOOD, BuyerState.BAD), (3, BuyerState.GOOD, BuyerState.BAD)], 0)
    r_b = mech.config.bad_reserve
    out = bad_round(mech, {2: r_b + 0.1, 3: r_b + 0.05})
    assert out.winner == 2 and out.payment == pytest.approx(r_b + 0.1)
    assert out.cleared and out.transitions == ()
    out = bad_round(mech, {2: r_b - 0.2, 3: r_b - 0.1})
    assert out.winner is None and not out.cleared
    with pytest.raises(MechanismError):
        bad_round(mech, {2: -0.5, 3: 0.0})


def test_bad_round_never_transitions():
    mech = fresh()
    mech._move([(2, BuyerState.GOOD, BuyerState.BAD)], 0)
    for bid in (0.0, 0.2, 5.0):
        out = bad_round(mech, {2: bid})
        assert out.transitions == ()
        assert mech.states[2] == BuyerState.BAD


def test_bids_must_come_from_exactly_the_participants_in_any_order():
    mech = fresh(n=3)
    drain_bad_phase(mech)
    r_g = mech.config.good_reserve
    for bids in ({0: r_g, 1: r_g}, {0: r_g, 1: r_g, 2: r_g, 3: r_g}, {2: r_g, 0: r_g, 3: r_g}):
        with pytest.raises(MechanismError, match=r"exactly the current participants \[0, 1, 2\]"):
            good_round(mech, bids)
    # keys out of participant order still name the participants
    assert good_round(mech, {2: r_g, 0: r_g, 1: r_g}).winner == 0


@pytest.mark.parametrize(
    "bid",
    [True, -0.5, math.nan, math.inf, "1", None, pytest.param(10**400, id="10**400")],
)
def test_invalid_bids_are_rejected(bid):
    mech = fresh(n=2)
    drain_bad_phase(mech)
    with pytest.raises(MechanismError, match="invalid bid"):
        good_round(mech, {0: bid, 1: 0.0})
    assert mech.allocations == (0, 0) and mech.uncleared == 0


@pytest.mark.parametrize("bid", [0, 1, 0.0, np.float64(0.5), -0.0])
def test_valid_bids_are_accepted(bid):
    mech = fresh(n=2)
    drain_bad_phase(mech)
    out = good_round(mech, {0: bid, 1: 0.0})
    # recorded as a plain float of the same value, and -0.0 as 0.0
    assert type(out.bids[0]) is float and out.bids[0] == bid
    assert math.copysign(1.0, out.bids[0]) == 1.0
    assert type(out.payment) is float
    if bid >= mech.config.good_reserve:
        assert out.winner == 0 and out.payment == bid


# -- good rounds ------------------------------------------------------------------


def test_good_round_first_price_and_allocation_count():
    mech = fresh(n=2)
    drain_bad_phase(mech)
    r_g = mech.config.good_reserve
    out = good_round(mech, {0: r_g + 0.1, 1: r_g + 0.05})
    assert out.winner == 0 and out.payment == pytest.approx(r_g + 0.1)
    assert mech.allocations[0] == 1 and mech.allocations[1] == 0
    with pytest.raises(MechanismError):
        good_round(mech, {0: 1.0})  # missing buyer 1's bid


def test_good_round_uncleared_increments_counter():
    mech = fresh(n=2)
    drain_bad_phase(mech)
    out = good_round(mech, {0: 0.0, 1: 0.0})
    assert not out.cleared and out.winner is None
    assert out.uncleared == 1 and out.uncleared_before == 0


def test_threshold_punishes_low_bidders():
    mech = fresh(n=2)
    drain_bad_phase(mech)
    cfg = mech.config
    mech._epoch.uncleared = cfg.uncleared_threshold - 1
    out = good_round(mech, {0: cfg.good_reserve + 0.01, 1: 0.1})
    # cleared round, but the counter already crossed? no: clearing keeps U fixed
    assert out.cleared and out.transitions == ()
    mech._epoch.uncleared = cfg.uncleared_threshold
    out = good_round(mech, {0: cfg.good_reserve + 0.01, 1: 0.1})
    assert (1, BuyerState.GOOD, BuyerState.BAD) in out.transitions
    assert mech.states[1] == BuyerState.BAD


def test_threshold_crossing_round_punishes_same_round():
    mech = fresh(n=2)
    drain_bad_phase(mech)
    cfg = mech.config
    mech._epoch.uncleared = cfg.uncleared_threshold - 1
    out = good_round(mech, {0: 0.0, 1: 0.0})
    assert out.uncleared == cfg.uncleared_threshold
    assert set(mech.states[:2]) == {BuyerState.BAD}
    assert mech._epoch.threshold_round == out.t
    # the crossing round's bidders, taken before its punishments
    assert mech._epoch.good_at_threshold == (0, 1)


def test_winner_rests_at_quota():
    mech = fresh(n=2)
    drain_bad_phase(mech)
    h = mech.params.rest_threshold
    r_g = mech.config.good_reserve
    mech._epoch.allocations = (h - 1, 0)
    out = good_round(mech, {0: r_g + 0.2, 1: 0.0})
    assert (0, BuyerState.GOOD, BuyerState.REST) in out.transitions
    assert mech.states[0] == BuyerState.REST
    assert mech.allocations[0] == h
    # rested buyer is no longer a participant
    assert mech.participants() == (1,)


def test_a_round_punishes_before_it_rests():
    # past the threshold, buyer 0 wins its h-th allocation while buyer 1
    # bids below the reserve: the punishment comes first in the round's moves
    mech = fresh(n=2)
    drain_bad_phase(mech)
    h, reserve = mech.params.rest_threshold, mech.config.good_reserve
    mech._epoch.uncleared = mech.config.uncleared_threshold
    mech._epoch.allocations = (h - 1, 0)
    out = good_round(mech, {0: reserve, 1: 0.0})
    assert out.transitions == (
        (1, BuyerState.GOOD, BuyerState.BAD),
        (0, BuyerState.GOOD, BuyerState.REST),
    )


def test_tie_break_uses_supplied_uniform():
    mech = fresh(n=4)
    drain_bad_phase(mech)
    r_g = mech.config.good_reserve
    bids = {i: r_g for i in range(4)}
    assert good_round(mech, bids, tie=0.0).winner == 0
    mech2 = fresh(n=4)
    drain_bad_phase(mech2)
    assert good_round(mech2, bids, tie=0.999).winner == 3
    mech3 = fresh(n=4)
    drain_bad_phase(mech3)
    assert good_round(mech3, bids, tie=0.5).winner == 2


def test_empty_good_roster_rounds_are_uncleared_noops():
    mech = fresh(n=2)
    mech._move([(i, BuyerState.GOOD, BuyerState.BAD) for i in range(2)], 0)
    drain_bad_phase_bids = {i: 0.0 for i in mech.participants()}
    while mech.phase == BAD_PHASE:
        bad_round(mech, drain_bad_phase_bids)
    out = good_round(mech, {})
    assert not out.cleared and out.uncleared == 1


# -- schedule ---------------------------------------------------------------------


def test_phase_switch_after_bad_rounds():
    mech = fresh(n=2)
    cfg = mech.config
    for _ in range(cfg.bad_rounds):
        assert mech.phase == BAD_PHASE
        bad_round(mech, {})
    assert mech.phase == GOOD_PHASE


def test_epoch_end_returns_rested_and_keeps_bad():
    mech = fresh(n=4)
    cfg = mech.config
    drain_bad_phase(mech)
    rest, bad = (0, BuyerState.GOOD, BuyerState.REST), (1, BuyerState.GOOD, BuyerState.BAD)
    mech._move([rest, bad], mech.t)
    while mech.epoch_index == 0:
        bids = {i: 0.0 for i in mech.participants()}
        mech.run_round(bids)
    assert mech.states[0] == BuyerState.GOOD
    assert mech.states[1] == BuyerState.BAD
    # buyers 2 and 3 bid zero all epoch, so the threshold rule caught them
    assert mech.states[2] == BuyerState.BAD and mech.states[3] == BuyerState.BAD
    rec = mech.epoch_records[0]
    assert rec.completed
    assert rec.end - rec.start == cfg.bad_rounds + cfg.good_rounds
    assert set(rec.good_end) == {0}


def test_reset_round_restores_everyone_once():
    mech = fresh(n=2, reset_round=3)
    mech._move([(1, BuyerState.GOOD, BuyerState.BAD)], 0)
    for _ in range(3):
        mech.run_round({i: 0.0 for i in mech.participants()})
    assert mech.states[1] == BuyerState.GOOD
    assert mech.epoch_records[0].reset and not mech.epoch_records[0].completed
    assert mech.epoch_index == 1


@pytest.mark.parametrize("reset_round", [0, 1])
def test_a_reset_at_round_zero_fires_after_round_zero_as_at_one(reset_round):
    mech = fresh(n=2, reset_round=reset_round)
    assert mech._rounds_left == 1  # round 0 fires the reset
    mech.run_round({})  # nobody is bad, so the bad phase has no bidders
    rec = mech.epoch_records[0]
    assert (rec.start, rec.end, rec.reset) == (0, 1, True)
    # the reset is booked once: the new epoch runs its whole bad phase
    assert mech._rounds_left == mech.config.bad_rounds
    assert mech.run_idle() == mech.config.bad_rounds and mech.epoch_index == 1


def test_finish_records_partial_epoch():
    mech = fresh(n=2)
    bad_round(mech, {})
    mech.finish()
    assert len(mech.epoch_records) == 1
    assert not mech.epoch_records[0].completed


def test_finish_twice_records_the_partial_epoch_once():
    mech = fresh(n=2)
    drain_bad_phase(mech)
    good_round(mech, {0: 0.0, 1: 0.0})
    mech.finish()
    records = [dataclasses.astuple(e) for e in mech.epoch_records]
    state_rounds = [list(row) for row in mech.state_rounds]
    assert len(records) == 1 and sum(state_rounds[0]) == mech.t
    mech.finish()
    assert [dataclasses.astuple(e) for e in mech.epoch_records] == records
    assert mech.state_rounds == state_rounds


def test_no_round_runs_past_the_horizon():
    mech = fresh(n=2, horizon=1)
    bids = {i: 0.0 for i in mech.participants()}
    assert mech.run_round(bids).t == 0
    with pytest.raises(MechanismError, match="round 1 is past the horizon T=1"):
        mech.run_round({i: 0.0 for i in mech.participants()})
    assert mech.t == 1 and mech.run_idle() == 0
    rounds, winners, payments = mech.run_block(table_bids(np.zeros((1, 2))), np.zeros(1))
    assert (rounds.size, winners.size, payments.size, mech.t) == (0, 0, 0, 1)


def test_run_block_stops_at_the_horizon():
    mech = fresh(n=2, horizon=30, rho=0.5, enforce_rho_cap=False)
    mech._move([(1, BuyerState.GOOD, BuyerState.BAD)], 0)
    assert mech._rounds_left > 30  # the bad phase alone outlasts the run
    rounds, winners, _ = mech.run_block(table_bids(np.full((30, 2), 0.9)), np.zeros(30))
    assert rounds[rounds >= 0].tolist() == list(range(30)) and mech.t == 30
    assert winners[rounds >= 0].tolist() == [1] * 30
    with pytest.raises(MechanismError, match="past the horizon"):
        mech.run_round({i: 0.9 for i in mech.participants()})


def test_instance_attribute_budget():
    # On CPython 3.11.7, going from 28 to 30 instance attributes made a
    # mechanism-only round driver 8-10% slower (60 interleaved reps), so new
    # bookkeeping is derived from what the mechanism already stores.
    mech = fresh(n=2, reset_round=5)
    assert len(vars(mech)) <= 12
    while mech.epoch_index < 1:
        mech.run_round({i: 0.0 for i in mech.participants()})
    mech.run_round({i: 0.0 for i in mech.participants()})
    assert len(vars(mech)) <= 12
    # the epoch's counts live in its record only
    assert not {"uncleared", "allocations"} & vars(mech).keys()


def test_public_name_budget():
    # the module lists of the public API; deleting names is progress
    from epochfpa import agents, distributions, harness, mechanism, suites

    modules = (distributions, mechanism, agents, harness, suites)
    assert sum(len(m.__all__) for m in modules) <= 68


def test_source_line_budget():
    # the package's total line count; deleting code is progress
    from epochfpa import mechanism

    files = pathlib.Path(mechanism.__file__).parent.glob("*.py")
    assert sum(len(f.read_text().splitlines()) for f in files) <= 4033


def test_allocations_never_exceed_quota():
    mech = fresh(n=2)
    drain_bad_phase(mech)
    h = mech.params.rest_threshold
    r_g = mech.config.good_reserve
    # buyer 0 wins every round until rested
    while mech.states[0] == BuyerState.GOOD and mech.phase == GOOD_PHASE:
        bids = {i: (r_g if i == 0 else 0.0) for i in mech.participants()}
        good_round(mech, bids)
    assert mech.allocations[0] == h


# -- idle stretches ---------------------------------------------------------------


def _snapshot(mech):
    return (
        mech.t,
        mech.phase,
        mech.epoch_index,
        mech.uncleared,
        list(mech.allocations),
        list(mech.states),
        mech.participants(),
        mech.config,
        mech._rounds_left,
        mech._epoch.threshold_round,
        mech._epoch.good_at_threshold,
        mech._epoch.idle_rounds,
        list(mech.epoch_records),
        [list(row) for row in mech.state_rounds],
    )


def _bid(rng, mode, reserve):
    if mode == "win":
        return reserve + float(rng.random())
    if mode == "low":
        return 0.0
    return 1.5 * reserve * float(rng.random())


class _Scenario:
    """Two mechanisms on one bid stream: ``idle`` fast-forwards empty phases
    with ``run_idle``, ``ref`` runs them as ``run_round({})`` calls."""

    def __init__(self, params, modes, start_bad, force_t, rest_mask, seed):
        self.modes, self.force_t, self.rest_mask = modes, force_t, rest_mask
        self.bid_rng = np.random.default_rng(seed)
        self.idle = Mechanism(params, Uniform(0.0, 1.0))
        self.ref = Mechanism(params, Uniform(0.0, 1.0))
        for mech in (self.idle, self.ref):
            mech._move([(i, BuyerState.GOOD, BuyerState.BAD) for i in start_bad], 0)
        self.forced = force_t is None

    def force_empty_good_set(self):
        mech = self.idle
        if self.forced or mech.t < self.force_t or mech.phase != GOOD_PHASE:
            return
        if not mech.participants():  # already empty: force it later
            return
        for m in (self.idle, self.ref):
            m._move(
                [
                    (i, BuyerState.GOOD, BuyerState.REST if self.rest_mask[i] else BuyerState.BAD)
                    for i in m.participants()
                ],
                m.t,
            )
        self.forced = True

    def busy_round(self):
        ids = self.idle.participants()
        cfg = self.idle.config
        reserve = cfg.good_reserve if self.idle.phase == GOOD_PHASE else cfg.bad_reserve
        bids = {i: _bid(self.bid_rng, self.modes[i], reserve) for i in ids}
        tie = float(self.bid_rng.random())
        out = []
        for mech in (self.idle, self.ref):
            out.append(mech.run_round(bids, tie))
        return out


def _idle_stretches(params, modes, start_bad, force_t, rest_mask, seed):
    """(start, end) of every maximal run of participant-less rounds."""
    sc = _Scenario(params, modes, start_bad, force_t, rest_mask, seed)
    mech, stretches, start = sc.ref, [], None
    while mech.t < params.horizon:
        sc.force_empty_good_set()
        if mech.participants():
            if start is not None:
                stretches.append((start, mech.t))
                start = None
            sc.busy_round()
        else:
            start = mech.t if start is None else start
            for m in (sc.idle, sc.ref):
                m.run_round({})
    if start is not None:
        stretches.append((start, params.horizon))
    return stretches


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_run_idle_matches_per_round_reference(data):
    n = data.draw(st.integers(1, 4), label="n")
    epsilon = data.draw(st.sampled_from([0.3, 0.5, 0.6]), label="epsilon")
    delta = data.draw(st.sampled_from([0.7, 0.8, 0.9]), label="delta")
    if data.draw(st.booleans(), label="capped rho"):
        cap = MechanismParams(n=n, horizon=0, epsilon=epsilon, delta=delta, rho=1e-6).rho_cap
        rho, kw = cap * data.draw(st.sampled_from([0.2, 0.9]), label="rho share"), {}
    else:  # a longer bad block, for schedule arithmetic only
        rho, kw = data.draw(st.sampled_from([0.05, 0.2]), label="rho"), {"enforce_rho_cap": False}
    horizon = data.draw(st.integers(1, 1200), label="horizon")
    modes = data.draw(
        st.lists(st.sampled_from(["win", "low", "mixed"]), min_size=n, max_size=n), label="modes"
    )
    start_bad = data.draw(st.sets(st.integers(0, n - 1)), label="start_bad")
    force_t = data.draw(st.one_of(st.none(), st.integers(0, horizon)), label="force_t")
    rest_mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="rest_mask")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    scenario = (modes, start_bad, force_t, rest_mask, seed)

    # place the reset before, inside or just after an idle stretch of the run
    # without one: the two runs agree up to the reset round
    base = MechanismParams(n=n, horizon=horizon, epsilon=epsilon, delta=delta, rho=rho, **kw)
    stretches = _idle_stretches(base, *scenario)
    reset_round = None
    if stretches and data.draw(st.booleans(), label="reset"):
        start, end = stretches[data.draw(st.integers(0, len(stretches) - 1), label="stretch")]
        anchor = data.draw(st.sampled_from(["start", "inside", "end"]), label="anchor")
        if anchor == "inside":
            reset_round = data.draw(st.integers(start, end), label="reset_round")
        else:
            point = start if anchor == "start" else end
            reset_round = max(0, point + data.draw(st.integers(-2, 2), label="offset"))
    params = MechanismParams(
        n=n, horizon=horizon, epsilon=epsilon, delta=delta, rho=rho, reset_round=reset_round, **kw
    )
    # and end the run inside an idle stretch of it: the shorter run is a
    # prefix of the longer one, and its horizon cuts that stretch
    stretches = _idle_stretches(params, *scenario)
    if stretches and data.draw(st.booleans(), label="cut"):
        start, end = stretches[data.draw(st.integers(0, len(stretches) - 1), label="cut stretch")]
        horizon = data.draw(st.integers(start + 1, end), label="cut horizon")
        params = dataclasses.replace(params, horizon=horizon)

    sc = _Scenario(params, *scenario)
    idle_out, ref_out = [], []
    idle_rounds = 0
    while sc.idle.t < horizon:
        sc.force_empty_good_set()
        if sc.idle.participants():
            assert sc.idle.run_idle() == 0
            a, b = sc.busy_round()
            idle_out.append(a)
            ref_out.append(b)
        else:
            k = sc.idle.run_idle()
            assert 1 <= k <= horizon - sc.ref.t
            for _ in range(k):
                assert not sc.ref.participants()
                ref_out.append(sc.ref.run_round({}))
            idle_rounds += k
        assert _snapshot(sc.idle) == _snapshot(sc.ref)
    assert sc.idle.t == horizon and sc.idle.run_idle() == 0
    for mech in (sc.idle, sc.ref):
        mech.finish()
    assert _snapshot(sc.idle) == _snapshot(sc.ref)
    assert idle_out == [o for o in ref_out if o.participants]
    assert sum(e.idle_rounds for e in sc.idle.epoch_records) == idle_rounds
    assert idle_rounds == sum(1 for o in ref_out if not o.participants)


def test_run_idle_stops_at_the_reset_and_phase_end():
    # nobody is bad, so every bad block is idle; rho=0.2 makes it long
    mech = fresh(n=2, reset_round=5, rho=0.2, enforce_rho_cap=False)
    bad_rounds = mech.config.bad_rounds
    assert bad_rounds > 10 and mech.participants() == ()
    assert mech.run_idle() == 5  # up to the reset
    assert mech.epoch_records[-1].reset and mech.epoch_records[-1].idle_rounds == 5
    assert (mech.t, mech.epoch_index, mech.phase) == (5, 1, BAD_PHASE)
    assert mech.run_idle() == bad_rounds  # up to the phase end
    assert mech.phase == GOOD_PHASE and mech.t == 5 + bad_rounds
    assert mech.run_idle() == 0  # both buyers are good and bid now
    # the horizon ends a stretch mid-phase, and nothing runs past it
    short = fresh(n=2, horizon=8, reset_round=5, rho=0.2, enforce_rho_cap=False)
    assert short.run_idle() == 5
    assert short.run_idle() == 3 and (short.t, short.phase) == (8, BAD_PHASE)
    assert short.run_idle() == 0 and short.t == 8
    assert fresh(n=2, horizon=0).run_idle() == 0


# -- raw bid streams --------------------------------------------------------------

BID_KINDS = ("zero", "reserve", "below", "above", "tie", "int")


def _raw_bid(rng, kind, reserve, shared):
    if kind == "zero":
        return 0.0
    if kind == "reserve":
        return reserve
    if kind == "below":
        return math.nextafter(reserve, 0.0)
    if kind == "above":
        return reserve + float(rng.random())
    if kind == "tie":
        return shared
    return int(rng.integers(0, 3))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_raw_bid_streams_keep_the_round_invariants(data):
    """Bids no agent produces, fed straight to ``participants`` / ``run_round``:
    every round settles, moves and counts by the rules, each epoch closes at
    its length or at the reset, and each epoch's revenue is its payments
    summed in order."""
    n = data.draw(st.integers(1, 4), label="n")
    epsilon = data.draw(st.sampled_from([0.3, 0.5, 0.6]), label="epsilon")
    delta = data.draw(st.sampled_from([0.7, 0.8, 0.9]), label="delta")
    if data.draw(st.booleans(), label="capped rho"):
        cap = MechanismParams(n=n, horizon=0, epsilon=epsilon, delta=delta, rho=1e-6).rho_cap
        rho, kw = cap * data.draw(st.sampled_from([0.2, 0.9]), label="rho share"), {}
    else:  # a longer bad block, for schedule arithmetic only
        rho, kw = data.draw(st.sampled_from([0.05, 0.2]), label="rho"), {"enforce_rho_cap": False}
    horizon = data.draw(st.integers(1, 1200), label="horizon")
    reset = data.draw(st.one_of(st.none(), st.integers(0, horizon)), label="reset_round")
    start_bad = data.draw(st.sets(st.integers(0, n - 1)), label="start_bad")
    # each buyer bids from its own kinds, so some are rested and others punished
    kinds = data.draw(
        st.lists(
            st.lists(st.sampled_from(BID_KINDS), min_size=1, max_size=2, unique=True),
            min_size=n,
            max_size=n,
        ),
        label="kinds",
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = MechanismParams(
        n=n, horizon=horizon, epsilon=epsilon, delta=delta, rho=rho, reset_round=reset, **kw
    )
    mech = Mechanism(params, Uniform(0.0, 1.0))
    mech._move([(i, BuyerState.GOOD, BuyerState.BAD) for i in start_bad], 0)
    payments = {}  # (epoch, phase) -> payments in round order
    last = {}  # epoch -> the outcome of its last round
    epoch_start = 0

    for _ in range(horizon):
        ids, phase, cfg = mech.participants(), mech.phase, mech.config
        states, uncleared = list(mech.states), mech.uncleared
        good = phase == GOOD_PHASE
        reserve = cfg.good_reserve if good else cfg.bad_reserve
        shared = _raw_bid(rng, str(rng.choice(["reserve", "below", "above", "int"])), reserve, 0.0)
        bids = {i: _raw_bid(rng, str(rng.choice(kinds[i])), reserve, shared) for i in ids}
        tie = float(rng.random())
        out = mech.run_round(bids, tie)
        last[out.epoch] = out

        top = max(bids.values(), default=None)
        assert out.participants == ids and out.cleared == (out.winner is not None)
        assert out.cleared == (top is not None and top >= reserve)
        if out.cleared:
            tied = [i for i in ids if bids[i] == top]
            assert out.winner == tied[int(tie * len(tied))]
            assert out.payment == bids[out.winner]
            payments.setdefault((out.epoch, phase), []).append(out.payment)
        else:
            assert out.payment == 0.0
        moved = list(out.transitions)
        if not good:
            assert moved == [] and out.uncleared == uncleared
        else:
            assert out.uncleared == uncleared + (0 if out.cleared else 1)
            punish = out.uncleared >= cfg.uncleared_threshold
            assert [i for i, _, to in moved if to == BuyerState.BAD] == [
                i for i in ids if punish and bids[i] < reserve
            ]
            rested = out.cleared and out.allocations[out.winner] >= params.rest_threshold
            assert [i for i, _, to in moved if to == BuyerState.REST] == (
                [out.winner] if rested else []
            )
            assert all(frm == BuyerState.GOOD for _, frm, _ in moved)
        for i, _, to in moved:
            states[i] = to
        # the epoch closes at its length or at the reset, which fires after
        # the round at which t reaches reset_round (round 0 for a reset at 0)
        fired = reset is not None and out.t + 1 == max(reset, 1)
        closed = fired or out.t + 1 - epoch_start == cfg.bad_rounds + cfg.good_rounds
        assert mech.epoch_index == out.epoch + closed
        if closed:
            epoch_start = out.t + 1
            # rested buyers return to good, and everyone at the reset
            states = [BuyerState.GOOD if fired or s == BuyerState.REST else s for s in states]
        assert mech.states == tuple(states)

    mech.finish()
    assert sum(e.end - e.start for e in mech.epoch_records) == horizon
    for e in mech.epoch_records:
        # a closed record keeps the counts its last round left
        final = last[e.config.index]
        assert (e.uncleared, e.allocations) == (final.uncleared, final.allocations)
        for phase, revenue in ((GOOD_PHASE, e.good_revenue), (BAD_PHASE, e.bad_revenue)):
            total = 0.0
            for p in payments.get((e.config.index, phase), []):
                total += p
            assert revenue == total


# -- blocks -------------------------------------------------------------------------

BLOCK_BID_KINDS = ("zero", "reserve", "below", "above", "tie")


def _books(mech):
    """Everything ``_snapshot`` holds plus the running epoch accounts."""
    return _snapshot(mech) + (
        mech._epoch.good_revenue,
        mech._epoch.bad_revenue,
        mech._epoch.punishments,
        mech._epoch.rests,
    )


class LazyBids:
    """Random bids drawn the first time a round is asked for, by each buyer's
    kinds around the reserve of the phase asking, and kept: ``run_block``
    and ``run_round`` read one table."""

    def __init__(self, rng, kinds, horizon):
        self.rng, self.kinds = rng, kinds
        self.table = np.full((horizon, len(kinds)), math.nan)

    def draw(self, t, ids, view):
        missing = [i for i in ids if math.isnan(self.table[t, i])]
        if missing:
            cfg, rng = view.config, self.rng
            reserve = cfg.good_reserve if view.phase == GOOD_PHASE else cfg.bad_reserve
            shared = _raw_bid(rng, str(rng.choice(["reserve", "below", "above"])), reserve, 0.0)
            for i in missing:
                self.table[t, i] = _raw_bid(rng, str(rng.choice(self.kinds[i])), reserve, shared)

    def __call__(self, view, ids, rounds):
        for t in np.unique(rounds).tolist():
            self.draw(t, ids, view)
        return self.table[rounds][:, ids].T

    def row(self, mech):
        ids = mech.participants()
        self.draw(mech.t, ids, mech.view())
        return dict(zip(ids, self.table[mech.t, list(ids)].tolist()))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_run_block_settles_exactly_up_to_the_first_event(data):
    """``run_block`` on random float bids against ``run_round`` row by row:
    it settles a phase from its first round, rests included, and the same
    phase of the coming epochs it covers, with the same winners, payments
    and books, and stops only before the threshold crossing with bidders."""
    n = data.draw(st.integers(1, 4), label="n")
    epsilon = data.draw(st.sampled_from([0.3, 0.5, 0.6]), label="epsilon")
    delta = data.draw(st.sampled_from([0.7, 0.8, 0.9]), label="delta")
    if data.draw(st.booleans(), label="capped rho"):
        cap = MechanismParams(n=n, horizon=0, epsilon=epsilon, delta=delta, rho=1e-6).rho_cap
        rho, kw = cap * data.draw(st.sampled_from([0.2, 0.9]), label="rho share"), {}
    else:  # a longer bad block, for schedule arithmetic only
        rho, kw = data.draw(st.sampled_from([0.05, 0.2]), label="rho"), {"enforce_rho_cap": False}
    horizon = data.draw(st.integers(1, 1200), label="horizon")
    reset = data.draw(st.one_of(st.none(), st.integers(0, horizon)), label="reset_round")
    start_bad = data.draw(st.sets(st.integers(0, n - 1)), label="start_bad")
    kinds = data.draw(
        st.lists(
            st.lists(st.sampled_from(BLOCK_BID_KINDS), min_size=1, max_size=2, unique=True),
            min_size=n,
            max_size=n,
        ),
        label="kinds",
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ties = rng.random(horizon)
    bids = LazyBids(rng, kinds, horizon)
    params = MechanismParams(
        n=n, horizon=horizon, epsilon=epsilon, delta=delta, rho=rho, reset_round=reset, **kw
    )
    block, ref = Mechanism(params, Uniform(0.0, 1.0)), Mechanism(params, Uniform(0.0, 1.0))
    for mech in (block, ref):
        mech._move([(i, BuyerState.GOOD, BuyerState.BAD) for i in start_bad], 0)

    expected = {}  # round -> (winner, payment) of every row run_block settled
    while block.t < horizon:
        event = False
        if not block.participants():
            block.run_idle()
        else:
            where = (block.epoch_index, block.phase)
            rounds, winners, payments = block.run_block(bids, ties)
            settled = rounds >= 0
            for t, w, p in zip(rounds[settled], winners[settled], payments[settled]):
                expected[int(t)] = (None if w < 0 else int(w), float(p))
            event = where == (block.epoch_index, block.phase) and block.t < horizon
        # the reference runs the same rounds one by one
        while ref.t < block.t:
            out = ref.run_round(bids.row(ref) if ref.participants() else {}, float(ties[ref.t]))
            if out.t in expected:  # an idle tail's rows too
                assert (out.winner, out.payment) == expected.pop(out.t)
        assert _books(block) == _books(ref)
        if block.participants() and event:
            # the round it stopped before crosses the threshold with bidders
            threshold = block.config.uncleared_threshold
            row = bids.row(block)
            out = block.run_round(row, float(ties[block.t]))
            assert out.uncleared_before < threshold <= out.uncleared
            assert out.transitions and out.transitions[0][2] == BuyerState.BAD
            ref.run_round(row, float(ties[ref.t]))
            assert _books(block) == _books(ref)
    assert expected == {}
    for mech in (block, ref):
        mech.finish()
    assert _books(block) == _books(ref)


def test_run_block_ends_at_a_rest_and_stops_at_an_invalid_bid():
    """The phase goes on past a rest with the rested buyer masked, stops
    before an invalid bid of a bidder, and reads none of a rested buyer."""
    mech = fresh(n=2)
    drain_bad_phase(mech)
    h, cfg, t = mech.params.rest_threshold, mech.config, mech.t
    reserve, threshold = cfg.good_reserve, cfg.uncleared_threshold
    # buyer 0 wins every round up to its h-th win, then rests; buyer 1 bids
    # 0 alone from then on, which leaves the rounds uncleared up to the
    # crossing, where it is punished: left to run_round
    table = np.zeros((mech.params.horizon, 2))
    table[:, 0] = reserve
    table[t + h :, 0] = math.nan  # never read: buyer 0 rests before
    rounds, winners, payments = mech.run_block(table_bids(table), np.zeros(len(table)))
    settled = rounds >= 0
    assert rounds[settled].tolist() == list(range(t, t + h + threshold - 1))
    assert winners[settled].tolist() == [0] * h + [-1] * (threshold - 1)
    assert payments[settled].tolist() == [reserve] * h + [0.0] * (threshold - 1)
    assert mech.allocations == (h, 0) and mech.uncleared == threshold - 1
    assert mech.states[0] == BuyerState.REST and mech.participants() == (1,)
    assert mech._epoch.rests == 1 and mech._epoch.threshold_round is None
    # the rest holds from the round after the h-th win on
    assert mech.state_rounds[0] == [t + h, 0, 0] and mech.t == t + h + threshold - 1
    out = mech.run_round({1: 0.0})
    assert out.transitions == ((1, BuyerState.GOOD, BuyerState.BAD),)
    for bad in (-0.5, math.nan, math.inf):
        mech = fresh(n=2)
        drain_bad_phase(mech)
        t = mech.t
        table = np.full((mech.params.horizon, 2), reserve)
        table[t + 2, 1] = bad
        rounds, winners, _ = mech.run_block(table_bids(table), np.zeros(len(table)))
        assert rounds[rounds >= 0].tolist() == [t, t + 1] and mech.t == t + 2
        assert mech.allocations == (2, 0)
        with pytest.raises(MechanismError, match="buyer 1 submitted an invalid bid"):
            mech.run_round({0: reserve, 1: bad})


def test_run_block_breaks_ties_before_an_invalid_bid():
    mech = fresh(n=2)
    drain_bad_phase(mech)
    t, reserve = mech.t, mech.config.good_reserve
    # a NaN row has no top bid, which must not hide the tie of the row before it
    table = np.full((mech.params.horizon, 2), reserve)
    table[t + 1, 0] = math.nan
    ties = np.zeros(len(table))
    ties[t] = 0.9
    rounds, winners, _ = mech.run_block(table_bids(table), ties)
    assert rounds[rounds >= 0].tolist() == [t] and winners[rounds >= 0].tolist() == [1]


def test_run_block_books_a_winning_negative_zero_as_run_round():
    # most of the prior's mass at 0 puts the bad reserve at 0, where a bid of
    # -0.0 wins: run_round records its price as 0.0, and so must a block
    dist = FiniteSupport(((0.0, 0.99), (1.0, 0.01)))
    block, ref = (fresh(n=2, dist=dist, rho=0.2, enforce_rho_cap=False) for _ in range(2))
    for mech in (block, ref):
        mech._move([(1, BuyerState.GOOD, BuyerState.BAD)], 0)
    assert block.config.bad_reserve == 0.0
    table = np.full((block.params.horizon, 2), -0.0)
    block.run_block(table_bids(table), np.zeros(len(table)))
    while ref.phase == BAD_PHASE:
        ref.run_round({1: -0.0})
    assert block.t == ref.t and _books(block) == _books(ref)
    assert math.copysign(1.0, block._epoch.bad_revenue) == 1.0


def test_run_block_settles_nothing_after_a_phases_first_round():
    """Past a phase's first round ``run_block`` reads no bid, settles no row
    and leaves the books as they are, in either phase."""
    mech = fresh(n=3)
    mech._move([(2, BuyerState.GOOD, BuyerState.BAD)], 0)
    asked = []

    def refused(view, ids, rounds):
        asked.append(ids)
        raise AssertionError("no bid is read past a phase's first round")

    for phase in (BAD_PHASE, GOOD_PHASE):
        while mech.phase != phase:
            mech.run_round({i: 0.0 for i in mech.participants()})
        mech.run_round({i: 0.0 for i in mech.participants()})
        books = _books(mech)
        rounds, winners, payments = mech.run_block(refused, np.zeros(mech.params.horizon))
        assert (rounds.size, winners.size, payments.size) == (0, 0, 0)
        assert _books(mech) == books and mech.phase == phase
    assert asked == []
