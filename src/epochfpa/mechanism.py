"""Epoch-scheduled repeated first-price auctions with good/bad/rest buyer states.

Every buyer starts in the good state.  Each epoch first runs a block of
auctions among bad-state buyers, then a longer block among good-state buyers,
with reserve prices fixed for the epoch from the current state counts.  During
the good block a buyer is punished (moved to the absorbing bad state) for
bidding below the reserve once too many auctions have gone uncleared, and is
temporarily rested after winning its per-epoch allocation quota.  Rested
buyers return to the good state when the next epoch starts.

Transition rules fire in a fixed order after each good-block auction: first
the uncleared-threshold punishment, then the rest move for the round's winner.
A winner has necessarily bid at least the reserve, so the order cannot punish
a winner; it is fixed purely for determinism.

The punishment fires in the round that reaches the uncleared threshold: that
round is uncleared, so it punishes every good bidder in it, and nobody bids in
a good round past the threshold.  ``EpochRecord.good_at_threshold`` holds its
bidders, before the punishments.  The rule is kept because the golden tests
and the benchmark reference pin it, and punishing only after the crossing left
the ``lemma-b1``, ``lemma-b3`` and ``theorem-1`` figures unchanged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .distributions import (
    ValueDistribution,
    _integer,
    _number,
    tail_quantile,
    upper_tail_mean,
    win_quantile,
)

__all__ = [
    "MechanismError",
    "BuyerState",
    "GOOD_PHASE",
    "BAD_PHASE",
    "MechanismParams",
    "EpochConfig",
    "derive_epoch_config",
    "AgentView",
    "RoundOutcome",
    "EpochRecord",
    "Mechanism",
]

GOOD_PHASE = "good"
BAD_PHASE = "bad"


class MechanismError(ValueError):
    """Invalid mechanism parameters or an ill-formed round."""


class BuyerState(IntEnum):
    GOOD = 0
    BAD = 1
    REST = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class MechanismParams:
    """Global mechanism parameters, validated at construction.

    ``rho`` must satisfy both admissibility caps (the tighter of
    eps*(1-eps)^4/12 and eps*(1-eps)*(1-delta)*(1-rho)/(12*(1+eps))), which
    is what the revenue guarantees require.
    """

    n: int
    horizon: int
    epsilon: float
    delta: float
    rho: float
    reset_round: Optional[int] = None
    # opt-out for schedule arithmetic only; the revenue guarantees need the cap
    enforce_rho_cap: bool = True

    def __post_init__(self):
        for name, minimum in (("n", 1), ("horizon", 0), ("reset_round", 0)):
            x = getattr(self, name)
            if name != "reset_round" or x is not None:  # None: no reset
                object.__setattr__(self, name, _integer(x, name, MechanismError, minimum))
        for name in ("epsilon", "delta", "rho"):
            if not 0.0 < _number(getattr(self, name), name, MechanismError) < 1.0:
                raise MechanismError(f"{name} must lie strictly inside (0, 1)")
        if self.enforce_rho_cap and self.rho > self.rho_cap + 1e-15:
            raise MechanismError(
                f"rho={self.rho} exceeds the admissible cap {self.rho_cap:.8g}"
            )

    @property
    def rho_cap(self) -> float:
        eps, delta, rho = self.epsilon, self.delta, self.rho
        cap_main = eps * (1.0 - eps) ** 4 / 12.0
        cap_cons = eps * (1.0 - eps) * (1.0 - delta) * (1.0 - rho) / (12.0 * (1.0 + eps))
        return min(cap_main, cap_cons)

    @cached_property
    def rest_threshold(self) -> int:
        """Allocations a buyer may win per epoch before being rested."""
        return max(1, math.ceil(4.0 * math.log(1.0 / self.epsilon) / self.delta**2))

    def epoch_length(self, good_count: int) -> int:
        """Rounds in an epoch that opens with ``good_count`` good buyers."""
        return math.ceil(
            2.0 * self.rest_threshold * good_count / ((1.0 - self.delta) * (1.0 - self.rho))
        )

    @property
    def max_epoch_length(self) -> int:
        return self.epoch_length(self.n)

    @property
    def lookahead_threshold(self) -> int:
        """Smallest lookahead depth that guarantees never entering the bad state."""
        eps = self.epsilon
        return math.ceil(10.0 / (eps * (1.0 - eps)) * self.max_epoch_length)


@dataclass(frozen=True)
class EpochConfig:
    """Per-epoch derived quantities; reserves stay fixed for the whole epoch."""

    index: int
    good_count: int
    bad_count: int
    bad_rounds: int
    good_rounds: int
    good_reserve: float
    bad_reserve: float
    good_cutoff: float
    bad_cutoff: float
    uncleared_threshold: int


def derive_epoch_config(
    params: MechanismParams,
    good_set,
    bad_set,
    dist: ValueDistribution,
    index: int = 0,
) -> EpochConfig:
    """Compute the epoch schedule and reserves from the current state partition.

    ``good_set`` and ``bad_set`` must partition the buyers (nobody rests at an
    epoch boundary).  Fractional schedule lengths are rounded with ceilings,
    which preserves every lower bound the revenue analysis relies on.
    """
    good_set, bad_set = set(good_set), set(bad_set)
    if good_set & bad_set:
        raise MechanismError("good and bad sets overlap")
    if good_set | bad_set != set(range(params.n)):
        raise MechanismError("good and bad sets must partition the buyers")
    m_good = max(1, len(good_set))
    m_bad = max(math.ceil(params.n / 2), len(bad_set))
    length = params.epoch_length(m_good)
    bad_rounds = math.ceil(params.rho * length)
    good_rounds = length - bad_rounds
    bad_q = tail_quantile(dist, m_bad)
    bad_p = win_quantile(dist, m_bad)
    bad_reserve = bad_p - (params.epsilon / params.n) * bad_q
    if bad_reserve < (1.0 - params.epsilon / params.n) * bad_q - 1e-9:
        raise MechanismError("bad reserve fell below its quantile floor")
    return EpochConfig(
        index=index,
        good_count=m_good,
        bad_count=m_bad,
        bad_rounds=bad_rounds,
        good_rounds=good_rounds,
        good_reserve=(1.0 - params.epsilon) * upper_tail_mean(dist, m_good),
        bad_reserve=bad_reserve,
        good_cutoff=tail_quantile(dist, m_good),
        bad_cutoff=bad_p,
        uncleared_threshold=math.ceil(m_good * params.rest_threshold / (1.0 - params.delta)),
    )


def _roster(states: tuple[BuyerState, ...], phase: str) -> tuple[int, ...]:
    """The buyers who bid in ``phase`` under ``states``, in id order: the bad
    ones in the bad phase, the good ones in the good phase."""
    bidder = BuyerState.BAD if phase == BAD_PHASE else BuyerState.GOOD
    return tuple(i for i, s in enumerate(states) if s == bidder)


class AgentView(NamedTuple):
    """Everything an agent may condition on when bidding in the current round."""

    t: int
    phase: str
    config: EpochConfig
    uncleared: int
    states: tuple[BuyerState, ...]
    num_good: int
    num_bad: int


class RoundOutcome(NamedTuple):
    """Public log of one auction round."""

    t: int
    phase: str
    epoch: int
    participants: tuple[int, ...]
    bids: dict[int, float]
    winner: Optional[int]
    payment: float
    cleared: bool
    transitions: tuple[tuple[int, BuyerState, BuyerState], ...]
    uncleared_before: int
    uncleared: int
    allocations: tuple[int, ...]
    states_before: tuple[BuyerState, ...]


@dataclass
class EpochRecord:
    """Per-epoch accounting, filled in as the epoch's rounds settle and
    appended to ``Mechanism.epoch_records`` when it closes (or is truncated);
    ``end`` is ``None`` while the epoch is open.  ``uncleared`` and
    ``allocations`` are the epoch's counts so far, the only copy of them:
    ``Mechanism`` reads them, and a closed record keeps its last round's."""

    config: EpochConfig
    start: int
    end: Optional[int] = None
    completed: bool = False
    reset: bool = False
    good_revenue: float = 0.0
    bad_revenue: float = 0.0
    good_start: tuple[int, ...] = ()
    bad_start: tuple[int, ...] = ()
    good_end: tuple[int, ...] = ()
    uncleared: int = 0
    allocations: tuple[int, ...] = ()
    threshold_round: Optional[int] = None
    good_at_threshold: Optional[tuple[int, ...]] = None
    # rounds of the epoch whose phase had no participants, and its GOOD->BAD
    # and GOOD->REST moves (none of the three is in the epoch CSV)
    idle_rounds: int = 0
    punishments: int = 0
    rests: int = 0


class Mechanism:
    """Mutable state machine running the epoch schedule round by round.

    The caller drives it: collect bids from ``participants()`` and pass them
    to ``run_round``, the one round body for both phases, which settles the
    round and moves on to the next.  Tie-breaking consumes exactly one
    uniform draw per round, supplied by the caller, so replays under common
    random numbers stay aligned.

    No round runs at or past ``params.horizon``: ``run_round`` raises
    there.  When ``participants()`` is empty, ``run_idle()`` runs the rounds
    up to the end of the phase, the pending reset or the horizon at once;
    they read no bid and no tie draw.  ``run_block(bids, ties)`` settles the
    bids of the coming rounds, given as one array, in numpy.  A round whose
    only event is a rest ends the block and is settled with it, the winner
    rested from the next round on.  The block stops before the first round
    holding any other event (an invalid bid, a punishment, the threshold
    crossing, the end of the phase or the reset), which is left to
    ``run_round``, and before the horizon.  ``block_room()`` bounds the
    rounds it can settle within the phase.  Neither keeps an outcome, and
    both leave the mechanism exactly as the ``run_round`` calls of their
    rounds would.  All three end with ``advance(rounds)``, the only code that
    moves ``t`` and books a phase end, an epoch end or the reset.

    ``states`` is the tuple of buyer states the current round runs under;
    ``view()`` and each outcome's ``states_before`` hold it as it is.
    ``_move``, its only writer, installs a new tuple from a given round on,
    with the rosters ``_roster`` gives.  ``state_rounds[i][s]`` counts the
    rounds buyer ``i`` spent in state ``s``; ``_move`` and ``finish()`` bring
    it up to date.

    The open epoch's ``EpochRecord`` is filled in as rounds settle and
    appended to ``epoch_records`` when the epoch closes or ``finish()`` ends
    the run.  ``uncleared`` and ``allocations`` read its counts: the uncleared
    good rounds, which only ``_add_uncleared`` adds to, and the wins per
    buyer, a tuple that each win replaces.
    """

    def __init__(self, params: MechanismParams, dist: ValueDistribution):
        self.params = params
        self.dist = dist
        self.t = 0
        self.states: tuple[BuyerState, ...] = (BuyerState.GOOD,) * params.n
        self.epoch_records: list[EpochRecord] = []
        self.state_rounds = [[0, 0, 0] for _ in range(params.n)]
        self._states_since = 0
        self._start_epoch()

    # -- state inspection ---------------------------------------------------

    @property
    def config(self) -> EpochConfig:
        return self._epoch.config

    @property
    def uncleared(self) -> int:
        return self._epoch.uncleared

    @property
    def allocations(self) -> tuple[int, ...]:
        return self._epoch.allocations

    @property
    def phase(self) -> str:
        return self._phase

    @property
    def epoch_index(self) -> int:
        return len(self.epoch_records)

    def participants(self) -> tuple[int, ...]:
        return self._bad_ids if self._phase == BAD_PHASE else self._good_ids

    def view(self) -> AgentView:
        return AgentView(
            self.t,
            self._phase,
            self._epoch.config,
            self._epoch.uncleared,
            self.states,
            len(self._good_ids),
            len(self._bad_ids),
        )

    # -- rounds ---------------------------------------------------------------

    def run_round(self, bids: dict[int, float], tie: float = 0.0) -> RoundOutcome:
        """First-price auction among the current phase's participants.

        A bad-phase auction never moves anyone.  In the good phase an
        uncleared auction bumps the uncleared counter.  Once the counter has
        reached the epoch threshold, every good buyer bidding below the
        reserve is moved to the bad state; a winner reaching the allocation
        quota is rested.  The outcome holds each bid, and the payment, as a
        plain ``float``, a bid of ``-0.0`` as ``0.0``.  A round at or past
        the horizon raises ``MechanismError``.
        """
        if self.t >= self.params.horizon:
            raise MechanismError(f"round {self.t} is past the horizon T={self.params.horizon}")
        epoch, cfg = self._epoch, self._epoch.config
        states_before = self.states
        uncleared_before = epoch.uncleared
        good = self._phase == GOOD_PHASE
        if good:
            ids, reserve = self._good_ids, cfg.good_reserve
        else:
            ids, reserve = self._bad_ids, cfg.bad_reserve
        bids = self._check_bids(bids, ids)
        winner, payment = None, 0.0
        if bids:
            winner, payment = self._settle(bids, ids, reserve, tie)
        else:
            epoch.idle_rounds += 1
        transitions = ()
        if good:
            if winner is not None:
                allocations = list(epoch.allocations)
                allocations[winner] += 1
                epoch.allocations = tuple(allocations)
                epoch.good_revenue += payment
            else:
                self._add_uncleared(1)
            moves = []
            if epoch.uncleared >= cfg.uncleared_threshold and bids:
                for i in ids:
                    if bids[i] < reserve:
                        moves.append((i, BuyerState.GOOD, BuyerState.BAD))
                        epoch.punishments += 1
            if winner is not None and epoch.allocations[winner] >= self.params.rest_threshold:
                moves.append((winner, BuyerState.GOOD, BuyerState.REST))
                epoch.rests += 1
            if moves:
                transitions = tuple(moves)
                # the moves take effect from the next round on
                self._move(transitions, self.t + 1)
        elif winner is not None:
            epoch.bad_revenue += payment
        # positional, in field order: keywords would double the cost
        outcome = RoundOutcome(
            self.t,
            self._phase,
            cfg.index,
            ids,  # participants
            bids,
            winner,
            payment,
            winner is not None,  # cleared
            transitions,
            uncleared_before,
            epoch.uncleared,  # bad rounds leave it alone
            epoch.allocations,
            states_before,
        )
        self.advance()
        return outcome

    def run_idle(self) -> int:
        """Run the rounds of a phase that has no participants.

        Stops at the end of the phase, at the pending reset or at the
        horizon, whichever comes first, and returns the number of rounds
        run: 0 if the phase has participants or the horizon is reached,
        otherwise at least 1.  The state afterwards is that of as many
        ``run_round({})`` calls.
        """
        if self.t >= self.params.horizon or self.participants():
            return 0
        # up to and including the round that ends the phase or fires the reset
        k = min(self.params.horizon - self.t, self._rounds_left)
        if self._phase == GOOD_PHASE:  # an empty good auction is uncleared
            self._add_uncleared(k)
        self._epoch.idle_rounds += k
        self.advance(k)
        return k

    def block_room(self) -> int:
        """Rounds that can run from the current one before the round that
        ends the phase or fires the pending reset."""
        return self._rounds_left - 1

    def run_block(
        self, bids: np.ndarray, ties: np.ndarray
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """Settle the leading event-free rows of a block of rounds at once.

        Row ``r`` of the float array ``bids`` holds the bids of
        ``participants()``, in that order, in round ``t + r``, and
        ``ties[r]`` is that round's tie draw.  The block stops before the
        first row with an event: a bid that is not a finite number >= 0, the
        threshold crossing, or a row past ``block_room()`` or the horizon.
        Once the threshold is reached it settles nothing.  A row whose winner
        reaches the rest quota, with none of these, is settled as the last
        row, and its winner is rested.  Returns the ``k`` rows settled, each one's
        winner (-1 if uncleared) and payment.  The state afterwards is that
        of ``k`` ``run_round`` calls; revenue is added in round order.
        """
        ids = self.participants()
        k = min(len(bids), self.block_room(), self.params.horizon - self.t)
        epoch, cfg = self._epoch, self._epoch.config
        good = self._phase == GOOD_PHASE
        # no run has a good bidder past the threshold, since the crossing
        # round is uncleared and so punishes every bidder in it
        if k < 1 or not ids or good and epoch.uncleared >= cfg.uncleared_threshold:
            return 0, np.empty(0, dtype=int), np.empty(0)
        bids, ties = bids[:k], ties[:k]
        reserve = cfg.good_reserve if good else cfg.bad_reserve
        best, col = bids.max(axis=1), bids.argmax(axis=1)  # the first top bid
        # a NaN reaches both; the round of an invalid bid is left to run_round
        valid = bids.min() >= 0.0 and best.max() < math.inf
        stop = k if valid else int((~((bids >= 0.0) & (bids < math.inf)).all(axis=1)).argmax())
        if len(ids) > 1:
            top = bids == best[:, None]
            if not valid or top.sum() > k:  # some row has a tie
                # tied[int(tie * len(tied))] over the tied ids, in participant order
                pick = (ties * top.sum(axis=1)).astype(int)
                col = (top.cumsum(axis=1) > pick[:, None]).argmax(axis=1)
        cleared = best >= reserve
        rest = k  # the first row that rests its winner
        if good:
            need = cfg.uncleared_threshold - epoch.uncleared
            if k - np.count_nonzero(cleared) >= need:
                stop = min(stop, int(np.flatnonzero(~cleared)[need - 1]))
            wins = np.bincount(col[cleared], minlength=len(ids)).tolist()
            for j, i in enumerate(ids):
                quota = self.params.rest_threshold - epoch.allocations[i]
                if wins[j] >= quota:
                    rest = min(rest, int(np.flatnonzero(cleared & (col == j))[quota - 1]))
        k = rest + 1 if rest < stop else stop
        cleared, col = cleared[:k], col[:k]
        payments = np.where(cleared, best[:k], 0.0)
        winners = np.where(cleared, np.array(ids)[col], -1)
        # revenue in round order, as run_round adds it (np.sum adds pairwise)
        revenue = epoch.good_revenue if good else epoch.bad_revenue
        for payment in payments.tolist():
            revenue += payment
        if good:
            if k < len(bids):
                wins = np.bincount(col[cleared], minlength=len(ids)).tolist()
            allocations = list(epoch.allocations)
            for i, count in zip(ids, wins):
                allocations[i] += count
            epoch.allocations = tuple(allocations)
            # the block stops before the crossing, so this records none
            self._add_uncleared(k - int(np.count_nonzero(cleared)))
            epoch.good_revenue = revenue
        else:
            epoch.bad_revenue = revenue
        if rest < k:
            epoch.rests += 1
            # the rest takes effect from the next round on
            self._move(((ids[col[rest]], BuyerState.GOOD, BuyerState.REST),), self.t + k)
        # no row reaches the end of the phase or the reset
        self.advance(k)
        return k, winners, payments

    def advance(self, rounds: int = 1) -> None:
        """Move on past ``rounds`` settled rounds and book what ends with the
        last of them: a phase switch, an epoch end or the reset.  Only
        ``run_round``, ``run_idle`` and ``run_block`` call it, and none of
        their rounds but the last can end the phase or fire the reset."""
        self.t += rounds
        self._rounds_left -= rounds
        if self._rounds_left > 0:
            return
        reset = self.params.reset_round
        # the countdown ends on the reset round, max(reset_round, 1), while
        # the reset is pending: a reset at round 0 fires after round 0
        if reset is not None and self.t == max(reset, 1):
            self._close_epoch(completed=False, reset=True)
            self._start_epoch(reset=True)
        elif self._phase == BAD_PHASE:
            self._phase = GOOD_PHASE
            self._count_down(self._epoch.config.good_rounds)
        else:
            self._close_epoch(completed=True)
            self._start_epoch()

    def finish(self) -> None:
        """Count ``state_rounds`` up to the current round and record the final
        partial epoch, if any rounds of it were executed; a second call
        records nothing more."""
        if self._epoch.end is None and self.t > self._epoch.start:
            self._close_epoch(completed=False)
        self._move((), self.t)

    # -- internals ------------------------------------------------------------

    def _settle(self, bids, ordered_ids, reserve, tie):
        best = max(bids.values())
        if best < reserve:
            return None, 0.0
        tied = [i for i in ordered_ids if bids[i] == best]
        return (tied[int(tie * len(tied))] if len(tied) > 1 else tied[0]), best

    def _check_bids(self, bids, ids: tuple[int, ...]) -> dict[int, float]:
        """``bids`` as plain floats, once they come from exactly the
        participants and each is a nonnegative finite int or float."""
        # bids in participant order pass the first test; any order, the second
        if tuple(bids) != ids and bids.keys() != set(ids):
            raise MechanismError(
                f"bids must come from exactly the current participants {sorted(ids)}"
            )
        checked = {}
        for i, b in bids.items():
            # one test for a finite nonnegative float, the bid of every
            # built-in agent; a bool is an int, but True is no bid, and nan,
            # inf and an int too large for a float fail the range test
            if type(b) is not float or not 0.0 <= b < math.inf:
                if type(b) is bool or not (
                    isinstance(b, (int, float)) and 0.0 <= b <= sys.float_info.max
                ):
                    raise MechanismError(f"buyer {i} submitted an invalid bid {b!r}")
                b = float(b)
            checked[i] = b + 0.0  # -0.0 is recorded as 0.0
        return checked

    def _move(self, moves, since: int) -> None:
        """Apply ``moves``, ``(buyer, from, to)`` triples, from round ``since``
        on: count the rounds the current states held, then install the new
        states tuple and its rosters."""
        held = since - self._states_since
        for row, s in zip(self.state_rounds, self.states):
            row[s] += held
        self._states_since = since
        states = list(self.states)
        for i, _, to in moves:
            states[i] = to
        self.states = states = tuple(states)
        self._good_ids = _roster(states, GOOD_PHASE)
        self._bad_ids = _roster(states, BAD_PHASE)

    def _add_uncleared(self, rounds: int) -> None:
        """Count ``rounds`` uncleared good rounds from the current one on, and
        record the one that reaches the threshold, if any, with the good
        roster as its bidders: callers add before the round's moves."""
        epoch = self._epoch
        crossing = epoch.config.uncleared_threshold - epoch.uncleared - 1
        if 0 <= crossing < rounds:
            epoch.threshold_round = self.t + crossing
            epoch.good_at_threshold = self._good_ids
        epoch.uncleared += rounds

    def _start_epoch(self, reset: bool = False) -> None:
        # rested buyers return to the good state, and on a reset bad ones too
        returning = (BuyerState.REST, BuyerState.BAD) if reset else (BuyerState.REST,)
        self._move(
            [(i, s, BuyerState.GOOD) for i, s in enumerate(self.states) if s in returning],
            self.t,
        )
        config = derive_epoch_config(
            self.params, self._good_ids, self._bad_ids, self.dist, index=self.epoch_index
        )
        # an epoch after one without wins keeps that epoch's tuple of zeros
        zeros = self._epoch.allocations if self.epoch_records else ()
        if not zeros or any(zeros):
            zeros = (0,) * self.params.n
        self._epoch = EpochRecord(
            config, self.t, good_start=self._good_ids, bad_start=self._bad_ids, allocations=zeros
        )
        self._phase = BAD_PHASE
        self._count_down(config.bad_rounds)

    def _count_down(self, rounds: int) -> None:
        """Count down the ``rounds`` of a phase starting now, or the rounds up
        to the pending reset if it comes first."""
        reset = self.params.reset_round
        if reset is not None and max(reset, 1) > self.t:
            rounds = min(rounds, max(reset, 1) - self.t)
        self._rounds_left = rounds

    def _close_epoch(self, completed: bool, reset: bool = False) -> None:
        epoch = self._epoch
        epoch.end = self.t
        epoch.completed = completed
        epoch.reset = reset
        epoch.good_end = tuple(i for i, s in enumerate(self.states) if s != BuyerState.BAD)
        self.epoch_records.append(epoch)
