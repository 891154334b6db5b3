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
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import cached_property, lru_cache
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

# run_block covers the coming epochs within this many rounds of its first,
# which bounds the bids it holds; the current phase it settles whole
_PLAN_ROUNDS = 4096


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


@lru_cache(maxsize=1024)
def _rosters(states: tuple[BuyerState, ...]) -> dict[str, tuple[int, ...]]:
    """``_roster`` of both phases, by phase; never mutated."""
    return {phase: _roster(states, phase) for phase in (GOOD_PHASE, BAD_PHASE)}


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
    they read no bid and no tie draw.  ``run_block(bids_for, ties)`` settles
    a phase from its first round in numpy, from one bid array of bidders
    that bid ahead: a rest masks its buyer from the next round on, and the
    idle tail after the last rest is booked too.  It stops before a round
    holding a bid that is not a finite number >= 0 or the threshold
    crossing with bidders, which are left to ``run_round``, as is every
    round of a phase it did not start.  When the buyer partition held
    through the previous epoch, the same array also covers that phase in
    the coming epochs, whose rows are kept until their phase starts.
    Neither keeps an outcome, and both leave the mechanism exactly as the
    ``run_round`` calls of their rounds would.  All three end with
    ``advance(rounds)``, the only code that moves ``t`` and books a phase
    end, an epoch end, the reset or a phase settled ahead.

    ``states`` is the tuple of buyer states the current round runs under;
    ``view()`` and each outcome's ``states_before`` hold it as it is.
    ``_move``, its only writer, installs a new tuple from a given round on,
    with the rosters ``_roster`` gives.  ``state_rounds[i][s]`` counts the
    rounds buyer ``i`` spent in state ``s``; ``_move`` and ``finish()`` bring
    it up to date.

    The open epoch's ``EpochRecord`` is filled in as rounds settle and
    appended to ``epoch_records`` when the epoch closes or ``finish()`` ends
    the run.  ``uncleared`` and ``allocations`` read its counts: the uncleared
    good rounds and the wins per buyer, a tuple that each win replaces.
    ``_add_uncleared`` adds rounds to the first, and ``_book`` sets both,
    with the threshold round and its bidders, from the rows of a phase
    ``run_block`` settled.
    """

    def __init__(self, params: MechanismParams, dist: ValueDistribution):
        self.params = params
        self.dist = dist
        self.t = 0
        self.states: tuple[BuyerState, ...] = (BuyerState.GOOD,) * params.n
        self.epoch_records: list[EpochRecord] = []
        self.state_rounds = [[0, 0, 0] for _ in range(params.n)]
        self._states_since = 0
        # rows that run_block settled ahead, by the round their phase starts
        self._planned: dict[int, tuple] = {}
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
        return self._rosters[self._phase]

    def view(self) -> AgentView:
        rosters = self._rosters
        return AgentView(
            self.t,
            self._phase,
            self._epoch.config,
            self._epoch.uncleared,
            self.states,
            len(rosters[GOOD_PHASE]),
            len(rosters[BAD_PHASE]),
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
        ids = self._rosters[self._phase]
        reserve = cfg.good_reserve if good else cfg.bad_reserve
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

    def run_block(self, bids_for, ties: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Settle the current phase from its first round in one bid array,
        and the same phase of the coming epochs when the partition held.

        ``bids_for(view, ids, rounds)`` returns the bids of the phase's
        buyers ``ids`` in the rounds of the int array ``rounds``, as a float
        array of shape ``(len(ids), len(rounds))`` bid under ``view``.
        ``ties[t]`` is round ``t``'s tie draw.  Past the phase's first round,
        or when the phase has no bidders, it settles nothing.  The phase is
        settled up to the first round holding a bid that is not a finite
        number >= 0, or the threshold crossing with bidders: both are left
        to ``run_round``.  A rest masks its winner from the next round on,
        so rests apply in the order they happen, and an idle tail is booked
        with its crossing, if any.

        When the last closed epoch started from the current partition and
        moved nobody to the bad state, the same bids cover that phase in the
        coming epochs too, within ``_PLAN_ROUNDS`` rounds, before the pending
        reset and up to the horizon; a bad phase only up to the first good
        phase not settled ahead.  Every row starts as the phase does, from
        the epoch-start roster and no wins or uncleared rounds.  They are
        kept up to the first epoch holding an invalid bid or the crossing
        with bidders, and booked when their phase starts.

        Returns ``(rounds, winners, payments)``, arrays of shape ``(epochs,
        rounds of the phase)`` from the current epoch on: each row's round,
        -1 if this call settled none, its winner, -1 if none, and its
        payment.  Revenue is added in round order.
        """
        ids, epoch = self.participants(), self._epoch
        cfg, good, t = epoch.config, self._phase == GOOD_PHASE, self.t
        horizon = self.params.horizon
        start = epoch.start + (cfg.bad_rounds if good else 0)  # of the phase
        if t != start or not ids or t >= horizon:
            return np.empty((0, 0), dtype=int), np.empty((0, 0), dtype=int), np.empty((0, 0))
        length = cfg.bad_rounds + cfg.good_rounds
        size = cfg.good_rounds if good else cfg.bad_rounds
        # no row at or past the horizon or the pending reset
        limit, reset = horizon, self.params.reset_round
        if reset is not None and max(reset, 1) > t:
            limit = min(limit, max(reset, 1))
        epochs = 1
        last = self.epoch_records[-1] if self.epoch_records else None
        if last and not last.punishments and last.good_start == epoch.good_start:
            while True:  # add the coming epochs the phase is settled ahead in
                begin = t + epochs * length
                if begin >= limit or min(begin + size, limit) > t + _PLAN_ROUNDS:
                    break
                # the good phase before it, if not settled ahead, may punish
                # someone (an empty one moves nobody)
                if not good and epoch.good_start and begin - cfg.good_rounds not in self._planned:
                    break
                epochs += 1
        rounds = (t + length * np.arange(epochs))[:, None] + np.arange(size)
        # rounds from the limit on are bid too, and settled by no row
        bids = bids_for(self.view(), ids, np.minimum(rounds, horizon - 1).ravel())
        live = rounds < limit
        bids = bids.reshape((len(ids),) + rounds.shape)
        valid = live & (bids >= 0.0) & (bids < math.inf)  # nan fails both
        tie = ties[np.minimum(rounds, horizon - 1)]
        rows = self._settle_rows(np.where(valid, bids, -math.inf), valid, live, tie)
        return self._keep_rows(rounds, live, ids, *rows)

    def _settle_rows(self, masked, valid, live, tie):
        """Settle the rows of ``masked``, an (epochs, size) grid of bids per
        buyer of the phase, -inf where it does not bid: each row's winner,
        as a position among the buyers (-1 if none), top bid and bidder
        count, the column each buyer rested at (-1 if none), each epoch's
        crossing in an idle tail (-1 if none) and the column each epoch
        stops before (``size`` if none).  Each rest masks its buyer in
        ``masked``."""
        cfg = self._epoch.config
        (m, epochs, size), good = masked.shape, self._phase == GOOD_PHASE
        reserve = cfg.good_reserve if good else cfg.bad_reserve
        # the column from which each buyer sits out, ``size`` while it bids
        out = np.full((m, epochs), size)
        rested = np.full((m, epochs), -1)
        # positions in the roster, and -1, in the narrowest int type
        position = np.min_scalar_type(-m)
        winner, best = np.empty(live.shape, dtype=position), np.empty(live.shape)
        buyers = np.arange(m)[:, None, None]
        # columns before ``lo`` are settled in every epoch, and ``won``
        # counts each buyer's wins there
        lo, won = 0, np.zeros((m, epochs), dtype=int)
        while True:
            bids = masked[:, :, lo:]
            best[:, lo:] = top_bid = bids.max(axis=0)
            picked = np.zeros(top_bid.shape, dtype=position)
            if m > 1:
                # tied[int(tie * len(tied))] over the tied bidders, in id order
                top = bids == top_bid
                pick = (tie[:, lo:] * top.sum(axis=0, dtype=position)).astype(position)
                seen = top[0].astype(position)
                for j, is_top in enumerate(top[1:], 1):
                    picked += (is_top & (seen == pick)) * position.type(j)
                    seen += is_top
            winner[:, lo:] = picked = np.where(top_bid < reserve, -1, picked)
            if not good:
                break
            # each epoch's first rest after the ones already masked: the
            # column of a buyer's quota-th win, from its wins in
            # (buyer, epoch, column) order
            wins = picked == buyers
            count = wins.sum(axis=2)
            need = self.params.rest_threshold - won
            due = (count >= need) & (out == size)
            first = (np.cumsum(count) - count.ravel()).reshape(m, epochs)
            ends = np.full((m, epochs), size)
            ends[due] = lo + np.flatnonzero(wins)[first[due] + need[due] - 1] % (size - lo)
            new = np.flatnonzero(ends.min(axis=0) < size)
            if not len(new):
                break
            who = ends[:, new].argmin(axis=0)
            at = ends[who, new]
            after = np.arange(size) > at[:, None]
            out[who, new], rested[who, new] = at + 1, at
            if (out[:, new] < size).all():
                # everyone has rested in these epochs: the rest is idle
                winner[new] = np.where(after, -1, winner[new])
                best[new] = np.where(after, -math.inf, best[new])
                break
            masked[who, new] = np.where(after, -math.inf, masked[who, new])
            step = int(at.min()) + 1 - lo
            won += wins[:, :, :step].sum(axis=2)
            lo += step
        bidding = live & (np.arange(size) < out[:, :, None])
        bidders = bidding.sum(axis=0)
        invalid = (bidding & ~valid).any(axis=0)
        stop = np.full(epochs, size)
        held = invalid.any(axis=1)
        stop[held] = invalid.argmax(axis=1)[held]
        crossing = np.full(epochs, -1)
        if good:
            reached = np.cumsum(live & (winner < 0), axis=1) >= cfg.uncleared_threshold
            at = reached.argmax(axis=1)
            crossed = reached[:, -1]
            busy = crossed & (bidders[np.arange(epochs), at] > 0)
            stop[busy] = np.minimum(stop, at)[busy]
            crossing[crossed & ~busy] = at[crossed & ~busy]
        return winner, best, bidders, rested, crossing, stop

    def _keep_rows(self, rounds, live, roster, winner, best, bidders, rested, crossing, stop):
        """Book the settled rows of the current epoch, keep those of the
        coming epochs up to the first that stops early, and return
        ``run_block``'s arrays."""
        size, good = rounds.shape[1], self._phase == GOOD_PHASE
        stops, keep = stop.tolist(), 1
        while keep < len(stops) and stops[keep - 1] == size and stops[keep] == size:
            keep += 1
        rounds, winner, best, bidders = rounds[:keep], winner[:keep], best[:keep], bidders[:keep]
        settled = live[:keep] & (np.arange(size) < stop[:keep, None])
        cleared = settled & (winner >= 0)
        # a bid of -0.0 is paid as 0.0, as run_round records it
        payments = np.where(cleared, best, 0.0) + 0.0
        # in round order, as run_round adds them (np.sum adds pairwise)
        revenue = np.add.accumulate(payments, axis=1)[:, -1].tolist()
        count = settled.sum(axis=1).tolist()
        idle = (settled & (bidders == 0)).sum(axis=1).tolist()
        books = [[n, r, i] for n, r, i in zip(count, revenue, idle)]
        firsts = rounds[:, 0].tolist()
        if good:
            uncleared = (settled & (winner < 0)).sum(axis=1).tolist()
            wins = [(cleared & (winner == j)).sum(axis=1).tolist() for j in range(len(roster))]
            rests, crossing = rested[:, :keep].T.tolist(), crossing.tolist()
            for k, (row, won) in enumerate(zip(books, zip(*wins))):
                allocations = [0] * self.params.n
                for i, w in zip(roster, won):
                    allocations[i] += w
                first, end, at = firsts[k], stops[k], crossing[k]
                since = [(first + r + 1, i) for r, i in zip(rests[k], roster) if 0 <= r < end]
                row += [
                    tuple(allocations),
                    uncleared[k],
                    tuple(sorted(since)),
                    first + at if 0 <= at < end else None,
                ]
        for row, first in zip(books[1:], firsts[1:]):
            self._planned[first] = tuple(row)
        if count[0]:
            self.advance(self._book(books[0]))
        winners = np.where(cleared, np.array(roster)[np.maximum(winner, 0)], -1)
        return np.where(settled, rounds, -1), winners, payments

    def _book(self, row) -> int:
        """Book the counts of a phase's rows settled by ``run_block``: its
        revenue, idle rounds and, in a good phase, allocations, uncleared
        count, rests and crossing; returns the rows, for ``advance``."""
        epoch = self._epoch
        if self._phase == BAD_PHASE:
            rounds, epoch.bad_revenue, idle = row
        else:
            rounds, epoch.good_revenue, idle, epoch.allocations, epoch.uncleared, rests, at = row
            if at is not None:  # in an idle tail: nobody bids
                epoch.threshold_round, epoch.good_at_threshold = at, ()
            for since, i in rests:
                self._move(((i, BuyerState.GOOD, BuyerState.REST),), since)
            epoch.rests += len(rests)
        epoch.idle_rounds += idle
        return rounds

    def advance(self, rounds: int = 1) -> None:
        """Move on past ``rounds`` settled rounds and book what ends with the
        last of them: a phase switch, an epoch end or the reset, and then the
        rows of a phase ``run_block`` settled ahead, if one starts.  Only
        ``run_round``, ``run_idle`` and ``run_block`` call it, and none of
        their rounds but the last can end the phase or fire the reset."""
        while True:
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
            row = self._planned.pop(self.t, None)
            if row is None:
                return
            rounds = self._book(row)

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
        states tuple and its rosters, by phase."""
        held = since - self._states_since
        for row, s in zip(self.state_rounds, self.states):
            row[s] += held
        self._states_since = since
        states = list(self.states)
        for i, _, to in moves:
            states[i] = to
        self.states = states = tuple(states)
        self._rosters = _rosters(states)

    def _add_uncleared(self, rounds: int) -> None:
        """Count ``rounds`` uncleared good rounds from the current one on, and
        record the one that reaches the threshold, if any, with the good
        roster as its bidders: callers add before the round's moves."""
        epoch = self._epoch
        crossing = epoch.config.uncleared_threshold - epoch.uncleared - 1
        if 0 <= crossing < rounds:
            epoch.threshold_round = self.t + crossing
            epoch.good_at_threshold = self._rosters[GOOD_PHASE]
        epoch.uncleared += rounds

    def _start_epoch(self, reset: bool = False) -> None:
        # rested buyers return to the good state, and on a reset bad ones too
        returning = (BuyerState.REST, BuyerState.BAD) if reset else (BuyerState.REST,)
        self._move(
            [(i, s, BuyerState.GOOD) for i, s in enumerate(self.states) if s in returning],
            self.t,
        )
        good, bad = self._rosters[GOOD_PHASE], self._rosters[BAD_PHASE]
        last = self._epoch if self.epoch_records else None
        if last and (last.good_start, last.bad_start) == (good, bad):
            # the config depends on the partition alone
            config = replace(last.config, index=self.epoch_index)
        else:
            config = derive_epoch_config(self.params, good, bad, self.dist, index=self.epoch_index)
        # an epoch after one without wins keeps that epoch's tuple of zeros
        zeros = last.allocations if last else ()
        if not zeros or any(zeros):
            zeros = (0,) * self.params.n
        self._epoch = EpochRecord(config, self.t, good_start=good, bad_start=bad, allocations=zeros)
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
