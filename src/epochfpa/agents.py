"""Buyer behavior classes and the benchmark expert strategies.

Four buyer kinds are shipped: myopic one-shot optimizers, deep-lookahead
buyers (realized as the never-punished good strategy, which dominates any
strategy that risks the bad state), adversarial-bandit learners over a finite
expert family, and explore-then-commit learners that pair with the
mechanism's one-time reset.

Expert strategies map an agent's view (its own state, the epoch's reserves)
and a (gridded) valuation to a bid.  The family always contains the two
benchmark experts the guarantees rely on: the good strategy itself, and the
bad-state threshold rule that bids the bad reserve whenever the valuation
clears the bad cutoff.
"""

from __future__ import annotations

import math
import numbers
import warnings
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import ValueDistribution, _integer, _number
from .mechanism import AgentView, BuyerState, MechanismParams

__all__ = [
    "AgentError",
    "Agent",
    "GoodStrategyAgent",
    "LookaheadAgent",
    "MyopicAgent",
    "Exp3Agent",
    "EtcAgent",
    "ExpertAgent",
    "Exp3Learner",
    "ValueGrid",
    "Expert",
    "ExpertFamily",
    "GOOD_TEMPLATE",
    "BAD_THRESHOLD",
    "ZERO_BID",
    "default_expert_family",
    "build_agent",
    "AGENT_KINDS",
]


class AgentError(ValueError):
    """Invalid agent configuration or learner usage."""


# ---------------------------------------------------------------------------
# expert strategies
# ---------------------------------------------------------------------------

GOOD_TEMPLATE = "good-template"
BAD_THRESHOLD = "bad-threshold"
ZERO_BID = "zero"


@dataclass(frozen=True)
class ValueGrid:
    """Uniform bid/value grid; valuations snap down to the nearest grid point."""

    lo: float
    hi: float
    step: float

    def __post_init__(self):
        step = self.step
        if (
            isinstance(step, bool)
            or not isinstance(step, numbers.Real)
            or not (math.isfinite(step) and step > 0)
        ):
            raise AgentError(f"grid step must be a positive finite number, got {step!r}")

    def snap(self, v: float) -> float:
        if v <= self.lo:
            return self.lo
        if v >= self.hi:
            return self.hi
        return self.lo + math.floor((v - self.lo) / self.step) * self.step

    def snap_all(self, values: np.ndarray) -> np.ndarray:
        """``snap`` of every value; ``np.floor`` gives the floats ``math.floor`` does."""
        inner = self.lo + np.floor((values - self.lo) / self.step) * self.step
        return np.where(values <= self.lo, self.lo, np.where(values >= self.hi, self.hi, inner))

    def levels(self, count: int) -> tuple[float, ...]:
        """Evenly spread interior bid levels, snapped onto the grid."""
        raw = np.linspace(self.lo, self.hi, count + 2)[1:-1]
        snapped = []
        for x in raw:
            s = self.snap(float(x))
            if s not in snapped:
                snapped.append(s)
        return tuple(snapped)


@dataclass(frozen=True)
class Expert:
    """A parameterized expert template.

    A ``level`` (and, for the bad-state rule, a ``cutoff``) of ``None`` means
    "use the current epoch's reserve/cutoff"; those two canonical experts
    evaluate the raw valuation so they reproduce the benchmark rules exactly,
    while fixed-level variants see the gridded valuation.
    """

    style: str
    level: Optional[float] = None
    cutoff: Optional[float] = None

    def __post_init__(self):
        if self.style not in (GOOD_TEMPLATE, BAD_THRESHOLD, ZERO_BID):
            raise AgentError(f"unknown expert style {self.style!r}")

    def rule(self, view: AgentView, buyer: int) -> tuple[float, float, bool]:
        """``(level, cutoff, snap)``: under ``view`` the buyer bids ``level``
        if its value, snapped to the grid when ``snap``, reaches ``cutoff``,
        and 0 otherwise.  A zero bid has ``cutoff = inf``."""
        cfg = view.config
        in_bad = view.states[buyer] == BuyerState.BAD
        if self.style == GOOD_TEMPLATE and not in_bad:
            if self.level is None:
                return cfg.good_reserve, cfg.good_cutoff, False
            return self.level, cfg.good_cutoff, True
        if self.style == BAD_THRESHOLD and in_bad:
            if self.level is None and self.cutoff is None:
                return cfg.bad_reserve, cfg.bad_cutoff, False
            level = cfg.bad_reserve if self.level is None else self.level
            cutoff = cfg.bad_cutoff if self.cutoff is None else self.cutoff
            return level, cutoff, True
        return 0.0, math.inf, False


@dataclass(frozen=True)
class ExpertFamily:
    experts: tuple[Expert, ...]
    grid: ValueGrid

    def __len__(self) -> int:
        return len(self.experts)

    def bid(self, index: int, view: AgentView, buyer: int, value: float) -> float:
        """Deterministic bid of expert ``index`` for the buyer's current view."""
        level, cutoff, snap = self.experts[index].rule(view, buyer)
        return level if (self.grid.snap(value) if snap else value) >= cutoff else 0.0

    def bids(self, index: int, view: AgentView, buyer: int, values: np.ndarray) -> np.ndarray:
        """``bid`` of every value in ``values`` under one view, equal to it bit for bit."""
        level, cutoff, snap = self.experts[index].rule(view, buyer)
        return np.where((self.grid.snap_all(values) if snap else values) >= cutoff, level, 0.0)


def default_expert_family(
    dist: ValueDistribution, levels: int = 6, grid_step: Optional[float] = None
) -> ExpertFamily:
    """Template family of size O(levels) containing both benchmark experts.

    The good strategy sits at index 0 so that exploration-order and tie-break
    conventions favor it.
    """
    lo, hi = dist.support_min, dist.support_max
    if hi <= lo:
        hi = lo + 1.0
    step = grid_step if grid_step is not None else (hi - lo) / 64.0
    grid = ValueGrid(lo, hi, step)
    experts = [Expert(GOOD_TEMPLATE), Expert(BAD_THRESHOLD), Expert(ZERO_BID)]
    for c in grid.levels(levels):
        experts.append(Expert(GOOD_TEMPLATE, level=c))
    for c in grid.levels(levels):
        experts.append(Expert(BAD_THRESHOLD, level=c, cutoff=c))
    return ExpertFamily(tuple(experts), grid)


# ---------------------------------------------------------------------------
# learners
# ---------------------------------------------------------------------------


def _gamma(gamma) -> float:
    """``gamma``, the exploration rate, as a ``float`` in (0, 1]; bools,
    strings and nan are refused."""
    if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real) or not 0.0 < gamma <= 1.0:
        raise AgentError(f"gamma must lie in (0, 1], got {gamma!r}")
    return float(gamma)


class Exp3Learner:
    """Adversarial-bandit learner over N arms with multiplicative weights.

    Arm selection probabilities are ``(1-gamma) * w_i / sum(w) + gamma / N``.
    Realized utilities are clipped at zero and scaled by the value-range bound
    before the importance-weighted update, so a zero-utility round leaves the
    weights untouched and the importance-weighted reward never exceeds
    ``N / gamma``.

    ``update`` is the only writer of ``weights``; it drops the cached
    selection distribution whenever it changes them.
    """

    def __init__(
        self,
        n_arms: int,
        gamma: float,
        reward_scale: float,
        rng: np.random.Generator,
    ):
        n_arms = _integer(n_arms, "n_arms", AgentError)
        if n_arms < 1:
            raise AgentError("need at least one arm")
        self.n_arms = n_arms
        self.gamma = _gamma(gamma)
        self.reward_scale = _number(reward_scale, "reward_scale", AgentError)
        if self.reward_scale <= 0.0:
            raise AgentError(f"reward_scale must be positive, got {reward_scale!r}")
        self.rng = rng
        self.weights = np.ones(n_arms)
        self._pending: Optional[tuple[int, float]] = None
        self._draw: Optional[tuple[list[float], list[float]]] = None

    def probabilities(self) -> np.ndarray:
        w = self.weights / self.weights.sum()
        return (1.0 - self.gamma) * w + self.gamma / self.n_arms

    def select_arm(self) -> tuple[int, float]:
        if self._pending is not None:
            raise AgentError("previous selection was never scored")
        if self._draw is None:
            p = self.probabilities()
            self._draw = (p.tolist(), np.cumsum(p).tolist())
        probs, cumulative = self._draw
        # the index np.searchsorted(cumulative, r, side="right") gives
        idx = min(bisect_right(cumulative, self.rng.random()), self.n_arms - 1)
        self._pending = (idx, probs[idx])
        return self._pending

    def update(self, utility: float) -> None:
        if self._pending is None:
            raise AgentError("update without a pending selection")
        idx, prob = self._pending
        self._pending = None
        reward = min(max(utility, 0.0), self.reward_scale) / self.reward_scale
        if reward == 0.0:
            # exp(0) = 1 and the largest weight is already 1.0: nothing moves
            return
        estimate = reward / prob
        self.weights[idx] *= math.exp(self.gamma * estimate / self.n_arms)
        self.weights /= self.weights.max()
        self._draw = None

    @staticmethod
    def tuned_gamma(n_arms: int, horizon: int) -> float:
        if horizon <= 0 or n_arms <= 1:
            return 1.0
        return min(
            1.0, math.sqrt(n_arms * math.log(n_arms) / ((math.e - 1.0) * horizon))
        )


# ---------------------------------------------------------------------------
# agents
# ---------------------------------------------------------------------------


def _family(family):
    """``family`` if it is an ``ExpertFamily`` or ``None`` (the default family)."""
    if family is not None and not isinstance(family, ExpertFamily):
        raise AgentError(f"family must be an ExpertFamily, got {family!r}")
    return family


class Agent:
    """Base buyer: bound to a buyer slot, bids on views, observes own outcomes.

    ``bid`` returns a nonnegative finite ``int`` (not a ``bool``) or
    ``float``; anything else fails the round.  The mechanism records it as a plain ``float``, a bid
    of ``-0.0`` as ``0.0``, and ``observe`` is shown the round's bids so
    recorded.

    ``sophisticated`` says whether the bound agent counts as a sophisticated
    buyer in the revenue guarantee; every other buyer counts as naive.

    ``stationary`` says that the bound agent's ``bid`` is a pure function of
    the value and of three things of the view: its phase, the epoch config
    fields other than ``index``, and the agent's own entry in ``states``;
    and that ``observe`` teaches it nothing.  A stationary agent also
    implements ``bids(view, values)``: the bids for an array of values under
    one such view, equal bit for bit to ``bid`` on each value, which may read
    the same three things only.  Light-mode runs settle a phase whose
    bidders are all stationary with it, and reuse one view's bids across
    epochs and past other buyers' rests.  Both flags are read once the agent
    is bound.
    """

    kind = "agent"
    sophisticated = False
    stationary = False

    def __init__(self):
        self.buyer_id: Optional[int] = None

    def bind(
        self,
        buyer_id: int,
        params: MechanismParams,
        dist: ValueDistribution,
        rng: np.random.Generator,
    ) -> None:
        self.buyer_id = buyer_id
        self.params = params
        self.dist = dist
        self.rng = rng
        self._setup()

    def _setup(self) -> None:
        pass

    def bid(self, view: AgentView, value: float) -> float:
        raise NotImplementedError

    def bids(self, view: AgentView, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def observe(
        self,
        view: AgentView,
        value: float,
        utility: float,
        bids: dict[int, float],
        winner: Optional[int],
    ) -> None:
        pass


class ExpertAgent(Agent):
    """Deterministically plays a single fixed expert from a family."""

    kind = "expert"
    stationary = True

    def __init__(self, family: ExpertFamily, index: int):
        super().__init__()
        if not 0 <= index < len(family):
            raise AgentError(f"expert index {index} outside the family")
        self.family = family
        self.index = index

    def bid(self, view: AgentView, value: float) -> float:
        return self.family.bid(self.index, view, self.buyer_id, value)

    def bids(self, view: AgentView, values: np.ndarray) -> np.ndarray:
        return self.family.bids(self.index, view, self.buyer_id, values)


# the canonical good-template expert never reads the family's grid
_GOOD_STRATEGY = ExpertFamily((Expert(GOOD_TEMPLATE),), ValueGrid(0.0, 1.0, 1.0))


class GoodStrategyAgent(ExpertAgent):
    """The good strategy, played as the canonical good-template expert."""

    kind = "good-strategy"
    sophisticated = True

    def __init__(self):
        super().__init__(_GOOD_STRATEGY, 0)


class LookaheadAgent(GoodStrategyAgent):
    """Deep-lookahead buyer.

    For a lookahead depth at or beyond the mechanism's threshold, any strategy
    entering the bad state is dominated by the good strategy, so the agent
    plays the good strategy outright.  A depth below the threshold only warns;
    the fallback is still the good strategy, but the buyer counts as naive.
    """

    kind = "lookahead"

    def __init__(self, k: Optional[int] = None):
        super().__init__()
        self.k = None if k is None else _integer(k, "lookahead depth k", AgentError, 0)

    def _setup(self) -> None:
        threshold = self.params.lookahead_threshold
        if self.k is None:
            self.k = threshold
        elif self.k < threshold:
            warnings.warn(
                f"lookahead depth {self.k} of buyer {self.buyer_id} is below the "
                f"sophistication threshold {threshold}; playing the good strategy anyway",
                stacklevel=2,
            )

    @property
    def sophisticated(self) -> bool:
        return self.k >= self.params.lookahead_threshold


class MyopicAgent(Agent):
    """One-shot optimizer.

    In the bad state the undominated rule is to bid the bad reserve exactly
    when the valuation strictly exceeds it (``bad_mode="reserve"``); the
    ``"value"`` mode bids the valuation itself whenever it covers the reserve.
    Good-state play is configurable: ``"reserve"`` bids the good reserve when
    the valuation covers it, ``"empirical"`` shades toward the best response
    against the observed distribution of opposing top bids, and ``"zero"``
    never bids (a stress roster that walks straight into the bad state).
    """

    kind = "myopic"

    GOOD_MODES = ("reserve", "empirical", "zero")
    BAD_MODES = ("reserve", "value")

    def __init__(self, good_mode: str = "reserve", bad_mode: str = "reserve"):
        super().__init__()
        if good_mode not in self.GOOD_MODES:
            raise AgentError(f"unknown good_mode {good_mode!r}")
        if bad_mode not in self.BAD_MODES:
            raise AgentError(f"unknown bad_mode {bad_mode!r}")
        self.good_mode = good_mode
        self.bad_mode = bad_mode
        # the last 512 opposing top bids in arrival order, and the same
        # window kept sorted so a win rate is one binary search
        self._rival_bids = deque(maxlen=512)
        self._sorted_rivals: list[float] = []
        # the candidate bids of the last reserve seen, and that reserve
        self._grid_reserve: Optional[float] = None
        self._grid: list[float] = []

    def _setup(self) -> None:
        step = (self.dist.support_max - self.dist.support_min) / 64.0
        self._step = step if step > 0 else 1.0

    def bid(self, view: AgentView, value: float) -> float:
        cfg = view.config
        if view.states[self.buyer_id] == BuyerState.BAD:
            r = cfg.bad_reserve
            if self.bad_mode == "value":
                return value if value >= r else 0.0
            return r if value > r else 0.0
        r = cfg.good_reserve
        if self.good_mode == "zero":
            return 0.0
        if self.good_mode == "empirical" and len(self._rival_bids) >= 20:
            return self._empirical_bid(r, value)
        return r if value >= r else 0.0

    @property
    def stationary(self) -> bool:
        # an empirical buyer shades toward the rival bids it has observed
        return self.good_mode != "empirical"

    def bids(self, view: AgentView, values: np.ndarray) -> np.ndarray:
        cfg = view.config
        if view.states[self.buyer_id] == BuyerState.BAD:
            r = cfg.bad_reserve
            if self.bad_mode == "value":
                return np.where(values >= r, values, 0.0)
            return np.where(values > r, r, 0.0)
        if self.good_mode == "zero":
            return np.zeros(len(values))
        r = cfg.good_reserve
        return np.where(values >= r, r, 0.0)

    def _empirical_bid(self, reserve: float, value: float) -> float:
        """The candidate bid maximizing ``(value - b) * P(b > rival)``.

        The candidates are ``np.arange(reserve, value + 1e-12, step)``, a
        prefix of the grid cached for the reserve.  The win rate of ``b`` is
        the share of the window strictly below it; the first of several
        maximizers wins.  Of a run of candidates with the same win count the
        first has the largest surplus, so only the first of each run is
        evaluated.
        """
        if value < reserve:
            return 0.0
        step, stop = self._step, value + 1e-12
        size = math.ceil((stop - reserve) / step)  # as np.arange counts them
        if reserve is not self._grid_reserve or size > len(self._grid):
            limit = max(stop, self.dist.support_max + 1e-12)
            self._grid = np.arange(reserve, limit, step).tolist()
            self._grid_reserve = reserve
        grid, rivals = self._grid, self._sorted_rivals
        window = len(rivals)
        best, best_surplus = reserve, -math.inf
        i = count = 0
        while i < size:
            b = grid[i]
            count = bisect_left(rivals, b, count)
            surplus = (value - b) * (count / window)
            if surplus > best_surplus:
                best, best_surplus = b, surplus
            if count == window:
                break
            # the next candidate that beats one more rival bid
            i = bisect_right(grid, rivals[count], i + 1, size)
        return float(best)

    def observe(self, view, value, utility, bids, winner) -> None:
        if self.good_mode != "empirical" or view.phase != "good":
            return
        if winner is not None and winner != self.buyer_id:
            rival = bids[winner]  # the top bid, so the top rival bid
        else:
            rival = max((b for i, b in bids.items() if i != self.buyer_id), default=None)
        if rival is not None:
            window, rivals = self._rival_bids, self._sorted_rivals
            if len(window) == window.maxlen:
                del rivals[bisect_left(rivals, window[0])]
            window.append(rival)
            insort(rivals, rival)


class Exp3Agent(Agent):
    """No-regret learner: adversarial-bandit weights over an expert family."""

    kind = "exp3"

    def __init__(
        self,
        family: Optional[ExpertFamily] = None,
        gamma: Optional[float] = None,
        grid_step: Optional[float] = None,
        levels: int = 6,
    ):
        super().__init__()
        self.gamma = None if gamma is None else _gamma(gamma)
        self.family = _family(family)
        self.grid_step = grid_step
        self.levels = _integer(levels, "levels", AgentError, 0)

    def _setup(self) -> None:
        if self.family is None:
            self.family = default_expert_family(
                self.dist, levels=self.levels, grid_step=self.grid_step
            )
        gamma = self.gamma
        if gamma is None:
            gamma = Exp3Learner.tuned_gamma(len(self.family), self.params.horizon)
        self.learner = Exp3Learner(
            # a point mass at 0 has no value range to scale by
            len(self.family), gamma, self.dist.support_max or 1.0, self.rng
        )

    def bid(self, view: AgentView, value: float) -> float:
        idx, _ = self.learner.select_arm()
        return self.family.bid(idx, view, self.buyer_id, value)

    def observe(self, view, value, utility, bids, winner) -> None:
        self.learner.update(utility)


class EtcAgent(Agent):
    """No-policy-regret learner: explore each expert in turn, then commit.

    Exploration assigns global rounds ``[j*L, (j+1)*L)`` to expert ``j``; after
    ``N*L`` rounds the agent commits permanently to the expert with the highest
    accumulated exploration utility (ties to the lowest index).  Pair with a
    mechanism reset at round ``N*L`` or later so exploration mistakes are
    forgiven; only then does the agent count as sophisticated.
    """

    kind = "etc"

    def __init__(
        self,
        family: Optional[ExpertFamily] = None,
        explore_len: Optional[int] = None,
        levels: int = 6,
    ):
        super().__init__()
        self.family = _family(family)
        if explore_len is not None:
            explore_len = _integer(explore_len, "explore_len", AgentError, 1)
        self.explore_len = explore_len
        self.levels = _integer(levels, "levels", AgentError, 0)
        self.committed_index: Optional[int] = None

    def _setup(self) -> None:
        if self.family is None:
            self.family = default_expert_family(self.dist, levels=self.levels)
        n = len(self.family)
        if self.explore_len is None:
            self.explore_len = max(1, math.ceil(self.params.horizon ** (2.0 / 3.0) / n))
        self.explore_total = n * self.explore_len
        reset = self.params.reset_round
        self.sophisticated = reset is not None and reset >= self.explore_total
        if reset is None:
            warnings.warn(
                f"no mechanism reset: punishments buyer {self.buyer_id} incurs while "
                f"exploring (up to round {self.explore_total}) are permanent",
                stacklevel=2,
            )
        elif reset < self.explore_total:
            warnings.warn(
                f"mechanism reset at round {reset} precedes the end of exploration "
                f"({self.explore_total}) of buyer {self.buyer_id}; punishments "
                "incurred after the reset are permanent",
                stacklevel=2,
            )
        self._scores = np.zeros(n)

    def _arm_for(self, t: int) -> int:
        if t < self.explore_total:
            return t // self.explore_len
        if self.committed_index is None:
            self.committed_index = int(np.argmax(self._scores))
        return self.committed_index

    def bid(self, view: AgentView, value: float) -> float:
        return self.family.bid(self._arm_for(view.t), view, self.buyer_id, value)

    def observe(self, view, value, utility, bids, winner) -> None:
        if view.t < self.explore_total:
            self._scores[view.t // self.explore_len] += utility


AGENT_KINDS = {
    cls.kind: cls for cls in (GoodStrategyAgent, LookaheadAgent, MyopicAgent, Exp3Agent, EtcAgent)
}


def build_agent(spec: dict) -> Agent:
    """Construct an agent from a roster entry like {"kind": ..., options}."""
    spec = dict(spec)
    spec.pop("id", None)
    try:
        kind = spec.pop("kind")
    except KeyError:
        raise AgentError("agent spec must carry a 'kind'") from None
    if not isinstance(kind, str):
        raise AgentError(f"agent kind must be a string, got {kind!r}")
    try:
        cls = AGENT_KINDS[kind]
    except KeyError:
        raise AgentError(f"unknown agent kind {kind!r}") from None
    try:
        return cls(**spec)
    except TypeError as exc:
        raise AgentError(f"bad options for agent kind {kind!r}: {exc}") from None
