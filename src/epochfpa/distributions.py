"""Valuation priors and the auction-theoretic scalars derived from them.

Three prior kinds are supported: finite supports, uniform intervals, and
continuous priors given by their inverse CDF.  All scalars (tail quantiles,
upper-tail means, monopoly reserves, optimal-auction revenue and win
probabilities) are computed exactly where possible: closed forms for uniform,
ordered-support sums for finite supports, adaptive quadrature otherwise.

Quantile convention: ``inv_cdf(p)`` is the left-continuous infimum,
``inf {v : F(v) >= p}``.  Ties in auctions are broken uniformly at random
among the maximal bids, which for iid symmetric bidders makes a fixed
bidder's win probability equal to ``P(sale) / m``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Union

import numpy as np
from scipy import integrate, optimize

__all__ = [
    "DistributionError",
    "FiniteSupport",
    "Uniform",
    "InverseCdf",
    "ValueDistribution",
    "AuctionScalars",
    "MyersonAuction",
    "from_spec",
    "to_spec",
    "tail_quantile",
    "upper_tail_mean",
    "monopoly_reserve",
    "myerson_detail",
    "myerson_revenue",
    "myerson_win_prob",
    "win_quantile",
    "auction_scalars",
]

_PROB_TOL = 1e-12
_QUAD_TOL = 1e-10


class DistributionError(ValueError):
    """Invalid distribution specification or argument."""


# the input checks every module shares; ``error`` is the calling module's
# ValueError subclass


def _integer(x, name: str, error: type, minimum: Optional[int] = None) -> int:
    """``x`` as an ``int``; bools, floats such as 5.0 and values below
    ``minimum`` are refused."""
    if (
        isinstance(x, bool)
        or not isinstance(x, numbers.Integral)
        or minimum is not None and x < minimum
    ):
        bound = "" if minimum is None else f" of at least {minimum}"
        raise error(f"{name} must be an integer{bound}, got {x!r}")
    return int(x)


def _number(x, name: str, error: type) -> float:
    """``x`` as a finite ``float``; bools, strings and other non-numbers are refused."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise error(f"{name} must be a number, got {x!r}")
    if not math.isfinite(x):
        raise error(f"{name} must be finite, got {x!r}")
    return float(x)


@dataclass(frozen=True)
class FiniteSupport:
    """Discrete prior on a strictly increasing tuple of nonnegative values."""

    support: tuple[tuple[float, float], ...]

    kind = "finite"

    def __post_init__(self):
        if not self.support:
            raise DistributionError("finite support must be non-empty")
        try:
            pairs = [(v, p) for v, p in self.support]
        except (TypeError, ValueError):
            raise DistributionError(
                f"finite support must be [value, probability] pairs, got {self.support!r}"
            ) from None
        values = [_number(v, "support values", DistributionError) for v, _ in pairs]
        probs = [_number(p, "probabilities", DistributionError) for _, p in pairs]
        object.__setattr__(self, "support", tuple(zip(values, probs)))
        if any(v < 0 for v in values):
            raise DistributionError("support values must be nonnegative")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise DistributionError("support values must be strictly increasing")
        if any(not 0.0 < p <= 1.0 for p in probs):
            raise DistributionError("probabilities must lie in (0, 1]")
        if abs(math.fsum(probs) - 1.0) > _PROB_TOL:
            raise DistributionError("probabilities must sum to 1")

    @cached_property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.support])

    @cached_property
    def probs(self) -> np.ndarray:
        return np.array([p for _, p in self.support])

    @cached_property
    def cumprobs(self) -> np.ndarray:
        return np.cumsum(self.probs)

    @property
    def support_min(self) -> float:
        return self.support[0][0]

    @property
    def support_max(self) -> float:
        return self.support[-1][0]

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def cdf(self, v: float) -> float:
        """P(V <= v)."""
        idx = np.searchsorted(self.values, v, side="right")
        return float(self.cumprobs[idx - 1]) if idx > 0 else 0.0

    def cdf_below(self, v: float) -> float:
        """P(V < v)."""
        idx = np.searchsorted(self.values, v, side="left")
        return float(self.cumprobs[idx - 1]) if idx > 0 else 0.0

    def inv_cdf(self, p: float) -> float:
        _check_prob(p)
        idx = int(np.searchsorted(self.cumprobs, p - _PROB_TOL, side="left"))
        idx = min(idx, len(self.support) - 1)
        return float(self.values[idx])

    def sample_block(self, rng: np.random.Generator, shape) -> np.ndarray:
        u = rng.random(shape)
        idx = np.minimum(
            np.searchsorted(self.cumprobs, u, side="right"), len(self.support) - 1
        )
        return self.values[idx]


@dataclass(frozen=True)
class Uniform:
    """Continuous uniform prior on [lo, hi]."""

    lo: float
    hi: float

    kind = "uniform"

    def __post_init__(self):
        for name in ("lo", "hi"):
            x = _number(getattr(self, name), f"uniform bound {name}", DistributionError)
            object.__setattr__(self, name, x)
        if self.lo < 0:
            raise DistributionError("uniform lower bound must be nonnegative")
        if not self.hi > self.lo:
            raise DistributionError("uniform requires hi > lo")

    @property
    def support_min(self) -> float:
        return self.lo

    @property
    def support_max(self) -> float:
        return self.hi

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def cdf(self, v: float) -> float:
        if v <= self.lo:
            return 0.0
        if v >= self.hi:
            return 1.0
        return (v - self.lo) / (self.hi - self.lo)

    cdf_below = cdf

    def inv_cdf(self, p: float) -> float:
        _check_prob(p)
        return self.lo + p * (self.hi - self.lo)

    def sample_block(self, rng: np.random.Generator, shape) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * rng.random(shape)


@dataclass(frozen=True, eq=False)
class InverseCdf:
    """Continuous prior defined by a monotone inverse CDF on [0, 1].

    The inverse CDF is assumed continuous and strictly increasing; the CDF is
    recovered by bisection and moments by quadrature of the inverse.
    """

    icdf: Callable[[float], float]
    label: str = "inverse-cdf"

    kind = "inverse-cdf"

    def __post_init__(self):
        grid = np.linspace(0.0, 1.0, 129)
        vals = [float(self.icdf(p)) for p in grid]
        if vals[0] < 0:
            raise DistributionError("inverse CDF must map into nonnegative values")
        if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
            raise DistributionError("inverse CDF must be nondecreasing")
        if not all(math.isfinite(v) for v in vals):
            raise DistributionError("inverse CDF must be finite on [0, 1]")

    @property
    def support_min(self) -> float:
        return float(self.icdf(0.0))

    @property
    def support_max(self) -> float:
        return float(self.icdf(1.0))

    def mean(self) -> float:
        value, _ = integrate.quad(self.icdf, 0.0, 1.0, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)
        return value

    def cdf(self, v: float) -> float:
        if v <= self.support_min:
            return 0.0 if v < self.support_min else self._bisect(v)
        if v >= self.support_max:
            return 1.0
        return self._bisect(v)

    cdf_below = cdf

    def _bisect(self, v: float) -> float:
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.icdf(mid) <= v:
                lo = mid
            else:
                hi = mid
        return lo

    def inv_cdf(self, p: float) -> float:
        _check_prob(p)
        return float(self.icdf(p))

    def sample_block(self, rng: np.random.Generator, shape) -> np.ndarray:
        u = rng.random(shape)
        flat = np.array([self.icdf(x) for x in np.atleast_1d(u).ravel()])
        return flat.reshape(np.shape(u))


ValueDistribution = Union[FiniteSupport, Uniform, InverseCdf]


def _check_prob(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise DistributionError(f"probability {p!r} outside [0, 1]")


def from_spec(spec: dict) -> ValueDistribution:
    """Build a distribution from its document form."""
    try:
        kind = spec["kind"]
    except (TypeError, KeyError):
        raise DistributionError("distribution spec must carry a 'kind'") from None
    try:
        if kind == "finite":
            return FiniteSupport(spec["support"])
        if kind == "uniform":
            return Uniform(spec["lo"], spec["hi"])
    except KeyError as exc:
        raise DistributionError(f"{kind} distribution needs a {exc.args[0]!r} field") from None
    raise DistributionError(f"unknown distribution kind {kind!r}")


def to_spec(dist: ValueDistribution) -> dict:
    if isinstance(dist, FiniteSupport):
        return {"kind": "finite", "support": [[v, p] for v, p in dist.support]}
    if isinstance(dist, Uniform):
        return {"kind": "uniform", "lo": dist.lo, "hi": dist.hi}
    raise DistributionError(f"{dist.kind} distributions have no document form")


# ---------------------------------------------------------------------------
# scalar operations
# ---------------------------------------------------------------------------

# the caches that take a buyer count are typed, so a cached 1 never answers
# for True or 1.0 before the count check has run

@lru_cache(maxsize=65536, typed=True)
def tail_quantile(dist: ValueDistribution, m: int) -> float:
    """Value at the (1 - 1/m) quantile."""
    m = _integer(m, "buyer count", DistributionError, 1)
    return dist.inv_cdf(1.0 - 1.0 / m)


@lru_cache(maxsize=65536, typed=True)
def upper_tail_mean(dist: ValueDistribution, m: int) -> float:
    """Expected value conditioned on meeting the (1 - 1/m) quantile; 0 for m = 0."""
    m = _integer(m, "buyer count", DistributionError, 0)
    if m == 0:
        return 0.0
    q = tail_quantile(dist, m)
    if isinstance(dist, FiniteSupport):
        mask = dist.values >= q - _PROB_TOL
        tail = float(np.dot(dist.values[mask], dist.probs[mask]))
        return tail / float(np.sum(dist.probs[mask]))
    if isinstance(dist, Uniform):
        return 0.5 * (q + dist.hi)
    value, _ = integrate.quad(
        dist.icdf, 1.0 - 1.0 / m, 1.0, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL
    )
    return m * value


def _posted_revenue(dist: ValueDistribution, r: float) -> float:
    return r * (1.0 - dist.cdf_below(r))


@lru_cache(maxsize=4096)
def monopoly_reserve(dist: ValueDistribution) -> float:
    """Price maximizing r * P(V >= r), ties broken toward the smaller price."""
    if isinstance(dist, FiniteSupport):
        revenue = dist.values * (1.0 - np.concatenate(([0.0], dist.cumprobs[:-1])))
        return float(dist.values[int(np.argmax(revenue))])
    if isinstance(dist, Uniform):
        return max(dist.lo, 0.5 * dist.hi)
    return _maximize(lambda r: _posted_revenue(dist, r), dist.support_min, dist.support_max)


def _maximize(f, lo: float, hi: float, grid: int = 513) -> float:
    """Grid search plus bounded refinement; returns the best argument found."""
    xs = np.linspace(lo, hi, grid)
    ys = [f(x) for x in xs]
    best = int(np.argmax(ys))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, grid - 1)]
    res = optimize.minimize_scalar(
        lambda x: -f(x), bounds=(a, b), method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x) if -res.fun >= ys[best] else float(xs[best])


@dataclass(frozen=True)
class MyersonAuction:
    """Optimal symmetric-iid auction summary: a second-price auction with reserve."""

    n: int
    reserve: float
    revenue: float
    win_prob: float


def _second_highest_tail(F: float, n: int) -> float:
    # P(at least two of n iid draws exceed a level with CDF mass F)
    return 1.0 - F**n - n * (1.0 - F) * F ** (n - 1)


def _spa_revenue_finite(dist: FiniteSupport, n: int, r: float) -> float:
    sale = 1.0 - dist.cdf_below(r) ** n
    # E[(second-highest - r)^+] as an integral of a step tail function
    points = [r] + [v for v in dist.values if v > r]
    tail = 0.0
    for a, b in zip(points, points[1:]):
        tail += (b - a) * _second_highest_tail(dist.cdf(a), n)
    return r * sale + tail


def _spa_revenue_continuous(dist: ValueDistribution, n: int, r: float) -> float:
    sale = 1.0 - dist.cdf(r) ** n
    tail, _ = integrate.quad(
        lambda x: _second_highest_tail(dist.cdf(x), n),
        r,
        dist.support_max,
        epsabs=_QUAD_TOL,
        epsrel=_QUAD_TOL,
        limit=200,
    )
    return r * sale + tail


@lru_cache(maxsize=4096, typed=True)
def myerson_detail(dist: ValueDistribution, n: int) -> MyersonAuction:
    """Reserve, revenue, and per-buyer win probability of the optimal auction.

    Finite supports are solved exactly by order-statistic sums over candidate
    reserves at the support points; continuous priors by quadrature with the
    reserve optimized numerically.  ``n = 0`` is the empty auction.
    """
    n = _integer(n, "buyer count", DistributionError, 0)
    if n == 0:
        return MyersonAuction(0, 0.0, 0.0, 0.0)
    if isinstance(dist, FiniteSupport):
        best_r, best_rev = None, -1.0
        for r in dist.values:
            rev = _spa_revenue_finite(dist, n, float(r))
            # a revenue within rounding of the best is a tie, kept by the lower reserve
            if rev > best_rev and not math.isclose(rev, best_rev, rel_tol=1e-12):
                best_r, best_rev = float(r), rev
        theta = (1.0 - dist.cdf_below(best_r) ** n) / n
        return MyersonAuction(n, best_r, best_rev, theta)
    reserve = _maximize(
        lambda r: _spa_revenue_continuous(dist, n, r),
        dist.support_min,
        dist.support_max,
        grid=129,
    )
    revenue = _spa_revenue_continuous(dist, n, reserve)
    theta = (1.0 - dist.cdf(reserve) ** n) / n
    return MyersonAuction(n, reserve, revenue, theta)


def myerson_revenue(dist: ValueDistribution, n: int) -> float:
    """Expected revenue of the optimal auction with n iid buyers (0 for n = 0)."""
    return myerson_detail(dist, n).revenue


def myerson_win_prob(dist: ValueDistribution, m: int) -> float:
    """Probability that a fixed buyer among m iid buyers wins the optimal auction."""
    _integer(m, "buyer count", DistributionError, 1)
    return myerson_detail(dist, m).win_prob


@lru_cache(maxsize=65536, typed=True)
def win_quantile(dist: ValueDistribution, m: int) -> float:
    """Value at the (1 - win probability) quantile; never below tail_quantile."""
    m = _integer(m, "buyer count", DistributionError, 1)
    return dist.inv_cdf(1.0 - myerson_win_prob(dist, m))


@dataclass(frozen=True)
class AuctionScalars:
    """The scalar bundle the mechanism derives from a prior for m and n buyers."""

    m: int
    tail_quantile: float
    upper_tail_mean: float
    win_prob: float
    win_quantile: float
    myerson_revenue: float

    def __post_init__(self):
        if self.upper_tail_mean < self.tail_quantile - 1e-9:
            raise DistributionError("upper-tail mean fell below its quantile")
        if self.win_prob > 1.0 / self.m + 1e-9:
            raise DistributionError("win probability exceeded 1/m")
        if self.win_quantile < self.tail_quantile - 1e-9:
            raise DistributionError("win quantile fell below the tail quantile")


def auction_scalars(dist: ValueDistribution, m: int, n: int) -> AuctionScalars:
    """Compute all auction scalars for m competing buyers and an n-buyer revenue."""
    m = _integer(m, "buyer count", DistributionError, 1)
    return AuctionScalars(
        m=m,
        tail_quantile=tail_quantile(dist, m),
        upper_tail_mean=upper_tail_mean(dist, m),
        win_prob=myerson_win_prob(dist, m),
        win_quantile=win_quantile(dist, m),
        myerson_revenue=myerson_revenue(dist, n),
    )
