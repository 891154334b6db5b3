"""Valuation priors and the auction-theoretic scalars derived from them.

Three prior kinds are supported: finite supports, uniform intervals, and
continuous priors given by their inverse CDF.  All scalars (tail quantiles,
upper-tail means, monopoly reserves, optimal-auction revenue and win
probabilities) are computed exactly where possible: closed forms for uniform,
ordered-support sums for finite supports.  Every other integral (a uniform
prior's Myerson revenue, an inverse-CDF prior's moments) runs a pure-Python
port of QUADPACK's adaptive ``dqagse`` (Piessens et al., 1983), the routine
behind ``scipy.integrate.quad``, in quad's order of floating-point operations,
so each double is quad's.  Continuous reserves are refined by a port of
scipy's bounded Brent search.  The package never imports scipy.

Quantile convention: ``inv_cdf(p)`` is the left-continuous infimum,
``inf {v : F(v) >= p}``.  Ties in auctions are broken uniformly at random
among the maximal bids, which for iid symmetric bidders makes a fixed
bidder's win probability equal to ``P(sale) / m``.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Union

import numpy as np

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
        return _quad(self.icdf, 0.0, 1.0)

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
# quadrature and bounded minimization
# ---------------------------------------------------------------------------

# 21-point Gauss-Kronrod rule of QUADPACK's dqk21 on [-1, 1], as the exact
# doubles scipy uses: XGK[1::2] are the 10-point Gauss nodes, WG their weights
_XGK = (
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122, 0.0,
)
_WGK = (
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
    0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
    0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
    0.14773910490133849, 0.1494455540029169,
)
_WG = (
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
    0.26926671930999635, 0.29552422471475287,
)
_EPMACH = 2.220446049250313e-16  # d1mach(4)
_UFLOW = 2.2250738585072014e-308  # d1mach(1)
_OFLOW = 1.7976931348623157e308  # d1mach(2)


class QuadratureWarning(UserWarning):
    """An integral ended short of its tolerance, where scipy's ``quad`` warns."""


# what dqagse's ier codes 1 to 5 mean; scipy's quad warns on each
_IER_MESSAGES = (
    "the maximum number of subdivisions ({limit}) has been reached",
    "roundoff error prevents the requested tolerance from being reached",
    "extremely bad integrand behaviour occurs at some points of the interval",
    "the extrapolation does not converge: roundoff error in the table",
    "the integral is probably divergent, or slowly convergent",
)


def _quad(f, a: float, b: float, limit: int = 50) -> float:
    """``scipy.integrate.quad(f, a, b, epsabs=epsrel=_QUAD_TOL, limit=limit)[0]``.

    The double comes from ``_dqagse``, a port of the QUADPACK routine quad runs
    on a finite interval, so it is quad's to the bit; where quad would warn, a
    ``QuadratureWarning`` is raised.  Like quad, it calls ``f`` on Python floats.
    """
    result, _, ier, _ = _dqagse(f, float(a), float(b), limit)
    if ier:
        warnings.warn(
            f"integral over [{a}, {b}]: {_IER_MESSAGES[ier - 1].format(limit=limit)}",
            QuadratureWarning, stacklevel=2,
        )
    return result


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """QUADPACK's dqk21 on [a, b], a < b: ``(result, abserr, resabs, resasc)``,
    in its order of operations."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in (*range(1, 10, 2), *range(0, 10, 2)):  # Gauss nodes first
        absc = hlgth * _XGK[j]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * hlgth
    resasc = resasc * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqagse(f, a: float, b: float, limit: int) -> tuple[float, float, int, int]:
    """``(result, abserr, ier, last)`` of scipy's quad at epsabs = epsrel =
    ``_QUAD_TOL``: a port of QUADPACK's dqagse (Piessens et al., 1983), the
    adaptive bisection with Wynn's epsilon extrapolation, on a finite interval.

    As quad does, an empty interval gives zeros and a reversed one is flipped.
    The lists are 0-based: ``maxerr`` and ``iord`` hold element indices and
    ``nrmax`` is a position in ``iord``; ``last`` counts the subintervals.
    """
    if a == b:
        return 0.0, 0.0, 0, 0
    if b < a:
        result, abserr, ier, last = _dqagse(f, b, a, limit)
        return -result, abserr, ier, last
    epsabs = epsrel = _QUAD_TOL
    ier = ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or abserr <= errbnd and abserr != resabs or abserr == 0.0:
        return result, abserr, ier, last

    alist, blist, rlist, elist = [a] * limit, [b] * limit, [result] * limit, [abserr] * limit
    iord, rlist2, res3la = [0] * limit, [result] + [0.0] * 51, [0.0] * 3
    errmax, maxerr, area, errsum = abserr, 0, result, abserr
    abserr = _OFLOW
    nrmax = nres = ktmin = 0
    numrl2 = 2
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    plain_sum = False  # dqagse returns the sum of the subintervals, not the extrapolation
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b1, b2 = alist[maxerr], 0.5 * (alist[maxerr] + blist[maxerr]), blist[maxerr]
        a2 = b1
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last - 1] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        # the half with the larger error keeps the bisected interval's slot
        if error2 > error1:
            alist[maxerr], alist[last - 1], blist[last - 1] = a2, a1, b1
            rlist[maxerr], rlist[last - 1] = area2, area1
            elist[maxerr], elist[last - 1] = error2, error1
        else:
            alist[last - 1], blist[maxerr], blist[last - 1] = a2, b1, b2
            elist[maxerr], elist[last - 1] = error1, error2
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            plain_sum = True
            break
        if ier != 0:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[1] = abs(b - a) * 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the smallest interval is next in line
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 1
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the larger
            # ones with a large error before extrapolating
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            large = False
            for _ in range(jupbnd - nrmax):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2 - 1] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare the bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[0]
        errmax, nrmax, extrap, small, erlarg = elist[maxerr], 0, False, small * 0.5, errsum

    # choose between the extrapolated result and the plain sum
    if not plain_sum and abserr != _OFLOW:
        test_divergence = True
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                plain_sum = abserr / abs(result) > errsum / abs(area)
            else:
                plain_sum, test_divergence = abserr > errsum, area != 0.0
        # the test on divergence; Fortran's result / 0 compares as divergent
        # here, since errsum > 0 whenever the loop got this far
        if not plain_sum and test_divergence and not (
            ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01
        ):
            if area == 0.0 or 0.01 > result / area or result / area > 100.0 or errsum > abs(area):
                ier = 6
    if plain_sum or abserr == _OFLOW:
        result = 0.0
        for k in range(last):
            result = result + rlist[k]
        abserr = errsum
    return result, abserr, ier - 1 if ier > 2 else ier, last


def _dqpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """QUADPACK's dqpsrt: keep ``iord`` ordered by descending error and return
    ``(maxerr, errmax, nrmax)`` of the subinterval to bisect next."""
    if last <= 2:
        iord[0], iord[1] = 0, 1
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    errmax = elist[maxerr]
    while nrmax > 0:
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    # only the first jupbn errors are kept ordered: no more can be bisected
    jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
    errmin = elist[last - 1]
    for i in range(nrmax + 1, jupbn - 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            # insert errmax here, then errmin bottom-up
            iord[i - 1] = maxerr
            k = jupbn - 2
            for _ in range(jupbn - 1 - i):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last - 1
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last - 1
            break
        iord[i - 1] = isucc
    else:
        iord[jupbn - 2] = maxerr
        iord[jupbn - 1] = last - 1
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n: int, epstab: list, res3la: list, nres: int):
    """QUADPACK's dqelg, Wynn's epsilon algorithm on ``epstab[:n]``: returns
    ``(n, result, abserr, nres)`` and updates ``epstab`` and ``res3la``."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n - 1]
    if n >= 3:
        epstab[n + 1] = epstab[n - 1]
        newelm = (n - 1) // 2
        epstab[n - 1] = _OFLOW
        num = k1 = n  # k1 is 1-based, as in the table's Fortran layout
        for i in range(1, newelm + 1):
            res = epstab[k1 + 1]
            e0 = epstab[k1 - 3]
            e1 = epstab[k1 - 2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 agree to machine accuracy: converged
                return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
            e3 = epstab[k1 - 1]
            epstab[k1 - 1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # two close elements, or irregular behaviour: drop part of the table
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1 - 1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error <= abserr:
                abserr = error
                result = res
        # shift the table; it holds at most limexp = 50 elements
        if n == 50:
            n = 49
        start = 1 - num % 2
        for ib in range(start, start + 2 * newelm + 2, 2):
            epstab[ib] = epstab[ib + 2]
        epstab[:n] = epstab[num - n:num]
        if nres < 4:
            res3la[nres - 1] = result
            abserr = _OFLOW
        else:
            abserr = (
                abs(result - res3la[2]) + abs(result - res3la[1]) + abs(result - res3la[0])
            )
            res3la[0], res3la[1], res3la[2] = res3la[1], res3la[2], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _bounded_min(func, a: float, b: float, xatol: float) -> tuple[float, float]:
    """``(x, fun)`` of ``minimize_scalar(func, bounds=(a, b), method="bounded",
    options={"xatol": xatol})``.

    A line-for-line port of ``scipy.optimize._optimize._minimize_scalar_bounded``
    (scipy, BSD-3-Clause), with maxiter 500, on Python floats.
    """
    maxfun = 500
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # check the parabola is acceptable
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (math.copysign(1.0, xm - xf) if xm != xf else 1.0)
            else:
                golden = 1

        if golden:  # a golden-section step
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        # np.sign(rat) + (rat == 0); rat and tol1 are never NaN on finite bounds
        x = xf + (math.copysign(1.0, rat) if rat else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break
    return xf, fx


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
    return m * _quad(dist.icdf, 1.0 - 1.0 / m, 1.0)


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
    x, fun = _bounded_min(lambda x: -f(x), float(a), float(b), 1e-10)
    return x if -fun >= ys[best] else float(xs[best])


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
    tail = _quad(
        lambda x: _second_highest_tail(dist.cdf(x), n), r, dist.support_max, limit=200
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
