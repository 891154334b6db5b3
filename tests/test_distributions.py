import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from epochfpa import distributions
from epochfpa.distributions import (
    DistributionError,
    FiniteSupport,
    InverseCdf,
    MyersonAuction,
    QuadratureWarning,
    Uniform,
    _bounded_min,
    _dqagse,
    _quad,
    from_spec,
    monopoly_reserve,
    myerson_detail,
    myerson_revenue,
    myerson_win_prob,
    tail_quantile,
    to_spec,
    upper_tail_mean,
    win_quantile,
)
from epochfpa.rng import substream
from epochfpa.suites import brute_force_myerson

from conftest import random_finite


# -- construction and validation --------------------------------------------


def test_finite_rejects_bad_probabilities():
    with pytest.raises(DistributionError):
        FiniteSupport(((1.0, 0.5), (2.0, 0.6)))
    with pytest.raises(DistributionError):
        FiniteSupport(((1.0, 0.0), (2.0, 1.0)))


def test_finite_rejects_unordered_or_negative_values():
    with pytest.raises(DistributionError):
        FiniteSupport(((2.0, 0.5), (1.0, 0.5)))
    with pytest.raises(DistributionError):
        FiniteSupport(((-1.0, 0.5), (1.0, 0.5)))


def test_uniform_rejects_degenerate_bounds():
    with pytest.raises(DistributionError):
        Uniform(1.0, 1.0)
    with pytest.raises(DistributionError):
        Uniform(-0.5, 1.0)


def test_inverse_cdf_rejects_nonmonotone():
    with pytest.raises(DistributionError):
        InverseCdf(lambda p: 1.0 - p)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FiniteSupport(()), "finite support must be non-empty"),
        (lambda: InverseCdf(lambda p: p - 1.0), "must map into nonnegative values"),
        (lambda: InverseCdf(lambda p: p / (1.0 - p) if p < 1.0 else math.inf), "must be finite"),
        (lambda: InverseCdf(lambda p: math.nan), "must be finite"),
    ],
)
def test_priors_reject_empty_or_invalid_definitions(build, message):
    with pytest.raises(DistributionError, match=message):
        build()


def test_priors_store_numpy_scalars_as_floats():
    uniform = Uniform(np.int64(0), np.float32(2.0))
    assert (type(uniform.lo), type(uniform.hi)) == (float, float)
    assert uniform == Uniform(0.0, 2.0)
    finite = FiniteSupport(((np.int64(1), np.float64(0.5)), (2, 0.5)))
    assert all(type(x) is float for pair in finite.support for x in pair)


def test_buyer_counts_are_integers_of_at_least_one(uniform01):
    assert tail_quantile(uniform01, np.int64(2)) == 0.5
    message = "^buyer count must be an integer of at least 1, got "
    for m in (0, -1, 2.0, True, "2"):
        for scalar in (tail_quantile, myerson_win_prob, win_quantile):
            with pytest.raises(DistributionError, match=message):
                scalar(uniform01, m)
    # a cached count answers for no bool or float equal to it, and an empty
    # auction is m = 0 itself
    for scalar in (tail_quantile, upper_tail_mean, myerson_revenue, win_quantile):
        scalar(uniform01, 1)
        for m in (True, 1.0):
            with pytest.raises(DistributionError, match="^buyer count must be an integer"):
                scalar(uniform01, m)
    assert upper_tail_mean(uniform01, 0) == myerson_revenue(uniform01, 0) == 0.0
    for m in (False, 0.0, -1):
        for scalar in (upper_tail_mean, myerson_revenue):
            with pytest.raises(DistributionError, match="^buyer count must be an integer"):
                scalar(uniform01, m)


def test_spec_round_trip(uniform01, two_point):
    for dist in (uniform01, two_point):
        assert from_spec(to_spec(dist)) == dist
    with pytest.raises(DistributionError):
        from_spec({"kind": "weird"})
    for spec in (None, {}):
        with pytest.raises(DistributionError, match="must carry a 'kind'"):
            from_spec(spec)
    with pytest.raises(DistributionError, match="inverse-cdf distributions have no document form"):
        to_spec(InverseCdf(lambda p: p))


# -- sampling -----------------------------------------------------------------


def test_sampling_law_of_large_numbers(uniform01, two_point, point_mass):
    rng = substream(1, "lln")
    assert abs(two_point.sample_block(rng, 10**6).mean() - 1.5) < 0.01
    assert abs(uniform01.sample_block(rng, 10**6).mean() - 0.5) < 0.01
    draws = point_mass.sample_block(rng, 1000)
    assert np.all(draws == 3.0)


def test_empirical_cdf_converges(uniform01):
    rng = substream(2, "cdf")
    draws = uniform01.sample_block(rng, 200_000)
    for q in (0.1, 0.5, 0.9):
        assert abs(np.mean(draws <= q) - q) < 0.01


def test_inverse_cdf_kind_sampling_matches_uniform():
    dist = InverseCdf(lambda p: p)
    rng = substream(3, "inv")
    assert abs(dist.sample_block(rng, 50_000).mean() - 0.5) < 0.01


# -- quantiles ----------------------------------------------------------------


def test_inv_cdf_examples(uniform01, two_point):
    assert uniform01.inv_cdf(0.5) == 0.5
    assert two_point.inv_cdf(0.5) == 1.0
    assert two_point.inv_cdf(0.0) == 1.0
    assert uniform01.inv_cdf(0.0) == 0.0
    with pytest.raises(DistributionError):
        uniform01.inv_cdf(1.5)
    with pytest.raises(DistributionError):
        uniform01.inv_cdf(-0.1)


def test_tail_quantile_examples(uniform01, two_point):
    assert tail_quantile(uniform01, 2) == 0.5
    assert tail_quantile(uniform01, 4) == 0.75
    assert tail_quantile(uniform01, 1) == 0.0
    assert tail_quantile(two_point, 1) == 1.0
    with pytest.raises(DistributionError):
        tail_quantile(uniform01, 0)


def test_upper_tail_mean_examples(uniform01, two_point):
    assert upper_tail_mean(uniform01, 2) == pytest.approx(0.75, abs=1e-12)
    assert upper_tail_mean(uniform01, 4) == pytest.approx(0.875, abs=1e-12)
    assert upper_tail_mean(uniform01, 1) == pytest.approx(0.5, abs=1e-12)
    assert upper_tail_mean(two_point, 1) == pytest.approx(1.5, abs=1e-12)
    assert upper_tail_mean(uniform01, 0) == 0.0


def test_inverse_cdf_kind_matches_uniform_scalars(uniform01):
    via_icdf = InverseCdf(lambda p: p)
    for m in (1, 2, 3, 5):
        assert tail_quantile(via_icdf, m) == pytest.approx(tail_quantile(uniform01, m))
        assert upper_tail_mean(via_icdf, m) == pytest.approx(
            upper_tail_mean(uniform01, m), abs=1e-8
        )


def test_inverse_cdf_kind_continuous_mean_and_monopoly_reserve():
    # F(v) = v^2 on [0, 1]: mean 2/3, and r * (1 - r^2) peaks at 1/sqrt(3)
    dist = InverseCdf(lambda p: p**0.5)
    assert abs(dist.mean() - 2.0 / 3.0) <= 1e-12
    assert abs(monopoly_reserve(dist) - 1.0 / math.sqrt(3.0)) <= 1e-6


# -- monopoly reserve ---------------------------------------------------------


def test_monopoly_reserve_examples(uniform01, two_point, point_mass):
    assert monopoly_reserve(uniform01) == pytest.approx(0.5, abs=1e-8)
    # both support prices yield revenue 1; the tie goes to the smaller price
    assert monopoly_reserve(two_point) == 1.0
    assert monopoly_reserve(point_mass) == 3.0


# -- optimal auction ----------------------------------------------------------


def test_myerson_uniform_values(uniform01):
    assert myerson_revenue(uniform01, 1) == pytest.approx(0.25, abs=1e-6)
    assert myerson_revenue(uniform01, 2) == pytest.approx(5.0 / 12.0, abs=1e-6)
    assert myerson_revenue(uniform01, 3) == pytest.approx(17.0 / 32.0, abs=1e-6)
    assert myerson_revenue(uniform01, 0) == 0.0
    assert myerson_win_prob(uniform01, 1) == pytest.approx(0.5, abs=1e-6)
    assert myerson_win_prob(uniform01, 2) == pytest.approx(3.0 / 8.0, abs=1e-6)


def test_myerson_two_point(two_point):
    detail = myerson_detail(two_point, 2)
    assert detail.reserve == 2.0
    assert detail.revenue == pytest.approx(1.5, abs=1e-12)
    assert detail.win_prob == pytest.approx(3.0 / 8.0, abs=1e-12)


def test_myerson_matches_enumeration_oracle():
    rng = substream(4, "supports")
    for k in range(12):
        dist = random_finite(rng, 2 + k % 3)
        for n in (1, 2, 3):
            reserve, revenue, win = brute_force_myerson(dist, n)
            detail = myerson_detail(dist, n)
            assert detail.reserve == reserve
            assert detail.revenue == pytest.approx(revenue, abs=1e-12)
            assert detail.win_prob == pytest.approx(win, abs=1e-12)


@st.composite
def finite_supports(draw):
    """2 to 4 strictly increasing positive points with positive weights."""
    size = draw(st.integers(2, 4))
    gaps = draw(st.lists(st.floats(0.2, 1.5), min_size=size, max_size=size))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
    values = np.cumsum(gaps).tolist()
    total = math.fsum(weights)
    return FiniteSupport(tuple((v, w / total) for v, w in zip(values, weights)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(finite_supports(), st.sampled_from([1, 2, 3]))
# both reserves earn 0.75, and rounding put the higher one ahead by 1e-16
@example(FiniteSupport(((0.75, 1 / 3), (1.125, 2 / 3))), 1)
def test_myerson_detail_matches_enumeration_on_random_supports(dist, n):
    # the myerson-oracle suite's tolerance
    reserve, revenue, win = brute_force_myerson(dist, n)
    detail = myerson_detail(dist, n)
    assert detail.reserve == reserve
    assert abs(detail.revenue - revenue) <= 1e-12
    assert abs(detail.win_prob - win) <= 1e-12


def test_enumeration_budget_guard(two_point):
    with pytest.raises(ValueError):
        brute_force_myerson(two_point, 3, budget=4)


def test_win_quantile_examples(uniform01, two_point):
    assert win_quantile(uniform01, 2) == pytest.approx(0.625, abs=1e-6)
    assert win_quantile(uniform01, 1) == pytest.approx(0.5, abs=1e-6)
    assert win_quantile(two_point, 2) == 2.0


# -- cross-scalar invariants ----------------------------------------------------


def test_quantiles_monotone_in_m():
    rng = substream(6, "mono")
    dists = [Uniform(0.0, 1.0), Uniform(0.5, 4.0)] + [
        random_finite(rng, 2 + k % 3) for k in range(6)
    ]
    for dist in dists:
        qs = [tail_quantile(dist, m) for m in range(1, 9)]
        ts = [upper_tail_mean(dist, m) for m in range(1, 9)]
        assert all(a <= b + 1e-12 for a, b in zip(qs, qs[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(ts, ts[1:]))
        assert all(q <= t + 1e-12 for q, t in zip(qs, ts))


def test_scaled_tail_mean_decreasing():
    # (1/m) * upper_tail_mean is nonincreasing, and for any good/bad counts
    # with the bad count at least n/2 the good side is at least half the bad
    # side; a property of continuous priors (atoms can break it because the
    # conditional tail mean then averages over more than a 1/m mass)
    dists = [Uniform(0.0, 1.0), Uniform(0.5, 4.0), InverseCdf(lambda p: p * p)]
    n = 6
    for dist in dists:
        scaled = {m: upper_tail_mean(dist, m) / m for m in range(1, n + 1)}
        for m1 in range(1, n + 1):
            for m2 in range(m1, n + 1):
                assert scaled[m1] >= scaled[m2] - 1e-12
        for m_g in range(1, n + 1):
            for m_b in range(math.ceil(n / 2), n + 1):
                assert scaled[m_g] >= 0.5 * scaled[m_b] - 1e-12


def test_win_prob_capped_and_tail_mean_and_win_quantile_above_tail_quantile():
    rng = substream(8, "cap")
    dists = [Uniform(0.0, 1.0)] + [random_finite(rng, 2 + k % 3) for k in range(6)]
    for dist in dists:
        for m in range(1, 7):
            assert myerson_win_prob(dist, m) <= 1.0 / m + 1e-9
            assert upper_tail_mean(dist, m) >= tail_quantile(dist, m) - 1e-9
            assert win_quantile(dist, m) >= tail_quantile(dist, m) - 1e-9


def test_revenue_monotone_and_below_tail_mean(uniform01, two_point):
    for dist in (uniform01, two_point):
        revs = [myerson_revenue(dist, n) for n in range(0, 5)]
        assert all(a <= b + 1e-9 for a, b in zip(revs, revs[1:]))
        for n in range(1, 5):
            assert revs[n] <= upper_tail_mean(dist, n) + 1e-9


def test_expected_max_below_upper_tail_mean():
    # Monte Carlo mean of the maximum of n draws against the exact tail mean;
    # valid for continuous priors, where the tail event has mass exactly 1/n
    rng = substream(9, "maxchain")
    for dist in (Uniform(0.0, 1.0), Uniform(0.5, 4.0)):
        for n in (2, 4):
            draws = dist.sample_block(rng, (40_000, n))
            tops = draws.max(axis=1)
            mean = tops.mean()
            se = tops.std(ddof=1) / math.sqrt(len(tops))
            assert mean <= upper_tail_mean(dist, n) + 3 * se


def test_auction_scalars_of_two_uniform_buyers(uniform01):
    assert tail_quantile(uniform01, 2) == 0.5
    assert upper_tail_mean(uniform01, 2) == pytest.approx(0.75)
    assert myerson_win_prob(uniform01, 2) == pytest.approx(0.375, abs=1e-6)
    assert win_quantile(uniform01, 2) == pytest.approx(0.625, abs=1e-6)
    assert myerson_revenue(uniform01, 2) == pytest.approx(5.0 / 12.0, abs=1e-6)


# -- quadrature and bounded search against scipy ------------------------------


def _scipy_quad(f, a, b, limit=50):
    return integrate.quad(f, a, b, epsabs=1e-10, epsrel=1e-10, limit=limit)[0]


def _tail_integrand(dist, n):
    # P(at least two of n draws exceed x), the Myerson revenue's tail integrand
    return lambda x: 1.0 - dist.cdf(x) ** n - n * (1.0 - dist.cdf(x)) * dist.cdf(x) ** (n - 1)


@st.composite
def tail_integrals(draw):
    """A uniform prior's Myerson tail integral over [r, hi], with n <= 40."""
    lo = draw(st.floats(0.0, 5.0))
    hi = lo + draw(st.floats(1e-3, 10.0))
    r = draw(st.floats(lo, hi))
    return _tail_integrand(Uniform(lo, hi), draw(st.integers(1, 40))), r, hi, 200


# integrands with a kink, a step, an oscillation or a singularity at c; the
# last three diverge
_ROUGH = (
    lambda x, c: abs(x - c) ** 0.5,
    lambda x, c: abs(x - c) ** 0.3,
    lambda x, c: abs(x - c),
    lambda x, c: math.log(abs(x - c)) if x != c else 0.0,
    lambda x, c: abs(x - c) ** -0.9 if x != c else 0.0,
    lambda x, c: float(x > c),
    lambda x, c: math.floor(7.0 * (x - c)),
    lambda x, c: math.sin(50.0 * (x - c)),
    lambda x, c: math.sin(1.0 / (x - c)) if x != c else 0.0,
    lambda x, c: 1.0 / abs(x - c) if x != c else 0.0,
    lambda x, c: 1.0 / (x - c) ** 2 if x != c else 0.0,
    lambda x, c: 1.0 / (x - c) if x != c else 0.0,
)


@st.composite
def integrals(draw):
    """A tail integral, or a rough integrand on [a, b], at a limit of 3, 50 or 200."""
    limit = draw(st.sampled_from((3, 50, 200)))
    if draw(st.booleans()):
        f, a, b, _ = draw(tail_integrals())
        return f, a, b, limit
    a, b = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    c = draw(st.sampled_from((a, b, 0.5 * (a + b), 1.0 / 3.0)))
    return functools.partial(draw(st.sampled_from(_ROUGH)), c=c), a, b, limit


# the start of each warning quad gives, by the dqagse ier code it reports
_SCIPY_IER = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand behavior": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


def _scipy_ier(message):
    return next(ier for start, ier in _SCIPY_IER.items() if message.startswith(start))


def _scipy_dqagse(f, a, b, limit):
    """quad's ``(result, abserr, ier, last)``; ier is read back from its message."""
    out = integrate.quad(f, a, b, epsabs=1e-10, epsrel=1e-10, limit=limit, full_output=1)
    ier = 0 if len(out) == 3 else _scipy_ier(out[3])
    return out[0], out[1], ier, out[2]["last"]


def test_quad_matches_scipy_bit_for_bit(monkeypatch):
    # a case is extrapolated when it runs Wynn's epsilon algorithm
    extrapolations = []
    dqelg = distributions._dqelg
    monkeypatch.setattr(
        distributions, "_dqelg", lambda *args: extrapolations.append(args) or dqelg(*args)
    )
    branches = set()

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(integrals())
    @example((math.sqrt, 0.0, 1.0, 50))
    @example((math.sqrt, 0.5, 0.5, 50))
    @example((math.sqrt, 0.0, 1.0, 3))
    def check(case):
        f, a, b, limit = case
        before = len(extrapolations)
        got = _dqagse(f, a, b, limit)
        assert got == _scipy_dqagse(f, a, b, limit)
        _, _, ier, last = got
        branches.add(
            "empty" if last == 0 else "one step" if last == 1
            else "extrapolated" if len(extrapolations) > before else "subdivided"
        )
        if ier == 1:
            branches.add("limit reached")

    check()
    assert branches == {"empty", "one step", "subdivided", "extrapolated", "limit reached"}


@pytest.mark.parametrize(
    "f, a, b, limit, ier, words",
    [
        (math.sqrt, 0.0, 1.0, 3, 1, "maximum number of subdivisions (3)"),
        (
            lambda x: math.sin(1e6 * x) * 1e-3 + x, -0.6885785688324275, 1.537997070034113,
            200, 2, "roundoff error",
        ),
        (lambda x: 1.0 / abs(x - 1 / 3) if x != 1 / 3 else 0.0, 0.0, 1.0, 50, 3, "bad integrand"),
        (
            lambda x: 1.0 / (x - 0.3) ** 2 if x != 0.3 else 0.0, -0.20293179224741054,
            1.461543391720888, 50, 4, "extrapolation does not converge",
        ),
        (lambda x: abs(x - 1 / 3) ** -1.5 if x != 1 / 3 else 0.0, 0.0, 1.0, 50, 5, "divergent"),
    ],
    ids=["limit", "roundoff", "bad-integrand", "extrapolation-roundoff", "divergent"],
)
def test_quad_warns_where_scipy_does(f, a, b, limit, ier, words):
    with pytest.warns(integrate.IntegrationWarning) as scipy_warnings:
        expected = integrate.quad(f, a, b, epsabs=1e-10, epsrel=1e-10, limit=limit)[0]
    assert [_scipy_ier(str(w.message)) for w in scipy_warnings] == [ier]
    assert _dqagse(f, a, b, limit)[2] == ier
    # a UserWarning, so the suite's error::UserWarning filter catches a stray one
    assert issubclass(QuadratureWarning, UserWarning)
    with pytest.warns(QuadratureWarning, match=re.escape(words)) as ours:
        assert _quad(f, a, b, limit) == expected
    assert len(ours) == 1


_OBJECTIVES = (
    lambda x: (x - 0.3) ** 2,
    lambda x: abs(x - 1.7),
    lambda x: math.sin(3.0 * x),
    lambda x: math.cos(x) * x,
    lambda x: (x - 2.0) ** 4 - x,
    lambda x: -x * math.exp(-abs(x - 0.5)),
    lambda x: math.exp(x) - 2.0 * x,
    lambda x: x**3 - 2.0 * x,
    lambda x: 1.0 / (1.0 + (x - 0.1) ** 2),
    lambda x: math.floor(4.0 * x) - x,
    lambda x: -math.sqrt(abs(x)) + 0.1 * x * x,
    lambda x: 0.0,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.sampled_from(_OBJECTIVES), st.floats(-5.0, 5.0), st.floats(1e-9, 5.0)
)
def test_bounded_min_matches_minimize_scalar(func, a, width):
    b = a + width
    res = optimize.minimize_scalar(
        func, bounds=(a, b), method="bounded", options={"xatol": 1e-10}
    )
    assert _bounded_min(func, a, b, 1e-10) == (res.x, res.fun)


def _scipy_myerson_detail(dist, n):
    """The uniform prior's Myerson detail as computed with scipy's quad and
    minimize_scalar before both were replaced."""

    def revenue(r):
        tail = _scipy_quad(_tail_integrand(dist, n), r, dist.support_max, limit=200)
        return r * (1.0 - dist.cdf(r) ** n) + tail

    xs = np.linspace(dist.support_min, dist.support_max, 129)
    ys = [revenue(x) for x in xs]
    best = int(np.argmax(ys))
    res = optimize.minimize_scalar(
        lambda x: -revenue(x), bounds=(xs[max(best - 1, 0)], xs[min(best + 1, 128)]),
        method="bounded", options={"xatol": 1e-10},
    )
    reserve = float(res.x) if -res.fun >= ys[best] else float(xs[best])
    return MyersonAuction(
        n, reserve, revenue(reserve), (1.0 - dist.cdf(reserve) ** n) / n
    )


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.floats(0.0, 5.0), st.floats(1e-2, 10.0), st.integers(1, 8))
@example(0.0, 1.0, 6)
def test_uniform_myerson_detail_matches_the_scipy_computation(lo, width, n):
    dist = Uniform(lo, lo + width)
    assert myerson_detail(dist, n) == _scipy_myerson_detail(dist, n)
