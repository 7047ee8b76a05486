import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad as scipy_quad

from forkcast.errors import InvalidFamily, NonConvergent, NonFinite
from forkcast import quadrature
from forkcast.quadrature import (
    MAX_LEVEL,
    REL_TOL,
    Exponential,
    LogNormal,
    PointMassTransform,
    PosteriorTransform,
    TruncatedPowerLaw,
    integrate_semi_infinite,
    laplace,
    laplace_weighted,
    posterior_laplace,
    posterior_laplace_weighted,
    posterior_mixture,
)


def post_density(lam, b, gamma):
    return np.exp(-((b - gamma * lam) ** 2) / (2 * gamma * lam)) / np.sqrt(
        2 * np.pi * lam / gamma
    )


def posterior_oracle(b, gamma, s, weighted=False):
    """Numeric integration of the posterior density (y = sqrt(lam) kills the
    b = 0 singularity); independent of the closed forms under test."""
    hi = (b + 60 * math.sqrt(b + 25) + 400) / gamma

    def f(y):
        lam = y * y
        w = lam if weighted else 1.0
        return 2 * y * w * post_density(lam, b, gamma) * math.exp(-s * lam)

    val, _ = scipy_quad(
        f, 0, math.sqrt(hi), limit=600, epsabs=1e-300, epsrel=1e-12,
        points=[math.sqrt(max(b, 1e-12) / gamma)],
    )
    return val


class TestConfig:
    def test_defaults(self):
        assert REL_TOL == 1e-9
        assert MAX_LEVEL == 10


class TestIntegrateSemiInfinite:
    def test_exponential(self):
        assert integrate_semi_infinite(lambda x: np.exp(-x)) == pytest.approx(1.0, rel=1e-9)

    def test_rational(self):
        assert integrate_semi_infinite(lambda x: 1.0 / (1.0 + x) ** 2) == pytest.approx(
            1.0, rel=1e-9
        )

    def test_gamma_two(self):
        assert integrate_semi_infinite(lambda x: x * np.exp(-x)) == pytest.approx(
            1.0, rel=1e-9
        )

    def test_scale_does_not_change_value(self):
        for scale in (1e-4, 1.0, 1e4):
            v = integrate_semi_infinite(lambda x: np.exp(-x / 100.0) / 100.0, scale=scale)
            assert v == pytest.approx(1.0, rel=1e-9)

    def test_non_finite_integrand(self):
        with pytest.raises(NonFinite, match="non-finite at x = ") as err:
            integrate_semi_infinite(lambda x: np.where(x > 1.0, np.nan, 1.0) * np.exp(-x))
        assert float(str(err.value).rsplit("= ", 1)[1]) > 1.0  # names a node where f failed

    def test_level_limit(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_LEVEL", 3)
        with pytest.raises(NonConvergent):
            integrate_semi_infinite(lambda x: np.sin(x) ** 2 * np.exp(-0.001 * x))

    def test_zero_integrand(self):
        assert integrate_semi_infinite(lambda x: np.zeros_like(x)) == 0.0

    @pytest.mark.parametrize("centre, sigma", [(30.0, 0.3), (30.0, 3.0), (100.0, 1.0)])
    @pytest.mark.parametrize("tail", ["exp", "power"])
    def test_small_component_costs_no_more_than_its_lone_integral(self, tail, centre, sigma):
        # each column sums its own range only, so beside a large integrand
        # a 1e-8 bump integrates as it does alone, bit for bit, and the
        # pair evaluates no point that neither lone integral would.  The
        # power tail grows level 0 to x = e^700, where the bump's range
        # does not go.  Every level-0 term of the bump at x = 100 is an
        # exact zero (the nodes nearest it are x = 28.3 and 298): it is
        # refined over the starting span, and not counted as 0
        count = [0]

        def counted(f):
            def g(x):
                count[0] += x.size
                return f(x)

            return g

        def integral(f):
            count[0] = 0
            return quadrature._integrate_semi_infinite(counted(f)), count[0]

        def big(x):
            return np.exp(-x) if tail == "exp" else (1.0 + x) ** -1.5

        def small(x):
            return 1e-8 * np.exp(-0.5 * ((x - centre) / sigma) ** 2)

        (pair, pair_err), pair_points = integral(lambda x: np.column_stack([big(x), small(x)]))
        lone = [integral(f) for f in (big, small)]
        for column, ((value, error), _) in enumerate(lone):
            assert (pair[column], pair_err[column]) == (value, error)
        assert pair_points <= lone[0][1] + lone[1][1]
        assert pair[1] == pytest.approx(1e-8 * sigma * math.sqrt(2.0 * math.pi), rel=1e-9)

    def test_refinement_stays_near_the_terms_that_count(self):
        # past level 0 (the half-integers in u, where x = exp((pi/2) sinh
        # u)), a midpoint is evaluated only within one level-0 step of a
        # term above 1e-18 of the largest, not over the whole first level
        seen = []

        def f(x):
            seen.append(x)
            return x * np.exp(-x)

        quadrature._integrate_semi_infinite(f)
        x = np.concatenate(seen)
        u = np.arcsinh(np.log(x) / (0.5 * math.pi))
        level0 = np.abs(2.0 * u - np.round(2.0 * u)) < 1e-9
        terms = x * np.exp(-x) * x * np.cosh(u)
        big = u[level0][terms[level0] > 1e-18 * terms.max()]
        assert u[~level0].size > 0 and u[level0].min() < big.min() - 0.5
        assert all(np.abs(big - v).min() < 0.5 for v in u[~level0])

    def test_heavy_tail_reaches_the_tolerance(self):
        # in x = t / (1 - t), (1 + x)^-1.25 dx is (1 - t)^-0.75 dt: the mass
        # near t = 1 lies beyond any node a bisection in t can place.  The
        # double-exponential nodes reach x = e^700, with no floating-point
        # warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, error = quadrature._integrate_semi_infinite(lambda x: (1.0 + x) ** -1.25)
        assert abs(value - 4.0) <= error <= REL_TOL * 4.0

    def test_mass_beyond_2_to_53_times_scale_is_integrated(self):
        # (1 + x)^-1.5 has 2 / sqrt(1 + x) of its mass beyond x, 1e-8 of it
        # beyond 4e16; a map x = scale t / (1 - t) gave 1.99999998949
        value, error = quadrature._integrate_semi_infinite(lambda x: (1.0 + x) ** -1.5)
        assert abs(value - 2.0) <= error <= REL_TOL * 2.0


class TestFamilies:
    def test_validation(self):
        with pytest.raises(InvalidFamily):
            Exponential(0.0)
        with pytest.raises(InvalidFamily):
            LogNormal(0.0, 0.0)
        with pytest.raises(InvalidFamily):
            TruncatedPowerLaw(1.0, 5.0)  # shape would be zero
        with pytest.raises(InvalidFamily):
            TruncatedPowerLaw(0.5, -1.0)

    def test_densities_normalize(self):
        families = [
            Exponential(2.0),
            LogNormal(-10.7, 1.27),
            TruncatedPowerLaw(0.75, 5000.0),
        ]
        for fam in families:
            total = integrate_semi_infinite(fam.density, scale=fam.mean())
            assert total == pytest.approx(1.0, rel=1e-7), fam


class TestLaplace:
    def test_exponential_at_zero(self):
        assert laplace(Exponential(2.0), 0.0) == 1.0

    def test_exponential_identity(self):
        assert laplace(Exponential(2.0), 2.0) == 0.5

    def test_tpl_reduces_to_exponential(self):
        # alpha = 0 is the exponential; oracle for the value itself is
        # numeric quadrature of the TPL density
        fam = TruncatedPowerLaw(0.0, 2.0)
        assert laplace(fam, 2.0) == pytest.approx(0.5, rel=1e-12)
        oracle, _ = scipy_quad(lambda lam: fam.density(lam) * math.exp(-2.0 * lam), 0, 40)
        assert laplace(fam, 2.0) == pytest.approx(oracle, rel=1e-9)

    def test_weighted_exponential_mean(self):
        assert laplace_weighted(Exponential(2.0), 0.0) == 0.5

    def test_weighted_tpl_mean(self):
        fam = TruncatedPowerLaw(0.75, 5000.0)
        assert laplace_weighted(fam, 0.0) == pytest.approx(5e-5, rel=1e-12)
        oracle, _ = scipy_quad(
            lambda lam: lam * fam.density(lam) * 1.0, 0, 0.02, limit=300,
            epsabs=1e-300, epsrel=1e-11, points=[1e-8, 1e-4],
        )
        assert laplace_weighted(fam, 0.0) == pytest.approx(oracle, rel=1e-8)

    def test_weighted_lognormal_mean_against_monte_carlo(self):
        mu, sigma = -10.7, 1.2686
        fam = LogNormal(mu, sigma)
        expected = math.exp(mu + 0.5 * sigma**2)
        assert laplace_weighted(fam, 0.0) == pytest.approx(expected, rel=1e-8)
        rng = np.random.Generator(np.random.Philox(key=5))
        draws = fam.sample(rng, 10**6)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - expected) < 3 * se

    @pytest.mark.parametrize(
        "family",
        [Exponential(2.0e4), LogNormal(-10.7, 1.27), TruncatedPowerLaw(0.75, 5000.0)],
    )
    def test_monotone_decay_and_normalization(self, family):
        values = [laplace(family, s) for s in (0.0, 1.0, 10.0, 1e3, 1e5)]
        assert values[0] == pytest.approx(1.0, rel=1e-9)
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "family",
        [Exponential(2.0e4), LogNormal(-10.7, 1.27), TruncatedPowerLaw(0.75, 5000.0)],
    )
    def test_weighted_at_zero_is_mean(self, family):
        assert laplace_weighted(family, 0.0) == pytest.approx(family.mean(), rel=1e-8)

    @given(r=st.floats(0.1, 1e6), s=st.floats(0.0, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_tpl_alpha_zero_equals_exponential(self, r, s):
        assert laplace(TruncatedPowerLaw(0.0, r), s) == pytest.approx(
            laplace(Exponential(r), s), rel=1e-10
        )
        assert laplace_weighted(TruncatedPowerLaw(0.0, r), s) == pytest.approx(
            laplace_weighted(Exponential(r), s), rel=1e-10
        )


class TestPosterior:
    def test_normalization_any_count(self):
        for b in (0, 1, 7, 100, 20000):
            assert posterior_laplace(b, 3.7, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_count_example(self):
        # oracle: quadrature of the zero-count posterior density
        expected = 1.0 / math.sqrt(2.5)
        assert posterior_laplace(0, 2.0, 1.5) == pytest.approx(expected, rel=1e-12)
        assert posterior_laplace(0, 2.0, 1.5) == pytest.approx(
            posterior_oracle(0, 2.0, 1.5), rel=1e-9
        )

    def test_large_gamma_example(self):
        b, gamma, s = 100, 1.17647e7, 1.0
        u = math.sqrt(1 + 2 * s / gamma)
        assert posterior_laplace(b, gamma, s) == pytest.approx(
            math.exp(b * (1 - u)) / u, rel=1e-12
        )
        assert posterior_laplace(b, gamma, s) == pytest.approx(
            posterior_oracle(b, gamma, s), rel=1e-9
        )

    def test_weighted_zero_count_mean(self):
        assert posterior_laplace_weighted(0, 2.0, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_weighted_mean_formula(self):
        assert posterior_laplace_weighted(100, 1e6, 0.0) == pytest.approx(
            101 / 1e6, rel=1e-12
        )
        assert posterior_laplace_weighted(100, 1e6, 0.0) == pytest.approx(
            posterior_oracle(100, 1e6, 0.0, weighted=True), rel=1e-9
        )

    @pytest.mark.parametrize("b", [0, 1, 100, 1000])
    @pytest.mark.parametrize("k", [-3, -1, 0, 1, 3])
    def test_weighted_is_derivative(self, b, k):
        # central difference at h = 1e-6 s; evaluated in 50-digit arithmetic
        # because at the small-s end the difference sits far below float64
        # resolution around L ~ 1
        import mpmath

        gamma = 1.17647e7
        s = 10.0**k / gamma
        h = 1e-6 * s
        with mpmath.workdps(50):
            g, bb = mpmath.mpf(gamma), mpmath.mpf(b)

            def L(sv):
                u = mpmath.sqrt(1 + 2 * mpmath.mpf(sv) / g)
                return mpmath.exp(bb * (1 - u)) / u

            fd = float(-(L(s + h) - L(s - h)) / (2 * mpmath.mpf(h)))
        assert posterior_laplace_weighted(b, gamma, s) == pytest.approx(fd, rel=1e-6)

    def test_monotone_decay(self):
        gamma = 1e6
        values = [posterior_laplace(50, gamma, s) for s in (0.0, 1.0, 100.0, 1e4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            posterior_laplace(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            posterior_laplace(1, 1.0, -1.0)
        with pytest.raises(ValueError):
            posterior_laplace(-1, 1.0, 1.0)


class TestTransforms:
    @pytest.mark.parametrize(
        "family",
        [Exponential(2.0e4), LogNormal(-10.7, 1.27), TruncatedPowerLaw(0.75, 5000.0)],
    )
    def test_log_transforms_match_linear(self, family):
        tr = family
        s = np.array([0.0, 0.5, 50.0, 5e4])
        for si, ll, lw in zip(s, tr.log_laplace(s), tr.log_laplace_weighted(s)):
            assert math.exp(ll) == pytest.approx(laplace(family, si), rel=1e-8)
            assert math.exp(lw) == pytest.approx(laplace_weighted(family, si), rel=1e-8)

    @pytest.mark.parametrize(
        "family",
        [Exponential(2.0e4), LogNormal(-10.7, 1.27), TruncatedPowerLaw(0.75, 5000.0)],
    )
    def test_decrement_matches_log_difference(self, family):
        tr = family
        s = np.array([0.0, 1.0, 100.0])
        d = 7.0
        dec = tr.log_laplace_decrement(s, d)
        naive = tr.log_laplace(s + d) - tr.log_laplace(s)
        assert np.allclose(dec, naive, rtol=1e-6, atol=1e-12)
        assert np.all(dec <= 0)

    def test_point_mass_transform(self):
        tr = PointMassTransform(0.001)
        s = np.array([0.0, 10.0])
        assert np.allclose(np.exp(tr.log_laplace(s)), np.exp(-0.001 * s))
        assert np.allclose(np.exp(tr.log_laplace_weighted(s)), 0.001 * np.exp(-0.001 * s))
        assert tr.mean() == 0.001

    def test_mixture_equal_weights(self):
        gamma = 1e6
        s = np.array([0.0, 3.0, 300.0])
        # the second vector repeats counts, which share one grouped component
        for counts in ((0, 5, 50), (0, 5, 5, 50, 0, 0, 5)):
            comps = [PosteriorTransform(b, gamma) for b in counts]
            mix = posterior_mixture(counts, gamma)
            direct = np.mean(
                [np.exp(c.log_laplace(s)) for c in comps], axis=0
            )
            assert np.allclose(np.exp(mix.log_laplace(s)), direct, rtol=1e-12)
            assert mix.mean() == pytest.approx(np.mean([c.mean() for c in comps]))

    def test_mixture_decrement_is_stable(self):
        gamma = 1.17647e7
        s = np.array([1.0, 500.0])
        d = 1e-4
        for counts in ((1, 100, 6000), (1, 1, 1, 100, 6000, 6000)):
            mix = posterior_mixture(counts, gamma)
            dec = mix.log_laplace_decrement(s, d)
            # the analytic derivative of log L bounds the decrement: dec ~ -d * W/L
            w_over_l = np.exp(mix.log_laplace_weighted(s) - mix.log_laplace(s))
            assert np.allclose(dec, -d * w_over_l, rtol=1e-3)

    @pytest.mark.parametrize("rate", [1e-3, 2.0e4, 20588.235294117647])
    def test_exponential_is_the_alpha_zero_power_law(self, rate):
        exp, tpl = Exponential(rate), TruncatedPowerLaw(0.0, rate)
        s = np.array([0.0, 1e-3, 0.5, 50.0, 5e4, 1e9])
        assert np.array_equal(exp.log_laplace(s), tpl.log_laplace(s))
        assert np.array_equal(exp.log_laplace_weighted(s), tpl.log_laplace_weighted(s))
        for d in (1e-6, 0.815, 9.0):
            assert np.array_equal(
                exp.log_laplace_decrement(s, d), tpl.log_laplace_decrement(s, d)
            )
        assert exp.mean() == tpl.mean()

    def test_mixture_rows_equal_single_quantity_formulas(self):
        # reference: the mixture decrement formed one delay at a time
        gamma = 1.17647e7
        s = np.array([0.0, 1.0, 500.0, 1e5])
        delays = (1e-4, 0.815, 9.0)
        for counts in ((0, 5, 50), (1, 1, 1, 100, 6000, 6000, 0)):
            mix = posterior_mixture(counts, gamma)
            log_w, log_l, dec = mix.log_rows(s, delays)
            assert np.array_equal(log_w, mix.log_laplace_weighted(s))
            assert np.array_equal(log_l, mix.log_laplace(s))
            assert dec.shape == (s.size, len(delays))
            comp_l = mix.components.log_laplace(s) + mix.log_weights
            a = np.exp(comp_l - np.max(comp_l, axis=0))
            for j, d in enumerate(delays):
                comp_dec = mix.components.log_laplace_decrement(s, d)
                drop = np.sum(a * (-np.expm1(comp_dec)), axis=0)
                expected = np.log1p(-drop / np.sum(a, axis=0))
                assert np.array_equal(dec[:, j], expected)
                assert np.array_equal(mix.log_laplace_decrement(s, d), expected)

    def test_posterior_transform_broadcasts_over_counts(self):
        gamma = 9500.0
        counts = np.array([0.0, 3.0, 12.0])
        s = np.array([0.0, 1e-3, 2.0, 50.0])
        grouped = PosteriorTransform(counts, gamma)
        assert grouped.log_laplace(s).shape == (3, 4)
        assert PosteriorTransform(3, gamma).log_laplace(s).shape == (4,)
        for method, args in (("log_laplace", ()), ("log_laplace_weighted", ()),
                             ("log_laplace_decrement", (0.815,))):
            rows = getattr(grouped, method)(s, *args)
            for row, b in zip(rows, counts):
                single = getattr(PosteriorTransform(b, gamma), method)(s, *args)
                assert np.array_equal(row, single)
        assert np.array_equal(grouped.mean(), (1.0 + counts) / gamma)


class TestSamplers:
    N = 200_000

    def assert_column_means(self, draws, means):
        stderr = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - means) <= 4 * stderr)

    def test_posterior_counts_broadcast_over_columns(self):
        rng = np.random.default_rng(3)
        tr = PosteriorTransform(np.array([0.0, 3.0, 40.0]), 1e4)
        draws = tr.sample(rng, (self.N, 3))
        assert draws.shape == (self.N, 3) and np.all(draws > 0)
        self.assert_column_means(draws, tr.mean())

    def test_posterior_rows_pick_the_count_of_each_column(self):
        rng = np.random.default_rng(4)
        tr = PosteriorTransform(np.array([0.0, 3.0, 40.0]), 1e4)
        rows = np.array([2, 0, 0, 1])
        self.assert_column_means(tr.sample(rng, (self.N, 4), rows=rows), tr.mean()[rows])

    def test_mixture_draws_have_the_mixture_mean(self):
        rng = np.random.default_rng(5)
        mix = posterior_mixture((0, 3, 3, 40), 1e4)
        self.assert_column_means(mix.sample(rng, (self.N, 2)), mix.mean())

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("b", [0, 1, 35, 6295])
    def test_posterior_count_draws_follow_their_law(self, b, mixed):
        # a positive count's reciprocal rates are inverse Gaussian with mean
        # gamma/b and shape gamma, a zero count's rates Gamma(1/2, rate
        # gamma/2); mixed arrays interleave a column of the other branch
        gamma = 1e4
        counts = np.full((self.N, 2 if mixed else 1), float(b))
        counts[:, 1:] = 0.0 if b else 3.0
        rng = np.random.Generator(np.random.SFC64(b))
        draws = PosteriorTransform(b, gamma).sample_counts(rng, counts)[:, 0]
        if b:
            sample, law = 1 / draws, stats.invgauss(1 / b, scale=gamma)
        else:
            sample, law = draws, stats.gamma(0.5, scale=2 / gamma)
        assert stats.kstest(sample, law.cdf).pvalue > 1e-3

    def test_point_mass_draws_its_rate(self):
        draws = PointMassTransform(0.001).sample(np.random.default_rng(6), (4, 2))
        assert np.array_equal(draws, np.full((4, 2), 0.001))


class TestLogNormalOracle:
    """The lognormal transforms against 40-digit ``mpmath`` sums."""

    DELAYS = (1e-6, 0.815, 9.0, 1e3)

    @staticmethod
    def reference_family():
        from forkcast.estimate import fit_moments, method_of_moments
        from forkcast.model import BlockCounts
        from forkcast.synthetic import REFERENCE_COUNTS, REFERENCE_LAMBDA

        moments = fit_moments(BlockCounts(REFERENCE_COUNTS), REFERENCE_LAMBDA)
        return method_of_moments(moments, "lognormal")

    @classmethod
    def family(cls, name):
        """The reference fit, or a family of the fit's mean with ``sigma`` from ``name``."""
        fit = cls.reference_family()
        if name == "fit":
            return fit
        sigma = float(name.removeprefix("sigma-"))
        return LogNormal(math.log(fit.mean()) - 0.5 * sigma * sigma, sigma)

    @staticmethod
    def mpmath_log_rows(fam, s, delays):
        """Logs of ``[L, W, D_d per delay]`` at ``s`` from 40-digit Gauss-Legendre pieces.

        The pieces tile ``[z* - 12, z* + sigma + 12]`` in ``z = (log lam -
        mu) / sigma`` from the plain integrand's mode ``z* = -w / sigma``,
        ``w = W0(s sigma^2 e^mu)``; each is ``min(1 / sigma, 1 / sqrt(1 +
        w))`` wide and takes 12 nodes, so no piece holds more than one
        transition of the integrand.  48 nodes on pieces 0.4 times as wide
        and a 16-wide margin give the same values in double precision.
        """
        import mpmath

        with mpmath.workdps(40):
            mu, sigma, s = (mpmath.mpf(v) for v in (fam.mu, fam.sigma, s))
            w = mpmath.lambertw(s * sigma**2 * mpmath.exp(mu)).real
            width = min(1 / sigma, 1 / mpmath.sqrt(1 + w))
            rule = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(3, mpmath.mp.prec)
            ds = [mpmath.mpf(d) for d in delays]
            sums = [mpmath.mpf(0)] * (2 + len(ds))
            lo = -w / sigma - 12
            for k in range(int((24 + sigma) / width) + 1):
                for x, weight in rule:
                    z = lo + width * (k + (x + 1) / 2)
                    lam = mpmath.exp(mu + sigma * z)
                    p = weight * mpmath.npdf(z) * mpmath.exp(-s * lam)
                    terms = [p, p * lam, *(p * -mpmath.expm1(-d * lam) for d in ds)]
                    sums = [a + b for a, b in zip(sums, terms)]
            return [float(mpmath.log(v * width / 2)) for v in sums]

    def assert_rows_match_mpmath(self, fam, s):
        log_w, log_l, dec = fam.log_rows(np.array([s]), self.DELAYS)
        got = [log_l[0], log_w[0], *(log_l[0] + np.log(-np.expm1(dec[0])))]
        want = self.mpmath_log_rows(fam, s, self.DELAYS)
        # logs equal to 1e-10 are values equal to 1e-10 relative, however small
        assert np.allclose(got, want, rtol=0.0, atol=1e-10), (got, want)

    @pytest.mark.parametrize(
        "name, s_mean",
        [("fit", 1e-2), ("fit", 1e8)]
        + [(name, s_mean) for name in ("fit", "sigma-0.5", "sigma-3") for s_mean in (0.0, 1.0, 1e4, 1e12)],
    )
    def test_components_against_mpmath(self, name, s_mean):
        fam = self.family(name)
        self.assert_rows_match_mpmath(fam, s_mean / fam.mean())

    @pytest.mark.parametrize(
        "fam, s",
        [
            (LogNormal(-10.0, 0.1), 1e3 / LogNormal(-10.0, 0.1).mean()),
            (LogNormal(-10.0, 0.1), 1e4 / LogNormal(-10.0, 0.1).mean()),
            ("fit", 1e10),
            ("fit", 1e12),
        ],
    )
    def test_tails_below_the_former_absolute_floor(self, fam, s):
        # a nested adaptive integral with a 1e-18 absolute floor returned
        # log L = -325.839 and -inf for the first two, and L 0.7 % high and
        # 85 % low for the fit
        self.assert_rows_match_mpmath(self.family(fam) if fam == "fit" else fam, s)

    def test_one_batch_from_zero_past_the_cutoff(self):
        # one nested adaptive integral over this batch ran out of segments
        fam = self.reference_family()
        s = np.array([0.0, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8]) / fam.mean()
        log_w, log_l, dec = fam.log_rows(s, self.DELAYS)
        for i, si in enumerate(s):
            one_w, one_l, one_dec = fam.log_rows(np.array([si]), self.DELAYS)
            assert np.allclose([log_w[i], log_l[i]], [one_w[0], one_l[0]], rtol=0.0, atol=1e-12)
            assert np.allclose(dec[i], one_dec[0], rtol=1e-12, atol=0.0)
        assert np.all(dec < 0.0)

    def test_subnormal_argument(self):
        fam = self.reference_family()
        assert laplace(fam, 5e-324) == pytest.approx(1.0, rel=0.0, abs=1e-15)
        assert laplace_weighted(fam, 5e-324) == pytest.approx(fam.mean(), rel=1e-14)

    def test_node_budget(self):
        # sigma = 100 would need about 40,000 nodes; an overflowed argument, infinitely many
        with pytest.raises(NonConvergent, match="nodes"):
            LogNormal(-5000.0, 100.0).log_laplace(np.array([1.0]))
        with pytest.raises(NonConvergent, match="nodes"):
            self.reference_family().log_laplace(np.array([0.0, np.inf]))

    def test_wide_family_raises_no_floating_point_warning(self):
        from forkcast.forkrate import fork_rate_iid

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fork_rate_iid(LogNormal(-400.0, 28.0), 35, 1.0)
        assert 0.0 < res.error_estimate < res.value

    def test_fork_rate_at_micro_delay_within_error_estimate(self):
        # Reference from nested mpmath.quad at 20 digits (about 80 s):
        #   L(x), W(x), D(x) = mpmath.quad over z in [-40, -8, -2, 0, 2, 8, 40] of
        #     npdf(z) * {1, lam, -expm1(-d*lam)} * exp(-x*lam),  lam = exp(mu + sigma*z);
        #   C = mpmath.quad over x in [0, c, 10c, 100c, inf], c = 1/(n*mean), of
        #     n * W * L**(n-1) * -expm1((n-1) * log1p(-D/L)),
        # with n = 35, d = 1e-6 and the reference family's mu and sigma.
        from forkcast.forkrate import fork_rate_iid

        res = fork_rate_iid(self.reference_family(), 35, 1e-6)
        assert abs(res.value - 1.5082795646174628e-9) <= res.error_estimate


class TestTransformProtocol:
    """Every in-package transform defines ``log_rows``; the single-quantity methods are views."""

    GAMMA = 1.17647e7
    DELAYS = (1e-4, 0.815, 9.0)
    TRANSFORMS = {
        "exp": Exponential(2.0e4),
        "tpl": TruncatedPowerLaw(0.75, 5000.0),
        "lognormal": TestLogNormalOracle.reference_family(),
        "point-mass": PointMassTransform(1e-3),
        "posterior": PosteriorTransform(3.0, GAMMA),
        "posterior-array": PosteriorTransform(np.array([0.0, 3.0, 600.0]), GAMMA),
        "mixture": posterior_mixture([600, 250, 250, 90, 9, 1, 0], GAMMA),
    }

    @pytest.mark.parametrize("s", [np.array([0.0, 0.5, 50.0, 5e4]), 0.5], ids=["1-d", "scalar"])
    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_views_equal_the_rows(self, name, s):
        tr = self.TRANSFORMS[name]
        log_w, log_l, dec = tr.log_rows(s, self.DELAYS)
        assert log_w.shape == log_l.shape and dec.shape == log_l.shape + (len(self.DELAYS),)
        assert np.array_equal(tr.log_laplace(s), log_l)
        assert np.array_equal(tr.log_laplace_weighted(s), log_w)
        for j, d in enumerate(self.DELAYS):
            assert np.array_equal(tr.log_laplace_decrement(s, d), dec[..., j])
        assert np.array_equal(tr.log_laplace_decrement(s, 0.0), np.zeros_like(log_l))

    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_no_transform_redefines_a_view(self, name):
        for view in ("log_laplace", "log_laplace_weighted", "log_laplace_decrement"):
            assert getattr(type(self.TRANSFORMS[name]), view) is getattr(quadrature._Transform, view)

    def test_mixture_at_a_scalar_argument(self):
        counts, gamma, s = [5, 3, 3, 0], 1e6, 0.5
        want = np.mean([posterior_laplace(b, gamma, s) for b in counts])
        mix = posterior_mixture(counts, gamma)
        assert laplace(mix, s) == pytest.approx(want, rel=1e-14)
        assert mix.log_laplace_decrement(s, 1.0).shape == (1,)
