import math
import warnings

import numpy as np
import pytest

from forkcast import estimate
from forkcast.errors import DegenerateMinerSet, InvalidDelay, InvalidModel, InvalidMoments
from forkcast.estimate import (
    MomentPair,
    add_zero_miners,
    confidence_band,
    estimate_hash_rates,
    estimator_uncertainty,
    fit_moments,
    method_of_moments,
)
from forkcast.forkrate import fork_rate_iid, hhi, hhi_from_counts
from forkcast.model import BlockCounts
from forkcast.quadrature import Exponential, LogNormal, TruncatedPowerLaw

from conftest import SUITE_SEED

# frozen moment identities for (m, s) = (5e-5, 1e-4):
#   sigma = sqrt(ln(1 + (s/m)^2)) = sqrt(ln 5), mu = ln m - sigma^2 / 2
SIGMA_REFERENCE = 1.2686362411795916
MU_REFERENCE = -10.708206508753177


class TestEstimateHashRates:
    def test_equal_split(self):
        ms = estimate_hash_rates(BlockCounts([10000, 10000]), 0.0017)
        assert ms.lambdas == pytest.approx((8.5e-4, 8.5e-4))

    def test_zero_count_miner_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="zero-count"):
            ms = estimate_hash_rates(BlockCounts([20000, 0]), 0.0017)
        assert ms.lambdas == (0.0017,)

    def test_sum_preserved(self, reference_counts, reference_lambda):
        ms = estimate_hash_rates(reference_counts, reference_lambda)
        assert ms.total == pytest.approx(reference_lambda, rel=1e-14)

    def test_fixture_shares_and_hhi(self, reference_counts, reference_lambda):
        ms = estimate_hash_rates(reference_counts, reference_lambda)
        shares = np.asarray(reference_counts.counts) / reference_counts.total
        assert np.allclose(ms.shares, shares, rtol=1e-14)
        assert hhi(ms.shares) == pytest.approx(
            float((shares**2).sum()), rel=1e-12
        )
        assert hhi_from_counts(reference_counts) == pytest.approx(
            hhi(ms.shares), rel=1e-12
        )


class TestFitMoments:
    def test_equal_counts_degenerate(self):
        mp = fit_moments(BlockCounts([500, 500, 500]), 0.0017)
        assert mp.s == 0.0
        with pytest.raises(InvalidMoments):
            method_of_moments(mp, "lognormal")
        with pytest.raises(InvalidMoments):
            method_of_moments(mp, "tpl")
        # exponential only needs the mean
        assert method_of_moments(mp, "exp").rate == pytest.approx(3 / 0.0017)

    def test_two_miner_hand_arithmetic(self):
        mp = fit_moments(BlockCounts([15000, 5000]), 0.002)
        assert mp.m == pytest.approx(0.001)
        rates = np.array([15000, 5000]) * 0.002 / 20000
        assert mp.s == pytest.approx(float(np.std(rates, ddof=1)), rel=1e-14)

    def test_reference_fixture_hits_operating_point(
        self, reference_counts, reference_lambda
    ):
        mp = fit_moments(reference_counts, reference_lambda)
        assert mp.m == pytest.approx(5e-5, rel=0.03)
        assert mp.s == pytest.approx(1e-4, rel=0.03)

    def test_needs_two_miners(self):
        with pytest.raises(DegenerateMinerSet):
            fit_moments(BlockCounts([100]), 0.0017)


class TestMethodOfMoments:
    def test_exponential_rate(self):
        fam = method_of_moments(MomentPair(5e-5, 1e-4), "exp")
        assert fam.rate == pytest.approx(20000.0, rel=1e-12)

    def test_tpl_parameters_and_roundtrip(self):
        fam = method_of_moments(MomentPair(5e-5, 1e-4), "tpl")
        assert fam.alpha == pytest.approx(0.75, rel=1e-12)
        assert fam.beta == pytest.approx(5000.0, rel=1e-12)
        assert fam.mean() == pytest.approx(5e-5, rel=1e-12)
        assert fam.std() == pytest.approx(1e-4, rel=1e-12)

    def test_lognormal_parameters_and_roundtrip(self):
        fam = method_of_moments(MomentPair(5e-5, 1e-4), "lognormal")
        assert fam.sigma == pytest.approx(SIGMA_REFERENCE, rel=1e-10)
        assert fam.mu == pytest.approx(MU_REFERENCE, rel=1e-10)
        assert fam.mean() == pytest.approx(5e-5, rel=1e-10)
        assert fam.std() == pytest.approx(1e-4, rel=1e-10)

    def test_tpl_near_exponential_limit(self):
        m = 5e-5
        fam = method_of_moments(MomentPair(m, m * (1 + 1e-9)), "tpl")
        assert fam.alpha == pytest.approx(0.0, abs=1e-8)
        assert fam.beta == pytest.approx(1 / m, rel=1e-8)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            method_of_moments(MomentPair(1.0, 1.0), "weibull")


class TestEstimatorUncertainty:
    def test_boundary_share(self):
        unc = estimator_uncertainty(BlockCounts([20000, 0]), 0.0017)
        assert unc.p_hat == (1.0, 0.0)
        assert unc.var_p == (0.0, 0.0)
        assert unc.var_m == 0.0

    def test_half_share_arithmetic(self):
        unc = estimator_uncertainty(BlockCounts([10000, 10000]), 0.0017)
        assert unc.var_p[0] == pytest.approx(1.25e-5, rel=1e-12)

    def test_brute_force_propagation(self, reference_counts, reference_lambda):
        unc = estimator_uncertainty(reference_counts, reference_lambda)
        b_total = reference_counts.total
        n = reference_counts.n
        var_p = [
            (c / b_total) * (1 - c / b_total) / b_total
            for c in reference_counts.counts
        ]
        var_m = reference_lambda**2 / n**2 * sum(var_p)
        var_s2 = 2 * reference_lambda**4 / (n * (n - 1)) * sum(v * v for v in var_p)
        assert unc.var_m == pytest.approx(var_m, rel=1e-12)
        assert unc.var_s2 == pytest.approx(var_s2, rel=1e-12)


class TestLambdaTotalValidation:
    """``lambda_total`` is checked where it enters the estimators."""

    def test_fit_moments_rejects_subnormal(self, reference_counts):
        with pytest.raises(InvalidModel, match="lambda_total"):
            fit_moments(reference_counts, 1e-320)

    def test_fit_moments_rejects_infinite(self, reference_counts):
        with pytest.raises(InvalidModel, match="lambda_total"):
            fit_moments(reference_counts, math.inf)

    def test_estimate_hash_rates_rejects_subnormal(self, reference_counts):
        with pytest.raises(InvalidModel, match="lambda_total"):
            estimate_hash_rates(reference_counts, 1e-320)

    def test_uncertainty_rejects_infinite(self, reference_counts):
        with pytest.raises(InvalidModel, match="lambda_total"):
            estimator_uncertainty(reference_counts, math.inf)

    def test_uncertainty_rejects_underflowing_variance(self, reference_counts):
        # lambda_total is a normal float, but var_s2 ~ lambda_total**4 underflows
        with pytest.raises(InvalidModel, match="lambda_total"):
            estimator_uncertainty(reference_counts, 1e-200)

    @pytest.mark.parametrize("lam", [1e-200, 1e160])
    def test_fit_moments_rejects_unrepresentable_spread(self, reference_counts, lam):
        # the rate variance s**2 underflows (1e-200) or overflows (1e160)
        with pytest.raises(InvalidModel, match="lambda_total"):
            fit_moments(reference_counts, lam)

    def test_representable_extremes_pass(self, reference_counts):
        unc = estimator_uncertainty(reference_counts, 1e-70)
        assert unc.var_s2 > 0 and unc.var_m > 0
        assert fit_moments(BlockCounts([5, 5, 5]), 1e-200).s == 0.0

    @pytest.mark.parametrize("lam", [0.0, -1e-3, math.nan])
    def test_every_estimator_rejects(self, reference_counts, lam):
        for call in (estimate_hash_rates, fit_moments, estimator_uncertainty):
            with pytest.raises(InvalidModel, match="lambda_total"):
                call(reference_counts, lam)


class TestConfidenceBand:
    def test_deterministic_and_bracketing(self, reference_counts, reference_lambda):
        kwargs = dict(
            counts=reference_counts,
            lambda_total=reference_lambda,
            family_kind="exp",
            delta0_grid=(0.5, 2.0),
            n_samples=100,
            seed=SUITE_SEED,
        )
        band = confidence_band(**kwargs)
        assert band == confidence_band(**kwargs)
        for lo, pt, up in zip(band.lower, band.point, band.upper):
            assert lo <= pt <= up

    def test_band_narrows_with_more_blocks(self):
        base = [600, 250, 100, 50]
        widths = []
        for scale in (1, 2):
            counts = BlockCounts([c * scale for c in base])
            band = confidence_band(
                counts, 0.0017, "exp", (1.0,), 150, seed=SUITE_SEED
            )
            widths.append(band.upper[0] - band.lower[0])
        assert widths[1] < widths[0]

    def test_input_validation(self, reference_counts, reference_lambda):
        with pytest.raises(ValueError):
            confidence_band(reference_counts, reference_lambda, "exp", (1.0,), 10)
        with pytest.raises(ValueError):
            confidence_band(
                reference_counts, reference_lambda, "exp", (1.0,), 100,
                percentiles=(95.0, 5.0),
            )

    @pytest.mark.parametrize("seed, message", [(-3, "seed must lie in"),
                                               (1 << 128, "seed must lie in"),
                                               (1.5, "seed must be an int"),
                                               (True, "seed must be an int")])
    def test_seed_outside_the_key_range_rejected(self, reference_counts, reference_lambda,
                                                 seed, message):
        with pytest.raises(InvalidModel, match=message):
            confidence_band(reference_counts, reference_lambda, "exp", (1.0,), 100, seed=seed)

    def test_largest_seed_runs(self, reference_counts, reference_lambda):
        band = confidence_band(reference_counts, reference_lambda, "exp", (1.0,), 100,
                               seed=(1 << 128) - 1)
        assert band.lower[0] <= band.point[0] <= band.upper[0]

    def test_too_few_usable_draws(self, reference_counts, reference_lambda, monkeypatch):
        # a floor far above s^2 rejects every one of the capped draws
        monkeypatch.setattr(estimate, "_S2_FLOOR_FRACTION", 100.0)
        with pytest.raises(InvalidMoments, match="could not draw 100 usable .* in 1000 attempts"):
            confidence_band(reference_counts, reference_lambda, "exp", (1.0,), 100)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, 1e-310, math.inf])
    def test_bad_delay_rejected_before_any_draw(
        self, reference_counts, reference_lambda, bad, monkeypatch
    ):
        def no_fit(*args):
            pytest.fail("the band started fitting before the grid was validated")

        monkeypatch.setattr(estimate, "fit_moments", no_fit)
        with pytest.raises(InvalidDelay):
            confidence_band(reference_counts, reference_lambda, "exp", (0.5, bad), 100)

    def test_coverage_on_synthetic_truth(self):
        # rates drawn from a known exponential market, counts multinomial
        # on the realized shares; the band quantifies exactly that count
        # noise, so it should cover the curve implied by the realized
        # rates' own moments at >= 80% of grid points
        rng = np.random.Generator(np.random.Philox(key=SUITE_SEED))
        true_family = Exponential(20000.0)
        n, b_total = 20, 20000
        grid = (0.5, 2.0)
        covered = total = 0
        for _ in range(15):
            rates = true_family.sample(rng, n)
            lam = float(rates.sum())
            target_family = Exponential(n / lam)  # fit at the true sample mean
            target_c = [fork_rate_iid(target_family, n, d).value for d in grid]
            counts = BlockCounts(rng.multinomial(b_total, rates / lam))
            band = confidence_band(
                counts, lam, "exp", grid, 100, seed=SUITE_SEED
            )
            for j in range(len(grid)):
                total += 1
                if band.lower[j] <= target_c[j] <= band.upper[j]:
                    covered += 1
        assert covered / total >= 0.8


class TestZeroMiners:
    def test_identity(self, reference_counts):
        assert add_zero_miners(reference_counts, 0) is reference_counts

    def test_appends_zeros(self):
        out = add_zero_miners(BlockCounts([5, 3]), 2)
        assert out.counts == (5, 3, 0, 0)

    def test_refit_mean_shrinks(self, reference_counts, reference_lambda):
        for n_zero in (1, 5, 20):
            enlarged = add_zero_miners(reference_counts, n_zero)
            mp = fit_moments(enlarged, reference_lambda)
            assert mp.m == pytest.approx(
                reference_lambda / (reference_counts.n + n_zero), rel=1e-12
            )

    def test_rejects_negative(self, reference_counts):
        with pytest.raises(ValueError):
            add_zero_miners(reference_counts, -1)
