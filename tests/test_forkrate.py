import math
import sys
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from forkcast.errors import (
    DegenerateHHI,
    DegenerateMinerSet,
    InvalidDelay,
    InvalidModel,
    ShareSumViolation,
)
from forkcast.forkrate import (
    _excluding_row_sums,
    _population_integral,
    conditional_fork_rate,
    fork_rate,
    fork_rate_curve,
    fork_rate_iid,
    fork_rate_inid,
    fork_rate_semi_empirical,
    hhi,
    hhi_from_counts,
    implied_delta0,
    implied_hhi,
    pdf_delta_conditional,
    taylor_fork_rate,
)
from forkcast.model import (
    BlockCounts,
    Fixed,
    IIDNull,
    INIDNull,
    MinerSet,
    SemiEmpiricalIID,
    SemiEmpiricalINID,
)
from forkcast.quadrature import (
    REL_TOL,
    Exponential,
    LogNormal,
    PointMassTransform,
    PosteriorTransform,
    TruncatedPowerLaw,
    posterior_mixture,
)
from forkcast.simulate import SimConfig, simulate_fork_rate

from conftest import SUITE_SEED, gamma_form_reference

# 40-digit reference for the two-miner exponential market at r = 20000,
# delta0 = 1 (closed form 1 - 2r/d + 2 r^2 log(1 + d/r) / d^2 evaluated in
# extended precision; the float64 expression loses nine digits)
EXP_N2_D1_REFERENCE = 3.333208338333125e-05


class TestHHI:
    def test_equal_shares(self):
        assert hhi([0.25] * 4) == pytest.approx(0.25, rel=1e-12)

    def test_monopoly(self):
        assert hhi([1.0]) == 1.0

    def test_forced_arithmetic(self):
        assert hhi([0.5, 0.3, 0.2]) == pytest.approx(0.38, rel=1e-12)

    def test_rejects_bad_sum(self):
        with pytest.raises(ShareSumViolation):
            hhi([0.5, 0.4])
        with pytest.raises(ShareSumViolation):
            hhi([0.5, -0.1, 0.6])

    @given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant_and_bounded(self, weights):
        total = sum(weights)
        shares = [w / total for w in weights]
        value = hhi(shares)
        assert 1.0 / len(shares) - 1e-9 <= value <= 1.0 + 1e-12
        assert hhi(list(reversed(shares))) == pytest.approx(value, rel=1e-12)

    def test_from_counts(self):
        assert hhi_from_counts(BlockCounts([2, 1, 1])) == pytest.approx(0.375)


class TestConditional:
    def test_two_equal_miners_closed_form(self):
        res = conditional_fork_rate(MinerSet([0.001, 0.001]), 100.0)
        assert res.value == pytest.approx(1 - math.exp(-0.1), rel=1e-13)
        assert res.value == pytest.approx(0.0951626, rel=1e-6)
        assert res.method == "conditional"

    def test_zero_delay_exact(self):
        assert conditional_fork_rate(MinerSet([0.001, 0.0007]), 0.0).value == 0.0

    def test_against_monte_carlo(self):
        miners = MinerSet([0.001, 0.0007])
        analytic = conditional_fork_rate(miners, 10.0).value
        sim = simulate_fork_rate(SimConfig(Fixed(miners), 10.0, 10**6, SUITE_SEED))
        assert abs(sim.fork_rate - analytic) <= 3 * sim.stderr

    def test_equal_miner_identity(self):
        # n equal miners: C = 1 - exp(-d * total * (n-1) / n)
        for n in (2, 5, 35):
            lam = 0.0017 / n
            miners = MinerSet([lam] * n)
            for d0 in (0.5, 10.0, 600.0):
                expected = -math.expm1(-d0 * 0.0017 * (n - 1) / n)
                got = conditional_fork_rate(miners, d0).value
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_needs_two_miners(self):
        with pytest.raises(DegenerateMinerSet):
            conditional_fork_rate(MinerSet([0.001]), 1.0)

    def test_characteristic_time_attached(self):
        res = conditional_fork_rate(MinerSet([0.001, 0.001]), 100.0)
        assert res.characteristic_time == pytest.approx(0.2)


class TestPdfConditional:
    def test_symmetric_reduction(self):
        lam = 0.001
        miners = MinerSet([lam, lam])
        for delta in (0.0, 10.0, 500.0):
            assert pdf_delta_conditional(miners, delta) == pytest.approx(
                lam * math.exp(-lam * delta), rel=1e-12
            )

    def test_density_at_zero_is_sensitivity(self):
        miners = MinerSet([0.5, 0.3, 0.2])
        expected = miners.total * (1 - hhi(miners.shares))
        assert pdf_delta_conditional(miners, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_integrates_to_one(self):
        miners = MinerSet([0.001, 0.0004, 0.0003])
        total, _ = scipy_quad(
            lambda d: pdf_delta_conditional(miners, d), 0, np.inf, limit=300
        )
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_matches_derivative_of_cdf(self):
        miners = MinerSet([0.001, 0.0004, 0.0003])
        lam_total = miners.total
        for tau in (1e-4, 1e-2, 0.3, 1.0):
            d0 = tau / lam_total
            h = 1e-5 * d0
            fd = (
                conditional_fork_rate(miners, d0 + h).value
                - conditional_fork_rate(miners, d0 - h).value
            ) / (2 * h)
            assert pdf_delta_conditional(miners, d0) == pytest.approx(fd, rel=1e-6)


class TestTaylor:
    def test_monopoly_never_forks(self):
        assert taylor_fork_rate(0.0017, 1.0, 123.0).value == 0.0

    def test_forced_arithmetic(self):
        assert taylor_fork_rate(0.0017, 0.2, 1.0).value == pytest.approx(0.00136)

    def test_clamped_to_unit_interval(self):
        assert taylor_fork_rate(0.0017, 0.1, 1e9).value == 1.0

    def test_relative_error_bounded_by_tau_on_equal_miners(self):
        lam = 0.001
        miners = MinerSet([lam, lam])
        for tau in (1e-3, 1e-2, 0.05, 0.1):
            d0 = tau / miners.total
            exact = conditional_fork_rate(miners, d0).value
            approx = taylor_fork_rate(miners.total, 0.5, d0).value
            assert abs(approx - exact) / exact <= tau


class TestIIDForkRate:
    def test_exponential_two_miner_reference(self):
        res = fork_rate_iid(Exponential(20000.0), 2, 1.0)
        assert res.method == "quadrature"
        assert res.value == pytest.approx(EXP_N2_D1_REFERENCE, rel=1e-9)
        # leading order (2/3) d/r confirms the magnitude
        assert res.value == pytest.approx((2 / 3) * 1.0 / 20000.0, rel=1e-4)

    def test_exponential_against_monte_carlo(self):
        fam = Exponential(20000.0)
        analytic = fork_rate_iid(fam, 2, 1.0).value
        sim = simulate_fork_rate(SimConfig(IIDNull(fam, 2), 1.0, 10**7, SUITE_SEED))
        assert abs(sim.fork_rate - analytic) <= 3 * sim.stderr

    @pytest.mark.parametrize("n", [2, 10, 35])
    @pytest.mark.parametrize("d0", [0.5, 2.0])
    def test_gamma_form_matches_hypergeometric_reference(self, n, d0):
        for fam in (Exponential(20000.0), TruncatedPowerLaw(0.75, 5000.0)):
            generic = fork_rate_iid(fam, n, d0)
            assert abs(generic.value - gamma_form_reference(fam, n, d0)) <= 1e-8 * generic.value
            assert generic.method == "quadrature"

    def test_tpl_alpha_zero_reduces_to_exponential(self):
        for n in (2, 10):
            for d0 in (0.5, 2.0):
                a = fork_rate_iid(TruncatedPowerLaw(0.0, 20000.0), n, d0).value
                b = fork_rate_iid(Exponential(20000.0), n, d0).value
                assert a == pytest.approx(b, rel=1e-10)

    def test_converges_to_one_at_large_delay(self):
        assert fork_rate_iid(Exponential(20000.0), 2, 2e10).value >= 0.999
        assert fork_rate_iid(LogNormal(-10.7, 1.27), 10, 1e8).value >= 0.999
        assert fork_rate_iid(TruncatedPowerLaw(0.75, 5000.0), 35, 1e9).value >= 0.999

    def test_zero_delay_is_exactly_zero(self):
        for fam in (
            Exponential(20000.0),
            LogNormal(-10.7, 1.27),
            TruncatedPowerLaw(0.75, 5000.0),
        ):
            assert fork_rate_iid(fam, 5, 0.0).value == 0.0

    def test_monotone_in_delay(self):
        fam = LogNormal(-10.7, 1.27)
        grid = np.linspace(0.0, 50.0, 20)
        values = [fork_rate_iid(fam, 10, d).value for d in grid]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_needs_two_miners(self):
        with pytest.raises(DegenerateMinerSet):
            fork_rate_iid(Exponential(2.0), 1, 1.0)


class TestINIDForkRate:
    def test_shared_family_reduces_to_iid(self):
        fam = Exponential(20000.0)
        for d0 in (0.5, 2.0):
            inid = fork_rate_inid([fam] * 5, d0).value
            iid = fork_rate_iid(fam, 5, d0).value
            assert inid == pytest.approx(iid, rel=1e-9)

    def test_two_miner_mixed_rates_against_monte_carlo(self):
        from forkcast.model import INIDNull

        families = (Exponential(15000.0), Exponential(40000.0))
        analytic = fork_rate_inid(list(families), 1.0).value
        sim = simulate_fork_rate(SimConfig(INIDNull(families), 1.0, 10**6, SUITE_SEED))
        assert abs(sim.fork_rate - analytic) <= 3 * sim.stderr

    def test_zero_delay(self):
        assert fork_rate_inid([Exponential(1e4), Exponential(2e4)], 0.0).value == 0.0

    def test_point_masses_reduce_to_conditional(self):
        miners = MinerSet([0.001, 0.0007, 0.0002])
        cond = conditional_fork_rate(miners, 25.0).value
        inid = fork_rate_inid(
            [PointMassTransform(lam) for lam in miners.lambdas], 25.0
        ).value
        assert inid == pytest.approx(cond, rel=1e-9)

    def test_mixed_family_kinds(self):
        members = [Exponential(2e4), TruncatedPowerLaw(0.5, 1e4), LogNormal(-10.7, 1.2)]
        res = fork_rate_inid(members, 1.0)
        assert 0.0 < res.value < 1.0

    def test_posterior_and_point_mass_members_against_monte_carlo(self):
        gamma = 1e6  # a count b has posterior mean rate (1 + b) / gamma
        members = [
            PosteriorTransform(np.array([50.0, 20.0]), gamma),
            PosteriorTransform(0.0, gamma),
            PointMassTransform(3e-5),
        ]
        model = INIDNull(members)
        analytic = fork_rate(model, 100.0).value
        sim = simulate_fork_rate(SimConfig(model, 100.0, 200_000, SUITE_SEED))
        assert abs(sim.fork_rate - analytic) <= 3 * sim.stderr

    def test_array_member_counts_its_miners(self):
        pair = fork_rate_inid([PosteriorTransform(np.array([1.0, 2.0]), 1e6)], 1.0).value
        assert pair == fork_rate_inid(
            [PosteriorTransform(1.0, 1e6), PosteriorTransform(2.0, 1e6)], 1.0
        ).value
        assert pair == pytest.approx(1.9103e-6, rel=1e-4)
        with pytest.raises(InvalidModel, match=">= 2 miners"):
            fork_rate_inid([PosteriorTransform(1.0, 1e6)], 1.0)

    def test_members_without_the_transform_interface_rejected(self):
        with pytest.raises(InvalidModel, match="lacks log_laplace, .*mean"):
            fork_rate_inid([1e-3, 2e-3], 1.0)

        class NoMean:
            log_laplace = log_laplace_weighted = log_laplace_decrement = print

        with pytest.raises(InvalidModel, match="lacks mean"):
            INIDNull([Exponential(2e4), NoMean()])

        class Unhashable(PointMassTransform):
            __hash__ = None

        with pytest.raises(InvalidModel, match="lacks __hash__"):
            INIDNull([Exponential(2e4), Unhashable(1e-4)])

    def test_member_with_only_the_single_quantity_methods(self):
        class Forwarding:
            """A foreign member: the three log transforms and ``mean``, and no ``log_rows``."""

            def __init__(self, inner):
                self.inner = inner

            def log_laplace(self, s):
                return self.inner.log_laplace(s)

            def log_laplace_weighted(self, s):
                return self.inner.log_laplace_weighted(s)

            def log_laplace_decrement(self, s, d):
                return self.inner.log_laplace_decrement(s, d)

            def mean(self):
                return self.inner.mean()

        gamma, grid = 1.17647e7, (0.815, 2.0, 9.0)
        bare = [PosteriorTransform(b, gamma) for b in (400, 250, 250, 90, 9, 1, 0)]
        want = fork_rate_curve(INIDNull(bare), grid)
        got = fork_rate_curve(INIDNull([Forwarding(t) for t in bare]), grid)
        assert [(r.value, r.error_estimate) for r in got] == [
            (r.value, r.error_estimate) for r in want
        ]


class TestSemiEmpirical:
    def test_equal_counts_iid_equals_inid(self):
        counts = BlockCounts([400] * 6)
        gamma = 1.17647e7
        for d0 in (0.5, 2.0):
            a = fork_rate_semi_empirical(SemiEmpiricalIID(counts, gamma), d0).value
            b = fork_rate_semi_empirical(SemiEmpiricalINID(counts, gamma), d0).value
            assert a == pytest.approx(b, rel=1e-8)

    def test_zero_delay(self):
        counts = BlockCounts([5, 10])
        model = SemiEmpiricalIID(counts, 1e6)
        assert fork_rate_semi_empirical(model, 0.0).value == 0.0

    def test_method_tag(self):
        counts = BlockCounts([5, 10])
        res = fork_rate_semi_empirical(SemiEmpiricalINID(counts, 1e6), 1.0)
        assert res.method == "semi_empirical"

    def test_composed_inid_matches_posterior_transform_composition(self):
        # same integral through the generic engine with one explicit
        # posterior per miner; the second vector is dominated by repeats
        gamma = 9500.0
        d0 = 50.0
        for counts in ([12, 3, 0, 7, 1], [12, 3, 0, 0, 7, 1, 1, 0, 3, 0, 1, 12, 0, 0, 1, 0]):
            counts = BlockCounts(counts)
            res = fork_rate_semi_empirical(SemiEmpiricalINID(counts, gamma), d0).value
            via_inid = fork_rate_inid(
                [PosteriorTransform(b, gamma) for b in counts.counts], d0
            ).value
            assert res == pytest.approx(via_inid, rel=1e-12)


class TestExcludingRowSums:
    @pytest.mark.parametrize("m", [1, 2])
    def test_neg_inf_group_counts_its_multiplicity(self, m):
        rows = np.array([[-np.inf, -1.0], [-2.0, -3.0]])
        out = _excluding_row_sums(rows, np.array([[float(m)], [1.0]]))
        # column 0: the -inf group's own member is excluded from its sum; with
        # m = 2 a second -inf member remains, with m = 1 none does
        if m == 2:
            assert np.all(np.isneginf(out[:, 0]))
        else:
            assert out[0, 0] == -2.0
            assert np.isneginf(out[1, 0])
        # column 1 is finite everywhere: sum over all members minus one
        assert out[0, 1] == pytest.approx(m * -1.0 - 3.0 + 1.0)
        assert out[1, 1] == pytest.approx(m * -1.0)



class TestDelayValidation:
    """Bad delays fail at the public boundary with one typed error."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 5e-324, 2.2e-313])
    def test_every_entry_point_rejects(self, bad):
        miners = MinerSet([0.001, 0.0007])
        semi = SemiEmpiricalINID(BlockCounts([5, 10]), 1e6)
        calls = [
            lambda: conditional_fork_rate(miners, bad),
            lambda: pdf_delta_conditional(miners, bad),
            lambda: taylor_fork_rate(0.0017, 0.2, bad),
            lambda: fork_rate_iid(Exponential(2e4), 5, bad),
            lambda: fork_rate_inid([Exponential(2e4), Exponential(1e4)], bad),
            lambda: fork_rate_semi_empirical(semi, bad),
            lambda: implied_hhi(0.001, 0.0017, bad),
            lambda: SimConfig(Fixed(miners), bad, 10, seed=0),
        ]
        for call in calls:
            with pytest.raises(InvalidDelay):
                call()

    def test_conditional_nan_is_a_delay_error(self):
        # formerly surfaced as InvalidModel from the result constructor
        with pytest.raises(InvalidDelay, match="delta0"):
            conditional_fork_rate(MinerSet([0.001, 0.0007]), math.nan)

    def test_iid_nan_is_a_delay_error(self):
        # formerly surfaced as NonFinite from deep inside quadrature
        with pytest.raises(InvalidDelay, match="delta0"):
            fork_rate_iid(LogNormal(-10.7, 1.27), 5, math.nan)

    def test_smallest_normal_and_zero_accepted(self):
        miners = MinerSet([0.001, 0.0007])
        assert conditional_fork_rate(miners, 0.0).value == 0.0
        assert conditional_fork_rate(miners, sys.float_info.min).value >= 0.0

    @pytest.mark.parametrize("bad", [math.nan, -1e-3, 1e-310])
    def test_implied_rejects_bad_fork_rate(self, bad):
        with pytest.raises(InvalidDelay, match="fork rate"):
            implied_delta0(bad, 0.0017, 0.2)
        with pytest.raises(InvalidDelay, match="fork rate"):
            implied_hhi(bad, 0.0017, 2.0)


def _curve_models():
    counts = BlockCounts([400, 250, 250, 90, 9, 1, 0])
    gamma = 1.17647e7
    return {
        "exp": IIDNull(Exponential(2e4), 35),
        "tpl": IIDNull(TruncatedPowerLaw(0.5, 1e4), 35),
        "lognormal": IIDNull(LogNormal(-10.7, 1.27), 35),
        "inid-mixed": INIDNull(
            [Exponential(2e4), TruncatedPowerLaw(0.5, 1e4), LogNormal(-10.7, 1.2)]
        ),
        "semi-iid": SemiEmpiricalIID(counts, gamma),
        "semi-inid": SemiEmpiricalINID(counts, gamma),
        "fixed": Fixed(MinerSet([0.001, 0.0007, 0.0002])),
    }


CURVE_MODELS = _curve_models()
CURVE_GRID = (1e-3, 0.815, 0.0, 9.0, 60.0)


class TestForkRateCurve:
    @pytest.mark.parametrize("name", sorted(CURVE_MODELS))
    def test_equals_per_delay_fork_rate(self, name):
        model = CURVE_MODELS[name]
        curve = fork_rate_curve(model, CURVE_GRID)
        assert len(curve) == len(CURVE_GRID)
        for d0, res in zip(CURVE_GRID, curve):
            single = fork_rate(model, d0)
            assert (res.method, res.inputs_echo) == (single.method, single.inputs_echo)
            # every column sums its own terms only and stops at its own
            # level, so the curve integrates each delay as its lone integral
            assert (res.value, res.error_estimate) == (single.value, single.error_estimate)

    @pytest.mark.parametrize("delays", [(1e-6, 1e-3, 1.0), (1e-3, 1.0, 1e3)], ids=["1e-6..1", "1e-3..1e3"])
    @pytest.mark.parametrize("n", [2, 35, 350])
    @pytest.mark.parametrize("kind", ["exp", "lognormal", "tpl"])
    def test_short_delays_curve_equals_lone_integrals(self, kind, n, delays):
        # 3 families x 3 miner counts x 6 spreads x 3 delays: 162 rates per
        # grid.  Every column sums its own terms only and stops at its own
        # level, however small the rate and however far from linear in the
        # delay
        from forkcast.estimate import MomentPair, method_of_moments

        mean = 1.0 / 600.0 / n
        for spread in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0):
            family = method_of_moments(MomentPair(mean, spread * mean), kind)
            curve = fork_rate_curve(IIDNull(family, n), delays)
            for d0, res in zip(delays, curve):
                lone = fork_rate_iid(family, n, d0)
                assert (res.value, res.error_estimate) == (lone.value, lone.error_estimate)

    @pytest.mark.parametrize("name", sorted(CURVE_MODELS))
    def test_zero_delay_in_grid_is_exactly_zero(self, name):
        curve = fork_rate_curve(CURVE_MODELS[name], CURVE_GRID)
        assert curve[CURVE_GRID.index(0.0)].value == 0.0
        assert all(res.value > 0.0 for d0, res in zip(CURVE_GRID, curve) if d0 > 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 1e-310])
    @pytest.mark.parametrize("name", sorted(CURVE_MODELS))
    def test_bad_delay_anywhere_rejected_before_integration(self, name, bad, integrand_calls):
        with pytest.raises(InvalidDelay):
            fork_rate_curve(CURVE_MODELS[name], (0.815, 2.0, bad))
        assert integrand_calls["integrals"] == 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fork_rate_curve(CURVE_MODELS["exp"], ())

    def test_equal_delays_give_equal_rates(self):
        curve = [r.value for r in fork_rate_curve(IIDNull(Exponential(1000.0), 4), [1, 1, 1, 3, 3])]
        assert curve[0] == curve[1] == curve[2] and curve[3] == curve[4]

    @pytest.mark.parametrize("name", sorted(CURVE_MODELS))
    @pytest.mark.parametrize("d0", [0.01, 3.0])
    def test_repeated_delay_equals_the_lone_delay(self, name, d0):
        # twin columns stop at the lone one's level, and every column is
        # summed node by node in one order, whatever the column count
        lone = fork_rate_curve(CURVE_MODELS[name], [d0])[0]
        for res in fork_rate_curve(CURVE_MODELS[name], [d0, d0]):
            assert (res.value, res.error_estimate) == (lone.value, lone.error_estimate)

    @pytest.mark.parametrize("members", ["iid", "equal-inid"])
    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_lognormal_one_log_rows_call_per_outer_evaluation(self, m, members, integrand_calls,
                                                               monkeypatch):
        real_rows, rows_calls = LogNormal.log_rows, [0]

        def counting_rows(self, s, delays):
            rows_calls[0] += 1
            return real_rows(self, s, delays)

        monkeypatch.setattr(LogNormal, "log_rows", counting_rows)
        grid = np.geomspace(1e-3, 30.0, m)
        family = LogNormal(-10.7, 1.27)
        # 35 equal independent members are one population row, as n i.i.d. ones are
        model = IIDNull(family, 35) if members == "iid" else INIDNull([family] * 35)
        curve = fork_rate_curve(model, grid)
        assert len(curve) == m
        # one integral per curve, and every delay from one fused evaluation
        assert integrand_calls["integrals"] == 1
        assert integrand_calls["calls"] > 0
        assert rows_calls[0] == integrand_calls["calls"]


def _reference_family(kind):
    from forkcast.estimate import fit_moments, method_of_moments
    from forkcast.synthetic import REFERENCE_COUNTS, REFERENCE_LAMBDA

    moments = fit_moments(BlockCounts(REFERENCE_COUNTS), REFERENCE_LAMBDA)
    return method_of_moments(moments, kind)


def _semi_reference(counts: BlockCounts, gamma: float, delays, iid: bool):
    """30-digit fork rates of a block-count posterior model, one per delay.

    With ``u = sqrt(1 + 2x / gamma) = 1 + w``, a posterior of b blocks has
    ``L = e^(-b w) / u`` and ``W = (1 + b u) e^(-b w) / (gamma u^3)``, and
    ``dx = gamma u dw``.  The integral is a trapezoid sum in t, where ``w =
    exp(t - e^-t) / B`` (B blocks in all): the tail at small w decays
    double-exponentially.  Step 0.15 agrees with a trapezoid sum in log w
    at step 0.125 to 4e-19.
    """
    blocks, mult = np.unique(counts.counts, return_counts=True)
    with mp.workdps(30):
        bs = [mp.mpf(int(b)) for b in blocks]
        ms = [int(m) for m in mult]
        n, total = sum(ms), sum(m * b for m, b in zip(ms, bs))
        steps = [2 * mp.mpf(d0) / gamma for d0 in delays]
        sums = [mp.mpf(0)] * len(delays)
        t, h = mp.mpf(-4.5), mp.mpf(0.15)
        while t <= mp.log(8 * total if iid else 64):
            w = mp.exp(t - mp.exp(-t)) / total
            dw = w * (1 + mp.exp(-t))
            u = 1 + w
            weights = [m * (1 + b * u) for m, b in zip(ms, bs)]
            if iid:  # n W(u) [L(u)^(n-1) - L(ud)^(n-1)] of the mixture
                e = [mp.exp(-b * w) for b in bs]
                nw, lu = mp.fdot(weights, e) / (u * u) * dw, mp.fdot(ms, e) / (n * u)
            else:  # sum_i W_i prod_(j != i) L_j, times -expm1 of the other decrements
                prod = mp.exp(-total * w) * u ** (-n - 1) * dw
            for i, step in enumerate(steps):
                ud = mp.sqrt(u * u + step)
                if iid:
                    ld = mp.fdot(ms, [mp.exp(b * (1 - ud)) for b in bs]) / (n * ud)
                    sums[i] += nw * (lu ** (n - 1) - ld ** (n - 1))
                else:
                    du, lr = u - ud, (n - 1) * mp.log(ud / u)
                    sums[i] -= prod * mp.fdot(weights, [mp.expm1((total - b) * du - lr) for b in bs])
            t += h
        return [x * h for x in sums]


ORACLE_DELAYS = (1e-6, 1e-3, 1.0, 1e3)


def _oracle_counts(n: int) -> BlockCounts:
    from forkcast.estimate import add_zero_miners
    from forkcast.synthetic import REFERENCE_COUNTS

    base = BlockCounts(REFERENCE_COUNTS)
    if n == 2:
        return BlockCounts(sorted(REFERENCE_COUNTS)[-2:])
    return base if n == 35 else add_zero_miners(base, n - 35)


class TestErrorEstimateOracle:
    """Every error estimate bounds the true error and meets the relative tolerance.

    References are mpmath at 30 digits; a lone integral and the
    four-delay curve are both checked.
    """

    @staticmethod
    def check(results, refs):
        for res, ref in zip(results, refs):
            assert abs(mp.mpf(res.value) - ref) <= res.error_estimate <= REL_TOL * res.value

    @pytest.mark.parametrize("n", [2, 35, 350])
    @pytest.mark.parametrize("kind", ["exp", "tpl"])
    def test_gamma_form(self, kind, n):
        family = _reference_family(kind)
        refs = [gamma_form_reference(family, n, d0) for d0 in ORACLE_DELAYS]
        self.check([fork_rate_iid(family, n, d0) for d0 in ORACLE_DELAYS], refs)
        self.check(fork_rate_curve(IIDNull(family, n), ORACLE_DELAYS), refs)

    @pytest.mark.parametrize("n", [2, 35, 350])
    @pytest.mark.parametrize("kind", ["semi-iid", "semi-inid"])
    def test_semi_empirical(self, kind, n):
        from forkcast.synthetic import REFERENCE_LAMBDA

        counts = _oracle_counts(n)
        gamma = counts.total / REFERENCE_LAMBDA
        iid = kind == "semi-iid"
        model = (SemiEmpiricalIID if iid else SemiEmpiricalINID)(counts, gamma)
        refs = _semi_reference(counts, gamma, ORACLE_DELAYS, iid)
        self.check([fork_rate(model, d0) for d0 in ORACLE_DELAYS], refs)
        self.check(fork_rate_curve(model, ORACLE_DELAYS), refs)


class TestFarTail:
    """The nodes reach x = e^700: mass far beyond the integration scale counts."""

    def test_mass_beyond_2_to_53_times_the_scale(self):
        # 5.7 % of this rate lies beyond x = 2^53 * scale, where a map
        # x = scale t / (1 - t) places no node (it gave 5.99e-88).  The
        # reference is a double-precision trapezoid sum over log x in
        # [-80, 705] at step 0.0125 of the fork integrand, whose L, W and
        # drop are trapezoid sums over z = (log lam - mu) / sigma in [-16,
        # sigma + 16] at step 0.005; steps 0.025 and 0.01 move it by 6e-12
        res = fork_rate_iid(LogNormal(-400.0, 28.0), 35, 1.0)
        assert abs(res.value - 6.31685293641e-88) <= res.error_estimate <= REL_TOL * res.value

    def test_far_nodes_keep_memory_bounded(self):
        # a deep level hands the integrand hundreds of points at once; the
        # log-normal grid is summed in slabs of them, so this curve peaks
        # near 8 MB, where one grid for a whole level takes 150 MB
        model = IIDNull(LogNormal(-400.0, 28.0), 35)
        tracemalloc.start()
        try:
            fork_rate_curve(model, ORACLE_DELAYS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26.6e6

    @staticmethod
    def models():
        from forkcast.synthetic import REFERENCE_LAMBDA

        for kind in ("exp", "tpl", "lognormal"):
            for n in (2, 35, 350):
                yield f"{kind}-{n}", IIDNull(_reference_family(kind), n)
        for n in (35, 350):  # 0 and 315 zero-count miners
            counts = _oracle_counts(n)
            gamma = counts.total / REFERENCE_LAMBDA
            yield f"semi-iid-{n}", SemiEmpiricalIID(counts, gamma)
            yield f"semi-inid-{n}", SemiEmpiricalINID(counts, gamma)
        yield "lognormal(-400, 28)-35", IIDNull(LogNormal(-400.0, 28.0), 35)

    def test_no_floating_point_warning_at_the_far_nodes(self):
        for name, model in self.models():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                curve = fork_rate_curve(model, ORACLE_DELAYS)
            assert all(res.value > 0.0 for res in curve), name


class TestPopulationIntegral:
    """I.i.d. quadrature is one population row of multiplicity n."""

    @pytest.mark.parametrize(
        "kind, n, delays",
        [
            ("exp", 2, (1e-3, 0.815, 2.0, 9.0)),
            ("exp", 5, (1e-3, 0.815, 2.0, 9.0)),
            ("exp", 35, (1e-3, 0.815, 2.0, 9.0)),
            ("tpl", 2, (1e-3, 0.815, 2.0, 9.0)),
            ("tpl", 5, (1e-3, 0.815, 2.0, 9.0)),
            ("tpl", 35, (1e-3, 0.815, 2.0, 9.0)),
            ("lognormal", 2, (1e-3, 0.815, 9.0)),
            ("lognormal", 5, (1e-3, 0.815, 9.0)),
            ("lognormal", 35, (1e-3, 0.815, 9.0)),
            ("semi-iid", 2, (1e-3, 0.815, 9.0)),
            ("semi-iid", 35, (1e-3, 0.815, 9.0)),
        ],
    )
    def test_one_group_equals_n_explicit_rows(self, kind, n, delays):
        if kind == "semi-iid":
            from forkcast.synthetic import REFERENCE_LAMBDA

            counts = _oracle_counts(n)
            model = SemiEmpiricalIID(counts, counts.total / REFERENCE_LAMBDA)
            family = posterior_mixture(counts.counts, model.gamma)
        else:
            family = _reference_family(kind)
            model = IIDNull(family, n)
        for d0 in delays:
            grouped = fork_rate(model, d0)
            # fork_rate_inid groups equal members, so the n rows go in directly
            (rows,), _ = _population_integral([family] * n, np.ones(n), np.array([d0]))
            assert grouped.value == pytest.approx(rows, rel=1e-13, abs=0.0)

    def test_equal_members_are_one_iid_row(self):
        family = _reference_family("lognormal")
        inid = fork_rate_inid([family] * 35, 2.0)
        iid = fork_rate_iid(family, 35, 2.0)
        assert (inid.value, inid.error_estimate) == (iid.value, iid.error_estimate)

    def test_grouped_posterior_member_is_its_rows(self):
        gamma = 1e6
        pair = PosteriorTransform(np.array([1.0, 2.0]), gamma)
        single = [PosteriorTransform(b, gamma) for b in (1.0, 2.0, 3.0)]
        for d0 in (0.5, 50.0):
            grouped = fork_rate_inid([pair, single[2]], d0)
            assert grouped.inputs_echo == f"inid, n=3, delta0={d0!r}"
            assert grouped.value == pytest.approx(
                fork_rate_inid(single, d0).value, rel=1e-13, abs=0.0
            )
            # the same block twice is one group of multiplicity two per row
            twice = fork_rate_inid([pair, pair], d0).value
            assert twice == pytest.approx(
                fork_rate_inid(single[:2] * 2, d0).value, rel=1e-13, abs=0.0
            )

    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_mixture_components_evaluated_once_per_integrand_call(self, m, integrand_calls,
                                                                  monkeypatch):
        real_log_rows, components = PosteriorTransform.log_rows, [0]

        def log_rows(self, s, delays):
            components[0] += 1
            return real_log_rows(self, s, delays)

        monkeypatch.setattr(PosteriorTransform, "log_rows", log_rows)
        counts = BlockCounts([600, 250, 100, 50, 50, 0, 0, 1])
        grid = np.geomspace(1e-3, 30.0, m)
        curve = fork_rate_curve(SemiEmpiricalIID(counts, 1.2e7), grid)
        assert len(curve) == m
        assert integrand_calls["calls"] > 0
        assert components[0] == integrand_calls["calls"]


class TestDispatcher:
    def test_fixed_goes_conditional(self):
        res = fork_rate(Fixed(MinerSet([0.001, 0.001])), 100.0)
        assert res.method == "conditional"

    def test_iid_null_dispatch(self):
        assert fork_rate(IIDNull(Exponential(2e4), 5), 1.0).method == "quadrature"
        assert fork_rate(IIDNull(LogNormal(-10.7, 1.27), 5), 1.0).method == "quadrature"


class TestRateValidation:
    def test_implied_hhi_tiny_rate_and_delay(self):
        # formerly ZeroDivisionError: delta0 * lambda_total underflowed to 0
        with pytest.raises(InvalidDelay, match="delta0 \\* lambda_total"):
            implied_hhi(0.1, 1e-300, 1e-30)

    def test_implied_delta0_subnormal_rate(self):
        # formerly value=inf, valid=True
        with pytest.raises(InvalidModel, match="lambda_total"):
            implied_delta0(0.1, 1e-320, 0.5)

    def test_implied_hhi_infinite_rate(self):
        # formerly valid=True
        with pytest.raises(InvalidModel, match="lambda_total"):
            implied_hhi(0.1, math.inf, 1.0)

    def test_implied_hhi_overflowing_product(self):
        with pytest.raises(InvalidDelay, match="delta0 \\* lambda_total"):
            implied_hhi(0.1, 1e300, 1e10)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf, 1e-320])
    def test_every_inversion_rejects(self, bad):
        for call in (
            lambda: implied_delta0(0.1, bad, 0.5),
            lambda: implied_hhi(0.1, bad, 1.0),
            lambda: taylor_fork_rate(bad, 0.2, 1.0),
        ):
            with pytest.raises(InvalidModel):
                call()

    @pytest.mark.parametrize("hhi_value", [1.0 - 1e-10, 0.99, 0.5])
    def test_overflowing_implied_delay_is_rejected(self, hhi_value):
        # formerly value=inf, valid=False: a normal rate times 1 - hhi can
        # still be subnormal, and no JSON output can carry the delay
        with pytest.raises(InvalidModel, match="lambda_total \\* \\(1 - hhi\\)"):
            implied_delta0(0.5, 2.3e-308, hhi_value)
        assert implied_delta0(0.5, 4.5e-308, 0.5).valid


class TestImplied:
    def test_zero_fork_rate(self):
        assert implied_delta0(0.0, 0.0017, 0.2).value == 0.0
        res = implied_hhi(0.0, 0.0017, 10.0)
        assert res.value == 1.0 and res.valid

    def test_delta0_anchor(self):
        res = implied_delta0(0.0041, 0.0017, 0.2)
        assert res.value == pytest.approx(3.0147, rel=1e-4)
        assert res.valid

    def test_hhi_algebraic_inverse(self):
        lam, d0 = 0.0017, 4.0
        res = implied_hhi(lam * d0 * 0.8, lam, d0)
        assert res.value == pytest.approx(0.2, rel=1e-12)

    def test_negative_hhi_regime(self):
        res = implied_hhi(0.0041, 0.0017, 0.815)
        assert res.value == pytest.approx(-1.959, rel=1e-3)
        assert not res.valid

    def test_degenerate_hhi(self):
        with pytest.raises(DegenerateHHI):
            implied_delta0(0.1, 0.0017, 1.0)

    @given(
        lam=st.floats(1e-4, 1e-2),
        h=st.floats(0.01, 0.99),
        d0=st.floats(0.0, 100.0),
    )
    @example(lam=1e-4, h=0.5, d0=2.2250738585e-313)
    @example(lam=1e-4, h=0.5, d0=5e-324)
    @example(lam=1e-4, h=0.5, d0=3e-304)  # normal d0, subnormal fork rate
    @settings(max_examples=80, deadline=None)
    def test_taylor_roundtrip(self, lam, h, d0):
        # the round trip holds where d0 and the fork rate c are 0 or normal;
        # a positive subnormal has lost the digits the inverse needs, so
        # it must be rejected instead
        def subnormal(x):
            return 0.0 < x < sys.float_info.min

        if subnormal(d0):
            with pytest.raises(InvalidDelay):
                taylor_fork_rate(lam, h, d0)
            return
        c = taylor_fork_rate(lam, h, d0).value
        if c >= 1.0:  # clamped; inverse undefined
            return
        if subnormal(c):
            with pytest.raises(InvalidDelay):
                implied_delta0(c, lam, h)
            with pytest.raises(InvalidDelay):
                implied_hhi(c, lam, d0)
            return
        assert implied_delta0(c, lam, h).value == pytest.approx(d0, rel=1e-9, abs=1e-12)
        if d0 > 0:
            assert implied_hhi(c, lam, d0).value == pytest.approx(h, rel=1e-9)


class TestInvariants:
    def test_monotone_in_uniform_rate_scaling(self):
        base = MinerSet([0.001, 0.0006, 0.0002])
        values = [
            conditional_fork_rate(
                MinerSet([k * lam for lam in base.lambdas]), 5.0
            ).value
            for k in (1.0, 1.5, 2.0, 4.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_taylor_bound_on_random_fixed_models(self):
        # relative error of the first-order rate is bounded by tau itself
        rng = np.random.Generator(np.random.Philox(key=SUITE_SEED))
        for _ in range(100):
            n = int(rng.integers(2, 40))
            weights = rng.gamma(0.7, 1.0, n) + 1e-9
            lam_total = 10 ** rng.uniform(-4, -2)
            miners = MinerSet(weights / weights.sum() * lam_total)
            tau = 10 ** rng.uniform(-3, -1)  # up to 0.1
            d0 = tau / miners.total
            exact = conditional_fork_rate(miners, d0).value
            approx = taylor_fork_rate(
                miners.total, hhi(miners.shares), d0
            ).value
            assert abs(approx - exact) / exact <= tau


_families = st.one_of(
    st.floats(1e3, 1e6).map(Exponential),
    st.builds(LogNormal, st.floats(-14.0, -8.0), st.floats(0.3, 2.5)),
    st.builds(TruncatedPowerLaw, st.floats(-0.9, 0.9), st.floats(1e3, 1e5)),
)
_delays = st.lists(st.floats(1e-3, 1e2), min_size=2, max_size=5)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(family=_families, n=st.integers(2, 50), delays=_delays)
    def test_curve_lies_in_unit_interval_and_never_decreases(self, family, n, delays):
        curve = fork_rate_curve(IIDNull(family, n), sorted(delays))
        assert all(0.0 <= r.value <= 1.0 for r in curve)
        # each rate is exact to its own error estimate, so close delays may
        # come out of order by as much
        assert all(a.value <= b.value + a.error_estimate + b.error_estimate
                   for a, b in zip(curve, curve[1:]))

    @settings(max_examples=25, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 500), min_size=2, max_size=50).filter(any),
        d0=st.floats(1e-3, 1e2),
        data=st.data(),
    )
    def test_inid_ignores_miner_order(self, counts, d0, data):
        gamma = sum(counts) / 1.7e-3
        shuffled = data.draw(st.permutations(counts))
        a = fork_rate_semi_empirical(SemiEmpiricalINID(BlockCounts(counts), gamma), d0)
        b = fork_rate_semi_empirical(SemiEmpiricalINID(BlockCounts(shuffled), gamma), d0)
        assert a.value == b.value
