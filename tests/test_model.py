import math

import numpy as np
import pytest

from forkcast.errors import InvalidDelay, InvalidModel
from forkcast.model import (
    BlockCounts,
    Fixed,
    ForkRateResult,
    IIDNull,
    INIDNull,
    MinerSet,
    PeriodRecord,
    SemiEmpiricalIID,
    SemiEmpiricalINID,
    characteristic_time,
    population,
)
from forkcast.quadrature import (
    Exponential,
    MixtureTransform,
    PosteriorTransform,
    TruncatedPowerLaw,
)


class TestMinerSet:
    def test_rejects_non_positive_rates(self):
        with pytest.raises(InvalidModel):
            MinerSet([0.001, 0.0])
        with pytest.raises(InvalidModel):
            MinerSet([-0.001, 0.001])
        with pytest.raises(InvalidModel):
            MinerSet([0.001, float("inf")])
        with pytest.raises(InvalidModel):
            MinerSet([])

    def test_total_and_shares(self):
        ms = MinerSet([0.001, 0.0007])
        assert ms.total == pytest.approx(0.0017)
        assert sum(ms.shares) == pytest.approx(1.0)
        assert ms.n == 2

    def test_expected_min_time(self):
        ms = MinerSet([0.001, 0.0007])
        assert ms.expected_min_time == pytest.approx(1 / 0.0017)
        assert ms.expected_min_time == pytest.approx(588.235294, rel=1e-8)

    def test_immutable(self):
        ms = MinerSet([0.001, 0.002])
        with pytest.raises(AttributeError):
            ms.lambdas = (1.0,)


class TestBlockCounts:
    def test_rejects_negative_and_fractional(self):
        with pytest.raises(InvalidModel):
            BlockCounts([5, -1])
        with pytest.raises(InvalidModel):
            BlockCounts([5, 1.5])
        with pytest.raises(InvalidModel):
            BlockCounts([])

    def test_rejects_all_zero(self):
        with pytest.raises(InvalidModel):
            BlockCounts([0, 0, 0])

    def test_zero_counts_allowed_alongside_positive(self):
        bc = BlockCounts([10, 0, 5])
        assert bc.total == 15
        assert bc.n == 3
        assert bc.shares == (10 / 15, 0.0, 5 / 15)


class TestModels:
    def test_iid_null_needs_two_miners(self):
        with pytest.raises(InvalidModel):
            IIDNull(Exponential(2.0), 1)

    def test_semi_empirical_needs_positive_gamma(self):
        with pytest.raises(InvalidModel):
            SemiEmpiricalIID(BlockCounts([5, 5]), 0.0)

    def test_fixed_wraps_miner_set(self):
        model = Fixed(MinerSet([0.001, 0.002]))
        assert model.miners.n == 2


class TestPopulation:
    def test_iid_is_one_row(self):
        fam = Exponential(2e4)
        rows, mult = population(IIDNull(fam, 35))
        assert rows == [fam] and mult.tolist() == [35]

    def test_fixed_is_one_point_mass_per_miner_in_order(self):
        rows, mult = population(Fixed(MinerSet([0.002, 0.001, 0.002])))
        assert [t.rate for t in rows] == [0.002, 0.001, 0.002]
        assert mult.tolist() == [1, 1, 1]

    def test_equal_members_grouped_in_first_occurrence_order(self):
        a, b = TruncatedPowerLaw(0.5, 1e4), Exponential(2e4)
        rows, mult = population(INIDNull([a, b, TruncatedPowerLaw(0.5, 1e4), a]))
        assert rows == [a, b] and mult.tolist() == [3, 1]

    def test_array_valued_member_expands_to_its_rows(self):
        block, fam = PosteriorTransform(np.array([1.0, 2.0, 5.0]), 1e6), Exponential(2e4)
        rows, mult = population(INIDNull([block, fam, block]))
        assert rows == [block, fam]
        assert mult.tolist() == [2, 2, 2, 1]

    def test_semi_empirical_rows(self):
        counts = BlockCounts([5, 0, 5, 3])
        (block,), mult = population(SemiEmpiricalINID(counts, 1e6))
        assert block.blocks.tolist() == [0.0, 3.0, 5.0] and mult.tolist() == [1, 1, 2]
        (mix,), mult = population(SemiEmpiricalIID(counts, 1e6))
        assert isinstance(mix, MixtureTransform) and mult.tolist() == [4]

    def test_unknown_model_rejected(self):
        with pytest.raises(TypeError, match="unknown hash-rate model"):
            population(Exponential(2e4))


class TestForkRateResult:
    def test_value_range_enforced(self):
        with pytest.raises(InvalidModel):
            ForkRateResult(value=1.5, method="taylor", error_estimate=0.0, inputs_echo="")
        with pytest.raises(InvalidModel):
            ForkRateResult(value=0.5, method="taylor", error_estimate=-1.0, inputs_echo="")

    def test_carries_characteristic_time(self):
        res = ForkRateResult(
            value=0.1, method="conditional", error_estimate=0.0,
            inputs_echo="x", characteristic_time=0.5,
        )
        assert res.characteristic_time == 0.5


class TestPeriodRecord:
    def test_percentile_ordering_enforced(self):
        with pytest.raises(InvalidModel):
            PeriodRecord(
                index=0, counts=BlockCounts([5, 5]), lambda_total=0.0017,
                fork_rate_empirical=0.0,
                prop_p50=2.0, prop_p90=1.0, prop_p99=3.0,
            )


class TestCharacteristicTime:
    def test_zero_delay(self):
        assert characteristic_time(0.0, 0.123) == 0.0

    def test_block_time_scale(self):
        assert characteristic_time(600.0, 0.0017) == pytest.approx(1.02)

    def test_median_propagation_scale(self):
        assert characteristic_time(0.815, 0.00167) == pytest.approx(0.00136105)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            characteristic_time(-1.0, 0.0017)
        with pytest.raises(ValueError):
            characteristic_time(1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e-320, 0.0, -1.0])
    def test_rejects_non_normal_rate(self, bad):
        # characteristic_time(1.0, inf) formerly returned inf
        with pytest.raises(InvalidModel, match="lambda_total"):
            characteristic_time(1.0, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e-320])
    def test_rejects_non_finite_or_subnormal_delay(self, bad):
        # NaN formerly passed straight through as a NaN result
        with pytest.raises(InvalidDelay):
            characteristic_time(bad, 1.0)
