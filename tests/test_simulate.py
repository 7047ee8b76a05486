import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from forkcast import simulate
from forkcast.errors import InvalidModel
from forkcast.estimate import MomentPair, add_zero_miners, estimate_hash_rates, method_of_moments
from forkcast.forkrate import fork_rate_iid
from forkcast.model import (
    BlockCounts,
    Fixed,
    IIDNull,
    INIDNull,
    MinerSet,
    SemiEmpiricalIID,
    SemiEmpiricalINID,
    population,
)
from forkcast.quadrature import Exponential, LogNormal, PointMassTransform, TruncatedPowerLaw
from forkcast.simulate import BLOCK_ELEMENTS, SimConfig, simulate_fork_rate, simulate_min_time
from forkcast.synthetic import REFERENCE_COUNTS, REFERENCE_LAMBDA

from conftest import SUITE_SEED


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        cfg = SimConfig(Fixed(MinerSet([0.001, 0.001])), 100.0, 200_000, seed=9)
        assert simulate_fork_rate(cfg) == simulate_fork_rate(cfg)

    def test_thread_count_invariance(self):
        model = IIDNull(Exponential(20000.0), 10)
        outcomes = [
            simulate_fork_rate(SimConfig(model, 1.0, 300_000, seed=4, threads=t))
            for t in (1, 2, 8)
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_different_seeds_differ(self):
        model = Fixed(MinerSet([0.001, 0.001]))
        a = simulate_fork_rate(SimConfig(model, 100.0, 200_000, seed=1))
        b = simulate_fork_rate(SimConfig(model, 100.0, 200_000, seed=2))
        assert a.n_fork != b.n_fork


class TestForkRates:
    def test_zero_delay_never_forks(self):
        cfg = SimConfig(Fixed(MinerSet([0.001, 0.001])), 0.0, 50_000, seed=3)
        assert simulate_fork_rate(cfg).n_fork == 0

    def test_two_equal_fixed_miners(self):
        cfg = SimConfig(Fixed(MinerSet([0.001, 0.001])), 100.0, 10**6, SUITE_SEED)
        out = simulate_fork_rate(cfg)
        expected = 1 - math.exp(-0.1)
        assert abs(out.fork_rate - expected) <= 3 * out.stderr
        assert out.fork_rate == pytest.approx(0.0951626, rel=0.01)

    def test_monotone_in_delay_with_common_seed(self):
        model = IIDNull(Exponential(20000.0), 10)
        forks = [
            simulate_fork_rate(SimConfig(model, d0, 200_000, seed=11)).n_fork
            for d0 in (0.0, 0.5, 1.0, 2.0, 8.7)
        ]
        assert forks == sorted(forks)

    def test_stderr_formula_against_seed_scatter(self):
        # empirical std over 20 independent seeds within a factor 2 of the
        # reported binomial standard error
        model = IIDNull(Exponential(20000.0), 10)
        rates, stderrs = [], []
        for seed in range(20):
            out = simulate_fork_rate(SimConfig(model, 2.0, 100_000, seed=seed))
            rates.append(out.fork_rate)
            stderrs.append(out.stderr)
        scatter = float(np.std(rates, ddof=1))
        typical = float(np.mean(stderrs))
        assert typical / 2 <= scatter <= typical * 2

    def test_resample_versus_fixed_rates(self):
        model = IIDNull(TruncatedPowerLaw(0.75, 5000.0), 10)
        resampled = simulate_fork_rate(SimConfig(model, 1.0, 100_000, seed=6))
        frozen = simulate_fork_rate(
            SimConfig(model, 1.0, 100_000, seed=6, resample_rates=False)
        )
        # same seed but different draw streams; both deterministic
        assert resampled != frozen
        assert frozen == simulate_fork_rate(
            SimConfig(model, 1.0, 100_000, seed=6, resample_rates=False)
        )


class TestMinTime:
    def test_fixed_total_rate(self):
        counts = [0.001, 0.0004, 0.0003]
        cfg = SimConfig(Fixed(MinerSet(counts)), 1.0, 10**6, SUITE_SEED)
        mean = simulate_min_time(cfg)
        # min of exponentials is exponential at the total rate: mean and
        # std are both 1/total
        expected = 1 / 0.0017
        assert abs(mean - expected) <= 3 * expected / math.sqrt(10**6)

    def test_two_equal_miners(self):
        r = 0.01
        cfg = SimConfig(Fixed(MinerSet([r, r])), 1.0, 400_000, seed=5)
        assert simulate_min_time(cfg) == pytest.approx(1 / (2 * r), rel=0.01)

    def test_iid_self_consistency(self):
        # E[min] = E[1/sum(lam)] with sum(lam) ~ Gamma(10, rate 20000):
        # mean r/9 = 2222.2, sd sqrt(r^2/72 - (r/9)^2)/... = 785.7; two
        # independent runs must agree within 6 standard errors of the mean
        model = IIDNull(Exponential(20000.0), 10)
        n = 10**6
        a = simulate_min_time(SimConfig(model, 1.0, n, seed=21))
        b = simulate_min_time(SimConfig(model, 1.0, n, seed=22))
        sd = math.sqrt(20000.0**2 / 72 - (20000.0 / 9) ** 2)
        se = sd / math.sqrt(n)
        assert abs(a - b) <= 6 * se
        assert a == pytest.approx(20000.0 / 9, rel=0.01)


class TestRowBlocks:
    """Row block k draws its rates, then its exponentials, from its own stream k + 1."""

    @pytest.mark.parametrize("n", [2, 35, 100, 350])
    def test_thread_invariant_across_partial_blocks(self, n):
        rows = BLOCK_ELEMENTS // n
        rounds = 4 * rows + rows // 2 + 1  # four row blocks and a partial fifth
        assert rounds % rows
        model = IIDNull(Exponential(20000.0), n)
        one, two, three = (
            simulate_fork_rate(SimConfig(model, 2.0, rounds, seed=n, threads=t))
            for t in (1, 2, 3)
        )
        assert one == two == three

    @pytest.mark.parametrize("n", [2, 35, 350])
    def test_matches_reference_for_any_block_size(self, monkeypatch, n):
        a = n - n // 2
        model = INIDNull([Exponential(20000.0)] * a + [LogNormal(-10.7, 1.2)] * (n // 2))

        def rates(rng, rows):  # population order: the exponential members first
            return np.hstack([rng.exponential(1 / 20000.0, (rows, a)),
                              rng.lognormal(-10.7, 1.2, (rows, n // 2))])

        for elements in (1, 3 * n + 1, 1 << 16):
            monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", elements)
            rounds = _rounds_for(elements, n)
            out = simulate_fork_rate(SimConfig(model, 2.0, rounds, seed=n, threads=1))
            assert (out.n_fork, out.mean_min_time) == _reference(rates, n, 2.0, n, rounds, elements)

    @pytest.mark.parametrize("iid", [True, False])
    def test_posterior_matches_reference_for_any_block_size(self, monkeypatch, iid):
        # semi-IID draws a member per rate, semi-INID has one column per miner,
        # in ascending count order; both draw wald for the positive counts,
        # then gamma for the zero counts
        members = np.sort(np.asarray(_ZERO_COUNTS.counts, dtype=float))
        n = members.size
        model = (SemiEmpiricalIID if iid else SemiEmpiricalINID)(_ZERO_COUNTS, _GAMMA)

        def rates(rng, rows):
            if iid:
                b = members[rng.integers(0, n, (rows, n), dtype=np.int32)]
            else:
                b = np.tile(members, (rows, 1))
            out, pos = np.empty_like(b), b > 0
            out[pos] = 1 / rng.wald(_GAMMA / b[pos], _GAMMA)
            out[~pos] = rng.gamma(0.5, 2 / _GAMMA, np.count_nonzero(~pos))
            return out

        for elements in (1, 3 * n + 1, 1 << 16):
            monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", elements)
            rounds = _rounds_for(elements, n)
            out = simulate_fork_rate(SimConfig(model, 2.0, rounds, seed=3, threads=1))
            assert (out.n_fork, out.mean_min_time) == _reference(rates, n, 2.0, 3, rounds, elements)


def _rounds_for(elements, n):
    """A few row blocks and a partial last one."""
    return 5 * max(1, elements // n) // 2 + 10


def _reference(rates, n, delta0, seed, rounds, elements):
    """``(forks, mean first time)`` written plainly.

    Row block k spawns SFC64 key k + 1 from the seed and draws its rates,
    then its exponentials; the first times are summed per block, and the
    block sums in block order.
    """
    step = max(1, elements // n)
    forks, total = 0, 0.0
    for k, lo in enumerate(range(0, rounds, step)):
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(k + 1,))))
        rows = min(step, rounds - lo)
        r = rates(rng, rows)
        times = np.sort(rng.standard_exponential((rows, n)) / r, axis=1)
        forks += int(np.sum(times[:, 1] - times[:, 0] < delta0))
        total += float(times[:, 0].sum())
    return forks, total / rounds


_COUNTS = BlockCounts(REFERENCE_COUNTS)
_GAMMA = _COUNTS.total / REFERENCE_LAMBDA
_ZERO_COUNTS = add_zero_miners(_COUNTS, 20)
# the four models of the benchmark's validate workload (n = 35), and the
# posteriors with 20 zero-count miners (n = 55)
MEMORY_MODELS = {
    "lognormal": IIDNull(method_of_moments(MomentPair(5e-5, 1e-4), "lognormal"), 35),
    "fixed": Fixed(estimate_hash_rates(_COUNTS, REFERENCE_LAMBDA)),
    "semi-iid": SemiEmpiricalIID(_COUNTS, _GAMMA),
    "semi-inid": SemiEmpiricalINID(_COUNTS, _GAMMA),
    "semi-iid-zero": SemiEmpiricalIID(_ZERO_COUNTS, _GAMMA),
    "semi-inid-zero": SemiEmpiricalINID(_ZERO_COUNTS, _GAMMA),
}


class TestPeakMemory:
    @pytest.mark.parametrize("rounds", [1 << 16, 1 << 18])
    @pytest.mark.parametrize("name", MEMORY_MODELS)
    def test_peak_is_a_few_row_blocks(self, name, rounds):
        # one block's rates, exponentials and sampler temporaries: the peak
        # of the whole call does not grow with the rounds, and a block is
        # freed before the next one draws
        cfg = SimConfig(MEMORY_MODELS[name], 2.0, rounds, seed=1, threads=1)
        tracemalloc.start()
        try:
            simulate_fork_rate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * BLOCK_ELEMENTS * 8

    def test_threads_hold_a_few_jobs(self, monkeypatch):
        # 1,000 row blocks of 3 rounds on two threads: at most four are
        # submitted and not yet reduced (29 KB), where submitting every
        # block at once holds 1.7 KB a block (1.7 MB)
        monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 3 * 35)
        cfg = SimConfig(MEMORY_MODELS["lognormal"], 2.0, 3_000, seed=1, threads=2)
        simulate_fork_rate(cfg)  # numpy.random finishes its lazy imports
        tracemalloc.start()
        try:
            simulate_fork_rate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 18


@dataclass(frozen=True)
class _BadDraw(Exponential):
    """An exponential member whose last draw is replaced by ``bad``."""

    bad: float = math.nan

    def sample(self, rng, size):
        draws = super().sample(rng, size)
        draws[-1, -1] = self.bad
        return draws


class TestRateCheck:
    BAD = [math.nan, math.inf, -math.inf, 0.0, -1.0]

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("resample", [True, False])
    def test_one_transform_population(self, bad, resample):
        model = IIDNull(_BadDraw(20000.0, bad), 5)
        with pytest.raises(InvalidModel, match="non-positive or non-finite"):
            simulate_fork_rate(SimConfig(model, 1.0, 100, 0, resample_rates=resample))

    @pytest.mark.parametrize("bad", BAD)
    def test_bad_rate_in_a_later_draw_block(self, bad):
        model = INIDNull([Exponential(20000.0), LogNormal(-10.7, 1.2), _BadDraw(20000.0, bad)])
        assert len(population(model)[0]) == 3
        with pytest.raises(InvalidModel, match="non-positive or non-finite"):
            simulate_fork_rate(SimConfig(model, 1.0, 100, 0))


class TestValidation:
    def test_single_miner_rejected(self):
        with pytest.raises(InvalidModel):
            simulate_fork_rate(SimConfig(Fixed(MinerSet([0.001])), 1.0, 10, seed=0))

    def test_config_validation(self):
        model = Fixed(MinerSet([0.001, 0.001]))
        with pytest.raises(ValueError):
            SimConfig(model, 1.0, 0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(model, -1.0, 10, seed=0)
        with pytest.raises(ValueError):
            SimConfig(model, 1.0, 10, seed=0, threads=-1)

    @pytest.mark.parametrize(
        "field, bad",
        [("rounds", 2.5), ("rounds", True), ("seed", 1.5), ("seed", -1),
         ("seed", 1 << 128), ("seed", None), ("threads", 1.0), ("threads", False)],
    )
    def test_counts_and_seed_must_be_ints(self, field, bad):
        kwargs = {"rounds": 10, "seed": 0, "threads": 1, field: bad}
        with pytest.raises(ValueError, match=field):
            SimConfig(Fixed(MinerSet([0.001, 0.001])), 1.0, **kwargs)

    @pytest.mark.parametrize("resample", [True, False])
    def test_largest_seed_runs(self, resample):
        # the spawn keys accept every seed in [0, 2**128)
        model = IIDNull(Exponential(20000.0), 3)
        cfg = SimConfig(model, 1.0, 100, (1 << 128) - 1, resample_rates=resample)
        assert simulate_fork_rate(cfg).rounds == 100

    def test_numpy_ints_accepted(self):
        cfg = SimConfig(Fixed(MinerSet([0.001, 0.001])), 1.0, np.int64(10), np.uint32(3))
        assert simulate_fork_rate(cfg).rounds == 10

    def test_member_without_sampler_rejected(self):
        class Rates:  # the log-transform interface of a point mass, no sampler
            def __init__(self, rate):
                self.inner = PointMassTransform(rate)

            def __getattr__(self, name):
                if name == "sample":
                    raise AttributeError(name)
                return getattr(self.inner, name)

        model = INIDNull([Rates(0.001), Rates(0.002)])
        with pytest.raises(InvalidModel, match="sample method"):
            simulate_fork_rate(SimConfig(model, 1.0, 10, seed=0))

    def test_semi_empirical_model_runs(self):
        counts = BlockCounts([120, 60, 20])
        model = SemiEmpiricalINID(counts, 200 / 0.002)
        out = simulate_fork_rate(SimConfig(model, 10.0, 50_000, seed=13))
        assert 0.0 <= out.fork_rate <= 1.0

    def test_lognormal_model_matches_analytic(self):
        fam = LogNormal(-10.7, 1.27)
        analytic = fork_rate_iid(fam, 10, 2.0).value
        out = simulate_fork_rate(SimConfig(IIDNull(fam, 10), 2.0, 10**6, SUITE_SEED))
        assert abs(out.fork_rate - analytic) <= 3 * out.stderr
