"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo
checks share one pinned seed (deterministic outcomes) and 10^6 rounds per
grid point; the full module completes in well under two minutes.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from forkcast.cli import main, model_to_json
from forkcast.estimate import (
    MomentPair,
    add_zero_miners,
    estimate_hash_rates,
    fit_moments,
    method_of_moments,
)
from forkcast.forkrate import (
    conditional_fork_rate,
    fork_rate_iid,
    fork_rate_inid,
    fork_rate_semi_empirical,
    hhi,
    pdf_delta_conditional,
    taylor_fork_rate,
)
from forkcast.ingest import (
    bits_to_expected_hashes,
    build_period_record,
    fork_rate_empirical,
    parse_blocks_csv,
    parse_hashrate_csv,
    parse_propagation_csv,
    parse_stale_csv,
    segment_periods,
)
from forkcast.model import (
    BlockCounts,
    Fixed,
    IIDNull,
    MinerSet,
    SemiEmpiricalIID,
    SemiEmpiricalINID,
)
from forkcast.quadrature import (
    Exponential,
    LogNormal,
    TruncatedPowerLaw,
    posterior_laplace,
    posterior_laplace_weighted,
)
from forkcast.simulate import SimConfig, simulate_fork_rate

from conftest import SUITE_SEED, gamma_form_reference

OPERATING_POINT = MomentPair(5e-5, 1e-4)
GRID_N = (2, 10, 35)
GRID_D0 = (0.5, 1.0, 2.0, 8.7)
MC_ROUNDS = 10**6
FAMILY_KINDS = ("exp", "lognormal", "tpl")


def report(criterion: int, text: str):
    print(f"ACCEPTANCE criterion {criterion:02d}: PASS - {text}")


@pytest.fixture(scope="module")
def fitted_families():
    return {kind: method_of_moments(OPERATING_POINT, kind) for kind in FAMILY_KINDS}


@pytest.fixture(scope="module")
def analytic_grid(fitted_families):
    return {
        (kind, n, d0): fork_rate_iid(fam, n, d0).value
        for kind, fam in fitted_families.items()
        for n in GRID_N
        for d0 in GRID_D0
    }


@pytest.fixture(scope="module")
def simulated_grid(fitted_families):
    out = {}
    for kind, fam in fitted_families.items():
        for n in GRID_N:
            for d0 in GRID_D0:
                out[(kind, n, d0)] = simulate_fork_rate(
                    SimConfig(IIDNull(fam, n), d0, MC_ROUNDS, SUITE_SEED)
                )
    return out


@pytest.fixture(scope="module")
def reference_models(reference_counts, reference_gamma):
    return (
        SemiEmpiricalIID(reference_counts, reference_gamma),
        SemiEmpiricalINID(reference_counts, reference_gamma),
    )


def test_criterion_01_analytic_monte_carlo_agreement(analytic_grid, simulated_grid):
    worst = 0.0
    for key, analytic in analytic_grid.items():
        sim = simulated_grid[key]
        assert abs(sim.fork_rate - analytic) <= 3 * sim.stderr, key
        worst = max(worst, abs(sim.fork_rate - analytic) / sim.stderr)
    report(1, f"36 grid points within 3 stderr at 1e6 rounds (worst z {worst:.2f})")


def test_criterion_02_quadrature_vs_hypergeometric_reference(fitted_families, analytic_grid):
    worst = 0.0
    for kind in ("exp", "tpl"):
        fam = fitted_families[kind]
        for n in GRID_N:
            for d0 in GRID_D0:
                closed = gamma_form_reference(fam, n, d0)
                generic = analytic_grid[(kind, n, d0)]
                rel = float(abs(closed - generic) / closed)
                assert rel <= 1e-6, (kind, n, d0, rel)
                worst = max(worst, rel)
    report(2, f"transform quadrature matches the 30-digit reduced form (worst rel {worst:.2e})")


def test_criterion_03_tpl_reduces_to_exponential():
    worst = 0.0
    for n in GRID_N:
        for d0 in GRID_D0:
            a = fork_rate_iid(TruncatedPowerLaw(0.0, 20000.0), n, d0).value
            b = fork_rate_iid(Exponential(20000.0), n, d0).value
            rel = abs(a - b) / b
            assert rel <= 1e-8, (n, d0, rel)
            worst = max(worst, rel)
    report(3, f"truncated power law at alpha=0 equals exponential (worst rel {worst:.2e})")


def test_criterion_04_exact_conditional_identity():
    for n in (2, 5, 10, 35):
        lam = 0.0017 / n
        miners = MinerSet([lam] * n)
        for d0 in (0.5, 100.0, 600.0):
            expected = -math.expm1(-d0 * 0.0017 * (n - 1) / n)
            got = conditional_fork_rate(miners, d0).value
            assert abs(got - expected) <= 1e-12 * max(expected, 1e-300)
    anchor = conditional_fork_rate(MinerSet([0.001, 0.001]), 100.0).value
    assert anchor == pytest.approx(0.0951626, abs=5e-8)
    report(4, "equal-miner closed form exact to 1e-12; two-miner anchor 0.0951626")


def test_criterion_05_taylor_regime():
    rng = np.random.Generator(np.random.Philox(key=SUITE_SEED))
    for _ in range(100):
        n = int(rng.integers(2, 40))
        weights = rng.gamma(0.7, 1.0, n) + 1e-9
        miners = MinerSet(weights / weights.sum() * 10 ** rng.uniform(-4, -2))
        tau = 10 ** rng.uniform(-3, -1)
        d0 = tau / miners.total
        exact = conditional_fork_rate(miners, d0).value
        approx = taylor_fork_rate(miners.total, hhi(miners.shares), d0).value
        assert abs(approx - exact) / exact <= tau
    report(5, "first-order rate within tau of exact on 100 random fixed markets")


def test_criterion_06_limits_and_monotonicity(fitted_families, reference_counts,
                                              reference_lambda, reference_models):
    # C(0) = 0 for every method
    miners = estimate_hash_rates(reference_counts, reference_lambda)
    assert conditional_fork_rate(miners, 0.0).value == 0.0
    assert taylor_fork_rate(reference_lambda, 0.2, 0.0).value == 0.0
    for fam in fitted_families.values():
        assert fork_rate_iid(fam, 10, 0.0).value == 0.0
    assert fork_rate_inid([fitted_families["exp"], fitted_families["tpl"]], 0.0).value == 0.0
    for model in reference_models:
        assert fork_rate_semi_empirical(model, 0.0).value == 0.0

    # C(100 / lambda_total) >= 0.999 for known-rate markets
    for ms in (miners, MinerSet([0.00085, 0.00085]), MinerSet([0.0017 / 35] * 35)):
        assert conditional_fork_rate(ms, 100.0 / ms.total).value >= 0.999

    # monotone in the delay on a 20-point grid, and in uniform rate scaling
    grid = np.linspace(0.0, 30.0, 20)
    curves = [
        [conditional_fork_rate(miners, d).value for d in grid],
        [fork_rate_iid(fitted_families["exp"], 10, d).value for d in grid],
        [fork_rate_semi_empirical(reference_models[0], d).value for d in grid],
    ]
    for values in curves:
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    scaled = [
        conditional_fork_rate(MinerSet([k * l for l in miners.lambdas]), 5.0).value
        for k in np.linspace(1.0, 3.0, 20)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(scaled, scaled[1:]))
    report(6, "zero-delay zero, saturation at 100 block times, monotone in delay and scale")


def test_criterion_07_pdf_consistency():
    miners = MinerSet([0.001, 0.0004, 0.0003])
    lam_total = miners.total

    expected0 = lam_total * (1 - hhi(miners.shares))
    assert abs(pdf_delta_conditional(miners, 0.0) - expected0) <= 1e-12 * expected0

    total, _ = scipy_quad(lambda d: pdf_delta_conditional(miners, d), 0, np.inf, limit=300)
    assert total == pytest.approx(1.0, rel=1e-8)

    for tau in np.geomspace(1e-4, 1.0, 9):
        d0 = tau / lam_total
        h = 1e-5 * d0
        fd = (
            conditional_fork_rate(miners, d0 + h).value
            - conditional_fork_rate(miners, d0 - h).value
        ) / (2 * h)
        assert pdf_delta_conditional(miners, d0) == pytest.approx(fd, rel=1e-6)
    report(7, "gap density matches the fork-rate derivative, normalizes to one")


def _posterior_oracle(b, gamma, s, weighted=False):
    def density(lam):
        return math.exp(-((b - gamma * lam) ** 2) / (2 * gamma * lam)) / math.sqrt(
            2 * math.pi * lam / gamma
        )

    hi = (b + 60 * math.sqrt(b + 25) + 400) / gamma

    def f(y):
        lam = y * y
        w = lam if weighted else 1.0
        return 2 * y * w * density(lam) * math.exp(-s * lam)

    val, _ = scipy_quad(
        f, 0, math.sqrt(hi), limit=600, epsabs=1e-300, epsrel=1e-12,
        points=[math.sqrt(max(b, 1e-12) / gamma)],
    )
    return val


def test_criterion_08_semi_empirical_consistency(reference_models, reference_gamma):
    gamma = reference_gamma
    worst = 0.0
    for b in (0, 1, 100, 1000):
        for k in range(-3, 4):  # six decades around 1/gamma
            s = 10.0**k / gamma
            for fn, oracle_weighted in (
                (posterior_laplace, False),
                (posterior_laplace_weighted, True),
            ):
                got = fn(b, gamma, s)
                want = _posterior_oracle(b, gamma, s, weighted=oracle_weighted)
                rel = abs(got - want) / abs(want)
                assert rel <= 1e-8, (b, s, oracle_weighted, rel)
                worst = max(worst, rel)

    worst_z = 0.0
    for model in reference_models:
        for d0 in (0.5, 1.0, 2.0):
            analytic = fork_rate_semi_empirical(model, d0).value
            sim = simulate_fork_rate(SimConfig(model, d0, MC_ROUNDS, SUITE_SEED))
            assert abs(sim.fork_rate - analytic) <= 3 * sim.stderr, (type(model), d0)
            worst_z = max(worst_z, abs(sim.fork_rate - analytic) / sim.stderr)
    report(8, f"posterior transforms to 1e-8 (worst {worst:.2e}); "
              f"posterior-sampling MC within 3 stderr (worst z {worst_z:.2f})")


def test_criterion_09_family_ordering(analytic_grid):
    for n in GRID_N:
        for d0 in GRID_D0:
            c_exp = analytic_grid[("exp", n, d0)]
            c_ln = analytic_grid[("lognormal", n, d0)]
            c_tpl = analytic_grid[("tpl", n, d0)]
            assert c_exp >= c_ln >= c_tpl, (n, d0)
    report(9, "exponential >= log-normal >= truncated power law at every grid point")


def test_criterion_10_zero_miners(reference_counts, reference_gamma):
    worst = 0.0
    for make in (SemiEmpiricalINID, SemiEmpiricalIID):
        for d0 in (0.5, 1.0, 2.0):
            base = fork_rate_semi_empirical(make(reference_counts, reference_gamma), d0).value
            for n_zero in (1, 5, 20):
                counts = add_zero_miners(reference_counts, n_zero)
                value = fork_rate_semi_empirical(make(counts, reference_gamma), d0).value
                rel = abs(value - base) / base
                assert rel <= 0.10, (make.__name__, d0, n_zero, rel)
                worst = max(worst, rel)
    report(10, f"zero miners shift the semi-empirical rate by at most {worst:.2%}")


def test_criterion_11_method_of_moments():
    exp = method_of_moments(OPERATING_POINT, "exp")
    assert exp.rate == pytest.approx(20000.0, rel=1e-9)

    tpl = method_of_moments(OPERATING_POINT, "tpl")
    assert tpl.alpha == pytest.approx(0.75, rel=1e-9)
    assert tpl.beta == pytest.approx(5000.0, rel=1e-9)
    assert tpl.mean() == pytest.approx(5e-5, rel=1e-10)
    assert tpl.std() == pytest.approx(1e-4, rel=1e-10)

    ln = method_of_moments(OPERATING_POINT, "lognormal")
    assert ln.sigma == pytest.approx(math.sqrt(math.log(5.0)), rel=1e-9)
    assert ln.sigma == pytest.approx(1.26864, rel=1e-5)
    assert ln.mu == pytest.approx(math.log(5e-5) - 0.5 * math.log(5.0), rel=1e-9)
    assert ln.mu == pytest.approx(-10.708, rel=1e-4)
    assert ln.mean() == pytest.approx(5e-5, rel=1e-10)
    assert ln.std() == pytest.approx(1e-4, rel=1e-10)
    report(11, "moment fits reproduce r=20000, (0.75, 5000), (1.26864, -10.708) with roundtrip")


def test_criterion_12_pipeline_numbers(dataset_dir):
    blocks = parse_blocks_csv(dataset_dir / "blocks.csv")
    stales = parse_stale_csv(dataset_dir / "stale.csv")
    periods, _ = segment_periods(blocks)
    value = fork_rate_empirical(stales, periods[0])
    assert value == pytest.approx(0.0041328, rel=1e-9)

    oracle = (1 << 256) / (0xFFFF * (1 << 208) + 1)
    assert bits_to_expected_hashes(0x1D00FFFF) == pytest.approx(oracle, rel=1e-6)
    assert oracle == pytest.approx(4.295032833e9, rel=1e-9)

    prop = parse_propagation_csv(dataset_dir / "propagation.csv")
    series = parse_hashrate_csv(dataset_dir / "hashrate.csv")
    for idx, chunk in enumerate(periods):
        rec = build_period_record(chunk, stales, prop, series, idx)
        assert 500.0 <= 1.0 / rec.lambda_total <= 700.0
    report(12, "stale rescaling hits 0.41328%, difficulty-1 conversion exact, "
               "block time inside [500, 700] s")


def test_criterion_13_determinism_across_threads(tmp_path, dataset_dir, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_to_json(IIDNull(Exponential(20000.0), 10))))
    sim_outputs = []
    for threads in ("1", "2", "8"):
        code = main([
            "simulate", "--model", str(model_path), "--delta0", "1.0",
            "--rounds", "300000", "--seed", str(SUITE_SEED), "--threads", threads,
        ])
        assert code == 0
        sim_outputs.append(capsys.readouterr().out)
    assert sim_outputs[0] == sim_outputs[1] == sim_outputs[2]

    band_outputs = []
    for _ in range(2):
        code = main([
            "band", "--blocks", str(dataset_dir / "blocks.csv"),
            "--lambda", "0.0017", "--family", "exp",
            "--delta0-grid", "0.5,2", "--samples", "100",
            "--seed", str(SUITE_SEED),
        ])
        assert code == 0
        band_outputs.append(capsys.readouterr().out)
    assert band_outputs[0] == band_outputs[1]
    report(13, "simulate and band outputs byte-identical across seeds and thread counts")
