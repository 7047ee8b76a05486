"""Hash-rate estimation from block counts.

Per-miner rates are estimated as ``b_i * lambda_total / B`` (share of
mined blocks times total rate).  Method-of-moments fits map the empirical
mean ``m = lambda_total / N`` and sample standard deviation ``s`` onto the
null families; the multinomial sampling noise of the counts propagates
into Gaussian sampling laws for ``(m, s^2)``, which drive Monte Carlo
confidence bands on the fork-rate curve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateMinerSet,
    InvalidFamily,
    InvalidModel,
    InvalidMoments,
    check_positive,
)
from .forkrate import _delay_grid, fork_rate_curve
from .model import BlockCounts, IIDNull, MinerSet, check_rate, check_seed
from .quadrature import Exponential, LogNormal, NullFamily, TruncatedPowerLaw

__all__ = [
    "MomentPair",
    "EstimatorUncertainty",
    "ConfidenceBand",
    "estimate_hash_rates",
    "fit_moments",
    "method_of_moments",
    "estimator_uncertainty",
    "confidence_band",
    "add_zero_miners",
]

FAMILY_KINDS = ("exp", "lognormal", "tpl")


@dataclass(frozen=True)
class MomentPair:
    """Empirical mean and standard deviation of per-miner rates, blocks/s.

    ``s == 0`` (all counts equal) is representable but degenerate: only
    the exponential family can be fitted from it.
    """

    m: float
    s: float

    def __post_init__(self):
        check_positive(self.m, "mean m", InvalidMoments)
        if self.s != 0.0:
            check_positive(self.s, "std s", InvalidMoments)


@dataclass(frozen=True)
class EstimatorUncertainty:
    """Multinomial sampling noise of the count-based estimators.

    ``var_p[i] = p_hat[i] (1 - p_hat[i]) / B`` per miner, propagated to
    ``var_m`` (variance of the rate mean) and ``var_s2`` (variance of the
    rate sample variance, leading order in N).
    """

    p_hat: tuple[float, ...]
    var_p: tuple[float, ...]
    var_m: float
    var_s2: float


@dataclass(frozen=True)
class ConfidenceBand:
    """Percentile envelope of fork-rate curves under estimator noise."""

    delta0_grid: tuple[float, ...]
    lower: tuple[float, ...]
    point: tuple[float, ...]
    upper: tuple[float, ...]
    percentiles: tuple[float, float]


def _check_variances(lambda_total: float, *variances: float) -> None:
    """Raise :class:`InvalidModel` unless every variance is a positive normal float.

    Callers pass variances that must not vanish.  They scale with powers of
    ``lambda_total``, so one that underflowed or overflowed would otherwise
    come back as a silent 0 or infinity.
    """
    for v in variances:
        check_positive(v, f"a rate variance at lambda_total={lambda_total!r}", InvalidModel)


def estimate_hash_rates(counts: BlockCounts, lambda_total: float) -> MinerSet:
    """Frequentist conversion ``b_i * lambda_total / B``.

    Zero-count miners carry zero rate and are dropped with a warning (the
    conditional fork-rate terms degenerate at zero rate); their share of
    the total is zero, so the surviving rates still sum to lambda_total.
    Zero-miner scenarios belong to the semi-empirical posterior models.
    """
    check_rate(lambda_total)
    dropped = sum(1 for c in counts.counts if c == 0)
    if dropped:
        warnings.warn(
            f"dropping {dropped} zero-count miner(s) from the rate estimate",
            stacklevel=2,
        )
    total = counts.total
    return MinerSet([c * lambda_total / total for c in counts.counts if c > 0])


def fit_moments(counts: BlockCounts, lambda_total: float) -> MomentPair:
    """Empirical ``(m, s)`` of the estimated rates, zero-count miners included.

    ``m = lambda_total / N`` exactly; ``s`` uses the N-1 divisor.
    """
    check_rate(lambda_total)
    if counts.n < 2:
        raise DegenerateMinerSet(f"moment fit needs >= 2 miners, got {counts.n}")
    rates = np.asarray(counts.counts, dtype=float) * (lambda_total / counts.total)
    with np.errstate(over="ignore"):  # an overflow is reported below
        s = float(np.std(rates, ddof=1))
    if len(set(counts.counts)) > 1:
        _check_variances(lambda_total, s * s)
    return MomentPair(m=lambda_total / counts.n, s=s)


def method_of_moments(mp: MomentPair, family_kind: str) -> NullFamily:
    """Fit a null family to ``(m, s)``.

    exp:        rate = 1/m (ignores s; callers should surface |s - m|)
    lognormal:  sigma^2 = ln(1 + (s/m)^2),  mu = ln m - sigma^2 / 2
    tpl:        alpha = 1 - (m/s)^2,        beta = m / s^2
    """
    if family_kind == "exp":
        return Exponential(1.0 / mp.m)
    if mp.s <= 0:
        raise InvalidMoments(
            f"{family_kind} fit needs s > 0 (all counts equal is degenerate)"
        )
    # products, not ``** 2``: out of range they give inf or 0 for the checks
    if family_kind == "lognormal":
        cv = mp.s / mp.m
        sigma2 = math.log1p(cv * cv)
        return LogNormal(mu=math.log(mp.m) - 0.5 * sigma2, sigma=math.sqrt(sigma2))
    if family_kind == "tpl":
        ratio, var = mp.m / mp.s, mp.s * mp.s
        alpha = 1.0 - ratio * ratio
        beta = check_positive(mp.m / var if var else math.inf, "tpl fit beta", InvalidMoments)
        return TruncatedPowerLaw(alpha=alpha, beta=beta)
    raise InvalidFamily(f"unknown family kind {family_kind!r}; use one of {FAMILY_KINDS}")


def estimator_uncertainty(
    counts: BlockCounts, lambda_total: float
) -> EstimatorUncertainty:
    """Propagate multinomial count noise into the moment estimators."""
    check_rate(lambda_total)
    b_total = counts.total
    n = counts.n
    p_hat = [c / b_total for c in counts.counts]
    var_p = [p * (1.0 - p) / b_total for p in p_hat]
    try:
        var_m = lambda_total**2 / n**2 * math.fsum(var_p)
        var_s2 = (
            2.0 * lambda_total**4 / (n * (n - 1)) * math.fsum(v * v for v in var_p)
            if n > 1
            else 0.0
        )
    except OverflowError:  # a power of lambda_total beyond the float range
        var_m = var_s2 = math.inf
    if any(var_p):
        _check_variances(lambda_total, var_m, var_s2)
    return EstimatorUncertainty(
        p_hat=tuple(p_hat), var_p=tuple(var_p), var_m=var_m, var_s2=var_s2
    )


_S2_FLOOR_FRACTION = 1e-4
_RESAMPLE_CAP_FACTOR = 10


def confidence_band(
    counts: BlockCounts,
    lambda_total: float,
    family_kind: str,
    delta0_grid: Sequence[float],
    n_samples: int,
    percentiles: tuple[float, float] = (5.0, 95.0),
    seed: int = 0,
) -> ConfidenceBand:
    """Percentile band of fork-rate curves under (m, s^2) sampling noise.

    Draws ``(m, s^2)`` from their Gaussian sampling laws, refits the family
    per draw and evaluates the curve on the grid.  Of 10x the requested
    sample count of draws, the first ``n_samples`` with m > 0 and s^2 at
    or above a small positive floor are used (the Gaussian approximation
    admits negative variances).
    """
    if n_samples < 100:
        raise InvalidModel(f"n_samples must be >= 100, got {n_samples}")
    check_seed(seed)
    low, high = percentiles
    if not (0.0 < low < high < 100.0):
        raise InvalidModel(f"percentiles must satisfy 0 < low < high < 100, got {percentiles}")
    grid, _ = _delay_grid(float(d) for d in delta0_grid)

    mp = fit_moments(counts, lambda_total)
    unc = estimator_uncertainty(counts, lambda_total)
    sd_m = math.sqrt(unc.var_m)
    sd_s2 = math.sqrt(unc.var_s2)
    s2_hat = mp.s**2
    s2_floor = _S2_FLOOR_FRACTION * s2_hat

    rng = np.random.Generator(np.random.Philox(key=seed))
    cap = _RESAMPLE_CAP_FACTOR * n_samples
    z = rng.standard_normal((cap, 2))
    m_draws = mp.m + sd_m * z[:, 0]
    s2_draws = s2_hat + sd_s2 * z[:, 1]
    keep = np.flatnonzero((m_draws > 0) & (s2_draws >= s2_floor))[:n_samples]
    if keep.size < n_samples:
        raise InvalidMoments(
            f"could not draw {n_samples} usable (m, s^2) pairs in {cap} attempts"
        )
    accepted = zip(m_draws[keep].tolist(), np.sqrt(s2_draws[keep]).tolist())

    n = counts.n
    curves = np.empty((n_samples, len(grid)))
    for row, (m_draw, s_draw) in enumerate(accepted):
        try:
            family = method_of_moments(MomentPair(m_draw, s_draw), family_kind)
        except InvalidMoments:
            curves[row] = np.nan
            continue
        curves[row] = [res.value for res in fork_rate_curve(IIDNull(family, n), grid)]
    curves = curves[~np.isnan(curves).any(axis=1)]

    point_family = method_of_moments(mp, family_kind)
    point = [res.value for res in fork_rate_curve(IIDNull(point_family, n), grid)]
    lower = np.percentile(curves, low, axis=0)
    upper = np.percentile(curves, high, axis=0)
    return ConfidenceBand(
        delta0_grid=grid,
        lower=tuple(float(v) for v in lower),
        point=tuple(point),
        upper=tuple(float(v) for v in upper),
        percentiles=(low, high),
    )


def add_zero_miners(counts: BlockCounts, n_zero: int) -> BlockCounts:
    """Append miners that mined nothing in the window.

    Downstream, the independent semi-empirical path gives them the
    zero-count posterior; the i.i.d. null path refits moments over the
    enlarged miner set.
    """
    if n_zero < 0:
        raise InvalidModel(f"n_zero must be >= 0, got {n_zero}")
    if n_zero == 0:
        return counts
    return BlockCounts(counts.counts + (0,) * n_zero)
