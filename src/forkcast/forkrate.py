"""Analytic fork-rate engine.

A soft fork happens when the two fastest miners solve the puzzle within
the block propagation delay of each other.  With exponential mining times
the fork probability conditioned on known rates ``lam_i`` is

    C(d | {lam}) = 1 - sum_i (lam_i / L) * exp(-d * (L - lam_i)),  L = sum lam_i.

Averaging over a distribution of rates turns the sum into a semi-infinite
integral over products of Laplace transforms (see :mod:`.quadrature`):

    C(d) = integral_0^inf sum_i W_i(x) * [ prod_{j!=i} L_j(x)
                                           - prod_{j!=i} L_j(d + x) ] dx.

The bracketed difference form is equivalent to the usual ``1 - integral``
but is evaluated here as a positive integrand built from ``expm1``-stable
decrements, so small fork rates keep full relative accuracy instead of
dying by cancellation against 1.

Only the decrement ``log L(d + x) - log L(x)`` depends on the delay, so the
primitive is a fork-rate *curve*: :func:`fork_rate_curve` integrates a
whole delay grid as one vector-valued integral, evaluating ``W`` and ``L``
once per point, and returns one result with its own error estimate per
delay.  The single-delay entry points are curves of one delay.

Every distributional fork rate is one population integral over the rows
of transforms and multiplicities that :func:`.model.population` gives (n
i.i.d. or n equal independent miners are one row of multiplicity n, the
exponential and truncated-power-law families included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateHHI,
    DegenerateMinerSet,
    InvalidDelay,
    InvalidModel,
    NonConvergent,
    ShareSumViolation,
    check_positive,
)
from .model import (
    Fixed,
    ForkRateResult,
    HashRateModel,
    IIDNull,
    INIDNull,
    MinerSet,
    SemiEmpiricalIID,
    SemiEmpiricalINID,
    check_delay,
    check_rate,
    population,
)
from .quadrature import REL_TOL, NullFamily, _integrate_semi_infinite

__all__ = [
    "ImpliedResult",
    "hhi",
    "hhi_from_counts",
    "conditional_fork_rate",
    "pdf_delta_conditional",
    "taylor_fork_rate",
    "fork_rate_iid",
    "fork_rate_inid",
    "fork_rate_semi_empirical",
    "fork_rate",
    "fork_rate_curve",
    "implied_delta0",
    "implied_hhi",
]

_SHARE_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ImpliedResult:
    """Inverted model parameter; ``valid`` is False when it leaves its domain."""

    value: float
    valid: bool


def hhi(shares: Sequence[float]) -> float:
    """Herfindahl-Hirschman concentration index, sum of squared shares."""
    arr = np.asarray(shares, dtype=float)
    if arr.size == 0 or np.any(arr < 0):
        raise ShareSumViolation("shares must be non-negative and non-empty")
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > _SHARE_SUM_TOL:
        raise ShareSumViolation(f"shares sum to {total!r}, expected 1")
    return float(np.sum(arr * arr))


def hhi_from_counts(counts) -> float:
    """Concentration of mined blocks: sum over miners of (b_i / B)^2."""
    return hhi(counts.shares)


def _require_competition(n: int):
    if n < 2:
        raise DegenerateMinerSet(f"need >= 2 miners for a fork rate, got {n}")


def conditional_fork_rate(miners: MinerSet, delta0: float) -> ForkRateResult:
    """Fork probability for exactly known rates (closed form).

    Evaluated as ``sum_i share_i * (-expm1(-delta0 * (L - lam_i)))`` which
    is exact at ``delta0 = 0`` and keeps relative precision for tiny rates.
    """
    _require_competition(miners.n)
    check_delay(delta0)
    total = miners.total
    terms = [
        (lam / total) * (-math.expm1(-delta0 * (total - lam)))
        for lam in miners.lambdas
    ]
    value = min(math.fsum(terms), 1.0)
    return ForkRateResult(
        value=value,
        method="conditional",
        error_estimate=4.0 * np.finfo(float).eps * miners.n * max(value, 1e-300),
        inputs_echo=f"fixed rates, n={miners.n}, total={total!r}, delta0={delta0!r}",
        characteristic_time=delta0 * total,
    )


def pdf_delta_conditional(miners: MinerSet, delta: float) -> float:
    """Density of the solve-time gap between the two fastest miners.

    At ``delta = 0`` this equals ``total * (1 - HHI)``, the sensitivity of
    the fork rate to the propagation delay.
    """
    _require_competition(miners.n)
    check_delay(delta, "delta")
    total = miners.total
    terms = [
        lam * (total - lam) * math.exp(-delta * (total - lam)) / total
        for lam in miners.lambdas
    ]
    return math.fsum(terms)


def taylor_fork_rate(lambda_total: float, hhi_value: float, delta0: float) -> ForkRateResult:
    """First-order fork rate ``delta0 * lambda_total * (1 - HHI)``, clamped to [0, 1]."""
    if not (0.0 < hhi_value <= 1.0):
        raise InvalidModel(f"hhi must lie in (0, 1], got {hhi_value}")
    check_delay(delta0)
    check_rate(lambda_total)
    raw = delta0 * lambda_total * (1.0 - hhi_value)
    value = min(max(raw, 0.0), 1.0)
    return ForkRateResult(
        value=value,
        method="taylor",
        error_estimate=0.5 * raw * raw if raw < 1.0 else 1.0,
        inputs_echo=(
            f"taylor, lambda_total={lambda_total!r}, hhi={hhi_value!r}, "
            f"delta0={delta0!r}"
        ),
        characteristic_time=delta0 * lambda_total,
    )


# ---------------------------------------------------------------------------
# Quadrature-backed unconditional fork rates
# ---------------------------------------------------------------------------


def _curve(raw, err, method: str, echo: str, delays) -> list[ForkRateResult]:
    """One result per delay, ``echo`` completed with the delay.

    Quadrature noise just outside [0, 1] is clamped; larger excursions are
    rejected.  Every caller has at least two miners, so at a delay above 0
    an exact zero with a zero error estimate means every integrand value
    underflowed, and is rejected too.
    """
    slack, results = 10.0 * REL_TOL, []
    for value, error, d in zip(raw.tolist(), err.tolist(), delays):
        if value < -slack or value > 1.0 + slack:
            raise NonConvergent(f"fork rate {value!r} leaves [0, 1] beyond tolerance")
        if value == 0.0 and error == 0.0 and d > 0.0:
            raise NonConvergent(f"every integrand value underflowed at delta0={d!r}")
        clamped = min(max(value, 0.0), 1.0)
        results.append(ForkRateResult(clamped, method, error, f"{echo}, delta0={d!r}"))
    return results


def _delay_grid(delays) -> tuple[tuple, np.ndarray]:
    """Validate every delay before any integration; returns them and their array."""
    delays = tuple(delays)
    if not delays:
        raise InvalidDelay("the delay grid is empty")
    for d in delays:
        check_delay(d)
    return delays, np.asarray(delays, dtype=float)


def _log_rows(t, x: np.ndarray, delays: np.ndarray):
    """``(log W, log L, log-decrements)`` of transform ``t`` at ``x``.

    The decrements gain a last axis, one entry per delay.  Every
    in-package transform supplies all three with one ``log_rows`` call; a
    foreign :class:`.model.INIDNull` member with only the single-quantity
    methods is called once per quantity, the decrement once per delay.
    """
    fused = getattr(t, "log_rows", None)
    if fused is not None:
        return fused(x, delays)
    dec = np.stack([t.log_laplace_decrement(x, d) for d in delays], axis=-1)
    return t.log_laplace_weighted(x), t.log_laplace(x), dec


def _excluding_row_sums(rows: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """``sum_h mult[h] * rows[h] - rows[g]`` for each group g, -inf safe.

    The group axis is axis 0.  Entries may be -inf (a transform that
    underflowed); a -inf row counts ``mult[g]`` times, and a sum that
    still contains one after excluding one member of group g stays -inf.
    """
    neg = np.isneginf(rows)
    if not neg.any():
        return np.sum(mult * rows, axis=0) - rows
    n_neg = np.sum(mult * neg, axis=0)
    finite = np.where(neg, 0.0, rows)
    out = np.sum(mult * finite, axis=0) - finite
    keeps_inf = (n_neg >= 2) | ((n_neg == 1) & ~neg)
    return np.where(keeps_inf, -np.inf, out)


def _population_integral(transforms, mult, delays: np.ndarray):
    """C(d) = integral sum_i W_i(x) prod_{j!=i} L_j(x) (-expm1(sum_{j!=i} dec_j)) dx.

    ``transforms`` and ``mult`` are a population (:func:`.model.population`):
    row g stands for ``mult[g]`` miners.  All delays are integrated at once.
    """
    means = np.concatenate([np.atleast_1d(t.mean()) for t in transforms])
    scale = 1.0 / math.fsum((mult * means).tolist())
    mult = np.asarray(mult, dtype=float)[:, None]

    def integrand(x: np.ndarray) -> np.ndarray:
        per_transform = [_log_rows(t, x, delays) for t in transforms]
        log_w = np.vstack([r[0] for r in per_transform])
        log_l = np.vstack([r[1] for r in per_transform])
        dec = np.concatenate([r[2].reshape(-1, x.size, delays.size) for r in per_transform])
        rest_l = _excluding_row_sums(log_l, mult)
        rest_dec = _excluding_row_sums(dec, mult[:, :, None])
        terms = (mult * np.exp(log_w + rest_l))[:, :, None] * (-np.expm1(rest_dec))
        return np.sum(terms, axis=0)

    return _integrate_semi_infinite(integrand, scale=scale)


def fork_rate_curve(model: HashRateModel, delays: Sequence[float]) -> list[ForkRateResult]:
    """Fork rates of one model over a delay grid, one result per delay.

    Every delay is validated before any integration.  Fixed rates use the
    conditional closed form; every other model is one population integral
    over the whole grid, which evaluates ``W`` and ``L`` once per point and
    keeps one error estimate per delay.
    """
    if isinstance(model, Fixed):
        delays, _ = _delay_grid(delays)
        return [conditional_fork_rate(model.miners, d) for d in delays]
    transforms, mult = population(model)
    n = int(np.sum(mult))
    _require_competition(n)
    delays, grid = _delay_grid(delays)
    raw, err = _population_integral(transforms, mult, grid)
    if isinstance(model, IIDNull):
        return _curve(raw, err, "quadrature", f"iid {model.family!r}, n={n}", delays)
    if isinstance(model, INIDNull):
        return _curve(raw, err, "quadrature", f"inid, n={n}", delays)
    detail = "iid mixture" if isinstance(model, SemiEmpiricalIID) else "inid per-miner"
    echo = f"semi-empirical {detail}, n={n}, gamma={model.gamma!r}"
    return _curve(raw, err, "semi_empirical", echo, delays)


def fork_rate_iid(family: NullFamily, n: int, delta0: float) -> ForkRateResult:
    """Unconditional fork rate for n miners with i.i.d. rates from ``family``."""
    return fork_rate_curve(IIDNull(family, n), (delta0,))[0]


def fork_rate_inid(members: Sequence, delta0: float) -> ForkRateResult:
    """Unconditional fork rate for independent miners; see :class:`.model.INIDNull`."""
    return fork_rate_curve(INIDNull(members), (delta0,))[0]


def fork_rate_semi_empirical(
    model: SemiEmpiricalIID | SemiEmpiricalINID, delta0: float
) -> ForkRateResult:
    """Fork rate under block-count posteriors.

    The i.i.d. variant draws every miner from the posterior mixture; the
    independent variant assigns miner i its own posterior.  Both evaluate
    one posterior transform per distinct block count, and miners that
    share a count enter through its multiplicity.
    """
    return fork_rate_curve(model, (delta0,))[0]


def fork_rate(model: HashRateModel, delta0: float) -> ForkRateResult:
    """Dispatch to the natural method for the given hash-rate model."""
    return fork_rate_curve(model, (delta0,))[0]


# ---------------------------------------------------------------------------
# First-order inversions
# ---------------------------------------------------------------------------


def _check_fork_rate(value: float) -> None:
    check_delay(value, "fork rate")
    if not value < 1.0:
        raise InvalidDelay(f"fork rate must lie in [0, 1), got {value}")


def implied_delta0(
    fork_rate_value: float, lambda_total: float, hhi_value: float
) -> ImpliedResult:
    """Propagation delay that reproduces a fork rate at first order; always finite and valid."""
    _check_fork_rate(fork_rate_value)
    check_rate(lambda_total)
    if hhi_value >= 1.0:
        raise DegenerateHHI("a single-miner market implies no forks at any delay")
    if not (0.0 < hhi_value):
        raise InvalidModel(f"hhi must lie in (0, 1), got {hhi_value}")
    rate = check_positive(lambda_total * (1.0 - hhi_value), "lambda_total * (1 - hhi)",
                          InvalidModel)
    return ImpliedResult(value=fork_rate_value / rate, valid=True)


def implied_hhi(
    fork_rate_value: float, lambda_total: float, delta0: float
) -> ImpliedResult:
    """Concentration level that reproduces a fork rate at first order.

    A result below 0 (the observed fork rate is too high for the assumed
    delay) or above 1 is reported with ``valid=False`` rather than raised.
    """
    _check_fork_rate(fork_rate_value)
    check_rate(lambda_total)
    check_delay(delta0)
    if delta0 == 0.0:
        raise InvalidDelay("delta0 must be > 0 to imply a concentration")
    tau = check_positive(delta0 * lambda_total, "delta0 * lambda_total", InvalidDelay)
    value = 1.0 - fork_rate_value / tau
    return ImpliedResult(value=value, valid=0.0 <= value <= 1.0)
