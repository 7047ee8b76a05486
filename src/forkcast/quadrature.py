"""Integration primitives and hash-rate distribution transforms.

Every analytic fork-rate expression in this package reduces to a
semi-infinite integral over products of Laplace transforms of hash-rate
distributions:

    L(s) = E[exp(-s * lam)]          (plain transform)
    W(s) = E[lam * exp(-s * lam)]    (rate-weighted transform)

This module provides

* one integrator on ``(0, inf)``: trapezoid sums over ``u``, where ``x =
  scale * exp((pi/2) sinh u)`` (the double-exponential rule), at steps
  1/2, 1/4, 1/8, ... until each component of a vector integrand meets its
  own relative bound;
* the three null hash-rate families (exponential, log-normal, truncated
  power law) with densities, samplers and their own log-domain
  transforms: the exponential and the truncated power law share one
  closed Gamma form, the log-normal evaluates ``L``, ``W`` and the
  decrements of a whole delay grid as trapezoid sums on one grid centred
  at the integrand's mode, with no nested adaptive integral.  A family
  is its own transform; there is no separate transform class or factory;
* the block-count posterior transform, evaluated for a whole miner
  population at once: the population is held as its distinct block
  counts plus a multiplicity for each, so the semi-empirical fork-rate
  formulas cost one broadcast per distinct count rather than one object
  per miner, and the simulator draws a whole population in one
  broadcast call.

Products of many transform factors are accumulated as sums of logarithms
(miner counts can reach hundreds, which would underflow in linear space).
Every transform defines one ``log_rows(s, delays)``: ``log W``, ``log L``
and, per delay, the decrement ``log L(s + d) - log L(s)`` to full relative
precision, of which ``log_laplace``, ``log_laplace_weighted`` and
``log_laplace_decrement`` are views.  The decrement keeps small fork rates
(1e-5 and below) accurate: fork probabilities are integrals of
*differences* of transform products, which naively lose every digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    InvalidDelay,
    InvalidFamily,
    InvalidModel,
    NonConvergent,
    NonFinite,
    check_positive,
)

__all__ = [
    "Exponential",
    "LogNormal",
    "TruncatedPowerLaw",
    "NullFamily",
    "integrate_semi_infinite",
    "laplace",
    "laplace_weighted",
    "posterior_laplace",
    "posterior_laplace_weighted",
    "PointMassTransform",
    "PosteriorTransform",
    "MixtureTransform",
    "posterior_mixture",
]


# Every component is held to an error of REL_TOL * |I|.  The bound is
# relative only, so a fork rate of 1e-9 is held to the same nine digits as
# one of 1e-2.  A component still short of it at level MAX_LEVEL (step
# 2**-(MAX_LEVEL + 1) in u) raises NonConvergent.
REL_TOL = 1e-9
MAX_LEVEL = 10

# Terms below _TAIL times a component's largest term are left out of its
# sums; nodes keep |log x| <= _LOG_X_MAX, so x and dx/du stay finite.
_TAIL = 1e-18
_LOG_X_MAX = 700.0
_HALF_PI = 0.5 * math.pi
_EPS = np.finfo(float).eps

Integrand = Callable[[np.ndarray], np.ndarray]


def _integrate_semi_infinite(f: Integrand, *, scale: float = 1.0):
    """``(value, error)`` of ``integral_0^inf f(x) dx``, one entry per component of ``f``.

    ``f`` maps an array of points to values of shape ``(npoints,)`` or
    ``(npoints, m)``.  The double-exponential map ``x = scale *
    exp((pi/2) sinh u)`` (Takahasi & Mori, Publ. RIMS 9, 1974) makes the
    integrand decay double exponentially in u at both ends, and trapezoid
    sums in u at steps 1/2, 1/4, 1/8, ... converge exponentially (Bailey,
    Jeyabalan & Li, Exp. Math. 14, 2005).  Level 0 starts at the
    half-integers of ``[-5, 3]`` and grows one node per call of ``f`` at
    an end where some component's term exceeds ``_TAIL`` of its largest,
    up to ``|log x| = 700``.  Each later level evaluates, in one call of
    ``f``, the midpoints that some unfinished component's range holds.

    A component's range is its level-0 nodes within one step of its terms
    above ``_TAIL`` of its largest; with no nonzero term at level 0, it is
    the starting span, so the component counts as 0 only if level 1 finds
    no term either.  It sums the nodes of its range only, in one fixed
    order (other nodes add exact zeros), so its sums and node count depend
    on its own terms only: a column integrates alike beside any others (a
    range shared by the columns would make a column's node count, and so
    its error, depend on its neighbours).  It stops at the first level k
    where ``|T_k - T_(k-1)| + m eps |T_k| <= REL_TOL |T_k|``, m its node
    count (the rounding of its sum), and that bound is its error.
    """
    check_positive(scale, "integration scale", InvalidModel)
    log_scale = math.log(scale)
    u_min = math.asinh((-_LOG_X_MAX - log_scale) / _HALF_PI)
    u_max = math.asinh((_LOG_X_MAX - log_scale) / _HALF_PI)

    def terms(u: np.ndarray) -> tuple[np.ndarray, tuple]:
        """``f(x) dx/du`` at nodes ``u``, one row per node, and the shape of a value of ``f``."""
        x = np.exp(log_scale + _HALF_PI * np.sinh(u))
        vals = np.asarray(f(x), dtype=float)
        out = vals.reshape(len(u), -1) * (x * _HALF_PI * np.cosh(u))[:, None]
        if not np.isfinite(out).all():
            bad = float(x[~np.isfinite(out).all(axis=1)][0])
            raise NonFinite(f"integrand non-finite at x = {bad!r}")
        return out, vals.shape[1:]

    h = 0.5  # the step of level 0
    lo, hi = max(-5.0, math.ceil(u_min / h) * h), min(3.0, math.floor(u_max / h) * h)
    u = np.arange(lo, hi + 0.5 * h, h)
    g, shape = terms(u)
    while True:
        big = np.abs(g) > _TAIL * np.abs(g).max(axis=0)
        if big[0].any() and u[0] - h >= u_min:
            u, g = np.r_[u[0] - h, u], np.vstack([terms(u[:1] - h)[0], g])
        elif big[-1].any() and u[-1] + h <= u_max:
            u, g = np.r_[u, u[-1] + h], np.vstack([g, terms(u[-1:] + h)[0]])
        else:
            break

    # each component's range [first, last], one node beyond its big terms;
    # a component with no nonzero term keeps the starting span [lo, hi]
    some = big.any(axis=0)
    first = np.where(some, u[np.maximum(big.argmax(axis=0) - 1, 0)], lo)
    last = np.where(some, u[np.minimum(len(u) - big[::-1].argmax(axis=0), len(u) - 1)], hi)
    inside = (first <= u[:, None]) & (u[:, None] <= last)
    total = h * np.cumsum(np.where(inside, g, 0.0), axis=0)[-1]
    nodes = inside.sum(axis=0)
    value, error = np.zeros_like(total), np.zeros_like(total)
    todo = np.ones(total.shape, dtype=bool)
    a, b = u[0], u[-1]
    for _ in range(MAX_LEVEL):
        h *= 0.5
        mid = a + h * np.arange(1.0, (b - a) / h, 2.0)[:, None]
        inside = (first < mid) & (mid < last)
        need = inside[:, todo].any(axis=1)
        prev, total = total, 0.5 * total
        if need.any():
            new = np.where(inside[need], terms(mid[need, 0])[0], 0.0)
            total += h * np.cumsum(new, axis=0)[-1]
        nodes = 2 * nodes - 1
        bound = np.abs(total - prev) + nodes * _EPS * np.abs(total)
        done = todo & (bound <= REL_TOL * np.abs(total))
        value[done], error[done] = total[done], bound[done]
        todo &= ~done
        if not todo.any():
            return value.reshape(shape), error.reshape(shape)
    raise NonConvergent(
        f"tolerance not reached at level {MAX_LEVEL} (error {np.max(bound[todo]):.3e})"
    )


def integrate_semi_infinite(f: Integrand, *, scale: float = 1.0) -> float:
    """Return ``integral_0^inf f(x) dx`` to ``REL_TOL``.

    ``f`` must accept numpy arrays and be finite on (0, inf); raises
    :class:`NonFinite` on NaN/inf evaluations and :class:`NonConvergent`
    when level ``MAX_LEVEL`` is passed.  ``scale`` should be near where
    the mass lies.  Nodes reach ``x = e**700``.  The rule assumes ``f``
    smooth on the scale of a step of u: a feature narrower than that, left
    between the nodes of the first two levels or beyond the starting span
    ``u`` in ``[-5, 3]`` when they find no other mass, can go unseen.
    """
    value, _ = _integrate_semi_infinite(f, scale=scale)
    return float(value)


# ---------------------------------------------------------------------------
# Null hash-rate families and their log-domain transforms
# ---------------------------------------------------------------------------


class _Transform:
    """Single-quantity views of the fused ``log_rows(s, delays)`` a transform defines.

    ``log_rows`` returns ``(log W, log L, log-decrements)`` at ``s``; the
    decrements gain a last axis, one entry per delay.
    """

    def log_laplace(self, s: np.ndarray) -> np.ndarray:
        return self.log_rows(s, ())[1]

    def log_laplace_weighted(self, s: np.ndarray) -> np.ndarray:
        return self.log_rows(s, ())[0]

    def log_laplace_decrement(self, s: np.ndarray, d: float) -> np.ndarray:
        return self.log_rows(s, (d,))[2][..., 0]


class _GammaForm(_Transform):
    """Log-domain transforms of a Gamma law with ``shape`` and rate ``beta``.

    Shared by the exponential (shape 1, where multiplying by the shape is
    exact and ``log(1) == 0``) and the truncated power law.
    """

    def log_rows(self, s: np.ndarray, delays: Sequence[float]):
        k, beta = self.shape, self.beta
        beta_s = beta + np.asarray(s, dtype=float)
        log_bs = np.log(beta_s)
        log_w = math.log(k) + k * math.log(beta) - (k + 1.0) * log_bs
        dec = -k * np.log1p(np.ravel(delays) / beta_s[..., None])
        return log_w, k * (math.log(beta) - log_bs), dec


@dataclass(frozen=True)
class Exponential(_GammaForm):
    """Exponential hash-rate family with rate parameter ``rate`` (= 1/mean)."""

    rate: float
    shape = 1.0  # the Gamma form of an exponential; not a dataclass field

    def __post_init__(self):
        check_positive(self.rate, "Exponential rate", InvalidFamily)
        check_positive(self.mean(), "Exponential mean 1 / rate", InvalidFamily)

    @property
    def beta(self) -> float:
        return self.rate

    def density(self, lam):
        lam = np.asarray(lam, dtype=float)
        return self.rate * np.exp(-self.rate * lam)

    def mean(self) -> float:
        return 1.0 / self.rate

    def std(self) -> float:
        return 1.0 / self.rate

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=size)


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _lambert_w0(log_x: np.ndarray) -> np.ndarray:
    """``W0(x)`` from ``log x``: Newton on the convex ``u + e^u = log x`` (``u = log W0``).

    Steps from right of the root descend monotonically; ``W0(x) = x`` below ``e^-40``.
    """
    c = np.maximum(log_x, -40.0)
    u = np.log1p(np.maximum(c, 0.0))
    for _ in range(6):
        u = u - (u + np.exp(u) - c) / (1.0 + np.exp(u))
    return np.exp(np.where(log_x < -40.0, log_x, u))


@dataclass(frozen=True)
class LogNormal(_Transform):
    """Log-normal hash-rate family: log(lam) ~ Normal(mu, sigma^2).

    Its transforms have no closed form; :meth:`log_rows` sums them on one
    trapezoid grid per argument.
    """

    mu: float
    sigma: float

    def __post_init__(self):
        check_positive(self.sigma, "LogNormal sigma", InvalidFamily)
        with np.errstate(over="ignore"):  # an overflow is reported below
            mean = np.exp(self.mu + 0.5 * self.sigma * self.sigma).item()
        check_positive(mean, "LogNormal mean exp(mu + sigma^2 / 2)", InvalidFamily)

    def density(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = np.zeros_like(lam)
        pos = lam > 0
        z = (np.log(lam[pos]) - self.mu) / self.sigma
        out[pos] = np.exp(-0.5 * z * z) / (
            lam[pos] * self.sigma * math.sqrt(2.0 * math.pi)
        )
        return out

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def std(self) -> float:
        return self.mean() * math.sqrt(math.expm1(self.sigma**2))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=size)

    def log_rows(self, s: np.ndarray, delays: Sequence[float]):
        """``(log W, log L, log-decrements)`` at ``s``; decrements gain a last delay axis.

        ``L(s)``, ``W(s)`` and every drop ``D_d(s) = L(s) - L(s + d) =
        E[exp(-s*lam) * (1 - exp(-d*lam))]`` are trapezoid sums in log space
        over ``z = (log lam - mu) / sigma``.  Each ``s`` has its grid centred
        at the plain integrand's mode ``z* = -w / sigma``, ``w = W0(s *
        sigma^2 * e^mu)``, where its log has curvature ``-(1 + w) <= -1``.
        The weight ``lam`` and the drops add concave terms of slope in ``[0,
        sigma]``, so ``[z* - 9.5, z* + sigma + 9.5]`` holds every component
        to ``e^-45``; the spacing ``0.3 / max(sigma, sqrt(1 + w))`` resolves
        the mode and the cutoff at ``s * lam ~ 1``, and the sums converge
        exponentially (Trefethen & Weideman, SIAM Review 56, 2014).
        """
        s = np.atleast_1d(np.asarray(s, dtype=float))
        mu, sigma = self.mu, self.sigma
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_s, log_d = np.log(s), np.log(np.ravel(delays))
            sums = np.empty(s.shape + (2 + log_d.size,))
            w = _lambert_w0(log_s + 2.0 * math.log(sigma) + mu)
            need = np.ceil((19.0 + sigma) / 0.3 * np.maximum(sigma, np.sqrt(1.0 + w)))
            # a budget of 30,000 nodes; sigma > 85 or s = inf needs more
            if not np.max(need) <= 30_000:
                raise NonConvergent(f"lognormal transform needs {np.max(need):.3g} nodes")
            # each s sums its own need + 1 nodes; a batch pads them to its
            # longest with exact zeros, so the sums at s do not depend on it
            h = (19.0 + sigma) / need
            i = np.arange(np.max(need) + 1.0)[:, None]
            # slabs of s, each of at most 2**18 grid entries, bound the memory
            width = max(1, 2**18 // (i.size * sums.shape[1]))
            for j in range(0, s.size, width):
                cut = slice(j, j + width)
                z = i * h[cut] - (9.5 + w[cut] / sigma)
                log_lam = (mu + sigma * z)[:, :, None]
                plain = np.where(i > need[cut], -np.inf, -0.5 * z * z - _LOG_SQRT_2PI)[:, :, None]
                plain = plain - np.exp(log_s[cut, None] + log_lam)
                log_drop = np.log(-np.expm1(-np.exp(log_d + log_lam)))
                rows = np.concatenate([plain, plain + log_lam, plain + log_drop], axis=2)
                sums[cut] = _logsumexp(rows) + np.log(h[cut])[:, None]
            return sums[:, 1], sums[:, 0], np.log1p(-np.exp(sums[:, 2:] - sums[:, :1]))


# The benchmark probe (``perfbench/probe.py``) constructs
# ``LogNormalTransform(mu, sigma)``; the family is its own transform.
LogNormalTransform = LogNormal


@dataclass(frozen=True)
class TruncatedPowerLaw(_GammaForm):
    """Power law with exponential cutoff: density ~ lam^-alpha * exp(-beta*lam).

    Equivalent to a Gamma distribution with shape ``1 - alpha`` and rate
    ``beta``; ``alpha = 0`` reduces to ``Exponential(beta)``.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha < 1 and math.isfinite(self.alpha)):
            raise InvalidFamily(
                f"TruncatedPowerLaw needs alpha < 1, got {self.alpha}"
            )
        check_positive(self.beta, "TruncatedPowerLaw beta", InvalidFamily)
        check_positive(self.mean(), "TruncatedPowerLaw mean (1 - alpha) / beta", InvalidFamily)

    @property
    def shape(self) -> float:
        return 1.0 - self.alpha

    def density(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = np.zeros_like(lam)
        pos = lam > 0
        log_norm = self.shape * math.log(self.beta) - math.lgamma(self.shape)
        out[pos] = np.exp(
            log_norm - self.alpha * np.log(lam[pos]) - self.beta * lam[pos]
        )
        return out

    def mean(self) -> float:
        return self.shape / self.beta

    def std(self) -> float:
        return math.sqrt(self.shape) / self.beta

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.beta, size=size)


NullFamily = Union[Exponential, LogNormal, TruncatedPowerLaw]


def _check_argument(s: float) -> None:
    if not 0.0 <= s < math.inf:
        raise InvalidDelay(f"transform argument s must be finite and >= 0, got {s!r}")


def laplace(family, s: float) -> float:
    """E[exp(-s*lam)] of a family or transform; numeric only for the log-normal."""
    _check_argument(s)
    return np.exp(family.log_laplace(s)).item()


def laplace_weighted(family, s: float) -> float:
    """E[lam * exp(-s*lam)]; equals -d/ds of :func:`laplace`."""
    _check_argument(s)
    return np.exp(family.log_laplace_weighted(s)).item()


# ---------------------------------------------------------------------------
# Posterior transforms conditioned on an observed block count
# ---------------------------------------------------------------------------
#
# A miner that mined b blocks while the network produced B blocks at total
# rate Lambda has (flat-prior) posterior rate density
#
#     p(lam | b) = exp(-(b - gamma*lam)^2 / (2*gamma*lam)) / sqrt(2*pi*lam/gamma)
#
# with gamma = B / Lambda (seconds per unit rate).  Its Laplace transform
# has the closed form  exp(b*(1-u)) / u  with  u = sqrt(1 + 2s/gamma).


def posterior_laplace(b: float, gamma: float, s: float) -> float:
    """E[exp(-s*lam)] under the block-count posterior; value in (0, 1]."""
    return laplace(PosteriorTransform(b, gamma), s)


def posterior_laplace_weighted(b: float, gamma: float, s: float) -> float:
    """E[lam * exp(-s*lam)] under the block-count posterior."""
    return laplace_weighted(PosteriorTransform(b, gamma), s)


# ---------------------------------------------------------------------------
# Point-mass, posterior and mixture transforms for the fork-rate engine
# ---------------------------------------------------------------------------


class PointMassTransform(_Transform):
    """Degenerate transform of a known, fixed rate."""

    def __init__(self, rate: float):
        self.rate = check_positive(rate, "point-mass rate", InvalidFamily)

    def log_rows(self, s: np.ndarray, delays: Sequence[float]):
        rate_s = self.rate * np.asarray(s, dtype=float)
        d = np.ravel(delays)
        dec = np.full(rate_s.shape + d.shape, -self.rate * d)
        return math.log(self.rate) - rate_s, -rate_s, dec

    def mean(self) -> float:
        return self.rate

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return np.full(size, self.rate)


class PosteriorTransform(_Transform):
    """Block-count posterior transforms of one miner or a group of miners.

    ``blocks`` is a scalar count or a 1-D array of counts.  Every transform
    broadcasts to shape ``blocks.shape + s.shape``: one row per count.
    """

    def __init__(self, blocks, gamma: float):
        blocks = np.asarray(blocks, dtype=float)
        if blocks.ndim > 1 or not np.all((0 <= blocks) & (blocks < math.inf)):
            raise InvalidFamily(f"blocks must be finite and >= 0 (scalar or 1-D), got {blocks}")
        self.blocks = blocks
        self.gamma = check_positive(gamma, "posterior gamma", InvalidFamily)

    def log_rows(self, s: np.ndarray, delays: Sequence[float]):
        """``u(s) = sqrt(1 + 2s/gamma)`` is formed once for ``W``, ``L`` and every delay."""
        s = np.asarray(s, dtype=float)
        b = self.blocks.reshape(self.blocks.shape + (1,) * s.ndim)
        u = np.sqrt(1.0 + 2.0 * s / self.gamma)
        log_u, kernel = np.log(u), b * (1.0 - u)
        log_w = np.log1p(b * u) + kernel - math.log(self.gamma) - 3.0 * log_u
        step = 2.0 * np.ravel(delays) / self.gamma
        u1 = u[..., None]
        u2 = np.sqrt(u1 * u1 + step)
        # u1 - u2 formed through the difference of squares: no cancellation
        dec = -b[..., None] * step / (u1 + u2) - 0.5 * np.log1p(step / (u1 * u1))
        return log_w, kernel - log_u, dec

    def mean(self):
        return (1.0 + self.blocks) / self.gamma

    def sample(self, rng: np.random.Generator, size, rows=None) -> np.ndarray:
        """Draws of shape ``size``; the counts broadcast over it, or ``rows`` indexes them."""
        counts = self.blocks if rows is None else self.blocks[rows]
        return self.sample_counts(rng, np.broadcast_to(counts, size).copy())

    def sample_counts(self, rng: np.random.Generator, b: np.ndarray) -> np.ndarray:
        """One draw per entry of the float count array ``b``, which it may overwrite.

        A rate's reciprocal is inverse Gaussian with mean gamma/b and shape
        gamma (one ``wald`` call for every b > 0, in order); at b = 0 the
        rate is Gamma(1/2, rate gamma/2) (one ``gamma`` call after it).
        The simulator calls this once per row block, so ``b`` is small.
        """
        if b.all():  # the same draws, without a mask, gather and scatter
            draws = rng.wald(np.divide(self.gamma, b, out=b), self.gamma)
            return np.reciprocal(draws, out=draws)
        zero = b == 0
        pos = ~zero
        means = b[pos]
        draws = rng.wald(np.divide(self.gamma, means, out=means), self.gamma)
        b[pos] = np.reciprocal(draws, out=draws)
        b[zero] = rng.gamma(0.5, 2.0 / self.gamma, size=np.count_nonzero(zero))
        return b


def _logsumexp(rows: np.ndarray, axis: int = 0) -> np.ndarray:
    m = np.max(rows, axis=axis)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = safe_m + np.log(np.sum(np.exp(rows - safe_m), axis=axis))
    return np.where(np.isfinite(m), out, m)


class MixtureTransform(_Transform):
    """Mixture of the rows of an array-valued posterior transform, weighted by multiplicity.

    ``components`` returns one row per component (shape
    ``(k, points)``); component g has weight ``mult[g] / sum(mult)``.  The
    decrement is assembled from the components' own decrements so the
    mixture keeps full relative precision for small ``d``.
    """

    def __init__(self, components, mult):
        self.components = components
        self.mult = np.asarray(mult)
        self.log_weights = np.log(self.mult / self.mult.sum())[:, None]

    def log_rows(self, s: np.ndarray, delays: Sequence[float]):
        """One evaluation of the components' rows serves ``W``, ``L`` and every delay."""
        comp_w, comp_l, comp_dec = self.components.log_rows(np.atleast_1d(s), delays)
        log_l = comp_l + self.log_weights
        a = np.exp(log_l - np.max(log_l, axis=0))
        drops = np.sum(a[..., None] * -np.expm1(comp_dec), axis=0)
        log_dec = np.log1p(-drops / np.sum(a, axis=0)[..., None])
        return _logsumexp(comp_w + self.log_weights), _logsumexp(log_l), log_dec

    def mean(self) -> float:
        return float(np.sum(np.exp(self.log_weights[:, 0]) * self.components.mean()))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Each draw picks one of ``sum(mult)`` members uniformly, then its component draws."""
        members = np.repeat(self.components.blocks, self.mult)
        # int32 indices draw the values that int64 would, in half the memory
        counts = members[rng.integers(0, members.size, size, dtype=np.int32)]
        return self.components.sample_counts(rng, counts)


def posterior_mixture(counts: Sequence[int], gamma: float) -> MixtureTransform:
    """Equal-weight mixture of per-miner block-count posteriors.

    Miners with the same count share one component, weighted by their
    multiplicity: the cost scales with the number of distinct counts.
    """
    blocks, mult = np.unique(np.asarray(counts, dtype=float), return_counts=True)
    return MixtureTransform(PosteriorTransform(blocks, gamma), mult)
