"""Domain value types shared by the fork-rate engine.

All rates are carried in blocks/second, i.e. the per-miner hash rate is
already normalized by the mining difficulty.  Types are immutable and
freely shareable across threads.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateMinerSet, InvalidDelay, InvalidModel, check_positive
from .quadrature import NullFamily, PointMassTransform, PosteriorTransform, posterior_mixture

__all__ = [
    "MinerSet",
    "BlockCounts",
    "Fixed",
    "IIDNull",
    "INIDNull",
    "SemiEmpiricalIID",
    "SemiEmpiricalINID",
    "HashRateModel",
    "population",
    "PeriodRecord",
    "ForkRateResult",
    "characteristic_time",
    "check_delay",
    "check_rate",
    "check_seed",
]


@dataclass(frozen=True)
class MinerSet:
    """Known per-miner hash rates, blocks/s.

    Rates and their total must be positive normal floats.  A single-miner
    set is allowed as a degenerate carrier (it can fall out of zero-count
    dropping); operations that need competition between miners enforce two
    or more themselves.
    """

    lambdas: tuple[float, ...]

    def __init__(self, lambdas: Sequence[float]):
        lams = tuple(check_positive(float(x), "hash rate", InvalidModel) for x in lambdas)
        if len(lams) < 1:
            raise InvalidModel("miner set needs at least one miner")
        try:
            total = math.fsum(lams)
        except OverflowError:
            total = math.inf
        check_positive(total, "total hash rate", InvalidModel)
        object.__setattr__(self, "lambdas", lams)

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @property
    def total(self) -> float:
        """Aggregate hash rate (compensated summation)."""
        return math.fsum(self.lambdas)

    @property
    def shares(self) -> tuple[float, ...]:
        total = self.total
        return tuple(x / total for x in self.lambdas)

    @property
    def expected_min_time(self) -> float:
        """Expected time to the first mined block, 1/total."""
        return 1.0 / self.total


_INT64_MAX = 2**63 - 1


def _count(value, name: str) -> int:
    """``value`` as an int: an integer (or integral float) in ingest's int64 range."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 <= value <= _INT64_MAX or int(value) != value):
        raise InvalidModel(f"{name} must be an integer in [0, 2**63 - 1], got {value!r}")
    return int(value)


@dataclass(frozen=True)
class BlockCounts:
    """Per-miner mined-block counts over one observation window."""

    counts: tuple[int, ...]

    def __init__(self, counts: Sequence[int]):
        vals = [_count(c, "block count") for c in counts]
        if len(vals) < 1:
            raise InvalidModel("block counts need at least one miner")
        if sum(vals) < 1:
            raise InvalidModel("at least one block must have been mined")
        object.__setattr__(self, "counts", tuple(vals))

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def shares(self) -> tuple[float, ...]:
        total = self.total
        return tuple(c / total for c in self.counts)


@dataclass(frozen=True)
class Fixed:
    """Frequentist/conditional model: rates are known exactly."""

    miners: MinerSet


@dataclass(frozen=True)
class IIDNull:
    """Rates of ``n`` miners drawn i.i.d. from one null family; ``n`` is an integer >= 2."""

    family: NullFamily
    n: int

    def __post_init__(self):
        n = _count(self.n, "i.i.d. null model n")
        if n < 2:
            raise DegenerateMinerSet(f"i.i.d. null model needs n >= 2, got {n}")
        object.__setattr__(self, "n", n)


_MEMBER_METHODS = ("log_laplace", "log_laplace_weighted", "log_laplace_decrement", "mean",
                   "__hash__")


@dataclass(frozen=True)
class INIDNull:
    """Rates drawn independently from per-miner families.

    A member is a null family, a point mass, a posterior transform (an
    array-valued one is one miner per count) or any hashable object with
    ``log_laplace``, ``log_laplace_weighted``, ``log_laplace_decrement``
    and ``mean``, which the in-package ones derive from a fused
    ``log_rows``; equal members are grouped.
    """

    families: tuple[NullFamily, ...]

    def __init__(self, families: Sequence[NullFamily]):
        fams = tuple(families)
        for member in fams:
            missing = [m for m in _MEMBER_METHODS if not callable(getattr(member, m, None))]
            if missing:
                raise InvalidModel(f"member {member!r} lacks {', '.join(missing)}")
        if sum(np.size(member.mean()) for member in fams) < 2:
            raise InvalidModel("independent null model needs >= 2 miners")
        object.__setattr__(self, "families", fams)


@dataclass(frozen=True)
class _SemiEmpirical:
    """Block counts and ``gamma`` = blocks / total rate, s per unit rate."""

    counts: BlockCounts
    gamma: float

    def __post_init__(self):
        check_positive(self.gamma, "gamma", InvalidModel)


@dataclass(frozen=True)
class SemiEmpiricalIID(_SemiEmpirical):
    """Rates i.i.d. from the mixture of block-count posteriors."""


@dataclass(frozen=True)
class SemiEmpiricalINID(_SemiEmpirical):
    """Rate of miner i drawn from its own block-count posterior."""


HashRateModel = Union[Fixed, IIDNull, INIDNull, SemiEmpiricalIID, SemiEmpiricalINID]


def population(model: HashRateModel) -> tuple[list, np.ndarray]:
    """The miners a model stands for: transform rows and one multiplicity per row.

    Row g stands for ``mult[g]`` miners with i.i.d. rates from its law.  A
    transform may hold a block of rows (a posterior over an array of
    counts).  Equal members and equal counts are grouped into one row, in
    first-occurrence and ascending order.  The fork-rate integral and the
    simulator both consume this form.
    """
    if isinstance(model, Fixed):
        rates = model.miners.lambdas
        return [PointMassTransform(lam) for lam in rates], np.ones(len(rates), dtype=int)
    if isinstance(model, IIDNull):
        return [model.family], np.array([model.n])
    if isinstance(model, INIDNull):
        groups = Counter(model.families)
        rows = [np.full(np.size(t.mean()), k) for t, k in groups.items()]
        return list(groups), np.concatenate(rows)
    if isinstance(model, SemiEmpiricalIID):
        return [posterior_mixture(model.counts.counts, model.gamma)], np.array([model.counts.n])
    if isinstance(model, SemiEmpiricalINID):
        blocks, mult = np.unique(model.counts.counts, return_counts=True)
        return [PosteriorTransform(blocks, model.gamma)], mult
    raise TypeError(f"unknown hash-rate model {model!r}")


@dataclass(frozen=True)
class PeriodRecord:
    """Aggregated statistics for one observation window of blocks."""

    index: int
    counts: BlockCounts
    lambda_total: float
    fork_rate_empirical: float
    prop_p50: float
    prop_p90: float
    prop_p99: float

    def __post_init__(self):
        check_rate(self.lambda_total)
        if not (0.0 <= self.fork_rate_empirical <= 1.0):
            raise InvalidModel(
                f"fork rate must lie in [0, 1], got {self.fork_rate_empirical}"
            )
        if not (0.0 < self.prop_p50 <= self.prop_p90 <= self.prop_p99):
            raise InvalidModel(
                "propagation percentiles must satisfy 0 < p50 <= p90 <= p99"
            )


@dataclass(frozen=True)
class ForkRateResult:
    """A computed fork probability with provenance.

    ``method`` is one of ``conditional``, ``taylor``, ``quadrature``,
    ``semi_empirical``.
    """

    value: float
    method: str
    error_estimate: float
    inputs_echo: str
    characteristic_time: float | None = field(default=None)

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise InvalidModel(f"fork rate must lie in [0, 1], got {self.value}")
        if not (self.error_estimate >= 0.0):
            raise InvalidModel(
                f"error estimate must be >= 0, got {self.error_estimate}"
            )


def check_delay(value: float, name: str = "delta0") -> None:
    """Raise :class:`InvalidDelay` unless ``value`` is 0 or a positive normal float.

    The first-order fork rate, a delay times a rate, goes through the same check.
    """
    if value != 0.0:
        check_positive(value, name, InvalidDelay)


def check_seed(seed: int) -> None:
    """Raise :class:`InvalidModel` unless ``seed`` is an int in [0, 2**128), a valid RNG key."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidModel(f"seed must be an int, got {seed!r}")
    if not 0 <= seed < 1 << 128:
        raise InvalidModel(f"seed must lie in [0, 2**128), got {seed}")


def check_rate(lambda_total: float) -> None:
    """Raise :class:`InvalidModel` unless ``lambda_total`` is a positive normal float."""
    check_positive(lambda_total, "lambda_total", InvalidModel)


def characteristic_time(delta0: float, lambda_total: float) -> float:
    """Propagation delay over expected block time: ``delta0 * lambda_total``."""
    check_delay(delta0)
    check_rate(lambda_total)
    return delta0 * lambda_total
