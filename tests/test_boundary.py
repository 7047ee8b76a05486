"""Parameter checks at the public boundary.

Every public constructor and entry point that takes a positive parameter
rejects NaN, both infinities, zero, negative and subnormal values, and
every derived quantity that leaves the float range is rejected too.  Each
case must raise a :class:`ForkcastError` whose message names the parameter.
"""

import math
import re

import numpy as np
import pytest

from forkcast.errors import ForkcastError
from forkcast.estimate import (
    MomentPair,
    add_zero_miners,
    confidence_band,
    estimate_hash_rates,
    fit_moments,
    method_of_moments,
)
from forkcast.forkrate import (
    fork_rate,
    fork_rate_curve,
    fork_rate_iid,
    implied_delta0,
    implied_hhi,
    taylor_fork_rate,
)
from forkcast.model import (
    BlockCounts,
    IIDNull,
    MinerSet,
    PeriodRecord,
    SemiEmpiricalIID,
    SemiEmpiricalINID,
    characteristic_time,
)
from forkcast.quadrature import (
    Exponential,
    LogNormal,
    PointMassTransform,
    PosteriorTransform,
    TruncatedPowerLaw,
    integrate_semi_infinite,
    laplace,
    laplace_weighted,
)
from forkcast.ingest import segment_periods
from forkcast.simulate import SimConfig

BAD = [math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324]
COUNTS = BlockCounts([3, 5, 0, 9])
MODEL = IIDNull(Exponential(2e4), 35)
BLOCKS = np.zeros(3, [("height", np.int64)])

# parameters that must be positive normal floats: (name in the message, call)
POSITIVE = [
    ("hash rate", lambda x: MinerSet([1e-3, x])),
    ("gamma", lambda x: SemiEmpiricalIID(COUNTS, x)),
    ("gamma", lambda x: SemiEmpiricalINID(COUNTS, x)),
    ("lambda_total", lambda x: PeriodRecord(0, COUNTS, x, 0.0, 1.0, 2.0, 3.0)),
    ("lambda_total", lambda x: characteristic_time(1.0, x)),
    ("lambda_total", lambda x: taylor_fork_rate(x, 0.5, 1.0)),
    ("lambda_total", lambda x: estimate_hash_rates(COUNTS, x)),
    ("lambda_total", lambda x: fit_moments(COUNTS, x)),
    ("mean m", lambda x: MomentPair(x, 1.0)),
    ("integration scale", lambda x: integrate_semi_infinite(lambda u: np.exp(-u), scale=x)),
    ("Exponential rate", lambda x: Exponential(x)),
    ("LogNormal sigma", lambda x: LogNormal(0.0, x)),
    ("TruncatedPowerLaw beta", lambda x: TruncatedPowerLaw(0.5, x)),
    ("point-mass rate", lambda x: PointMassTransform(x)),
    ("posterior gamma", lambda x: PosteriorTransform(3.0, x)),
]

# parameters that may also be 0 (tested elsewhere)
ZERO_OR_POSITIVE = [
    ("delta0", lambda x: fork_rate(MODEL, x)),
    ("delta0", lambda x: fork_rate_curve(MODEL, (1.0, x))),
    ("delta0", lambda x: characteristic_time(x, 1e-3)),
    ("fork rate", lambda x: implied_delta0(x, 1e-3, 0.5)),
    ("std s", lambda x: MomentPair(1.0, x)),
]

# derived quantities out of range, and counts that are not int64 integers
DERIVED = [
    ("total hash rate", lambda: MinerSet([1e308, 1e308])),
    ("LogNormal mean", lambda: LogNormal(800.0, 1.0)),
    ("LogNormal mean", lambda: LogNormal(-800.0, 1.0)),
    ("LogNormal mean", lambda: LogNormal(0.0, 40.0)),
    ("LogNormal mean", lambda: LogNormal(math.nan, 1.0)),
    ("LogNormal mean", lambda: LogNormal(-math.inf, 1.0)),
    ("Exponential mean", lambda: Exponential(1e308)),
    ("TruncatedPowerLaw mean", lambda: TruncatedPowerLaw(-1e308, 1e-300)),
    ("block count", lambda: BlockCounts([math.inf, 2])),
    ("block count", lambda: BlockCounts([math.nan, 2])),
    ("block count", lambda: BlockCounts([10**300, 2])),
    ("block count", lambda: BlockCounts([2**63, 2])),
    ("block count", lambda: BlockCounts([2, 1.5])),
    ("n", lambda: IIDNull(Exponential(2e4), 3.7)),
    ("n", lambda: IIDNull(Exponential(2e4), math.inf)),
    ("n", lambda: IIDNull(Exponential(2e4), 2**63)),
    ("n", lambda: fork_rate_iid(Exponential(2e4), 3.7, 1.0)),
    ("rate variance", lambda: fit_moments(BlockCounts([1, 2]), 1e-160)),
    ("tpl fit beta", lambda: method_of_moments(MomentPair(1e-10, 1e-160), "tpl")),
    ("tpl fit beta", lambda: method_of_moments(MomentPair(1.0, 1e-160), "tpl")),
    ("tpl fit beta", lambda: method_of_moments(MomentPair(1.0, 1e-170), "tpl")),
    ("LogNormal sigma", lambda: method_of_moments(MomentPair(1.0, 1e155), "lognormal")),
    ("delta0 * lambda_total", lambda: implied_hhi(0.1, 1e-200, 1e-200)),
    ("hhi must lie in (0, 1]", lambda: taylor_fork_rate(1e-3, 0.0, 1.0)),
    ("hhi must lie in (0, 1]", lambda: taylor_fork_rate(1e-3, 1.5, 1.0)),
    ("hhi must lie in (0, 1)", lambda: implied_delta0(0.1, 1e-3, 0.0)),
    ("fork rate must lie in [0, 1)", lambda: implied_delta0(1.0, 1e-3, 0.5)),
    ("fork rate must lie in [0, 1)", lambda: implied_hhi(1.0, 1e-3, 1.0)),
    ("delta0 must be > 0", lambda: implied_hhi(0.1, 1e-3, 0.0)),
    ("delay grid is empty", lambda: fork_rate_curve(MODEL, ())),
    ("blocks", lambda: PosteriorTransform(np.array([np.inf, 1.0]), 1.0)),
    ("blocks", lambda: PosteriorTransform(np.array([np.nan, 1.0]), 1.0)),
    ("transform argument s", lambda: laplace(Exponential(1.0), math.nan)),
    ("transform argument s", lambda: laplace_weighted(Exponential(1.0), math.inf)),
    ("transform argument s", lambda: laplace(Exponential(1.0), -1.0)),
]

# other checks at the public boundary: (text in the message, call)
CHECKS = [
    ("unknown family kind 'weibull'", lambda: method_of_moments(MomentPair(1.0, 1.0), "weibull")),
    ("rounds must be an int", lambda: SimConfig(MODEL, 1.0, 10.0, 0)),
    ("seed must be an int", lambda: SimConfig(MODEL, 1.0, 10, True)),
    ("rounds must be >= 1", lambda: SimConfig(MODEL, 1.0, 0, 0)),
    ("seed must lie in [0, 2**128)", lambda: SimConfig(MODEL, 1.0, 10, -1)),
    ("seed must lie in [0, 2**128)", lambda: SimConfig(MODEL, 1.0, 10, 1 << 128)),
    ("threads must be >= 0", lambda: SimConfig(MODEL, 1.0, 10, 0, threads=-1)),
    ("n_samples must be >= 100",
     lambda: confidence_band(COUNTS, 1e-3, "exp", [1.0], n_samples=99)),
    ("percentiles must satisfy",
     lambda: confidence_band(COUNTS, 1e-3, "exp", [1.0], 100, percentiles=(95.0, 5.0))),
    ("percentiles must satisfy",
     lambda: confidence_band(COUNTS, 1e-3, "exp", [1.0], 100, percentiles=(0.0, 95.0))),
    ("seed must lie in [0, 2**128)",
     lambda: confidence_band(COUNTS, 1e-3, "exp", [1.0], 100, seed=-3)),
    ("n_zero must be >= 0", lambda: add_zero_miners(COUNTS, -1)),
    ("period_len must be >= 1", lambda: segment_periods(BLOCKS, 0)),
    ("period_len must be >= 1", lambda: segment_periods(BLOCKS, -3)),
]


def _cases():
    for i, (name, call) in enumerate(POSITIVE):
        for x in BAD:
            yield pytest.param(name, lambda call=call, x=x: call(x), id=f"{i}-{name}-{x!r}")
    for i, (name, call) in enumerate(ZERO_OR_POSITIVE):
        for x in BAD:
            if x != 0.0:
                yield pytest.param(name, lambda call=call, x=x: call(x), id=f"z{i}-{name}-{x!r}")
    for i, (name, call) in enumerate(DERIVED):
        yield pytest.param(name, call, id=f"d{i}-{name}")
    for i, (name, call) in enumerate(CHECKS):
        yield pytest.param(name, call, id=f"c{i}-{name}")


@pytest.mark.parametrize("name, call", list(_cases()))
def test_rejected_with_a_typed_error_naming_the_parameter(name, call):
    with pytest.raises(ForkcastError, match=re.escape(name)):
        call()
