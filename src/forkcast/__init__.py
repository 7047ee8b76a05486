"""Fork-rate analytics for Proof-of-Work blockchains.

Computes analytic soft-fork probabilities from heterogeneous miner
hash-rate models, validates them with a Monte Carlo mining simulator,
fits hash-rate distributions from on-chain block counts, and runs a
reproducible period-wise data pipeline.
"""

__version__ = "0.1.0"

from .errors import ForkcastError
from .model import (
    BlockCounts,
    Fixed,
    ForkRateResult,
    HashRateModel,
    IIDNull,
    INIDNull,
    MinerSet,
    PeriodRecord,
    SemiEmpiricalIID,
    SemiEmpiricalINID,
    characteristic_time,
)
from .quadrature import Exponential, LogNormal, NullFamily, TruncatedPowerLaw

__all__ = [
    "__version__",
    "ForkcastError",
    "BlockCounts",
    "Fixed",
    "ForkRateResult",
    "HashRateModel",
    "IIDNull",
    "INIDNull",
    "MinerSet",
    "PeriodRecord",
    "SemiEmpiricalIID",
    "SemiEmpiricalINID",
    "characteristic_time",
    "Exponential",
    "LogNormal",
    "NullFamily",
    "TruncatedPowerLaw",
]
