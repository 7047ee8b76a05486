"""Monte Carlo validation of the analytic fork rates.

Each round samples per-miner rates (or reuses fixed ones), draws one
exponential solve time per miner, and declares a fork when the gap between
the two fastest solve times is strictly below the propagation delay.

Reproducibility contract: rounds are partitioned into fixed-size chunks
(sized by the miner count, so the arrays of one chunk stay bounded) and
chunk ``k`` draws from an independent counter-based stream derived from
``(seed, k)`` (Philox, jumped).  Partial results are reduced in chunk
order, so the outcome is bit-identical for any thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModel
from .model import (
    Fixed,
    HashRateModel,
    IIDNull,
    INIDNull,
    SemiEmpiricalIID,
    SemiEmpiricalINID,
    check_delay,
)

__all__ = ["SimConfig", "SimOutcome", "simulate_fork_rate", "simulate_min_time"]

CHUNK_ROUNDS = 1 << 16
CHUNK_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation experiment.

    ``threads = 0`` picks a worker count automatically.  With
    ``resample_rates`` (the default) distributional models draw fresh
    rates every round; turning it off samples one rate vector per
    experiment and keeps it fixed, mirroring a one-shot market.
    """

    model: HashRateModel
    delta0: float
    rounds: int
    seed: int
    threads: int = 0
    resample_rates: bool = True

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        check_delay(self.delta0)
        if self.threads < 0:
            raise ValueError(f"threads must be >= 0, got {self.threads}")


@dataclass(frozen=True)
class SimOutcome:
    """Aggregate simulation result."""

    fork_rate: float
    stderr: float
    n_fork: int
    mean_min_time: float
    rounds: int


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # chunk 0 of the experiment uses jump 1; the unjumped stream is
    # reserved for experiment-level draws (fixed rate vectors)
    return np.random.Generator(np.random.Philox(key=seed).jumped(chunk_index + 1))


def _experiment_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _sample_posterior(
    rng: np.random.Generator, blocks: int, gamma: float, size
) -> np.ndarray:
    """Draw from the block-count posterior.

    The posterior is a generalized inverse Gaussian whose reciprocal is
    inverse Gaussian with mean gamma/b and shape gamma; at b = 0 it
    reduces to Gamma(1/2, rate gamma/2).
    """
    if blocks == 0:
        return rng.gamma(0.5, 2.0 / gamma, size=size)
    return 1.0 / rng.wald(gamma / blocks, gamma, size=size)


def _chunk_rounds(n: int) -> int:
    """Rounds per chunk for ``n`` miners: at most ``CHUNK_ELEMENTS`` per array.

    The size depends on the model only, never on the thread count, so the
    chunk partition (and with it every result) is the same for any number
    of threads.  Up to 64 miners a chunk is the full ``CHUNK_ROUNDS``.
    """
    return min(CHUNK_ROUNDS, max(1, CHUNK_ELEMENTS // n))


def _model_width(model: HashRateModel) -> int:
    if isinstance(model, Fixed):
        return model.miners.n
    if isinstance(model, IIDNull):
        return model.n
    if isinstance(model, INIDNull):
        return len(model.families)
    return model.counts.n


def _sample_rates(
    model: HashRateModel, rng: np.random.Generator, rounds: int
) -> np.ndarray:
    """Rate matrix (rounds, n); draw order is fixed per model kind."""
    if isinstance(model, IIDNull):
        return model.family.sample(rng, (rounds, model.n))
    if isinstance(model, INIDNull):
        cols = [fam.sample(rng, rounds) for fam in model.families]
        return np.column_stack(cols)
    if isinstance(model, SemiEmpiricalINID):
        cols = [
            _sample_posterior(rng, b, model.gamma, rounds)
            for b in model.counts.counts
        ]
        return np.column_stack(cols)
    if isinstance(model, SemiEmpiricalIID):
        counts = model.counts.counts
        n = len(counts)
        # each cell draws its posterior component uniformly, then the
        # component draws are filled in ascending block-count order
        idx = rng.integers(0, n, size=(rounds, n))
        rates = np.empty((rounds, n), dtype=float)
        chosen = np.asarray(counts, dtype=np.int64)[idx]
        for b in sorted(set(counts)):
            mask = chosen == b
            k = int(mask.sum())
            if k:
                rates[mask] = _sample_posterior(rng, b, model.gamma, k)
        return rates
    raise TypeError(f"unknown hash-rate model {model!r}")


def _run_chunk(
    model: HashRateModel,
    delta0: float,
    seed: int,
    chunk_index: int,
    rounds: int,
    fixed_rates: np.ndarray | None,
) -> tuple[int, float]:
    rng = _chunk_rng(seed, chunk_index)
    if fixed_rates is not None:
        rates = fixed_rates[None, :]
    else:
        rates = _sample_rates(model, rng, rounds)
        if not np.all(np.isfinite(rates)) or np.any(rates <= 0):
            raise InvalidModel("sampled a non-positive or non-finite hash rate")
    times = rng.standard_exponential((rounds, rates.shape[-1])) / rates
    two_fastest = np.partition(times, 1, axis=1)[:, :2]
    gaps = two_fastest[:, 1] - two_fastest[:, 0]
    n_fork = int(np.count_nonzero(gaps < delta0))
    return n_fork, float(two_fastest[:, 0].sum())


def simulate_fork_rate(cfg: SimConfig) -> SimOutcome:
    """Run the experiment; deterministic for fixed (model, delta0, rounds, seed)."""
    model = cfg.model
    width = _model_width(model)
    if width < 2:
        raise InvalidModel("simulation needs >= 2 miners")

    fixed_rates: np.ndarray | None = None
    if isinstance(model, Fixed):
        fixed_rates = np.asarray(model.miners.lambdas, dtype=float)
    elif not cfg.resample_rates:
        fixed_rates = _sample_rates(model, _experiment_rng(cfg.seed), 1)[0]
        if not np.all(np.isfinite(fixed_rates)) or np.any(fixed_rates <= 0):
            raise InvalidModel("sampled a non-positive or non-finite hash rate")

    step = _chunk_rounds(width)
    n_chunks = (cfg.rounds + step - 1) // step
    sizes = [min(step, cfg.rounds - i * step) for i in range(n_chunks)]

    def job(i: int) -> tuple[int, float]:
        return _run_chunk(model, cfg.delta0, cfg.seed, i, sizes[i], fixed_rates)

    threads = cfg.threads or int(os.environ.get("FORKCAST_THREADS", "0") or 0)
    if threads == 0:
        threads = min(8, os.cpu_count() or 1)
    if threads == 1 or n_chunks == 1:
        partials = [job(i) for i in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(job, range(n_chunks)))

    # reduce in chunk order: bit-identical for any thread count
    n_fork = 0
    sum_min = 0.0
    for nf, sm in partials:
        n_fork += nf
        sum_min += sm

    p = n_fork / cfg.rounds
    return SimOutcome(
        fork_rate=p,
        stderr=math.sqrt(p * (1.0 - p) / cfg.rounds),
        n_fork=n_fork,
        mean_min_time=sum_min / cfg.rounds,
        rounds=cfg.rounds,
    )


def simulate_min_time(cfg: SimConfig) -> float:
    """Mean over rounds of the fastest solve time (1/total for fixed rates)."""
    return simulate_fork_rate(cfg).mean_min_time
