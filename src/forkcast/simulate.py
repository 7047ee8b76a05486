"""Monte Carlo validation of the analytic fork rates.

Each round samples per-miner rates (or reuses fixed ones), draws one
exponential solve time per miner, and declares a fork when the gap between
the two fastest solve times is strictly below the propagation delay.

The miners are :func:`.model.population`, the rows and multiplicities
the fork-rate integral uses; every row draws its columns through its own
``sample``.  Fixed rates are point-mass rows, drawn once per experiment.

Reproducibility contract: rounds are partitioned into fixed-size chunks
(sized by the miner count only) and chunk ``k`` draws from its own SFC64
stream, spawned from ``SeedSequence(seed)`` with spawn key ``k + 1``; key 0
draws the experiment-level fixed rates.  Partial results are reduced in
chunk order, so the outcome is bit-identical for any thread count.

Within a chunk the stream is consumed row block by row block
(``BLOCK_ELEMENTS`` cells a block, rows in order): each block draws its
rates, then its exponential solve times, and is divided, partitioned and
counted while it is in cache.  The outcome therefore depends on the chunk
and block sizes, never on the thread count.  A worker thread holds a few
row blocks plus one fastest time per round of its chunk.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModel
from .model import Fixed, HashRateModel, check_delay, population

__all__ = ["SimConfig", "SimOutcome", "simulate_fork_rate", "simulate_min_time"]

CHUNK_ROUNDS = 1 << 16
CHUNK_ELEMENTS = 1 << 22
BLOCK_ELEMENTS = 1 << 16  # exponentials per row block: 512 KiB, cache-resident


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
        for name in ("rounds", "seed", "threads"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidModel(f"{name} must be an int, got {value!r}")
        if self.rounds < 1:
            raise InvalidModel(f"rounds must be >= 1, got {self.rounds}")
        if not 0 <= self.seed < 1 << 128:
            raise InvalidModel(f"seed must lie in [0, 2**128), got {self.seed}")
        check_delay(self.delta0)
        if self.threads < 0:
            raise InvalidModel(f"threads must be >= 0, got {self.threads}")


@dataclass(frozen=True)
class SimOutcome:
    """Aggregate simulation result."""

    fork_rate: float
    stderr: float
    n_fork: int
    mean_min_time: float
    rounds: int


def _rng(seed: int, key: int) -> np.random.Generator:
    # key 0 draws experiment-level fixed rate vectors; chunk k of the
    # experiment uses key k + 1
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(key,))))


def _chunk_rounds(n: int) -> int:
    """Rounds per chunk for ``n`` miners: at most ``CHUNK_ELEMENTS`` cells.

    A chunk is the parallel grain, so its work is bounded; memory is not
    its concern, since a worker draws one row block at a time.  The size
    depends on the model only, never on the thread count, so the chunk
    partition (and with it every result) is the same for any number of
    threads.  Up to 64 miners a chunk is the full ``CHUNK_ROUNDS``.
    """
    return min(CHUNK_ROUNDS, max(1, CHUNK_ELEMENTS // n))


def _sample_rates(pop, rng: np.random.Generator, rounds: int) -> np.ndarray:
    """Rate matrix ``(rounds, n)`` drawn from a population ``(transforms, mult)``.

    Row g of the population fills ``mult[g]`` columns, rows in population
    order, so the population alone fixes the draw order.  Each transform
    draws the columns of all its rows in one call of its own ``sample``;
    a block of rows is told the row behind each column.
    """
    transforms, mult = pop
    draws, start = [], 0
    for t in transforms:
        k = np.size(t.mean())
        cols = np.repeat(np.arange(k), mult[start : start + k])
        start += k
        size = (rounds, cols.size)
        draws.append(t.sample(rng, size) if k == 1 else t.sample(rng, size, rows=cols))
    rates = draws[0] if len(draws) == 1 else np.hstack(draws)
    if not (rates.min() > 0 and rates.max() < math.inf):  # NaN fails both
        raise InvalidModel("sampled a non-positive or non-finite hash rate")
    return rates


def _run_chunk(pop, fixed_rates, delta0: float, rng: np.random.Generator, rounds: int):
    """``(forks, sum of first solve times)`` over ``rounds`` rounds.

    Each row block of about ``BLOCK_ELEMENTS`` cells draws its rates (unless
    they are fixed), then its exponentials from the same stream.  The
    fastest times of all blocks are summed once, in round order.
    """
    n = int(np.sum(pop[1]))
    step = max(1, BLOCK_ELEMENTS // n)
    first = np.empty(rounds)
    n_fork = 0
    for lo in range(0, rounds, step):
        hi = min(lo + step, rounds)
        rates = fixed_rates if fixed_rates is not None else _sample_rates(pop, rng, hi - lo)
        times = rng.standard_exponential((hi - lo, n))
        times /= rates
        times.partition(1, axis=1)
        first[lo:hi] = times[:, 0]
        n_fork += int(np.count_nonzero(times[:, 1] - times[:, 0] < delta0))
        del rates, times  # freed before the next block draws
    return n_fork, float(first.sum())


def simulate_fork_rate(cfg: SimConfig) -> SimOutcome:
    """Run the experiment; deterministic for fixed (model, delta0, rounds, seed)."""
    pop = population(cfg.model)
    width = int(np.sum(pop[1]))
    if width < 2:
        raise InvalidModel("simulation needs >= 2 miners")
    if not all(callable(getattr(t, "sample", None)) for t in pop[0]):
        raise InvalidModel("a simulated model needs a sample method on every member")

    fixed_rates = None
    if isinstance(cfg.model, Fixed) or not cfg.resample_rates:
        fixed_rates = _sample_rates(pop, _rng(cfg.seed, 0), 1)

    step = _chunk_rounds(width)
    n_chunks = (cfg.rounds + step - 1) // step
    sizes = [min(step, cfg.rounds - i * step) for i in range(n_chunks)]

    def job(i: int) -> tuple[int, float]:
        return _run_chunk(pop, fixed_rates, cfg.delta0, _rng(cfg.seed, i + 1), sizes[i])

    threads = cfg.threads or int(os.environ.get("FORKCAST_THREADS", "0") or 0)
    if threads == 0:
        threads = min(8, os.cpu_count() or 1)
    if threads == 1 or n_chunks == 1:
        partials = [job(i) for i in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(job, range(n_chunks)))

    n_fork, sum_min = 0, 0.0
    for nf, sm in partials:  # in chunk order: bit-identical for any thread count
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
