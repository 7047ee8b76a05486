"""Monte Carlo validation of the analytic fork rates.

Each round samples per-miner rates (or reuses fixed ones), draws one
exponential solve time per miner, and declares a fork when the gap between
the two fastest solve times is strictly below the propagation delay.

The miners are :func:`.model.population`, the rows and multiplicities
the fork-rate integral uses; every row draws its columns through its own
``sample``.  Fixed rates are point-mass rows, drawn once per experiment.

Reproducibility contract: rounds are partitioned into row blocks of
``BLOCK_ELEMENTS`` cells (``BLOCK_ELEMENTS // n`` rounds, at least one;
the last block may be partial), and block ``k`` draws from its own SFC64
stream, spawned from ``SeedSequence(seed)`` with spawn key ``k + 1``; key 0
draws the experiment-level fixed rates.  A block draws its rates (unless
they are fixed), then its exponential solve times, and is divided,
partitioned and counted while it is in cache.  Its partial results are
reduced in block order, so the outcome depends on ``BLOCK_ELEMENTS`` only,
never on the thread count.  A worker thread holds one row block at a time,
and at most two blocks a thread wait to be reduced.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModel
from .model import Fixed, HashRateModel, check_delay, check_seed, population

__all__ = ["SimConfig", "SimOutcome", "simulate_fork_rate", "simulate_min_time"]

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
        for name in ("rounds", "threads"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidModel(f"{name} must be an int, got {value!r}")
        check_seed(self.seed)
        if self.rounds < 1:
            raise InvalidModel(f"rounds must be >= 1, got {self.rounds}")
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
    # key 0 draws experiment-level fixed rate vectors; row block k of the
    # experiment uses key k + 1
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(key,))))


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


def _run_block(pop, fixed_rates, delta0: float, rng: np.random.Generator, rounds: int):
    """``(forks, sum of first solve times)`` over one row block of ``rounds`` rounds.

    The block draws its rates (unless they are fixed), then its exponentials
    from the same stream.
    """
    rates = fixed_rates if fixed_rates is not None else _sample_rates(pop, rng, rounds)
    times = rng.standard_exponential((rounds, rates.shape[1]))
    times /= rates
    times.partition(1, axis=1)
    n_fork = int(np.count_nonzero(times[:, 1] - times[:, 0] < delta0))
    return n_fork, float(times[:, 0].sum())


def _in_order(job, n_jobs: int, threads: int):
    """``job(k)`` for ``k < n_jobs``, in order, run on ``threads`` threads.

    At most ``2 * threads`` jobs are submitted and not yet taken, so memory
    does not grow with the number of jobs.
    """
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for k in range(n_jobs):
            pending.append(pool.submit(job, k))
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


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

    step = max(1, BLOCK_ELEMENTS // width)
    n_blocks = (cfg.rounds + step - 1) // step

    def job(k: int) -> tuple[int, float]:
        rounds = min(step, cfg.rounds - k * step)
        return _run_block(pop, fixed_rates, cfg.delta0, _rng(cfg.seed, k + 1), rounds)

    threads = cfg.threads or int(os.environ.get("FORKCAST_THREADS", "0") or 0)
    if threads == 0:
        threads = min(8, os.cpu_count() or 1)
    if threads == 1 or n_blocks == 1:
        partials = map(job, range(n_blocks))
    else:
        partials = _in_order(job, n_blocks, threads)

    n_fork, sum_min = 0, 0.0
    for nf, sm in partials:  # in block order: bit-identical for any thread count
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
