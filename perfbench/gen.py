"""Seeded input generator for the benchmark workloads.

The ``pipeline`` workload runs on datasets in the ``forkcast.ingest`` CSV
formats.  Every period of a dataset comes from a *profile*: a miner split,
a difficulty schedule, a hash-rate trend, a drifting propagation feed and
a stale count.  Profiles form a fixed pool stored in ``reference.json``
together with the report entry each one must produce, so a report built
from any arrangement of profiles can be checked against stored values.
The workload seed decides which profiles share a dataset, their order,
the block order inside each period and where the stale heights fall.

A period's report entry depends only on its profile, never on its
position: each period owns a whole run of days (its own hash-rate rows
and propagation rows), miner ids sort in profile order, and every
aggregate the pipeline takes (``math.fsum`` means, distinct stale counts)
is independent of row order.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

BLOCKS_PER_PERIOD = 20_000
PERIODS_PER_DATASET = 6
DATASETS_PER_PASS = 3
POOL_SIZE = PERIODS_PER_DATASET * DATASETS_PER_PASS
REMAINDER_BLOCKS = 137  # a trailing partial period, which the report must drop

EPOCH_BLOCKS = 2016  # blocks between difficulty adjustments
BLOCK_SPACING = 588  # seconds
DAYS_PER_PERIOD = 137  # 20,000 blocks x 588 s is 136.1 days
FIRST_DAY = 19_359  # 2023-01-02, days since 1970-01-01
FIRST_HEIGHT = 700_000
PROP_STEP = 3600  # seconds between propagation rows
DAY = 86_400

REF_MANTISSA = 0x04B8ED
REF_EXPONENT = 0x18
REF_HASHRATE = 1.7e18


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one (seed, stream...) pair."""
    return np.random.default_rng([seed, *stream])


def make_profile(rng: np.random.Generator, reference_counts) -> dict:
    """Draw one period profile around the reference miner split.

    The miner count lies in [25, 60]; every miner has at least one block
    and the small tail holds one-block miners, as real periods do.
    """
    n = int(rng.integers(25, 61))
    ref = np.asarray(reference_counts, dtype=float)
    ref = ref / ref.sum()
    shares = ref[: min(n, ref.size)] * np.exp(0.35 * rng.standard_normal(min(n, ref.size)))
    if n > ref.size:
        shares = np.concatenate([shares, rng.uniform(0.5, 3.0, n - ref.size) / BLOCKS_PER_PERIOD])
    shares = shares / shares.sum()
    counts = rng.multinomial(BLOCKS_PER_PERIOD - n, shares) + 1
    # the smallest miner mined exactly one block
    smallest = int(np.argmin(counts))
    counts[int(np.argmax(counts))] += counts[smallest] - 1
    counts[smallest] = 1
    n_epochs = -(-BLOCKS_PER_PERIOD // EPOCH_BLOCKS)
    mantissas = REF_MANTISSA * np.exp(np.cumsum(0.03 * rng.standard_normal(n_epochs)))
    p50 = 0.815 * float(np.exp(0.2 * rng.standard_normal()))
    p90 = p50 * 2.45 * float(np.exp(0.1 * rng.standard_normal()))
    p99 = p90 * 4.5 * float(np.exp(0.1 * rng.standard_normal()))
    return {
        "counts": [int(c) for c in counts],
        "bits": [(REF_EXPONENT << 24) | int(round(m)) for m in mantissas],
        "hashrate": [REF_HASHRATE * float(np.exp(0.1 * rng.standard_normal())),
                     float(np.clip(5e-4 * rng.standard_normal(), -1.5e-3, 1.5e-3))],
        "propagation": [round(p50, 4), round(p90, 4), round(p99, 4),
                        float(np.clip(0.2 * rng.standard_normal(), -0.5, 0.5))],
        "stales": int(rng.integers(30, 90)),
    }


def partition(seed: int, pass_index: int) -> list[list[int]]:
    """Profile indices of each dataset in one pass; every profile once."""
    order = rng_for(seed, 1, pass_index).permutation(POOL_SIZE)
    return [
        [int(i) for i in order[k : k + PERIODS_PER_DATASET]]
        for k in range(0, POOL_SIZE, PERIODS_PER_DATASET)
    ]


def _period_rows(profile: dict, k: int, rng: np.random.Generator, blocks, stales, prop, rate):
    h0 = FIRST_HEIGHT + k * BLOCKS_PER_PERIOD
    day0 = FIRST_DAY + k * DAYS_PER_PERIOD
    t0 = day0 * DAY + 300
    counts = profile["counts"]
    miners = np.repeat(np.arange(len(counts)), counts)
    rng.shuffle(miners)
    bits = [f"{b:#010x}" for b in profile["bits"]]
    for i, m in enumerate(miners.tolist()):
        blocks.append(f"{h0 + i},{t0 + i * BLOCK_SPACING},{bits[i // EPOCH_BLOCKS]},pool{m:02d}\n")

    picked = np.sort(rng.choice(BLOCKS_PER_PERIOD, profile["stales"], replace=False)) + h0
    stales.extend(f"{h}\n" for h in picked.tolist())
    # duplicate reports of listed heights must count once
    stales.extend(f"{h}\n" for h in picked[[0, -1]].tolist())

    p50, p90, p99, drift = profile["propagation"]
    t_last = t0 + (BLOCKS_PER_PERIOD - 1) * BLOCK_SPACING
    n_rows = (t_last - (day0 * DAY + 1800)) // PROP_STEP + 1
    for j in range(n_rows):
        f = 1.0 + drift * j / n_rows
        prop.append(f"{day0 * DAY + 1800 + j * PROP_STEP},{p50 * f:.4f},{p90 * f:.4f},{p99 * f:.4f}\n")

    h_base, growth = profile["hashrate"]
    for d in range(DAYS_PER_PERIOD):
        day = np.datetime64(day0 + d, "D")
        rate.append(f"{day},{h_base * (1.0 + growth * d):.6e}\n")


def write_dataset(out_dir: Path, pool: list[dict], members: list[int], seed: int, stream: int) -> dict[str, Path]:
    """Write the four CSVs for one dataset of ``members`` profiles; returns their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = rng_for(seed, 2, stream)
    blocks = ["height,timestamp,bits,miner_id\n"]
    stales = ["height\n"]
    prop = ["timestamp,p50,p90,p99\n"]
    rate = ["date,hashes_per_second\n"]
    for k, idx in enumerate(members):
        _period_rows(pool[idx], k, rng, blocks, stales, prop, rate)
    k = len(members)
    h0 = FIRST_HEIGHT + k * BLOCKS_PER_PERIOD
    t0 = (FIRST_DAY + k * DAYS_PER_PERIOD) * DAY + 300
    bits = f"{pool[members[0]]['bits'][0]:#010x}"
    for i in range(REMAINDER_BLOCKS):
        blocks.append(f"{h0 + i},{t0 + i * BLOCK_SPACING},{bits},pool00\n")

    paths = {}
    for name, lines in (("blocks", blocks), ("stale", stales), ("propagation", prop), ("hashrate", rate)):
        paths[name] = out_dir / f"{name}.csv"
        paths[name].write_text("".join(lines), encoding="utf-8")
    return paths


def duplicate_share(counts) -> float:
    """Share of miners whose block count repeats another miner's."""
    return (len(counts) - len(set(counts))) / len(counts)
