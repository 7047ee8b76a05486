"""Data ingestion: CSV parsers, difficulty conversion, period aggregation.

File formats (UTF-8, comma-separated, LF line endings; columns are found
by header name, a repeated name uses its last column, unknown columns and
blank lines are ignored, fields are stripped):

    blocks.csv       height,timestamp,bits,miner_id     bits hex with a 0x prefix, else decimal
    propagation.csv  timestamp,p50,p90,p99              seconds as decimals
    stale.csv        height
    hashrate.csv     date,hashes_per_second             date as YYYY-MM-DD

Blocks and propagation parse to numpy record arrays with the column names
above as fields, so ``blocks.height`` is an int64 column and
``blocks[0].height`` one row's value; ``miner_id`` is an object column of
the ids as read.  Stale heights parse to a 1-D int64 array and hash rates
to a ``{date: rate}`` dict.  Integers must fit in int64.  Period
statistics take a slice of the block array.

Parsers are total: a malformed line raises a :class:`ParseError` carrying
the file path and line number, never a partial result.  The body is read
in chunks of whole lines.  A plain chunk (no quotes, CRs, NULs or blank
lines, and the header's field count on every line) is split with one
``str.split``, which is how ``csv.reader`` splits such text; from the
first chunk that is not plain, ``csv.reader`` splits the rest of the file.
Each column of a chunk is converted in one pass.  No line numbers are
kept: a file that is rejected is re-scanned to find the line of its first
bad row.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import functools
import itertools
import math
import operator
from collections import Counter
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .errors import EmptyPeriod, InvalidBits, InvalidModel, NonContiguous, ParseError
from .model import BlockCounts, PeriodRecord

__all__ = [
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
# non-blank rows per column-at-once conversion; a small chunk stays in cache
# (on a 2-vCPU x86_64 VM, 512 parsed 120,000 blocks about 15 % faster than 4,096)
_CHUNK_ROWS = 512
# characters per plain chunk, read as whole lines and split with str.split;
# memory stays bounded by the chunk, not the file
_CHUNK_CHARS = 1 << 16
# UTF-8 bytes other than the comma, the newline and the three characters
# that make csv.reader split differently from str.split
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b',\n"\r\0')
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


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
    bits = operator.index(bits)
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


@functools.lru_cache(maxsize=1024)
def _bits(text: str) -> int:
    text = text.strip()
    return int(text, 16 if text[:2] in ("0x", "0X") else 10)


def _line(path: str | Path, k: int) -> int:
    """Line on which the ``k``-th non-blank data row (from 0) ends, by a re-scan."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        next(itertools.islice(filter(None, reader), k, None))
        return reader.line_num


def _convert(path: str | Path, chunk: list, picks: list, fields: list):
    """Extend each field by converting its column of ``chunk`` in one pass.

    A failure walks the chunk row by row to report its first bad row.
    """
    start = len(fields[0])
    try:
        for field, (i, convert) in zip(fields, picks):
            field.extend(map(convert, map(operator.itemgetter(i), chunk)))
    except (IndexError, ValueError):
        need = max(i for i, _ in picks) + 1
        for k, row in enumerate(chunk, start):
            try:
                for i, convert in picks:
                    convert(row[i])
            except IndexError:
                message = f"{len(row)} field(s), need {need}"
                raise ParseError(str(path), _line(path, k), message) from None
            except ValueError as exc:
                raise ParseError(str(path), _line(path, k), f"bad row: {exc}") from exc
        raise


def _extend_plain(lines: list[str], width: int, picks: list, fields: list) -> bool:
    """Extend each field from a chunk of plain lines; False leaves ``fields`` as it was.

    A chunk is plain when it has no quote, CR or NUL, no blank line, no
    line longer than the csv field size limit and exactly ``width`` fields
    on every line.  ``csv.reader`` splits such text exactly as
    ``str.split(",")`` does, so the chunk is split once and each column is
    a strided slice.  A chunk that is not plain, or holds a value that a
    converter rejects, is left to ``csv.reader``.
    """
    text = "".join(lines)
    if text[-1] != "\n":  # the last line of a file with no final newline
        text += "\n"
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return False
    # the commas and newlines in order, and any quote, CR or NUL: a short
    # row next to a long one shows here, where a total count would hide it
    separators = text.encode().translate(None, _NOT_SEPARATORS)
    if separators != (b"," * (width - 1) + b"\n") * len(lines) or "\n" in lines:
        return False
    # the final newline leaves one empty string past the last row
    cells = text.replace("\n", ",").split(",")
    end = len(lines) * width
    start = len(fields[0])
    try:
        for field, (i, convert) in zip(fields, picks):
            field.extend(map(convert, cells[i:end:width]))
    except ValueError:
        for field in fields:
            del field[start:]
        return False
    return True


def _read_fields(path: str | Path, columns: Mapping, plain: bool) -> list[list]:
    """One list per named column of the rows of a CSV file; see :func:`_read_csv`.

    With ``plain``, the body is read in chunks of about :data:`_CHUNK_CHARS`
    and each plain chunk is split by :func:`_extend_plain`.  The first chunk
    that is not plain, and the rest of the file, go through ``csv.reader``.
    """
    fname = str(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        offset = 0  # lines read before the current reader's first
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(fname, 1, "empty file, expected a header row")
            position = {name: i for i, name in enumerate(header)}
            missing = [c for c in columns if c not in position]
            if missing:
                raise ParseError(fname, 1, f"missing column(s) {', '.join(missing)}")
            picks = [(position[c], convert) for c, (convert, _) in columns.items()]
            fields = [[] for _ in picks]
            offset, lines = reader.line_num, []
            while plain and (lines := fh.readlines(_CHUNK_CHARS)):
                if not _extend_plain(lines, len(header), picks, fields):
                    break
                offset += len(lines)
            reader = csv.reader(itertools.chain(lines, fh))
            rows = filter(None, reader)
            while True:
                chunk = []
                try:
                    chunk.extend(itertools.islice(rows, _CHUNK_ROWS))
                finally:
                    # rows read before a reader error precede it in the file:
                    # a bad value among them is the error to report
                    _convert(path, chunk, picks, fields)
                if len(chunk) < _CHUNK_ROWS:
                    break
        except csv.Error as exc:
            raise ParseError(fname, offset + reader.line_num, f"bad row: {exc}") from exc
    return fields


def _read_csv(
    path: str | Path, columns: Mapping[str, tuple[Callable[[str], object], object]]
) -> np.recarray:
    """Record array of the named columns of a CSV file with a header row.

    ``columns`` maps each required name to a field converter and a dtype.
    Plain chunks of the body are split with ``str.split``; quoted or
    irregular text goes to ``csv.reader``, whose non-blank rows are taken
    in chunks of :data:`_CHUNK_ROWS`.  Either way each column of a chunk is
    converted in one pass.  A converter's ``ValueError``, a row too short
    for a named column, a ``csv.Error``, bytes that are not UTF-8 and an
    integer outside the dtype raise :class:`ParseError` at the row's line.
    """
    fname = str(path)
    try:
        try:
            fields = _read_fields(path, columns, plain=True)
        except UnicodeDecodeError:
            # the error drops the lines of the plain chunk being read: a pass
            # through csv.reader alone reports a bad value among them first
            fields = _read_fields(path, columns, plain=False)
    except UnicodeDecodeError as exc:
        # the decoder reads ahead in chunks: find the line in the raw bytes
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(fname, line, f"not UTF-8: {exc.reason}") from None
    # np.rec.fromarrays allocates with np.empty, many times slower than
    # np.zeros when a field holds objects
    records = np.zeros(len(fields[0]), [(c, dtype) for c, (_, dtype) in columns.items()])
    for field, (name, (_, dtype)) in zip(fields, columns.items()):
        try:
            records[name] = np.array(field, dtype)
        except OverflowError:
            info = np.iinfo(dtype)
            k = next(k for k, v in enumerate(field) if not info.min <= v <= info.max)
            message = f"{field[k]} does not fit in {info.dtype}"
            raise ParseError(fname, _line(path, k), message) from None
    return records.view(np.recarray)


def _reject(path: str | Path, bad: np.ndarray, message: str):
    """Raise :class:`ParseError` at the first row that ``bad`` flags."""
    if bad.any():
        raise ParseError(str(path), _line(path, int(bad.argmax())), message)


def parse_blocks_csv(path: str | Path) -> np.recarray:
    blocks = _read_csv(path, {
        "height": (int, np.int64),
        "timestamp": (int, np.int64),
        "bits": (_bits, np.int64),
        "miner_id": (str.strip, object),
    })
    _reject(path, blocks.height < 0, "negative height")
    _reject(path, blocks.miner_id == "", "empty miner_id")
    return blocks


def parse_propagation_csv(path: str | Path) -> np.recarray:
    prop = _read_csv(path, {
        "timestamp": (int, np.int64),
        "p50": (float, np.float64),
        "p90": (float, np.float64),
        "p99": (float, np.float64),
    })
    ordered = (0.0 < prop.p50) & (prop.p50 <= prop.p90) & (prop.p90 <= prop.p99)
    _reject(path, ~ordered, "need 0 < p50 <= p90 <= p99")
    return prop


def parse_stale_csv(path: str | Path) -> np.ndarray:
    heights = _read_csv(path, {"height": (int, np.int64)}).height
    _reject(path, heights < 0, "negative height")
    return heights


def parse_hashrate_csv(path: str | Path) -> dict[dt.date, float]:
    table = _read_csv(path, {
        "date": (lambda text: dt.date.fromisoformat(text.strip()), object),
        "hashes_per_second": (float, np.float64),
    })
    rates = table.hashes_per_second
    _reject(path, ~((rates > 0) & np.isfinite(rates)), "hash rate must be > 0")
    return dict(zip(table.date.tolist(), rates.tolist()))


# ---------------------------------------------------------------------------
# Period statistics
# ---------------------------------------------------------------------------


def segment_periods(
    blocks: np.ndarray, period_len: int = PERIOD_LENGTH
) -> tuple[list[np.ndarray], np.ndarray]:
    """Split a height-contiguous block array into fixed-length windows.

    Returns ``(periods, remainder)`` as slices of ``blocks``; the trailing
    partial window is kept out of the statistics.  Raises
    :class:`InvalidModel` for ``period_len < 1`` and
    :class:`NonContiguous` at the first height gap.
    """
    if period_len < 1:
        raise InvalidModel(f"period_len must be >= 1, got {period_len}")
    heights = blocks["height"]
    gaps = np.flatnonzero(np.diff(heights) != 1)
    if gaps.size:
        raise NonContiguous(int(heights[gaps[0]]) + 1)
    end = len(blocks) - len(blocks) % period_len
    return [blocks[i : i + period_len] for i in range(0, end, period_len)], blocks[end:]


def compute_lambda(hashrate_series: Mapping[dt.date, float], blocks: np.ndarray) -> float:
    """Normalized total hash rate, blocks/s, for one period of blocks.

    Mean over blocks of (daily network hash rate / per-block difficulty);
    a block's day falls back to the most recent earlier date in the
    series.  The reciprocal should land near the protocol block time.
    The ratio depends only on the block's UTC day and ``bits``, so it is
    computed once per distinct pair, in order of first appearance.
    """
    if not len(blocks):
        raise EmptyPeriod("no blocks in period")
    if not hashrate_series:
        raise EmptyPeriod("hash-rate series is empty")
    days = sorted(hashrate_series)
    ordinals = [d.toordinal() for d in days]
    day_keys, day_inverse = np.unique(
        blocks["timestamp"] // _SECONDS_PER_DAY, return_inverse=True
    )
    bits_keys, bits_inverse = np.unique(blocks["bits"], return_inverse=True)
    # one collision-free int64 key per (day, bits) pair, whatever the values
    pairs = day_inverse * len(bits_keys) + bits_inverse
    keys, first, inverse = np.unique(pairs, return_index=True, return_inverse=True)
    ratios = np.empty(len(keys))
    for k in np.argsort(first).tolist():
        day_k, bits_k = divmod(int(keys[k]), len(bits_keys))
        # day ordinals, not dates: a day past 9999-12-31 still bisects
        ordinal = int(day_keys[day_k]) + _EPOCH_ORDINAL
        i = bisect.bisect_right(ordinals, ordinal)
        if i == 0:
            day = dt.date.fromordinal(ordinal) if ordinal >= 1 else "before 0001-01-01"
            raise EmptyPeriod(f"hash-rate series starts {days[0]}, after block day {day}")
        expected = bits_to_expected_hashes(int(bits_keys[bits_k]))
        ratios[k] = hashrate_series[days[i - 1]] / expected
    return math.fsum(ratios[inverse].tolist()) / len(blocks)


def fork_rate_empirical(stales: np.ndarray, blocks: np.ndarray) -> float:
    """Distinct stale heights inside the period over the period length.

    Duplicate stale reports at one height count once; the result is
    rescaled by :data:`FORK_RATE_RESCALE` for under-reporting and capped
    at 1.
    """
    if not len(blocks):
        raise EmptyPeriod("no blocks in period")
    heights = blocks["height"]
    inside = stales[(heights[0] <= stales) & (stales <= heights[-1])]
    return min(np.unique(inside).size * FORK_RATE_RESCALE / len(blocks), 1.0)


def count_blocks_by_miner(blocks: np.ndarray) -> tuple[tuple[str, ...], BlockCounts]:
    """Per-miner block counts for one period, ordered by miner id."""
    counter = Counter(blocks["miner_id"].tolist())
    ids = tuple(sorted(counter))
    return ids, BlockCounts([counter[i] for i in ids])


def build_period_record(
    blocks: np.ndarray,
    stales: np.ndarray,
    propagation: np.ndarray,
    hashrate_series: Mapping[dt.date, float],
    period_index: int,
) -> PeriodRecord:
    """Aggregate one period into a :class:`PeriodRecord`.

    Propagation rows outside the period's wall-clock span are ignored; a
    period with no usable propagation rows raises :class:`EmptyPeriod`.
    """
    if not len(blocks):
        raise EmptyPeriod("no blocks in period")
    _, counts = count_blocks_by_miner(blocks)
    lam = compute_lambda(hashrate_series, blocks)
    t_lo, t_hi = int(blocks["timestamp"].min()), int(blocks["timestamp"].max())
    stamps = propagation["timestamp"]
    in_span = propagation[(t_lo <= stamps) & (stamps <= t_hi)]
    if not len(in_span):
        raise EmptyPeriod(
            f"no propagation rows inside the period span [{t_lo}, {t_hi}]"
        )
    return PeriodRecord(
        index=period_index,
        counts=counts,
        lambda_total=lam,
        fork_rate_empirical=fork_rate_empirical(stales, blocks),
        prop_p50=math.fsum(in_span["p50"].tolist()) / len(in_span),
        prop_p90=math.fsum(in_span["p90"].tolist()) / len(in_span),
        prop_p99=math.fsum(in_span["p99"].tolist()) / len(in_span),
    )
