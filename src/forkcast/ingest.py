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
the file path and line number, never a partial result.  A file is read
once, as bytes, in blocks of whole lines.  A plain block (valid UTF-8 with
no quote, CR, NUL or blank line, no field over the csv field size limit,
and the header's field count on every line) is split at its commas and
newlines in one numpy pass, as ``csv.reader`` splits such text; its
``int`` columns go through a digit kernel, ``float`` columns through an
exact m / 10^k kernel, and any other column, or a number outside its
kernel's grammar, through its converter once per distinct field.  From
the first block that is not plain, or whose values a converter or dtype
rejects, ``csv.reader`` reads the same blocks, each line decoded on its
own.  So every read error is raised at the first bad row in file order,
at a line found by a re-scan.  Checks across a whole column (a negative
height, an empty miner id, percentile order, a hash rate > 0) run after
the read.
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
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

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
# non-blank rows per column-at-once conversion in csv.reader; a small chunk
# stays in cache (on a 2-vCPU x86_64 VM, 512 parsed 120,000 blocks about 15 %
# faster than 4,096)
_CHUNK_ROWS = 512
# bytes of whole lines per block; memory stays bounded by the block,
# not the file (on a 2-vCPU x86_64 VM, 64 KiB chunks parsed 120,137 blocks
# about 25 % slower than 256 KiB, and 1 MiB chunks within 5 % of them)
_CHUNK_CHARS = 1 << 18
# zero bytes before a plain chunk, so that every window of a field fits;
# also the widest field whose distinct values are found by byte keys
_PAD = 64
# 10**k, exact, as int64 (k <= 18) and as float64 (k <= 15)
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POW10_FLOAT = np.array([float(10**k) for k in range(16)])
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


def _date(text: str) -> dt.date:
    """A ``YYYY-MM-DD`` date; ``fromisoformat`` alone takes other ISO forms since Python 3.11."""
    date = dt.date.fromisoformat(text := text.strip())
    if date.isoformat() != text:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date


def _blocks(fh: BinaryIO, head: bytes = b"") -> Iterator[bytes]:
    """Blocks of about :data:`_CHUNK_CHARS` bytes of whole lines of a file, in order.

    ``head``, bytes already read, opens the first block.  Each read is cut
    after its last ``\\n`` or, if it has none, after its last ``\\r`` but
    its final byte, which may begin a ``\\r\\n``; the rest opens the next
    block.  So lines that end in ``\\r`` alone come in blocks too, and no
    line or ``\\r\\n`` is split.
    """
    rest = [head]
    while chunk := fh.read(_CHUNK_CHARS):
        cut = chunk.rfind(b"\n") + 1 or chunk.rfind(b"\r", 0, -1) + 1
        if cut:
            block = b"".join([*rest, memoryview(chunk)[:cut]])
            rest = [chunk[cut:]]
            del chunk  # only the block stays alive while it is used
            yield block
        else:
            rest.append(chunk)
    if last := b"".join(rest):
        yield last


def _lines(blocks: Iterable[bytes]) -> Iterator[str]:
    """Each line of ``blocks``, decoded alone; lines end where ``csv.reader`` ends them."""
    return itertools.chain.from_iterable(map(bytes.decode, b.splitlines(True)) for b in blocks)


def _line(path: str | Path, k: int) -> int:
    """Line on which the ``k``-th non-blank data row (from 0) ends, by a re-scan."""
    with open(path, "rb") as fh:
        reader = csv.reader(_lines(_blocks(fh)))
        next(reader)
        next(itertools.islice(filter(None, reader), k, None))
        return reader.line_num


def _convert(path: str | Path, chunk: list, picks: list, fields: list):
    """Append to each field an array of its column of ``chunk``, in the field's dtype.

    Every column is converted before any is appended.  A failure walks the
    chunk row by row, each row's columns in turn, and raises
    :class:`ParseError` at its first bad value: a converter's
    ``ValueError``, a row too short or an integer outside the dtype.
    """
    try:
        columns = [np.fromiter(map(convert, map(operator.itemgetter(i), chunk)), dtype, len(chunk))
                   for i, convert, dtype in picks]
    except (IndexError, ValueError, OverflowError):
        for k, row in enumerate(chunk, sum(map(len, fields[0]))):
            for i, convert, dtype in picks:
                try:
                    value = convert(row[i])
                    np.array([value], dtype)
                except IndexError:
                    message = f"{len(row)} field(s), need {max(i for i, _, _ in picks) + 1}"
                    raise ParseError(str(path), _line(path, k), message) from None
                except ValueError as exc:
                    raise ParseError(str(path), _line(path, k), f"bad row: {exc}") from exc
                except OverflowError:
                    message = f"{value} does not fit in {np.dtype(dtype)}"
                    raise ParseError(str(path), _line(path, k), message) from None
        raise
    for field, values in zip(fields, columns):
        field.append(values)


def _windows(buf: np.ndarray, ends: np.ndarray, lengths: np.ndarray, width: int,
             zero: int = 0) -> np.ndarray:
    """``(fields, width)`` bytes: field k is the ``lengths[k]`` bytes before ``ends[k]``.

    Each field is right-aligned in its row, less ``zero`` (mod 256), and
    the bytes to its left are 0.  ``buf`` has at least ``width`` bytes
    before the first field.
    """
    rows = np.ndarray((buf.size - width + 1,), f"V{width}", buf, strides=(1,))
    win = rows[ends - width].view(np.uint8).reshape(-1, width)
    if zero:
        win -= np.uint8(zero)
    keep = np.arange(width) >= width - np.arange(width + 1)[:, None]
    win &= (keep * np.uint8(255)).view(f"V{width}")[lengths, 0].view(np.uint8).reshape(win.shape)
    return win


def _numbers(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, point: bool):
    """The fields as ``int`` (or ``float`` with ``point``) reads them, or None.

    The fields must all be an optional ``-`` and 1 to 18 digits, or with
    ``point`` at most 16 digits and points, no more than one point and at
    least one digit; None sends the column to :func:`_distinct`.  A float
    is m / 10^k for its digits m and k decimal places.  With a point,
    m < 10^15 < 2^53 and 10^k are exact doubles, so the one division is
    correctly rounded, as ``float`` is (Clinger, PLDI 1990); without one,
    converting m < 10^16 is the one rounding.
    """
    neg = buf[starts] == 45  # "-"
    lengths = ends - starts - neg
    width = int(lengths.max())
    if lengths.min() < 1 or width > (16 if point else 18):
        return None
    digits = _windows(buf, ends, lengths, width, zero=48)  # "0"
    if point:
        dot = digits == 254  # "." - "0"
        dots = np.count_nonzero(dot, axis=1)
        if dots.max() > 1 or (dots == lengths).any():
            return None
        digits[dot] = 0
    if digits.max() > 9:
        return None
    m = digits.astype(np.int64) @ _POW10[width - 1 :: -1]
    if point:
        # digits after the point; those before it were placed one too high
        places = np.where(dots, width - 1 - dot.argmax(axis=1), 0)
        scale = _POW10[places]
        m = np.where(dots, m // (10 * scale) * scale + m % scale, m)
        m = m / _POW10_FLOAT[places]
    return np.negative(m, out=m, where=neg)


def _distinct(data: bytes, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
              convert: Callable[[str], object], dtype):
    """The fields converted by ``convert``, each distinct field once, or None.

    A field's key is its bytes, zero-padded on the left to whole 8-byte
    words: equal keys are equal fields, as a plain chunk has no NUL.  None
    for a field too wide for a key, a converter's ``ValueError`` or a value
    outside ``dtype``: :func:`_convert` finds its row.
    """
    lengths = ends - starts
    width = max(8, -(-int(lengths.max()) // 8) * 8)
    if width > _PAD:
        return None
    words = _windows(buf, ends, lengths, width).view("<u8")
    codes = np.zeros(len(words), np.intp)
    for word in words.T:
        if (word != word[0]).any():
            keys, inverse = np.unique(word, return_inverse=True)
            if codes.any():
                inverse = np.unique(codes * len(keys) + inverse, return_inverse=True)[1]
            codes = inverse
    first = np.empty(codes.max() + 1, np.intp)
    first[codes] = np.arange(codes.size)
    bounds = zip(starts[first].tolist(), ends[first].tolist())
    try:
        return np.array([convert(data[s:e].decode()) for s, e in bounds], dtype)[codes]
    except (ValueError, OverflowError):
        return None


def _extend_plain(chunk: bytes, width: int, picks: list, fields: list) -> int:
    """Append one array per field from a chunk of whole lines; the lines, or 0 if not plain.

    ``width`` is the header's field count.  Commas and newlines are found
    in one pass over the bytes, and each picked column is converted in one
    go: ``int`` and ``float`` columns by :func:`_numbers`, the others (and
    any number outside its grammar) by :func:`_distinct`.  A chunk that is
    not plain, or that :func:`_distinct` cannot convert, appends nothing.
    """
    if not chunk.endswith(b"\n"):  # the last line of a file with no final newline
        chunk += b"\n"
    if b'"' in chunk or b"\r" in chunk or b"\0" in chunk:
        return 0
    try:
        chunk.isascii() or chunk.decode()
    except UnicodeDecodeError:
        return 0
    data = bytes(_PAD) + chunk
    buf = np.frombuffer(data, np.uint8)
    newline = buf == 10
    sep = np.flatnonzero(newline | (buf == 44))  # "," and "\n"
    lines = int(np.count_nonzero(newline))  # a line number of a ParseError is an int
    # the header's field count on every line: a short row next to a long
    # one shows here, where a total count would hide it
    if sep.size != lines * width or not newline[sep[width - 1 :: width]].all():
        return 0
    starts = np.empty_like(sep)
    starts[0] = _PAD
    np.add(sep[:-1], 1, out=starts[1:])
    lengths = sep - starts
    # a blank line is an empty field only when a line has one field
    if lengths.max() > csv.field_size_limit() or width == 1 and lengths.min() == 0:
        return 0
    ends, starts = sep.reshape(lines, width), starts.reshape(lines, width)
    columns = []
    for i, convert, dtype in picks:
        values = None
        if convert is int or convert is float:
            values = _numbers(buf, starts[:, i], ends[:, i], point=convert is float)
        if values is None:
            values = _distinct(data, buf, starts[:, i], ends[:, i], convert, dtype)
        if values is None:
            return 0
        columns.append(values)
    for field, values in zip(fields, columns):
        field.append(values)
    return lines


def _header(fname: str, header: list | None, columns: Mapping) -> list:
    """``(index, converter, dtype)`` of each named column in the header row."""
    if header is None:
        raise ParseError(fname, 1, "empty file, expected a header row")
    position = {name: i for i, name in enumerate(header)}
    missing = [c for c in columns if c not in position]
    if missing:
        raise ParseError(fname, 1, f"missing column(s) {', '.join(missing)}")
    return [(position[c], convert, dtype) for c, (convert, dtype) in columns.items()]


def _read_fields(path: str | Path, columns: Mapping) -> list[list[np.ndarray]]:
    """Per named column, the arrays of its values, in file order.

    The file is read once, as bytes, in blocks of whole lines
    (:func:`_blocks`).  Plain blocks are parsed by :func:`_extend_plain`;
    from the first block that is not, ``csv.reader`` reads the lines of the
    same blocks (:func:`_lines`), and its rows are converted
    :data:`_CHUNK_ROWS` at a time (:func:`_convert`).  Rows read before a
    ``csv.Error`` or a byte that is not UTF-8 are converted first, so every
    error is raised at the first bad row in file order.
    """
    fname = str(path)
    with open(path, "rb") as fh:
        head = fh.readline(_CHUNK_CHARS)  # the header line, or a block if no "\n" comes sooner
        plain = head.endswith(b"\n") and not (b'"' in head or b"\r" in head)
        blocks, offset = _blocks(fh, b"" if plain else head), 0  # offset: lines before the reader
        try:
            reader = csv.reader(_lines([head] if plain else blocks))
            header = next(reader, None)
            picks = _header(fname, header, columns)
            fields = [[] for _ in picks]
            if plain:
                offset = 1
                for block in blocks:
                    done = _extend_plain(block, len(header), picks, fields)
                    if not done:
                        break
                    offset += done
                else:
                    return fields
                reader = csv.reader(_lines(itertools.chain([block], blocks)))
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
        except UnicodeDecodeError as exc:
            line = offset + reader.line_num + 1
            raise ParseError(fname, line, f"not UTF-8: {exc.reason}") from None
    return fields


def _read_csv(
    path: str | Path, columns: Mapping[str, tuple[Callable[[str], object], object]]
) -> np.recarray:
    """Record array of the named columns of a CSV file with a header row.

    ``columns`` maps each required name to a field converter and a dtype;
    the values are the converters' own.  A converter's ``ValueError``, a
    row too short for a named column, a ``csv.Error``, a byte that is not
    UTF-8 and an integer outside the dtype raise :class:`ParseError` at the
    first bad row in file order; :func:`_reject` checks whole columns after.
    """
    fields = _read_fields(path, columns)
    # np.rec.fromarrays allocates with np.empty, many times slower than
    # np.zeros when a field holds objects
    records = np.zeros(sum(map(len, fields[0])), [(c, d) for c, (_, d) in columns.items()])
    for pieces, name in zip(fields, columns):
        if pieces:
            np.concatenate(pieces, out=records[name])
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
        "date": (_date, object),
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
