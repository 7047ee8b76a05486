import csv
import datetime as dt
import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from forkcast.errors import (
    DegenerateMinerSet,
    EmptyPeriod,
    InvalidBits,
    NonContiguous,
    ParseError,
)
from forkcast.forkrate import conditional_fork_rate
from forkcast.estimate import estimate_hash_rates
from forkcast import ingest
from forkcast.ingest import (
    _CHUNK_CHARS,
    _CHUNK_ROWS,
    _bits,
    _read_csv,
    FORK_RATE_RESCALE,
    bits_to_expected_hashes,
    build_period_record,
    compute_lambda,
    count_blocks_by_miner,
    fork_rate_empirical,
    parse_blocks_csv,
    parse_hashrate_csv,
    parse_propagation_csv,
    parse_stale_csv,
    segment_periods,
)
from forkcast.synthetic import REFERENCE_BITS, REFERENCE_COUNTS, write_dataset

from conftest import SUITE_SEED


BLOCK_FIELDS = "height,timestamp,bits,miner_id"
PROPAGATION_FIELDS = "timestamp,p50,p90,p99"
NO_STALES = np.array([], dtype=np.int64)


def make_blocks(n, start_height=0, t0=1672617600, spacing=600, bits=REFERENCE_BITS,
                miner="m0"):
    return np.rec.fromrecords(
        [(start_height + i, t0 + i * spacing, bits, miner) for i in range(n)],
        names=BLOCK_FIELDS,
    )


class TestBits:
    def test_genesis_era_difficulty_one(self):
        # big-integer oracle: 2^256 / (0xffff * 2^208 + 1)
        oracle = (1 << 256) / (0xFFFF * (1 << 208) + 1)
        value = bits_to_expected_hashes(0x1D00FFFF)
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(4.295032833e9, rel=1e-9)

    def test_max_target_regtest(self):
        oracle = (1 << 256) / (0x7FFFFF * 256 ** (0x20 - 3) + 1)
        assert bits_to_expected_hashes(0x207FFFFF) == pytest.approx(oracle, rel=1e-12)
        assert bits_to_expected_hashes(0x207FFFFF) == pytest.approx(2.0, rel=1e-6)

    @given(
        exponent=st.integers(4, 31),
        mantissa=st.integers(1, 0x3FFFFF),
    )
    @example(exponent=8, mantissa=8656)  # ratio 1.9999999999999998
    @settings(max_examples=80, deadline=None)
    def test_doubling_mantissa_halves_result(self, exponent, mantissa):
        bits_a = (exponent << 24) | mantissa
        bits_b = (exponent << 24) | (mantissa * 2)
        value_a, value_b = bits_to_expected_hashes(bits_a), bits_to_expected_hashes(bits_b)
        target_a = mantissa * 256 ** (exponent - 3)
        # each value is 2^256 / (target + 1), correctly rounded
        assert value_a == float(Fraction(2**256, target_a + 1))
        assert value_b == float(Fraction(2**256, 2 * target_a + 1))
        ratio = value_a / value_b
        exact = (2 * target_a + 1) / (target_a + 1)  # 2 up to the +1 regularizer
        assert ratio == pytest.approx(exact, rel=1e-12)
        # |exact - 2| < 2 / target_a; the ratio of the two rounded values,
        # rounded once more, adds three roundings of relative size 2^-53
        # to a ratio below 2, which is more than 2 / target_a once
        # target_a reaches ~2^53
        assert abs(ratio - 2.0) <= 2.0 / target_a + 8 * 2.0**-53

    def test_strictly_decreasing_in_target(self):
        values = [
            bits_to_expected_hashes((25 << 24) | m) for m in (0x0101, 0x0202, 0x0404)
        ]
        assert values[0] > values[1] > values[2]

    @pytest.mark.parametrize(
        "bits",
        [0x1D000000, (2 << 24) | 0xFFFF, (33 << 24) | 0xFFFF, 0x1D800001, -1,
         0x1_0000_0000],
    )
    def test_invalid_encodings(self, bits):
        with pytest.raises(InvalidBits):
            bits_to_expected_hashes(bits)

    def test_numpy_integer_input(self):
        assert bits_to_expected_hashes(np.int64(0x1D00FFFF)) == bits_to_expected_hashes(
            0x1D00FFFF
        )


def per_block_lambda(hashrate_series, blocks):
    """The per-block definition of compute_lambda: one date and one
    difficulty conversion per block."""
    days = sorted(hashrate_series)
    ratios = []
    for block in blocks:
        day = dt.datetime.fromtimestamp(block.timestamp, dt.timezone.utc).date()
        earlier = [d for d in days if d <= day]
        if not earlier:
            raise EmptyPeriod(f"series starts after block day {day}")
        ratios.append(hashrate_series[earlier[-1]] / bits_to_expected_hashes(block.bits))
    return math.fsum(ratios) / len(ratios)


class TestComputeLambda:
    @pytest.mark.parametrize("stream", range(6))
    def test_matches_per_block_reference(self, stream):
        rng = np.random.default_rng([SUITE_SEED, stream])
        midnight = 1672617600 + int(rng.integers(0, 400)) * 86400
        # timestamps cluster on midnights (the last second of a day and the
        # first of the next), with random ones in between
        n = 3000
        offsets = np.sort(rng.integers(0, 40 * 86400, n))
        edges = rng.integers(1, 40, n // 10) * 86400 + rng.integers(-1, 1, n // 10)
        stamps = np.sort(np.concatenate([offsets, edges])) + midnight
        bits_pool = [REFERENCE_BITS, 0x1803A30C, 0x17053894, 0x1D00FFFF]
        blocks = np.rec.fromrecords([
            (i, int(t), bits_pool[int(rng.integers(len(bits_pool)))], "m")
            for i, t in enumerate(stamps)
        ], names=BLOCK_FIELDS)
        first = dt.date(2023, 1, 2) + dt.timedelta(days=(midnight - 1672617600) // 86400)
        # a sparse series: most days fall back to an earlier date
        series = {
            first + dt.timedelta(days=int(k)): float(rng.uniform(1e18, 3e18))
            for k in np.unique(np.concatenate([[0], rng.integers(1, 45, 12)]))
        }
        assert compute_lambda(series, blocks) == per_block_lambda(series, blocks)

    def test_day_boundary_uses_each_days_rate(self):
        midnight = 1672617600
        blocks = np.rec.fromrecords([(0, midnight - 1, REFERENCE_BITS, "m"),
                                     (1, midnight, REFERENCE_BITS, "m")], names=BLOCK_FIELDS)
        day = dt.date(2023, 1, 2)
        series = {day - dt.timedelta(days=1): 1e18, day: 3e18}
        difficulty = bits_to_expected_hashes(REFERENCE_BITS)
        assert compute_lambda(series, blocks) == math.fsum(
            [1e18 / difficulty, 3e18 / difficulty]
        ) / 2

    def test_falls_back_to_earlier_date(self):
        blocks = make_blocks(4, t0=1672617600, spacing=86400)
        series = {dt.date(2022, 12, 30): 2e18, dt.date(2023, 1, 4): 4e18}
        assert compute_lambda(series, blocks) == per_block_lambda(series, blocks)
        difficulty = bits_to_expected_hashes(REFERENCE_BITS)
        # two blocks fall back to 2022-12-30, two are on or after 2023-01-04
        assert compute_lambda(series, blocks) == pytest.approx(3e18 / difficulty, rel=1e-12)

    def test_series_starting_after_a_later_block(self):
        # the first day is covered, a block on the day before the series is not
        blocks = np.rec.fromrecords([(0, 1672617600, REFERENCE_BITS, "m"),
                                     (1, 1672617600 - 1, REFERENCE_BITS, "m")],
                                    names=BLOCK_FIELDS)
        with pytest.raises(EmptyPeriod, match="2023-01-01"):
            compute_lambda({dt.date(2023, 1, 2): 1e18}, blocks)

    def test_constant_ratio(self):
        blocks = make_blocks(10)
        day = dt.datetime.fromtimestamp(blocks[0].timestamp, dt.timezone.utc).date()
        series = {day: 1.7e18, day + dt.timedelta(days=1): 1.7e18}
        difficulty = bits_to_expected_hashes(REFERENCE_BITS)
        assert compute_lambda(series, blocks) == pytest.approx(
            1.7e18 / difficulty, rel=1e-12
        )

    def test_mean_of_ratios_across_days(self):
        # equal block counts on two days with rates 1e18 and 3e18 over a
        # constant ~1e21 difficulty: the mean ratio is 0.002 of the ratio
        # at 1e21 exactly
        t0 = 1672617600  # midnight UTC
        blocks = make_blocks(4, t0=t0, spacing=43200)  # two per day
        d0 = dt.datetime.fromtimestamp(t0, dt.timezone.utc).date()
        series = {d0: 1e18, d0 + dt.timedelta(days=1): 3e18}
        difficulty = bits_to_expected_hashes(REFERENCE_BITS)
        assert compute_lambda(series, blocks) == pytest.approx(
            2e18 / difficulty, rel=1e-12
        )

    def test_fixture_block_time_sanity(self, dataset_dir):
        blocks = parse_blocks_csv(dataset_dir / "blocks.csv")
        series = parse_hashrate_csv(dataset_dir / "hashrate.csv")
        periods, _ = segment_periods(blocks)
        lam = compute_lambda(series, periods[0])
        assert 500.0 <= 1.0 / lam <= 700.0

    def test_empty_inputs(self):
        with pytest.raises(EmptyPeriod):
            compute_lambda({}, make_blocks(3))
        with pytest.raises(EmptyPeriod):
            compute_lambda({dt.date(2023, 1, 1): 1e18}, [])

    def test_series_starting_after_blocks(self):
        blocks = make_blocks(3)
        with pytest.raises(EmptyPeriod):
            compute_lambda({dt.date(2030, 1, 1): 1e18}, blocks)

    @pytest.mark.parametrize("t0", [10**14, 2**63 - 1 - 600])
    def test_days_past_year_9999_use_the_last_rate(self, t0):
        blocks = make_blocks(2, t0=t0)
        series = {dt.date(2023, 1, 1): 1e18, dt.date(2023, 1, 2): 3e18}
        difficulty = bits_to_expected_hashes(REFERENCE_BITS)
        assert compute_lambda(series, blocks) == 3e18 / difficulty

    @pytest.mark.parametrize("t0", [-(10**14), -(2**63)])
    def test_days_before_year_1_precede_the_series(self, t0):
        with pytest.raises(EmptyPeriod, match="before 0001-01-01"):
            compute_lambda({dt.date(2023, 1, 1): 1e18}, make_blocks(2, t0=t0))


class TestSegmentPeriods:
    def test_three_full_periods(self):
        periods, rem = segment_periods(make_blocks(60000))
        assert len(periods) == 3 and len(rem) == 0
        assert all(len(p) == 20000 for p in periods)

    def test_one_block_remainder(self):
        periods, rem = segment_periods(make_blocks(20001))
        assert len(periods) == 1 and len(rem) == 1

    def test_gap_detected(self):
        blocks = np.concatenate([make_blocks(5), make_blocks(5, start_height=7)])
        with pytest.raises(NonContiguous) as err:
            segment_periods(blocks)
        assert err.value.gap_height == 5

    def test_short_stream(self):
        periods, rem = segment_periods(make_blocks(10), period_len=100)
        assert periods == [] and len(rem) == 10


class TestForkRateEmpirical:
    def test_no_stales(self):
        assert fork_rate_empirical(NO_STALES, make_blocks(100)) == 0.0

    def test_rescaled_anchor(self):
        blocks = make_blocks(20000)
        stales = np.arange(0, 5600, 100)  # 56 distinct
        value = fork_rate_empirical(stales, blocks)
        assert value == pytest.approx(56 * FORK_RATE_RESCALE / 20000, rel=1e-12)
        assert value == pytest.approx(0.0041328, rel=1e-9)

    def test_duplicates_count_once(self):
        blocks = make_blocks(100)
        stales = np.array([5, 5, 9])
        assert fork_rate_empirical(stales, blocks) == pytest.approx(
            2 * FORK_RATE_RESCALE / 100
        )

    def test_out_of_period_ignored(self):
        blocks = make_blocks(100, start_height=1000)
        stales = np.array([5, 1050, 5000])
        assert fork_rate_empirical(stales, blocks) == pytest.approx(
            FORK_RATE_RESCALE / 100
        )

    def test_capped_at_one(self):
        blocks = make_blocks(10)
        stales = np.arange(10)
        assert fork_rate_empirical(stales, blocks) == 1.0

    @given(st.lists(st.integers(0, 99), min_size=0, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_permutation_and_duplication_invariance(self, heights):
        blocks = make_blocks(100)
        base = np.array(heights, dtype=np.int64)
        doubled = np.concatenate([base, base[::-1]])
        assert fork_rate_empirical(base, blocks) == fork_rate_empirical(
            doubled, blocks
        )


# each parser with its header and one valid row
CONTRACT_FILES = {
    "blocks": (parse_blocks_csv, BLOCK_FIELDS, "7,1700000000,0x1d00ffff,alice"),
    "stale": (parse_stale_csv, "height", "7"),
    "propagation": (parse_propagation_csv, PROPAGATION_FIELDS, "1700000000,1.0,2.0,3.0"),
    "hashrate": (parse_hashrate_csv, "date,hashes_per_second", "2023-01-02,1e18"),
}
CONTRACT_CASES = ["empty", "missing column", "short row", "oversized field",
                  "blank lines", "unknown columns", "repeated name", "padded fields"]


def _rows(parsed):
    """Parser output in a form that compares with ==."""
    return parsed if isinstance(parsed, dict) else np.asarray(parsed).tolist()


class TestParsers:
    def test_round_trip_fixture(self, dataset_dir):
        blocks = parse_blocks_csv(dataset_dir / "blocks.csv")
        assert len(blocks) == 60000
        assert blocks[0].height == 0 and blocks[-1].height == 59999
        stales = parse_stale_csv(dataset_dir / "stale.csv")
        assert len(stales) == 3 * (56 + 2)
        prop = parse_propagation_csv(dataset_dir / "propagation.csv")
        assert all(p.p50 <= p.p90 <= p.p99 for p in prop)
        series = parse_hashrate_csv(dataset_dir / "hashrate.csv")
        assert all(v > 0 for v in series.values())

    @pytest.mark.parametrize("name, parse", [
        ("blocks.csv", parse_blocks_csv),
        ("stale.csv", parse_stale_csv),
        ("propagation.csv", parse_propagation_csv),
        ("hashrate.csv", parse_hashrate_csv),
    ])
    def test_lf_copy_of_the_fixture_parses_the_same(self, dataset_dir, tmp_path, monkeypatch,
                                                    name, parse):
        # the fixture is CRLF and goes through csv.reader; its LF copy is
        # split in plain chunks from the first line to the last
        crlf = (dataset_dir / name).read_bytes()
        lf = tmp_path / name
        lf.write_bytes(crlf.replace(b"\r\n", b"\n"))
        plain_lines = []

        def extend_plain(chunk, *args):
            done = extend(chunk, *args)
            plain_lines.append(chunk.count(b"\n") if done else 0)
            return done

        expected = parse(dataset_dir / name)
        extend = ingest._extend_plain
        monkeypatch.setattr(ingest, "_extend_plain", extend_plain)
        parsed = parse(lf)
        assert plain_lines and all(plain_lines)
        assert sum(plain_lines) == crlf.count(b"\r\n") - 1 > 0
        if isinstance(expected, dict):
            assert list(parsed.items()) == list(expected.items())
            assert {type(v) for v in parsed.values()} == {float}
        else:
            assert parsed.dtype == expected.dtype
            assert _rows(parsed) == _rows(expected)

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("height,timestamp,bits,miner_id\n1,2,0x1d00ffff,alice\nx,2,3,bob\n")
        with pytest.raises(ParseError) as err:
            parse_blocks_csv(p)
        assert err.value.line == 3
        assert "bad.csv" in str(err.value)

    @pytest.mark.parametrize("line", [1, 2, 500])
    def test_non_utf8_byte_reports_its_line(self, tmp_path, line):
        # line 500 lies beyond the text decoder's first read-ahead chunk
        rows = [b"height,timestamp,bits,miner_id"]
        rows += [b"%d,%d,0x1d00ffff,miner-%d" % (i, 1700000000 + 600 * i, i % 7)
                 for i in range(600)]
        rows[line - 1] += b"\xff"
        p = tmp_path / "blocks.csv"
        p.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(ParseError, match="not UTF-8") as err:
            parse_blocks_csv(p)
        assert err.value.line == line
        assert str(err.value).startswith(f"{p}:{line}:")

    @pytest.mark.parametrize("end", [b"\r", b"\r\n", b"\n"])
    def test_non_utf8_byte_line_counts_every_line_end(self, tmp_path, end):
        # csv.reader ends a line at "\r\n", a lone "\r" or "\n": the byte's
        # line is counted the same way as a bad value's
        p = tmp_path / "stale.csv"
        for bad, message in ((b"\xff", "not UTF-8"), (b"x", "invalid literal")):
            p.write_bytes(end.join([b"height", b"1", b"2", bad, b""]))
            with pytest.raises(ParseError, match=message) as err:
                parse_stale_csv(p)
            assert err.value.line == 4

    def test_oversized_header_field_reports_line_1(self, tmp_path):
        p = tmp_path / "stale.csv"
        p.write_text("height," + "n" * 200_000 + "\n1,2\n")  # beyond the field size limit
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            parse_stale_csv(p)
        assert err.value.line == 1

    def test_first_bad_row_in_file_order_across_columns(self, tmp_path):
        p = tmp_path / "blocks.csv"
        p.write_text(f"{BLOCK_FIELDS}\n1,2,0x1d00ffff,a\n2,3,0xzz,b\nx,4,0x1d00ffff,c\n")
        with pytest.raises(ParseError, match="0xzz") as err:
            parse_blocks_csv(p)
        assert err.value.line == 3

    def test_bad_value_before_a_reader_error_is_reported(self, tmp_path):
        rows = [BLOCK_FIELDS] + [f"{i},{1700000000 + 600 * i},0x1d00ffff,m" for i in range(9)]
        rows[2] = "x,1700001200,0x1d00ffff,m"
        rows[9] = "8,1700004800,0x1d00ffff," + "m" * 200_000  # beyond the field size limit
        p = tmp_path / "blocks.csv"
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="bad row: invalid literal") as err:
            parse_blocks_csv(p)
        assert err.value.line == 3

    def test_bad_value_before_a_later_non_utf8_byte_is_reported(self, tmp_path):
        rows = [BLOCK_FIELDS.encode()]
        rows += [b"%d,%d,0x1d00ffff,miner-%d" % (i, 1700000000 + 600 * i, i % 7)
                 for i in range(600)]
        rows[2] = b"x,1700001200,0x1d00ffff,miner-2"
        rows[-1] += b"\xff"
        p = tmp_path / "blocks.csv"
        p.write_bytes(b"\n".join(rows) + b"\n")
        assert p.read_bytes().index(b"\xff") > 8192
        with pytest.raises(ParseError, match="invalid literal") as err:
            parse_blocks_csv(p)
        assert err.value.line == 3

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_integer_outside_int64_before_a_bad_value_is_reported(self, tmp_path, end):
        rows = [BLOCK_FIELDS] + [f"{i},{1700000000 + 600 * i},0x1d00ffff,m" for i in range(12)]
        rows[3] = f"2,{2**63},0x1d00ffff,m"
        rows[9] = "x,1700004800,0x1d00ffff,m"
        p = tmp_path / "blocks.csv"
        p.write_bytes((end.join(rows) + end).encode())
        with pytest.raises(ParseError, match=f"{2**63} does not fit in int64") as err:
            parse_blocks_csv(p)
        assert err.value.line == 4

    def test_non_utf8_byte_after_many_blocks_is_found_in_bounded_memory(self, tmp_path):
        # the rows are mostly a column no parser reads: what is kept is small
        rows = [b"%06d,%s\n" % (i, b"n" * 121) for i in range(12 * _CHUNK_CHARS // 128)]
        rows[-1] = rows[-1].replace(b"n", b"\xff", 1)
        p = tmp_path / "stale.csv"
        p.write_bytes(b"height,note\n" + b"".join(rows))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="not UTF-8") as err:
                parse_stale_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.line == len(rows) + 1 and type(err.value.line) is int
        assert peak < p.stat().st_size / 2

    @pytest.mark.parametrize("date", ["20230102", "2023-W01-1"])
    def test_hash_rate_dates_are_yyyy_mm_dd_only(self, tmp_path, date):
        # Python 3.11's date.fromisoformat takes both, and 3.10's neither
        p = tmp_path / "hashrate.csv"
        p.write_text(f"date,hashes_per_second\n2023-01-01,1e18\n{date},1e18\n")
        with pytest.raises(ParseError) as err:
            parse_hashrate_csv(p)
        assert err.value.line == 3

    def test_bad_value_after_a_chunk_boundary_reports_its_line(self, tmp_path):
        rows = [f"{i},{1700000000 + 600 * i},0x1d00ffff,m" for i in range(_CHUNK_ROWS + 5)]
        rows[10] += "\n"  # one blank line
        rows[20] = f'20,{1700000000 + 600 * 20},0x1d00ffff,"two\nlines"'
        rows[_CHUNK_ROWS - 1] += "\n\n"  # two blank lines
        rows[_CHUNK_ROWS] = f"{_CHUNK_ROWS},1700000000,0xzz,m"
        p = tmp_path / "blocks.csv"
        p.write_text(BLOCK_FIELDS + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="0xzz") as err:
            parse_blocks_csv(p)
        # the header, the rows up to and including this one, and 4 more
        # lines: 3 blank and 1 inside a quoted field
        assert err.value.line == 1 + _CHUNK_ROWS + 1 + 4

    def test_missing_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("height,timestamp\n1,2\n")
        with pytest.raises(ParseError) as err:
            parse_blocks_csv(p)
        assert err.value.line == 1

    def test_extra_columns_ignored(self, tmp_path):
        p = tmp_path / "extra.csv"
        p.write_text(
            "height,timestamp,bits,miner_id,comment\n7,1700000000,0x1d00ffff,alice,hi\n"
        )
        rows = parse_blocks_csv(p)
        assert rows[0].height == 7 and rows[0].miner_id == "alice"

    def test_miner_ids_kept_exactly(self, tmp_path):
        p = tmp_path / "blocks.csv"
        long_id = "m" * 10_000
        p.write_text(
            "height,timestamp,bits,miner_id\n"
            f"0,1700000000,0x1d00ffff,a\x00\n1,1700000600,0x1d00ffff,a\n"
            f"2,1700001200,0x1d00ffff,{long_id}\n"
        )
        ids, counts = count_blocks_by_miner(parse_blocks_csv(p))
        assert ids == ("a", "a\x00", long_id) and counts.counts == (1, 1, 1)

    def test_propagation_ordering_enforced(self, tmp_path):
        p = tmp_path / "prop.csv"
        p.write_text("timestamp,p50,p90,p99\n1,5.0,2.0,9.0\n")
        with pytest.raises(ParseError):
            parse_propagation_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            parse_stale_csv(p)

    @pytest.mark.parametrize("case", CONTRACT_CASES)
    @pytest.mark.parametrize("kind", sorted(CONTRACT_FILES))
    def test_contract(self, tmp_path, kind, case):
        parse, header, row = CONTRACT_FILES[kind]
        names, values = header.split(","), row.split(",")
        base = tmp_path / "base.csv"
        base.write_text(f"{header}\n{row}\n")
        p = tmp_path / f"{kind}.csv"
        error_line = None
        if case == "empty":
            p.write_text("")
            error_line = 1
        elif case == "missing column":
            p.write_text(",".join(names[:-1]) + "\n" + ",".join(values[:-1]) + "\n")
            error_line = 1
        elif case == "short row":
            # the leading unknown column keeps a one-column row from being blank
            short = ",".join(["x"] + values[:-1])
            p.write_text(f"note,{header}\nx,{row}\n{short}\n")
            error_line = 3
        elif case == "blank lines":
            p.write_text(f"{header}\n\n{row}\n\n")
        elif case == "unknown columns":
            p.write_text(f"note,{header},extra\nx,{row},\n")
        elif case == "repeated name":
            shifted = ",".join(["junk"] + values[1:] + values[:1])
            p.write_text(f"{header},{names[0]}\n{shifted}\n")
        elif case == "oversized field":
            # beyond the csv module's field size limit
            p.write_text(f"{header}\n" + ",".join(["1" * 200_000] + values[1:]) + "\n")
            error_line = 2
        elif case == "padded fields":
            p.write_text(f"{header}\n" + ",".join(f" {v} " for v in values) + "\n")
        if error_line is None:
            assert _rows(parse(p)) == _rows(parse(base))
        else:
            with pytest.raises(ParseError) as err:
                parse(p)
            assert err.value.line == error_line
            assert f"{kind}.csv:{error_line}:" in str(err.value)

    @pytest.mark.parametrize("kind, column", [
        ("blocks", "height"), ("blocks", "timestamp"), ("blocks", "bits"),
        ("stale", "height"), ("propagation", "timestamp"),
    ])
    def test_integers_must_fit_int64(self, tmp_path, kind, column):
        parse, header, row = CONTRACT_FILES[kind]
        names, values = header.split(","), row.split(",")
        i = names.index(column)
        p = tmp_path / f"{kind}.csv"
        for value, fits in ((2**63 - 1, True), (2**63, False)):
            values[i] = hex(value) if column == "bits" else str(value)
            p.write_text(f"{header}\n{row}\n" + ",".join(values) + "\n")
            if fits:
                assert len(parse(p)) == 2
            else:
                with pytest.raises(ParseError) as err:
                    parse(p)
                assert err.value.line == 3

    @pytest.mark.parametrize("text, bits", [
        ("0x1d00ffff", 0x1D00FFFF), ("0X1D00FFFF", 0x1D00FFFF),
        (" 0x1d00ffff ", 0x1D00FFFF), ("010", 10), ("486604799", 0x1D00FFFF),
    ])
    def test_bits_hex_only_with_prefix(self, tmp_path, text, bits):
        p = tmp_path / "blocks.csv"
        p.write_text(f"height,timestamp,bits,miner_id\n7,1700000000,{text},alice\n")
        assert parse_blocks_csv(p)[0].bits == bits


def _filler(i):
    """A plain block row of exactly 32 characters with its newline."""
    return f"{i:06d},{1700000000 + 600 * i},0x1d00ffff,m{i % 7}\n"


FILLER_PER_CHUNK = _CHUNK_CHARS // len(_filler(0))


def _oracle_blocks(path):
    """Rows by ``csv.reader`` on every row, or the line of the first error in file order.

    A bad row is reported at the line on which it ends, a byte that is not
    UTF-8 at its own line: the bad row when it ends before the byte's line,
    else the byte.
    """
    data = path.read_bytes()
    reader = csv.reader(io.StringIO(data.decode(errors="surrogateescape"), newline=""))
    header = next(reader)
    at = [header.index(c) for c in BLOCK_FIELDS.split(",")]
    rows, bad = [], None
    try:
        for row in reader:
            if row:
                height, stamp, bits, miner = (row[i] for i in at)
                rows.append((int(height), int(stamp), _bits(bits), miner.strip()))
    except (IndexError, ValueError, csv.Error):
        bad = reader.line_num
    try:
        data.decode()
    except UnicodeDecodeError as exc:
        # splitlines ends lines where csv.reader does: "\r\n", "\r" and "\n"
        line = len((data[: exc.start] + b"x").splitlines())
        return bad if bad is not None and bad < line else line
    return rows if bad is None else bad


# a byte that is not UTF-8: the surrogate is written as the byte 0xff
NOT_UTF8 = "7,1700000000,0x1d00ffff,\udcff"
# 300 plain rows as one entry of the strategy, to set a bad row and a later byte far apart
GAP = "".join(map(_filler, range(300))).rstrip("\n")

# one irregular row or line, written with its own line ending
IRREGULAR = st.one_of(
    st.sampled_from([
        '7,1700000000,0x1d00ffff,"a,b"',  # quoted comma
        '7,1700000000,0x1d00ffff,"two\nlines"',  # quoted newline
        '"7",1700000000,0x1d00ffff,q',
        '7,1700000000,0x1d00ffff,"q"',
        "",  # blank line
        " 7 , 1700000000 , 0x1d00ffff , padded ",
        "7,1700000000,0x1d00ffff,m,8",  # long row
        "7,1700000000,0x1d00ffff",  # short row
        "7,1700000000,0x1d00ffff,nul\x00",
        "x,1700000000,0x1d00ffff,m",  # bad value
        "7,1700000000,0xzz,m",
        NOT_UTF8,
        GAP,
    ]),
    st.builds(lambda i: _filler(i).rstrip("\n"), st.integers(0, 99_999)),
)
ENDING = st.sampled_from(["\n", "\n", "\r\n", "\r"])


class TestPlainChunks:
    """Plain chunks split as bytes parse exactly as ``csv.reader`` rows."""

    @given(
        before=st.one_of(st.integers(0, 5), st.integers(FILLER_PER_CHUNK - 6, FILLER_PER_CHUNK + 3)),
        irregular=st.lists(st.tuples(IRREGULAR, ENDING), max_size=6),
        after=st.sampled_from([0, 1, FILLER_PER_CHUNK + 2]),
        final_newline=st.booleans(),
    )
    @example(before=FILLER_PER_CHUNK - 1,
             irregular=[("7,1700000000,0x1d00ffff,m,8", "\n"),
                        ("7,1700000000,0x1d00ffff", "\n")], after=3, final_newline=True)
    @example(before=FILLER_PER_CHUNK + 1, irregular=[('7,1700000000,0x1d00ffff,"q"', "\n")],
             after=0, final_newline=False)
    @example(before=FILLER_PER_CHUNK - 1,
             irregular=[("x,1700000000,0x1d00ffff,m", "\n"), (GAP, "\r\n"), (NOT_UTF8, "\n")],
             after=3, final_newline=True)
    @example(before=3, irregular=[(NOT_UTF8, "\r"), (GAP, "\n"), ("7,1700000000,0xzz,m", "\n")],
             after=FILLER_PER_CHUNK + 2, final_newline=True)
    @example(before=FILLER_PER_CHUNK + 1,
             irregular=[("7,1700000000,0x1d00ffff", "\n"), (NOT_UTF8, "\n")],
             after=1, final_newline=False)
    # a bad row on line 3 and a byte that is not UTF-8 on line 51
    @example(before=1,
             irregular=[("x,1700000000,0x1d00ffff,m", "\n"),
                        *((_filler(i).rstrip("\n"), "\n") for i in range(47)), (NOT_UTF8, "\n")],
             after=0, final_newline=True)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_as_csv_reader(self, tmp_path, before, irregular, after, final_newline):
        text = BLOCK_FIELDS + "\n" + "".join(map(_filler, range(before)))
        text += "".join(row + end for row, end in irregular)
        text += "".join(map(_filler, range(before, before + after)))
        if not final_newline:
            text = text.rstrip("\n")
        p = tmp_path / "blocks.csv"
        p.write_bytes(text.encode(errors="surrogateescape"))
        expected = _oracle_blocks(p)
        if isinstance(expected, int):
            with pytest.raises(ParseError) as err:
                parse_blocks_csv(p)
            assert err.value.line == expected
        else:
            assert _rows(parse_blocks_csv(p)) == expected

    def test_short_row_next_to_a_long_one(self, tmp_path):
        # 4 + 6 fields split as two rows of the header's 5 would convert
        # without error: only a per-line count sends this chunk to csv.reader
        p = tmp_path / "blocks.csv"
        p.write_text(f"{BLOCK_FIELDS},note\n1,2,3,a\n4,5,6,7,8,9\n")
        assert _rows(parse_blocks_csv(p)) == [(1, 2, 3, "a"), (4, 5, 6, "7")]

    def test_oversized_field_after_plain_chunks_reports_its_line(self, tmp_path):
        rows = [_filler(i) for i in range(3 * FILLER_PER_CHUNK)]
        k = 2 * FILLER_PER_CHUNK + 10
        rows[k] = rows[k].replace("m", "m" * 200_000)  # beyond the field size limit
        p = tmp_path / "blocks.csv"
        p.write_text(BLOCK_FIELDS + "\n" + "".join(rows))
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            parse_blocks_csv(p)
        assert err.value.line == k + 2

    def test_bad_value_before_a_non_utf8_byte_in_the_same_chunk(self, tmp_path):
        rows = [_filler(i).encode() for i in range(3 * FILLER_PER_CHUNK)]
        bad, byte = FILLER_PER_CHUNK + 50, FILLER_PER_CHUNK + 900
        rows[bad] = b"x" + rows[bad][1:]
        rows[byte] = rows[byte].replace(b"m", b"\xff")
        p = tmp_path / "blocks.csv"
        p.write_bytes(BLOCK_FIELDS.encode() + b"\n" + b"".join(rows))
        # the two rows share one plain chunk but not one decoder read-ahead
        assert 8192 < (byte - bad) * len(rows[0]) < _CHUNK_CHARS
        with pytest.raises(ParseError, match="invalid literal") as err:
            parse_blocks_csv(p)
        assert err.value.line == bad + 2

    def test_non_utf8_byte_in_the_third_chunk(self, tmp_path, monkeypatch):
        rows = [_filler(i).encode() for i in range(3 * FILLER_PER_CHUNK)]
        k = 2 * FILLER_PER_CHUNK + 1000
        rows[k] = rows[k].replace(b"m", b"\xff")
        p = tmp_path / "blocks.csv"
        p.write_bytes(BLOCK_FIELDS.encode() + b"\n" + b"".join(rows))
        heights = []

        def convert(path, chunk, *args):
            heights.extend(int(row[0]) for row in chunk)
            return plain_convert(path, chunk, *args)

        plain_convert = ingest._convert
        monkeypatch.setattr(ingest, "_convert", convert)
        with pytest.raises(ParseError, match="not UTF-8") as err:
            parse_blocks_csv(p)
        assert err.value.line == k + 2
        # csv.reader starts at the third chunk: the first two stay parsed
        assert heights and min(heights) >= 2 * FILLER_PER_CHUNK

    def test_lowered_field_size_limit_is_honoured(self, tmp_path):
        rows = [_filler(i) for i in range(100)]
        rows[60] = rows[60].replace("m", "m" * 40)
        p = tmp_path / "blocks.csv"
        p.write_text(BLOCK_FIELDS + "\n" + "".join(rows))
        old = csv.field_size_limit(24)
        try:
            with pytest.raises(ParseError, match="field larger than field limit") as err:
                parse_blocks_csv(p)
        finally:
            csv.field_size_limit(old)
        assert err.value.line == 62
        assert len(parse_blocks_csv(p)) == 100

    @pytest.mark.parametrize("text", ["name\na\n\nb\n", "name\r\na\r\nb\r\n"])
    def test_blank_line_and_crlf_with_an_unstripped_column(self, tmp_path, text):
        # the ingest converters strip fields, which would hide both
        p = tmp_path / "names.csv"
        p.write_bytes(text.encode())
        assert _read_csv(p, {"name": (str, object)}).name.tolist() == ["a", "b"]


# one column per conversion route: the int and float kernels and distinct
# fields; a fourth column is read by no converter
KERNEL_COLUMNS = {
    "i": (int, np.int64),
    "f": (float, np.float64),
    "s": (str.strip, object),
}
KERNEL_FIELDS = "i,f,s,note"


def _kernel_filler(k):
    """A row in every kernel's grammar, about 32 bytes with its newline."""
    return f"{k * 7919 % 10**9},{k % 977}.{k % 10_000:04d},pool{k % 40:02d},n{k % 3}\n"


KERNEL_ROWS_PER_CHUNK = _CHUNK_CHARS // len(_kernel_filler(10_000))

# numerals at the edges of each kernel's grammar, and ids at the edges of
# the 8-byte keys
INT_NUMERALS = [
    "007", "-0", "-007", "0", "123456789012345678", "-123456789012345678",
    "1234567890123456789", "-9223372036854775808", "9223372036854775807",
    "9223372036854775808", "+7", "1_000", " 7", "7 ", "\u0663\u0664", "x", "", "-", "--7",
]
FLOAT_NUMERALS = [
    ".5", "-.5", "5.", "-5.", "1e-3", "inf", "-inf", "nan", "-0.0", "-0", "0.000",
    "0.1234567890123456", "123456789.1234567", "1234567890123456", "9999999999999999",
    "96.48064786969077",  # 16 digits: m / 10^k would round twice
    "99999999999999.99", "0.30000000000000004", "1_0.5", "+1.5", "1..2", "1.2.",
    "-", ".", "-.", "",
]
IDS = [
    "pool07", "\u77ff\u6c60-1", "\u00f1and\u00fa", "AntPool-Europe-1", "abcdefgh1", "abcdefgh2",
    "1abcdefgh", "2abcdefgh", "x", " x", "x ", "", "m" * 63, "m" * 65, "\u0663",
]
INT_TEXTS = st.one_of(
    st.sampled_from(INT_NUMERALS), st.integers(-(10**18) + 1, 10**18 - 1).map(str)
)
FLOAT_TEXTS = st.one_of(
    st.sampled_from(FLOAT_NUMERALS),
    st.builds(
        lambda m, places, neg, zeros: (
            ("-" if neg else "") + "0" * zeros
            + (digits := str(m).rjust(places + 1, "0"))[: len(digits) - places]
            + ("." + digits[len(digits) - places :] if places else "")
        ),
        st.integers(0, 10**15 - 1), st.integers(0, 15), st.booleans(), st.integers(0, 2),
    ),
    st.floats(allow_nan=False).map(repr),
)
ID_TEXTS = st.sampled_from(IDS)


def _oracle_columns(path, columns):
    """Columns by ``csv.reader`` and the converters, or the line of the first error.

    Errors come in file order, and in a row column by column: a
    converter's error or an integer outside int64.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        position = {name: i for i, name in enumerate(next(reader))}
        rows = []
        for row in reader:
            if row:
                values = []
                for c, (convert, dtype) in columns.items():
                    try:
                        values.append(convert(row[position[c]]))
                    except (IndexError, ValueError):
                        return reader.line_num
                    if dtype == np.int64 and not -(2**63) <= values[-1] < 2**63:
                        return reader.line_num
                rows.append(values)
    return list(zip(*rows)) or [()] * len(columns)


def _check_kernels(path, table):
    """Write ``table`` under the kernel header; parse it as the oracle does."""
    path.write_bytes((KERNEL_FIELDS + "\n" + "".join(",".join(r) + "\n" for r in table)).encode())
    expected = _oracle_columns(path, KERNEL_COLUMNS)
    if isinstance(expected, int):
        with pytest.raises(ParseError) as err:
            _read_csv(path, KERNEL_COLUMNS)
        assert err.value.line == expected
        return
    parsed = _read_csv(path, KERNEL_COLUMNS)
    assert parsed.i.tolist() == list(expected[0])
    assert _bits_of(parsed.f) == _bits_of(expected[1])
    assert parsed.s.tolist() == list(expected[2])


def _bits_of(floats):
    """Float values as their bit patterns, so that -0.0 and NaN compare too."""
    return np.asarray(floats, np.float64).view(np.int64).tolist()


class TestLoneCarriageReturns:
    """Files whose lines end in a lone ``\\r`` are read in blocks, as ``\\r\\n`` files are."""

    ROWS = 8 * FILLER_PER_CHUNK  # 2 MiB: every read ends in a "\r", carried to the next block

    @staticmethod
    def write(tmp_path, end, rows):
        p = tmp_path / f"blocks-{len(end)}.csv"
        p.write_bytes(end.join([BLOCK_FIELDS.encode(), *rows, b""]))
        return p

    @staticmethod
    def peak(path):
        parse_blocks_csv(path)  # warm: first-call imports and caches are not the file's
        tracemalloc.start()
        try:
            rows = parse_blocks_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return _rows(rows), peak

    def test_peak_within_that_of_the_crlf_copy(self, tmp_path):
        rows = [_filler(i).rstrip("\n").encode() for i in range(self.ROWS)]
        cr_rows, cr_peak = self.peak(self.write(tmp_path, b"\r", rows))
        crlf_rows, crlf_peak = self.peak(self.write(tmp_path, b"\r\n", rows))
        assert cr_rows == crlf_rows and len(cr_rows) == self.ROWS
        # read as one block, the CR-only file peaked at 1.65x its CRLF copy
        assert cr_peak <= crlf_peak

    @pytest.mark.parametrize("bad, message", [(b"x", "invalid literal"), (b"\xff", "not UTF-8")])
    def test_crlf_across_two_reads_is_one_line_end(self, tmp_path, bad, message):
        # the first read of the data ends between the "\r" and the "\n"
        # of row k: cut there, the "\n" would count as one more line
        rows = [_filler(i).rstrip("\n").encode() for i in range(2 * FILLER_PER_CHUNK)]
        k = _CHUNK_CHARS // 33 - 1  # rows of 33 bytes before row k
        rows[k] = rows[k].ljust(_CHUNK_CHARS - 33 * k - 1, b"m")
        rows[k + 10] = bad + rows[k + 10][1:]
        p = self.write(tmp_path, b"\r\n", rows)
        data = p.read_bytes()[len(BLOCK_FIELDS) + 2:]
        assert data[_CHUNK_CHARS - 1 : _CHUNK_CHARS + 1] == b"\r\n"
        assert data[:_CHUNK_CHARS].count(b"\n") == k
        with pytest.raises(ParseError, match=message) as err:
            parse_blocks_csv(p)
        assert err.value.line == k + 12

    @pytest.mark.parametrize("k", [0, FILLER_PER_CHUNK - 1, FILLER_PER_CHUNK, 5 * FILLER_PER_CHUNK + 7])
    @pytest.mark.parametrize("bad, message", [(b"x", "invalid literal"),
                                              (b"\xff", "not UTF-8"),
                                              (b"9" * 20, "does not fit in int64"),
                                              (b"7" * 200_000, "field larger than field limit")])
    def test_error_lines(self, tmp_path, k, bad, message):
        rows = [_filler(i).rstrip("\n").encode() for i in range(self.ROWS)]
        rows[k] = bad + rows[k][6:]  # in place of the height
        for end in (b"\r", b"\r\n", b"\n"):
            with pytest.raises(ParseError, match=message) as err:
                parse_blocks_csv(self.write(tmp_path, end, rows))
            assert err.value.line == k + 2


class TestColumnKernels:
    """Each conversion route gives exactly the converter's values, errors and lines."""

    @given(
        rows=st.sampled_from([3, KERNEL_ROWS_PER_CHUNK - 2, 2 * KERNEL_ROWS_PER_CHUNK + 5]),
        edits=st.lists(
            st.tuples(st.floats(0, 1), st.sampled_from("ifs"),
                      st.one_of(INT_TEXTS, FLOAT_TEXTS, ID_TEXTS)),
            max_size=12,
        ),
    )
    # an integer outside int64 on line 2, before a bad float on line 4
    @example(rows=3, edits=[(0.0, "i", "9223372036854775808"), (1.0, "f", "x")])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_as_converters(self, tmp_path, rows, edits):
        table = [_kernel_filler(k).rstrip("\n").split(",") for k in range(rows)]
        for where, column, text in edits:
            table[int(where * (rows - 1))]["ifs".index(column)] = text
        _check_kernels(tmp_path / "kernels.csv", table)

    @pytest.mark.parametrize("column, text", [
        *(("i", t) for t in INT_NUMERALS), *(("f", t) for t in FLOAT_NUMERALS),
        *(("s", t) for t in IDS),
    ])
    def test_one_numeral_among_plain_rows(self, tmp_path, column, text):
        table = [_kernel_filler(k).rstrip("\n").split(",") for k in range(50)]
        table[25]["ifs".index(column)] = text
        _check_kernels(tmp_path / "kernels.csv", table)

    def test_ids_that_share_key_words(self, tmp_path):
        # equal in one 8-byte word and different in another, either way round
        ids = ["1abcdefgh", "2abcdefgh", "1zzzzzzzz", "abcdefgh", "a" * 24, "b" + "a" * 23,
               "a" * 16 + "b" * 8, "\u00e9" * 12, "\u00e9" * 11 + "e\u0301"]
        p = tmp_path / "ids.csv"
        p.write_text("s\n" + "".join(f"{ids[k * 7 % len(ids)]}\n" for k in range(1000)))
        parsed = _read_csv(p, {"s": (str, object)}).s
        assert parsed.tolist() == [ids[k * 7 % len(ids)] for k in range(1000)]

    def test_a_long_id_does_not_widen_the_key_windows(self, tmp_path):
        # its chunk goes to csv.reader, not into one window per row as wide
        # as the widest id (2,000 x 10,000 bytes)
        rows = [_filler(i) for i in range(2000)]
        rows[100] = rows[100].replace("m", "m" * 10_000)
        p = tmp_path / "blocks.csv"
        p.write_text(BLOCK_FIELDS + "\n" + "".join(rows))
        tracemalloc.start()
        try:
            blocks = parse_blocks_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(blocks.miner_id[100]) == 10_001
        assert peak < 2000 * 10_000 / 10

    def test_decimals_are_correctly_rounded(self, tmp_path):
        # every digit count and number of places the float kernel takes
        rng = np.random.default_rng(SUITE_SEED)
        texts = []
        for digits in range(1, 16):
            for m in rng.integers(0, 10**digits, 400).tolist():
                places = int(rng.integers(0, digits))
                text = str(m).rjust(digits, "0")
                sign = "-" if m % 3 == 0 else ""
                texts.append(f"{sign}{text[: digits - places]}.{text[digits - places :]}")
        p = tmp_path / "decimals.csv"
        p.write_text("f\n" + "\n".join(texts) + "\n")
        parsed = _read_csv(p, {"f": (float, np.float64)}).f
        assert _bits_of(parsed) == _bits_of(list(map(float, texts)))

    @pytest.mark.parametrize("value", [2**63 - 1, -(2**63), 2**63, -(2**63) - 1])
    def test_int64_bounds_deep_inside_a_plain_chunk(self, tmp_path, value):
        rows = [_filler(i) for i in range(3 * FILLER_PER_CHUNK)]
        k = FILLER_PER_CHUNK + FILLER_PER_CHUNK // 2
        rows[k] = f"{k:06d},{value},0x1d00ffff,m\n"
        p = tmp_path / "blocks.csv"
        p.write_text(BLOCK_FIELDS + "\n" + "".join(rows))
        if -(2**63) <= value < 2**63:
            blocks = parse_blocks_csv(p)
            assert blocks.timestamp[k] == value and blocks.timestamp.dtype == np.int64
            assert blocks.timestamp[k + 1] == 1700000000 + 600 * (k + 1)
        else:
            with pytest.raises(ParseError, match=f"{value} does not fit in int64") as err:
                parse_blocks_csv(p)
            assert err.value.line == k + 2


class TestBuildPeriodRecord:
    def test_fixture_record_matches_oracle(self, dataset_dir):
        blocks = parse_blocks_csv(dataset_dir / "blocks.csv")
        stales = parse_stale_csv(dataset_dir / "stale.csv")
        prop = parse_propagation_csv(dataset_dir / "propagation.csv")
        series = parse_hashrate_csv(dataset_dir / "hashrate.csv")
        periods, _ = segment_periods(blocks)
        rec = build_period_record(periods[1], stales, prop, series, 1)
        assert rec.index == 1
        assert rec.counts.n == 35
        assert tuple(sorted(rec.counts.counts, reverse=True)) == REFERENCE_COUNTS
        assert sum(rec.counts.counts) == 20000
        assert rec.fork_rate_empirical == pytest.approx(0.0041328, rel=1e-9)
        assert rec.prop_p50 == pytest.approx(0.815)
        assert rec.prop_p90 == pytest.approx(2.0)
        assert rec.prop_p99 == pytest.approx(9.0)

    def test_propagation_outside_span_ignored(self):
        blocks = make_blocks(100)
        t0 = blocks[0].timestamp
        rows = np.rec.fromrecords([
            (t0 - 10_000, 100.0, 200.0, 300.0),  # before span
            (t0 + 50, 1.0, 2.0, 3.0),
        ], names=PROPAGATION_FIELDS)
        series = {
            dt.datetime.fromtimestamp(t0, dt.timezone.utc).date(): 1.7e18,
        }
        rec = build_period_record(blocks, NO_STALES, rows, series, 0)
        assert rec.prop_p50 == 1.0

    def test_no_propagation_in_span(self):
        blocks = make_blocks(10)
        with pytest.raises(EmptyPeriod):
            build_period_record(
                blocks, NO_STALES,
                np.rec.fromrecords([(0, 1.0, 2.0, 3.0)], names=PROPAGATION_FIELDS),
                {dt.datetime.fromtimestamp(blocks[0].timestamp, dt.timezone.utc).date(): 1.7e18},
                0,
            )

    def test_single_miner_period_unusable_downstream(self):
        blocks = make_blocks(50, miner="solo")
        t0 = blocks[0].timestamp
        series = {dt.datetime.fromtimestamp(t0, dt.timezone.utc).date(): 1.7e18}
        rec = build_period_record(
            blocks, NO_STALES,
            np.rec.fromrecords([(t0 + 1, 1.0, 2.0, 3.0)], names=PROPAGATION_FIELDS), series, 0
        )
        assert rec.counts.n == 1
        miners = estimate_hash_rates(rec.counts, rec.lambda_total)
        with pytest.raises(DegenerateMinerSet):
            conditional_fork_rate(miners, 1.0)

    def test_count_blocks_by_miner_ordering(self):
        blocks = np.rec.fromrecords([
            (0, 0, REFERENCE_BITS, "b"),
            (1, 1, REFERENCE_BITS, "a"),
            (2, 2, REFERENCE_BITS, "b"),
        ], names=BLOCK_FIELDS)
        ids, counts = count_blocks_by_miner(blocks)
        assert ids == ("a", "b")
        assert counts.counts == (1, 2)
