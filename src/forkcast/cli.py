"""Command-line interface.

Subcommands: fit, forkrate, simulate, implied, band, pipeline.  JSON is
the machine interface, CSV the plot-data interface; nothing is rendered.
Every JSON output is standard JSON, with no ``NaN`` or ``Infinity``:
``simulate`` writes ``"z_score": null`` where z is undefined, when the
simulated stderr is 0 and the simulated and analytic rates differ.

Exit codes: 0 success, 2 input/parse problems, 3 numeric/fitting
failures, 4 internal errors.  Every command is deterministic given its
flags and input files (plus the seed where an RNG is involved).  Only
``simulate`` runs on several threads (``--threads``; the default 0
takes ``FORKCAST_THREADS`` when it is set, else up to 8 by CPU count);
``pipeline`` evaluates its periods in order on the calling thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .errors import ForkcastError, ParseError
from .estimate import (
    add_zero_miners,
    confidence_band,
    estimate_hash_rates,
    fit_moments,
    method_of_moments,
)
from .forkrate import (
    fork_rate,
    fork_rate_curve,
    hhi_from_counts,
    implied_delta0,
    implied_hhi,
    taylor_fork_rate,
)
from .ingest import (
    PERIOD_LENGTH,
    build_period_record,
    count_blocks_by_miner,
    parse_blocks_csv,
    parse_hashrate_csv,
    parse_propagation_csv,
    parse_stale_csv,
    segment_periods,
)
from .model import (
    BlockCounts,
    Fixed,
    HashRateModel,
    IIDNull,
    MinerSet,
    SemiEmpiricalIID,
    SemiEmpiricalINID,
)
from .quadrature import Exponential, LogNormal, TruncatedPowerLaw
from .simulate import SimConfig, simulate_fork_rate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

REPORT_SCHEMA_VERSION = 1
MODEL_SCHEMA_VERSION = 1

# every family and model by its JSON kind, in the order the flags list them
_FAMILIES = {"exp": Exponential, "lognormal": LogNormal, "tpl": TruncatedPowerLaw}
_POSTERIORS = {"semi-iid": SemiEmpiricalIID, "semi-inid": SemiEmpiricalINID}
_MODELS = {"fixed": Fixed, "iid-null": IIDNull, **_POSTERIORS}

FIT_FAMILIES = (*_FAMILIES, *_POSTERIORS)
# the pipeline also takes "semi", the name under which it reports semi-iid
_PIPELINE_FAMILIES = (*_FAMILIES, "semi", *_POSTERIORS)


# ---------------------------------------------------------------------------
# Model JSON (the wire format between fit / forkrate / simulate)
# ---------------------------------------------------------------------------


def _kind(obj, table: dict, unknown: str) -> str:
    for kind, cls in table.items():
        if isinstance(obj, cls):
            return kind
    raise TypeError(f"{unknown} {obj!r}")


def _class(doc: dict, table: dict, what: str) -> type:
    kind = doc.get("kind")  # a kind that is not a string, even a list, is unknown
    if not isinstance(kind, str) or kind not in table:
        raise ValueError(f"unknown {what} kind {kind!r}")
    return table[kind]


def family_to_json(family) -> dict:
    return {"kind": _kind(family, _FAMILIES, "unknown family"), **asdict(family)}


def family_from_json(doc: dict):
    cls = _class(doc, _FAMILIES, "family")
    return cls(*(float(doc[f.name]) for f in fields(cls)))


def _same(value):
    return value


# each model field: its JSON key, how it is written, and how it is read back
# (``n`` as it stands, so that IIDNull itself rejects a non-integer)
_MODEL_FIELDS = {
    "miners": ("lambdas", lambda miners: list(miners.lambdas),
               lambda lambdas: MinerSet([float(x) for x in lambdas])),
    "family": ("family", family_to_json, family_from_json),
    "n": ("n", _same, _same),
    "counts": ("counts", lambda counts: list(counts.counts), BlockCounts),
    "gamma": ("gamma", _same, float),
}


def model_to_json(model: HashRateModel) -> dict:
    doc: dict = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": _kind(model, _MODELS, "unsupported model"),
    }
    for f in fields(model):
        key, write, _ = _MODEL_FIELDS[f.name]
        doc[key] = write(getattr(model, f.name))
    return doc


def model_from_json(doc: dict) -> HashRateModel:
    cls = _class(doc, _MODELS, "model")
    codecs = (_MODEL_FIELDS[f.name] for f in fields(cls))
    return cls(*(read(doc[key]) for key, _, read in codecs))


def _load_model(path: str) -> HashRateModel:
    """The model in a JSON file; a document of the wrong shape is a :class:`ParseError`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ParseError(path, 0, f"a model is a JSON object, got a {type(doc).__name__}")
    try:
        return model_from_json(doc)
    except KeyError as exc:
        raise ParseError(path, 0, f"the model lacks the key {exc.args[0]!r}") from None
    except ForkcastError:
        raise  # a parameter out of its range
    except (AttributeError, TypeError, ValueError) as exc:
        # an unknown model or family kind, or a value that is not a number
        raise ParseError(path, 0, f"malformed model: {exc}") from None


def _fitted_model(kind: str, counts: BlockCounts, lambda_total: float, moments) -> HashRateModel:
    """Model ``kind`` for one set of counts: a null family fitted to ``moments``, or a posterior."""
    if kind in _FAMILIES:
        return IIDNull(method_of_moments(moments, kind), counts.n)
    return _POSTERIORS[kind](counts, counts.total / lambda_total)


def _json(doc: dict) -> str:
    """Standard JSON: indented, with a trailing newline; NaN or infinity is a ValueError."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _csv(*values) -> str:
    """One CSV line: floats by ``repr``, booleans as ``true``/``false``, the rest by ``str``."""
    return ",".join(
        repr(float(v)) if isinstance(v, float)
        else ("true" if v else "false") if isinstance(v, bool)
        else str(v)
        for v in values
    ) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    _, counts = count_blocks_by_miner(parse_blocks_csv(args.blocks))
    if args.zero_miners:
        counts = add_zero_miners(counts, args.zero_miners)
    lam = args.lambda_total
    mp = fit_moments(counts, lam)
    model = _fitted_model(args.family, counts, lam, mp)
    notes: list[str] = []
    mismatch = abs(mp.s - mp.m) / mp.m
    if args.family == "exp" and mismatch > 1e-9:
        notes.append(f"exp fit uses the mean only; |s - m|/m = {mismatch:.6g}")
    if args.family == "tpl" and mp.s <= mp.m:
        notes.append("s <= m gives a non-positive tpl shape exponent alpha")
    doc: dict = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "n": counts.n,
        "m": mp.m,
        "s": mp.s,
        "hhi": hhi_from_counts(counts),
        "lambda_total": lam,
        "gamma": counts.total / lam,
        "notes": notes,
        **model_to_json(model),
    }
    sys.stdout.write(_json(doc))
    return EXIT_OK


def _resolve_forkrate_model(args) -> HashRateModel:
    if args.model:
        return _load_model(args.model)
    if not args.blocks or args.lambda_total is None:
        raise ParseError("<args>", 0, "need --model or (--blocks and --lambda)")
    _, counts = count_blocks_by_miner(parse_blocks_csv(args.blocks))
    return Fixed(estimate_hash_rates(counts, args.lambda_total))


def cmd_forkrate(args) -> int:
    model = _resolve_forkrate_model(args)
    if args.method == "taylor":
        if not isinstance(model, Fixed):
            raise ForkcastError("--method taylor needs a fixed-rate model")
        total, hhi_value = model.miners.total, hhi_from_counts(model.miners)
        curve = [taylor_fork_rate(total, hhi_value, d0) for d0 in args.delta0]
    else:
        curve = fork_rate_curve(model, args.delta0)
    sys.stdout.write("delta0,fork_rate,error_estimate,method\n")
    for d0, res in zip(args.delta0, curve):
        sys.stdout.write(_csv(d0, res.value, res.error_estimate, res.method))
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    cfg = SimConfig(
        model=model,
        delta0=args.delta0,
        rounds=args.rounds,
        seed=args.seed,
        threads=args.threads,
        resample_rates=not args.fixed_rates,
    )
    outcome = simulate_fork_rate(cfg)
    doc = {
        "model": model_to_json(model),
        "delta0": args.delta0,
        "rounds": args.rounds,
        "seed": args.seed,
        **asdict(outcome),
    }
    if cfg.resample_rates or isinstance(model, Fixed):
        analytic = fork_rate(model, args.delta0)
        doc["analytic_fork_rate"] = analytic.value
        doc["analytic_method"] = analytic.method
        if outcome.stderr > 0:
            doc["z_score"] = (outcome.fork_rate - analytic.value) / outcome.stderr
        else:  # no spread: z is 0 on the analytic value and undefined off it
            doc["z_score"] = 0.0 if outcome.fork_rate == analytic.value else None
    sys.stdout.write(_json(doc))
    return EXIT_OK


def cmd_implied(args) -> int:
    if args.quantity == "delta":
        quantity, invert, given = "delta0", implied_delta0, {"hhi": args.hhi}
    else:
        quantity, invert, given = "hhi", implied_hhi, {"delta0": args.delta0}
    res = invert(args.forkrate, args.lambda_total, *given.values())
    doc = {"quantity": quantity, "value": res.value, "valid": res.valid,
           "fork_rate": args.forkrate, "lambda_total": args.lambda_total, **given}
    sys.stdout.write(_json(doc))
    return EXIT_OK


def cmd_band(args) -> int:
    _, counts = count_blocks_by_miner(parse_blocks_csv(args.blocks))
    band = confidence_band(
        counts,
        args.lambda_total,
        args.family,
        args.delta0_grid,
        args.samples,
        percentiles=args.percentiles,
        seed=args.seed,
    )
    sys.stdout.write("delta0,lower,point,upper\n")
    for row in zip(band.delta0_grid, band.lower, band.point, band.upper):
        sys.stdout.write(_csv(*row))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _period_entry(record, families: list[str]) -> dict:
    counts = record.counts
    lam = record.lambda_total
    mp = fit_moments(counts, lam)
    delays = {"p50": record.prop_p50, "p90": record.prop_p90, "p99": record.prop_p99}

    model_rates: dict[str, dict[str, float]] = {}
    for name in families:
        kind = "semi-iid" if name == "semi" else name
        curve = fork_rate_curve(_fitted_model(kind, counts, lam, mp), list(delays.values()))
        label = "semi" if kind == "semi-iid" else kind
        model_rates[label] = {pct: res.value for pct, res in zip(delays, curve)}

    hhi_value = hhi_from_counts(counts)
    imp_d0 = implied_delta0(record.fork_rate_empirical, lam, hhi_value)
    imp_h = implied_hhi(record.fork_rate_empirical, lam, record.prop_p50)
    return {
        "index": record.index,
        "n_miners": record.counts.n,
        "lambda_total": lam,
        "block_time": 1.0 / lam,
        "hhi": hhi_value,
        "m": mp.m,
        "s": mp.s,
        "fork_rate_empirical": record.fork_rate_empirical,
        "propagation": delays,
        "model_fork_rates": model_rates,
        "implied_delta0": {"value": imp_d0.value, "valid": imp_d0.valid},
        "implied_hhi": {
            "value": imp_h.value,
            "valid": imp_h.valid,
            "delta0_used": record.prop_p50,
        },
    }


def _report_csv(doc: dict) -> str:
    """The report's CSV twin: one line per period, model and delay percentile."""
    lines = [
        "period,n_miners,lambda_total,block_time,hhi,fork_rate_empirical,"
        "family,delay_percentile,delta0,model_fork_rate,"
        "implied_delta0,implied_delta0_valid,implied_hhi,implied_hhi_valid\n"
    ]
    for entry in doc["periods"]:
        if "error" in entry:
            continue
        period = [entry[key] for key in ("index", "n_miners", "lambda_total", "block_time",
                                         "hhi", "fork_rate_empirical")]
        implied = [entry[key][field] for key in ("implied_delta0", "implied_hhi")
                   for field in ("value", "valid")]
        for family, per_pct in entry["model_fork_rates"].items():
            for pct, value in per_pct.items():
                lines.append(
                    _csv(*period, family, pct, entry["propagation"][pct], value, *implied)
                )
    return "".join(lines)


def _families(text: str) -> list[str]:
    """The ``--families`` list; no name or an unknown one is a usage error, found before ingest."""
    families = [f.strip() for f in text.split(",") if f.strip()]
    if not families:
        raise argparse.ArgumentTypeError(f"no family in {text!r}")
    unknown = [f for f in families if f not in _PIPELINE_FAMILIES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown {', '.join(unknown)}; use {', '.join(_PIPELINE_FAMILIES)}"
        )
    return families


def _delays(text: str) -> list[float]:
    """A comma-separated delay list, in seconds, read before any model load or ingest.

    A field that is not a number, or no field at all, is a usage error;
    a number outside the delay domain (``-2``, ``nan``) fails later, as a
    numeric error.
    """
    delays = []
    for field in text.split(","):
        if field.strip():
            try:
                delays.append(float(field))
            except ValueError:
                raise argparse.ArgumentTypeError(f"not a number: {field!r}") from None
    if not delays:
        raise argparse.ArgumentTypeError(f"no delay in {text!r}")
    return delays


def _percentiles(text: str) -> tuple[float, float]:
    """The ``--percentiles`` pair, read before any ingest; ``confidence_band`` checks its range."""
    try:
        low, high = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"need two numbers low,high, got {text!r}") from None
    return low, high


def _integer(minimum: int):
    """An argparse type: an integer >= ``minimum``, else a usage error found before any ingest."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _seed(text: str) -> int:
    """An argparse type: an RNG seed in [0, 2**128), else a usage error found before any ingest."""
    value = _integer(0)(text)
    if value >= 1 << 128:
        raise argparse.ArgumentTypeError(f"must be < 2**128, got {value}")
    return value


def cmd_pipeline(args) -> int:
    blocks = parse_blocks_csv(args.blocks)
    stales = parse_stale_csv(args.stale)
    propagation = parse_propagation_csv(args.propagation)
    hashrate = parse_hashrate_csv(args.hashrate)

    periods, remainder = segment_periods(blocks, args.period_length)
    if not periods:
        raise ForkcastError(
            f"no complete period of {args.period_length} blocks in {args.blocks}"
        )

    entries = []
    for idx, chunk in enumerate(periods):
        try:
            record = build_period_record(chunk, stales, propagation, hashrate, idx)
            entries.append(_period_entry(record, args.families))
        except ForkcastError as exc:
            entries.append({"index": idx, "error": str(exc)})

    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": {"name": "forkcast", "version": __version__},
        "inputs": {
            name: {"path": path, "sha256": _sha256(path)}
            for name in ("blocks", "stale", "propagation", "hashrate")
            for path in [getattr(args, name)]
        },
        "period_length": args.period_length,
        "remainder_blocks": len(remainder),
        "families": args.families,
        "periods": entries,
    }

    report = _json(doc)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(report, encoding="utf-8")
    csv_path = out_path.with_suffix(".csv")
    csv_path.write_text(_report_csv(doc), encoding="utf-8")

    succeeded = sum(1 for e in entries if "error" not in e)
    sys.stderr.write(
        f"wrote {out_path} and {csv_path}: {succeeded}/{len(entries)} periods ok\n"
    )
    return EXIT_OK if succeeded >= 1 else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forkcast",
        description=(
            "Fork-rate analytics for Proof-of-Work blockchains: fit hash-rate "
            "distributions, compute analytic fork probabilities, validate them "
            "by simulation, and run the period-wise data pipeline."
        ),
    )
    parser.add_argument("--version", action="version", version=f"forkcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a hash-rate model from per-miner block counts")
    p.add_argument("--blocks", required=True, help="blocks.csv path")
    p.add_argument("--lambda", dest="lambda_total", type=float, required=True,
                   help="total hash rate, blocks/s")
    p.add_argument("--family", choices=FIT_FAMILIES, required=True)
    p.add_argument("--zero-miners", type=_integer(0), default=0, metavar="K",
                   help="append K miners with zero mined blocks before fitting")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forkrate", help="analytic fork rates for a model")
    p.add_argument("--model", help="model JSON path (from 'fit')")
    p.add_argument("--blocks", help="blocks.csv path (fixed-rate model)")
    p.add_argument("--lambda", dest="lambda_total", type=float,
                   help="total hash rate, blocks/s (with --blocks)")
    p.add_argument("--delta0", type=_delays, required=True,
                   help="comma-separated propagation delays, seconds")
    p.add_argument("--method", choices=("auto", "taylor"), default="auto",
                   help="auto: conditional for fixed rates, else the population integral; "
                        "taylor: the first-order expansion, for fixed rates")
    p.set_defaults(func=cmd_forkrate)

    p = sub.add_parser("simulate", help="Monte Carlo fork-rate experiment")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--delta0", type=float, required=True)
    p.add_argument("--rounds", type=_integer(1), required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--threads", type=_integer(0), default=0,
                   help="worker threads; 0 (default) picks automatically")
    p.add_argument("--fixed-rates", action="store_true",
                   help="sample one rate vector per experiment instead of per round")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("implied", help="invert the first-order fork-rate relation")
    p.add_argument("quantity", choices=("delta", "hhi"))
    p.add_argument("--forkrate", type=float, required=True)
    p.add_argument("--lambda", dest="lambda_total", type=float, required=True)
    p.add_argument("--hhi", type=float, help="measured concentration (for 'delta')")
    p.add_argument("--delta0", type=float, help="assumed delay, seconds (for 'hhi')")
    p.set_defaults(func=cmd_implied)

    p = sub.add_parser("band", help="confidence band on the fork-rate curve")
    p.add_argument("--blocks", required=True)
    p.add_argument("--lambda", dest="lambda_total", type=float, required=True)
    p.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    p.add_argument("--delta0-grid", type=_delays, required=True,
                   help="comma-separated delays, seconds")
    p.add_argument("--samples", type=_integer(100), default=200)
    p.add_argument("--percentiles", type=_percentiles, default="5,95")
    p.add_argument("--seed", type=_seed, required=True)
    p.set_defaults(func=cmd_band)

    p = sub.add_parser("pipeline", help="period-wise report over the four data files")
    p.add_argument("--blocks", required=True)
    p.add_argument("--stale", required=True)
    p.add_argument("--propagation", required=True)
    p.add_argument("--hashrate", required=True)
    p.add_argument("--out", required=True, help="report JSON path (CSV twin beside it)")
    p.add_argument("--families", type=_families, default="exp,lognormal,tpl,semi")
    p.add_argument("--period-length", type=_integer(1), default=PERIOD_LENGTH)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "implied":
        if args.quantity == "delta" and args.hhi is None:
            parser.error("implied delta needs --hhi")
        if args.quantity == "hhi" and args.delta0 is None:
            parser.error("implied hhi needs --delta0")
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (ForkcastError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc!r}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
