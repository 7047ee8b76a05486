"""Command-line interface.

Subcommands: fit, forkrate, simulate, implied, band, pipeline.  JSON is
the machine interface, CSV the plot-data interface; nothing is rendered.

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
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .errors import ForkcastError, ParseError
from .estimate import (
    FAMILY_KINDS,
    add_zero_miners,
    confidence_band,
    estimate_hash_rates,
    fit_moments,
    method_of_moments,
)
from .forkrate import (
    _iid_curve,
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

FIT_FAMILIES = FAMILY_KINDS + ("semi-iid", "semi-inid")


# ---------------------------------------------------------------------------
# Model JSON (the wire format between fit / forkrate / simulate)
# ---------------------------------------------------------------------------


def family_to_json(family) -> dict:
    if isinstance(family, Exponential):
        return {"kind": "exp", "rate": family.rate}
    if isinstance(family, LogNormal):
        return {"kind": "lognormal", "mu": family.mu, "sigma": family.sigma}
    if isinstance(family, TruncatedPowerLaw):
        return {"kind": "tpl", "alpha": family.alpha, "beta": family.beta}
    raise TypeError(f"unknown family {family!r}")


def family_from_json(doc: dict):
    kind = doc.get("kind")
    if kind == "exp":
        return Exponential(float(doc["rate"]))
    if kind == "lognormal":
        return LogNormal(float(doc["mu"]), float(doc["sigma"]))
    if kind == "tpl":
        return TruncatedPowerLaw(float(doc["alpha"]), float(doc["beta"]))
    raise ValueError(f"unknown family kind {kind!r}")


def model_to_json(model: HashRateModel) -> dict:
    doc: dict = {"schema_version": MODEL_SCHEMA_VERSION}
    if isinstance(model, Fixed):
        doc.update(kind="fixed", lambdas=list(model.miners.lambdas))
    elif isinstance(model, IIDNull):
        doc.update(kind="iid-null", family=family_to_json(model.family), n=model.n)
    elif isinstance(model, SemiEmpiricalIID):
        doc.update(kind="semi-iid", counts=list(model.counts.counts), gamma=model.gamma)
    elif isinstance(model, SemiEmpiricalINID):
        doc.update(kind="semi-inid", counts=list(model.counts.counts), gamma=model.gamma)
    else:
        raise TypeError(f"unsupported model {model!r}")
    return doc


def model_from_json(doc: dict) -> HashRateModel:
    kind = doc.get("kind")
    if kind == "fixed":
        return Fixed(MinerSet([float(x) for x in doc["lambdas"]]))
    if kind == "iid-null":
        return IIDNull(family_from_json(doc["family"]), doc["n"])
    if kind == "semi-iid":
        return SemiEmpiricalIID(BlockCounts(doc["counts"]), float(doc["gamma"]))
    if kind == "semi-inid":
        return SemiEmpiricalINID(BlockCounts(doc["counts"]), float(doc["gamma"]))
    raise ValueError(f"unknown model kind {kind!r}")


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


def _counts_from_blocks(path: str) -> BlockCounts:
    _, counts = count_blocks_by_miner(parse_blocks_csv(path))
    return counts


def _print_json(doc: dict, out=None):
    (out or sys.stdout).write(json.dumps(doc, indent=2) + "\n")


def _num(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    counts = _counts_from_blocks(args.blocks)
    if args.zero_miners:
        counts = add_zero_miners(counts, args.zero_miners)
    lam = args.lambda_total
    mp = fit_moments(counts, lam)
    notes: list[str] = []
    doc: dict = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "n": counts.n,
        "m": mp.m,
        "s": mp.s,
        "hhi": hhi_from_counts(counts),
        "lambda_total": lam,
        "gamma": counts.total / lam,
        "notes": notes,
    }
    if args.family in ("semi-iid", "semi-inid"):
        model = (
            SemiEmpiricalIID(counts, counts.total / lam)
            if args.family == "semi-iid"
            else SemiEmpiricalINID(counts, counts.total / lam)
        )
        doc.update(model_to_json(model))
    else:
        family = method_of_moments(mp, args.family)
        if args.family == "exp":
            mismatch = abs(mp.s - mp.m) / mp.m
            if mismatch > 1e-9:
                notes.append(
                    f"exp fit uses the mean only; |s - m|/m = {mismatch:.6g}"
                )
        if args.family == "tpl" and mp.s <= mp.m:
            notes.append("s <= m gives a non-positive tpl shape exponent alpha")
        doc.update(model_to_json(IIDNull(family, counts.n)))
    _print_json(doc)
    return EXIT_OK


def _resolve_forkrate_model(args) -> HashRateModel:
    if args.model:
        return _load_model(args.model)
    if not args.blocks or args.lambda_total is None:
        raise ParseError("<args>", 0, "need --model or (--blocks and --lambda)")
    counts = _counts_from_blocks(args.blocks)
    return Fixed(estimate_hash_rates(counts, args.lambda_total))


def cmd_forkrate(args) -> int:
    model = _resolve_forkrate_model(args)
    fixed = isinstance(model, Fixed)
    if args.method in ("conditional", "taylor") and not fixed:
        raise ForkcastError(f"--method {args.method} needs a fixed-rate model")
    if args.method == "quadrature" and fixed:
        raise ForkcastError("--method quadrature needs a distributional model")
    if args.method == "taylor":
        total, hhi_value = model.miners.total, hhi_from_counts(model.miners)
        curve = [taylor_fork_rate(total, hhi_value, d0) for d0 in args.delta0]
    elif args.method == "quadrature" and isinstance(model, IIDNull):
        # the generic path, not the closed form that auto prefers
        curve = _iid_curve(model, args.delta0, "quadrature")
    else:
        curve = fork_rate_curve(model, args.delta0)
    out = sys.stdout
    out.write("delta0,fork_rate,error_estimate,method\n")
    for d0, res in zip(args.delta0, curve):
        out.write(
            f"{_num(d0)},{_num(res.value)},{_num(res.error_estimate)},{res.method}\n"
        )
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
        else:
            doc["z_score"] = 0.0 if outcome.fork_rate == analytic.value else math.inf
    _print_json(doc)
    return EXIT_OK


def cmd_implied(args) -> int:
    if args.quantity == "delta":
        res = implied_delta0(args.forkrate, args.lambda_total, args.hhi)
        doc = {
            "quantity": "delta0",
            "value": res.value,
            "valid": res.valid,
            "fork_rate": args.forkrate,
            "lambda_total": args.lambda_total,
            "hhi": args.hhi,
        }
    else:
        res = implied_hhi(args.forkrate, args.lambda_total, args.delta0)
        doc = {
            "quantity": "hhi",
            "value": res.value,
            "valid": res.valid,
            "fork_rate": args.forkrate,
            "lambda_total": args.lambda_total,
            "delta0": args.delta0,
        }
    _print_json(doc)
    return EXIT_OK


def cmd_band(args) -> int:
    counts = _counts_from_blocks(args.blocks)
    band = confidence_band(
        counts,
        args.lambda_total,
        args.family,
        args.delta0_grid,
        args.samples,
        percentiles=args.percentiles,
        seed=args.seed,
    )
    out = sys.stdout
    out.write("delta0,lower,point,upper\n")
    for d0, lo, pt, up in zip(band.delta0_grid, band.lower, band.point, band.upper):
        out.write(f"{_num(d0)},{_num(lo)},{_num(pt)},{_num(up)}\n")
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
    gamma = counts.total / lam
    delays = {"p50": record.prop_p50, "p90": record.prop_p90, "p99": record.prop_p99}

    model_rates: dict[str, dict[str, float]] = {}
    for fam_kind in families:
        if fam_kind in ("semi", "semi-iid"):
            model: HashRateModel = SemiEmpiricalIID(counts, gamma)
            label = "semi"
        elif fam_kind == "semi-inid":
            model = SemiEmpiricalINID(counts, gamma)
            label = "semi-inid"
        else:
            model = IIDNull(method_of_moments(mp, fam_kind), counts.n)
            label = fam_kind
        curve = fork_rate_curve(model, list(delays.values()))
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


def _report_csv_rows(doc: dict):
    yield (
        "period,n_miners,lambda_total,block_time,hhi,fork_rate_empirical,"
        "family,delay_percentile,delta0,model_fork_rate,"
        "implied_delta0,implied_delta0_valid,implied_hhi,implied_hhi_valid"
    )
    for entry in doc["periods"]:
        if "error" in entry:
            continue
        for family, per_pct in entry["model_fork_rates"].items():
            for pct, value in per_pct.items():
                yield ",".join(
                    [
                        str(entry["index"]),
                        str(entry["n_miners"]),
                        _num(entry["lambda_total"]),
                        _num(entry["block_time"]),
                        _num(entry["hhi"]),
                        _num(entry["fork_rate_empirical"]),
                        family,
                        pct,
                        _num(entry["propagation"][pct]),
                        _num(value),
                        _num(entry["implied_delta0"]["value"]),
                        str(entry["implied_delta0"]["valid"]).lower(),
                        _num(entry["implied_hhi"]["value"]),
                        str(entry["implied_hhi"]["valid"]).lower(),
                    ]
                )


_PIPELINE_FAMILIES = FAMILY_KINDS + ("semi", "semi-iid", "semi-inid")


def _families(text: str) -> list[str]:
    """The ``--families`` list; an unknown name is a usage error, found before any ingest."""
    families = [f.strip() for f in text.split(",") if f.strip()]
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


def _period_length(text: str) -> int:
    """The ``--period-length``: an integer >= 1, a usage error found before any ingest."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
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
            name: {"path": str(path), "sha256": _sha256(path)}
            for name, path in [
                ("blocks", args.blocks),
                ("stale", args.stale),
                ("propagation", args.propagation),
                ("hashrate", args.hashrate),
            ]
        },
        "period_length": args.period_length,
        "remainder_blocks": len(remainder),
        "families": args.families,
        "periods": entries,
    }

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    csv_path = out_path.with_suffix(".csv")
    with csv_path.open("w", encoding="utf-8") as fh:
        for line in _report_csv_rows(doc):
            fh.write(line + "\n")

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
    p.add_argument("--zero-miners", type=int, default=0, metavar="K",
                   help="append K miners with zero mined blocks before fitting")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forkrate", help="analytic fork rates for a model")
    p.add_argument("--model", help="model JSON path (from 'fit')")
    p.add_argument("--blocks", help="blocks.csv path (fixed-rate model)")
    p.add_argument("--lambda", dest="lambda_total", type=float,
                   help="total hash rate, blocks/s (with --blocks)")
    p.add_argument("--delta0", type=_delays, required=True,
                   help="comma-separated propagation delays, seconds")
    p.add_argument("--method", choices=("auto", "quadrature", "taylor", "conditional"),
                   default="auto")
    p.set_defaults(func=cmd_forkrate)

    p = sub.add_parser("simulate", help="Monte Carlo fork-rate experiment")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--delta0", type=float, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=0,
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
    p.add_argument("--family", choices=FAMILY_KINDS, required=True)
    p.add_argument("--delta0-grid", type=_delays, required=True,
                   help="comma-separated delays, seconds")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--percentiles", type=_percentiles, default="5,95")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_band)

    p = sub.add_parser("pipeline", help="period-wise report over the four data files")
    p.add_argument("--blocks", required=True)
    p.add_argument("--stale", required=True)
    p.add_argument("--propagation", required=True)
    p.add_argument("--hashrate", required=True)
    p.add_argument("--out", required=True, help="report JSON path (CSV twin beside it)")
    p.add_argument("--families", type=_families, default="exp,lognormal,tpl,semi")
    p.add_argument("--period-length", type=_period_length, default=PERIOD_LENGTH)
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
