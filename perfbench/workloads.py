"""The four benchmark workloads and their reference checks.

Each workload is a single-client closed loop: the next operation starts
when the previous one returns.  Operations come in *passes*, the smallest
unit with a fixed mix of work, so a run always measures whole passes:

* ``pipeline``  one pass = 3 ``forkcast pipeline`` commands, each on its own
  6-period dataset; together they use every profile of the pool once.
* ``band``      one pass = 1 ``confidence_band`` call (lognormal, 100 draws).
* ``scan``      one pass = 40 ``fork_rate_semi_empirical`` calls, shuffled.
* ``validate``  one pass = 4 ``simulate_fork_rate`` calls, one per model.

Only public ``forkcast`` functions are called, always with the program's
default thread count.  Inputs come from the workload seed; every output is
checked against ``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import gen

REL_TOL = 1e-9  # the program's default QuadratureConfig.rel_tol
Z_LIMIT = 5.0
FAMILIES = "exp,lognormal,tpl,semi,semi-inid"
SCAN_ZEROS = (0, 5, 20, 100, 315)
SCAN_DELAYS = (1e-3, 0.815, 2.0, 9.0)
VALIDATE_N = 35
VALIDATE_D0 = 2.0
LOGNORMAL_MS = (5e-5, 1e-4)  # method-of-moments operating point (m, s)


@dataclass(frozen=True)
class Size:
    """Problem sizes; ``tiny`` exists for the benchmark's self-tests."""

    name: str
    datasets_per_pass: int
    periods_per_dataset: int
    band_family: str
    scan_zeros: tuple
    scan_delays: tuple
    validate_rounds: int
    probe_rounds: int
    probe_periods: int
    probe_reps: int


SIZES = {
    "full": Size("full", gen.DATASETS_PER_PASS, gen.PERIODS_PER_DATASET, "lognormal",
                 SCAN_ZEROS, SCAN_DELAYS, 1 << 18, 1 << 17, 2, 5),
    "tiny": Size("tiny", 1, 1, "exp", (0, 5), (1e-3, 2.0), 1 << 12, 1 << 12, 1, 1),
}


def rel_err(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / abs(ref) if ref else math.inf


def scan_key(kind: str, n_zero: int, d0: float) -> str:
    return f"{kind}:{n_zero}:{d0!r}"


def derived_seed(seed: int, *stream: int) -> int:
    return int(gen.rng_for(seed, *stream).integers(1 << 62))


def default_threads() -> int:
    """Thread count the program picks when none is given (cli and simulate)."""
    return int(os.environ.get("FORKCAST_THREADS", "0") or 0) or min(8, os.cpu_count() or 1)


@dataclass
class Op:
    """One operation: ``run(tracer)`` returns an output that ``check`` judges."""

    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None]


# ---------------------------------------------------------------------------
# Set-up: imports and model construction through the program's constructors
# ---------------------------------------------------------------------------


def setup(workload: str, size: Size) -> dict:
    """Everything a workload needs from ``forkcast`` before its timed phase."""
    from forkcast.synthetic import REFERENCE_COUNTS, REFERENCE_LAMBDA

    if workload == "pipeline":
        from forkcast import cli

        cli.build_parser()
        return {"cli": cli}
    from forkcast.model import BlockCounts

    counts = BlockCounts(REFERENCE_COUNTS)
    gamma = counts.total / REFERENCE_LAMBDA
    if workload == "band":
        from forkcast.estimate import confidence_band, fit_moments, method_of_moments

        method_of_moments(fit_moments(counts, REFERENCE_LAMBDA), size.band_family)
        return {"counts": counts, "confidence_band": confidence_band}
    if workload == "scan":
        from forkcast.estimate import add_zero_miners
        from forkcast.forkrate import fork_rate_semi_empirical
        from forkcast.model import SemiEmpiricalIID, SemiEmpiricalINID

        models = {}
        for k in size.scan_zeros:
            c = add_zero_miners(counts, k)
            models[("iid", k)] = SemiEmpiricalIID(c, gamma)
            models[("inid", k)] = SemiEmpiricalINID(c, gamma)
        return {"models": models, "fork_rate_semi_empirical": fork_rate_semi_empirical}
    if workload == "validate":
        from forkcast.estimate import MomentPair, estimate_hash_rates, method_of_moments
        from forkcast.forkrate import fork_rate
        from forkcast.model import Fixed, IIDNull, SemiEmpiricalIID, SemiEmpiricalINID
        from forkcast.simulate import SimConfig, simulate_fork_rate

        family = method_of_moments(MomentPair(*LOGNORMAL_MS), "lognormal")
        models = {
            "lognormal": IIDNull(family, VALIDATE_N),
            "semi_iid": SemiEmpiricalIID(counts, gamma),
            "semi_inid": SemiEmpiricalINID(counts, gamma),
            "fixed": Fixed(estimate_hash_rates(counts, REFERENCE_LAMBDA)),
        }
        SimConfig(models["fixed"], VALIDATE_D0, size.validate_rounds, 0)
        return {"models": models, "SimConfig": SimConfig,
                "simulate_fork_rate": simulate_fork_rate, "fork_rate": fork_rate}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, ref: dict, size: Size, env: dict, workdir: Path):
        self.ref = ref
        self.size = size
        self.env = env
        self.workdir = workdir

    def precheck(self) -> list[str]:
        """Checks made once, outside the timed phase; returns failures."""
        return []

    def descriptors(self) -> dict:
        return {}

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        raise NotImplementedError


def check_report(ref: dict, report_path: Path, paths: dict, members: list[int]) -> str | None:
    """Compare a pipeline report with the stored per-profile entries."""
    with open(report_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    header = ref["pipeline"]["header"]
    for key, want in header.items():
        if doc.get(key) != want:
            return f"report field {key}: {doc.get(key)!r} != {want!r}"
    for name, path in paths.items():
        want = {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        if doc["inputs"].get(name) != want:
            return f"report input {name} does not match the file"
    if len(doc["periods"]) != len(members):
        return f"{len(doc['periods'])} periods reported, {len(members)} expected"
    profiles = ref["pipeline"]["entries"]
    for k, (entry, idx) in enumerate(zip(doc["periods"], members)):
        want = dict(profiles[idx], index=k)
        got_rates = entry.get("model_fork_rates", {})
        want_rates = want["model_fork_rates"]
        if {**entry, "model_fork_rates": None} != {**want, "model_fork_rates": None}:
            return f"period {k} (profile {idx}) differs outside model_fork_rates"
        if set(got_rates) != set(want_rates):
            return f"period {k}: families {sorted(got_rates)}"
        for fam, per_pct in want_rates.items():
            if set(got_rates[fam]) != set(per_pct):
                return f"period {k} {fam}: percentiles {sorted(got_rates[fam])}"
            for pct, value in per_pct.items():
                if rel_err(got_rates[fam][pct], value) > REL_TOL:
                    return f"period {k} {fam} {pct}: {got_rates[fam][pct]!r} != {value!r}"
    csv_rows = report_path.with_suffix(".csv").read_text(encoding="utf-8").count("\n")
    expected_rows = 1 + sum(len(v) for e in doc["periods"] for v in e["model_fork_rates"].values())
    if csv_rows != expected_rows:
        return f"report CSV has {csv_rows} lines, expected {expected_rows}"
    return None


class Pipeline(Workload):
    name = "pipeline"

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        pool = self.ref["pipeline"]["profiles"]
        groups = gen.partition(seed, index)[: self.size.datasets_per_pass]
        ops = []
        for k, group in enumerate(groups):
            members = group[: self.size.periods_per_dataset]
            out = self.workdir / f"pass{index}-{k}"
            paths = gen.write_dataset(out, pool, members, seed, index * 100 + k)
            ops.append(self._op(out / "report.json", paths, members))
        return ops

    def _op(self, report: Path, paths: dict, members: list[int]) -> Op:
        argv = ["pipeline", "--families", FAMILIES, "--out", str(report)]
        for name, path in paths.items():
            argv += [f"--{name}", str(path)]
        cli = self.env["cli"]

        def run(tr):
            with tr.span("cli.main"), contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)

        def check(code):
            if code != 0:
                return f"pipeline exited with {code}"
            return check_report(self.ref, report, paths, members)

        return Op("pipeline", run, check)

    def descriptors(self) -> dict:
        pool = self.ref["pipeline"]["profiles"]
        sizes = [len(p["counts"]) for p in pool]
        per = self.size.periods_per_dataset
        return {
            "datasets_per_pass": self.size.datasets_per_pass,
            "periods_per_dataset": per,
            "rows_per_dataset": per * gen.BLOCKS_PER_PERIOD + gen.REMAINDER_BLOCKS,
            "miners_per_period": [min(sizes), max(sizes)],
            "one_block_miners_per_period": [min(p["counts"].count(1) for p in pool),
                                            max(p["counts"].count(1) for p in pool)],
            "families": FAMILIES,
        }


class Band(Workload):
    name = "band"

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        from forkcast.synthetic import REFERENCE_LAMBDA

        ref = self.ref["band"]
        fam = self.size.band_family
        op_seed = derived_seed(seed, 3, index)
        band = self.env["confidence_band"]
        counts = self.env["counts"]

        def run(tr):
            with tr.span("estimate.confidence_band"):
                return band(counts, REFERENCE_LAMBDA, fam, ref["grid"], ref["samples"], seed=op_seed)

        def check(out):
            return check_band(out, ref, fam, op_seed)

        return [Op("band", run, check)]

    def descriptors(self) -> dict:
        ref = self.ref["band"]
        return {"family": self.size.band_family, "samples": ref["samples"], "grid": ref["grid"],
                "integrals_per_op": (ref["samples"] + 1) * len(ref["grid"])}


def check_band(out, ref: dict, fam: str, op_seed: int) -> str | None:
    point = ref["point"][fam]
    if len(out.point) != len(point):
        return "band grid length differs"
    for got, want in zip(out.point, point):
        if rel_err(got, want) > REL_TOL:
            return f"band point {got!r} != {want!r}"
    for lo, pt, up in zip(out.lower, out.point, out.upper):
        if not (0.0 <= lo <= pt <= up <= 1.0):
            return f"band not ordered in [0, 1]: {lo!r}, {pt!r}, {up!r}"
    full = ref["full"].get(fam)
    if full and op_seed == full["seed"]:
        for side in ("lower", "upper"):
            for got, want in zip(getattr(out, side), full[side]):
                if rel_err(got, want) > REL_TOL:
                    return f"band {side} {got!r} != {want!r}"
    return None


class Scan(Workload):
    name = "scan"

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        calls = [(kind, k, d0) for kind in ("iid", "inid")
                 for k in self.size.scan_zeros for d0 in self.size.scan_delays]
        order = gen.rng_for(seed, 4, index).permutation(len(calls))
        fn = self.env["fork_rate_semi_empirical"]
        models = self.env["models"]
        ops = []
        for i in order.tolist():
            kind, k, d0 = calls[i]
            want = self.ref["scan"][scan_key(kind, k, d0)]
            ops.append(self._op(fn, models[(kind, k)], d0, want))
        return ops

    @staticmethod
    def _op(fn, model, d0: float, want: float) -> Op:
        def run(tr):
            with tr.span("forkrate.fork_rate_semi_empirical"):
                return fn(model, d0).value

        def check(value):
            if rel_err(value, want) > REL_TOL:
                return f"scan {model.counts.n} miners d0={d0!r}: {value!r} != {want!r}"
            return None

        return Op("scan", run, check)

    def descriptors(self) -> dict:
        shares = {
            k: gen.duplicate_share(self.env["models"][("iid", k)].counts.counts)
            for k in self.size.scan_zeros
        }
        return {
            "calls_per_pass": 2 * len(self.size.scan_zeros) * len(self.size.scan_delays),
            "miners": [self.env["models"][("iid", k)].counts.n for k in self.size.scan_zeros],
            "scan.duplicate_share": {str(k): v for k, v in shares.items()},
            "scan.duplicate_share_mean": sum(shares.values()) / len(shares),
        }


class Validate(Workload):
    name = "validate"
    ORDER = ("lognormal", "semi_iid", "semi_inid", "fixed")

    def precheck(self) -> list[str]:
        fork_rate = self.env["fork_rate"]
        self.analytic = {}
        errors = []
        for name in self.ORDER:
            value = fork_rate(self.env["models"][name], VALIDATE_D0).value
            want = self.ref["validate"][name]
            if rel_err(value, want) > REL_TOL:
                errors.append(f"analytic {name}: {value!r} != {want!r}")
            self.analytic[name] = value
        return errors

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        return [
            sim_op(self.env, name, self.analytic[name], self.size.validate_rounds,
                   derived_seed(seed, 5, index, j))
            for j, name in enumerate(self.ORDER)
        ]

    def descriptors(self) -> dict:
        return {"n": VALIDATE_N, "delta0": VALIDATE_D0, "rounds": self.size.validate_rounds,
                "rounds_x_n": self.size.validate_rounds * VALIDATE_N, "models": list(self.ORDER)}


def sim_op(env: dict, name: str, analytic: float, rounds: int, seed: int) -> Op:
    cfg = env["SimConfig"](env["models"][name], VALIDATE_D0, rounds, seed)
    simulate = env["simulate_fork_rate"]

    def run(tr):
        with tr.span("simulate.simulate_fork_rate"):
            return simulate(cfg)

    def check(out):
        if out.stderr > 0:
            z = (out.fork_rate - analytic) / out.stderr
        else:
            z = 0.0 if out.fork_rate == analytic else math.inf
        if not abs(z) <= Z_LIMIT:
            return f"simulate {name}: z = {z:.2f} against {analytic!r}"
        return None

    return Op(f"simulate.{name}", run, check)


WORKLOADS = {w.name: w for w in (Pipeline, Band, Scan, Validate)}
