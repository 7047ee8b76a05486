#!/usr/bin/env python3
"""Regenerate ``reference.json``: the profile pool and every expected output.

Run from the repository root at the commit whose outputs are the
reference (under a minute on two cores):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import probe  # noqa: E402
import workloads as wl  # noqa: E402

POOL_SEED = 20241115
BAND_GRID = [0.815, 2.0, 9.0]  # the pipeline's p50 / p90 / p99 delays
BAND_SAMPLES = 100  # the API minimum
BAND_SEED = 11


def pipeline_reference(pool: list[dict], work: Path) -> dict:
    from forkcast import cli

    entries: list[dict | None] = [None] * len(pool)
    header = None
    groups = [list(range(k, k + gen.PERIODS_PER_DATASET))
              for k in range(0, len(pool), gen.PERIODS_PER_DATASET)]
    for g, members in enumerate(groups):
        paths = gen.write_dataset(work / f"ref{g}", pool, members, POOL_SEED, g)
        report = work / f"ref{g}" / "report.json"
        argv = ["pipeline", "--families", wl.FAMILIES, "--out", str(report)]
        for name, path in paths.items():
            argv += [f"--{name}", str(path)]
        with contextlib.redirect_stderr(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"reference pipeline failed on group {g}")
        doc = json.loads(report.read_text())
        for entry, idx in zip(doc["periods"], members):
            if "error" in entry:
                raise SystemExit(f"profile {idx} failed: {entry['error']}")
            entries[idx] = {k: v for k, v in entry.items() if k != "index"}
        header = {k: v for k, v in doc.items() if k not in ("inputs", "periods")}
    return {"profiles": pool, "entries": entries, "header": header}


def main() -> int:
    from forkcast.estimate import (add_zero_miners, confidence_band, estimate_hash_rates,
                                   fit_moments, method_of_moments)
    from forkcast.forkrate import (conditional_fork_rate, fork_rate_iid,
                                   fork_rate_semi_empirical)
    from forkcast.model import BlockCounts, SemiEmpiricalIID, SemiEmpiricalINID
    from forkcast.synthetic import REFERENCE_COUNTS, REFERENCE_LAMBDA

    counts = BlockCounts(REFERENCE_COUNTS)
    gamma = counts.total / REFERENCE_LAMBDA
    rng = gen.rng_for(POOL_SEED, 0)
    pool = [gen.make_profile(rng, REFERENCE_COUNTS) for _ in range(gen.POOL_SIZE)]

    ref: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        ref["pipeline"] = pipeline_reference(pool, Path(tmp))

    band = {"grid": BAND_GRID, "samples": BAND_SAMPLES, "point": {}, "full": {}}
    for fam in ("lognormal", "exp"):
        out = confidence_band(counts, REFERENCE_LAMBDA, fam, BAND_GRID, BAND_SAMPLES, seed=BAND_SEED)
        band["point"][fam] = list(out.point)
        band["full"][fam] = {"seed": BAND_SEED, "lower": list(out.lower), "upper": list(out.upper)}
    ref["band"] = band

    ref["scan"] = {}
    for k in wl.SCAN_ZEROS:
        c = add_zero_miners(counts, k)
        for kind, cls in (("iid", SemiEmpiricalIID), ("inid", SemiEmpiricalINID)):
            for d0 in wl.SCAN_DELAYS:
                ref["scan"][wl.scan_key(kind, k, d0)] = fork_rate_semi_empirical(cls(c, gamma), d0).value

    env = wl.setup("validate", wl.SIZES["full"])
    ref["validate"] = {name: env["fork_rate"](model, wl.VALIDATE_D0).value
                       for name, model in env["models"].items()}

    mp = fit_moments(counts, REFERENCE_LAMBDA)
    big = add_zero_miners(counts, probe.N_ZERO_LARGE)
    d0 = probe.D0
    ref["forkrate"] = {
        **{f"iid_{f}": fork_rate_iid(method_of_moments(mp, f), counts.n, d0).value
           for f in ("exp", "tpl", "lognormal")},
        "semi_iid": fork_rate_semi_empirical(SemiEmpiricalIID(counts, gamma), d0).value,
        "semi_inid": fork_rate_semi_empirical(SemiEmpiricalINID(counts, gamma), d0).value,
        "semi_iid_n350": fork_rate_semi_empirical(SemiEmpiricalIID(big, gamma), d0).value,
        "semi_inid_n350": fork_rate_semi_empirical(SemiEmpiricalINID(big, gamma), d0).value,
        "conditional": conditional_fork_rate(estimate_hash_rates(counts, REFERENCE_LAMBDA), d0).value,
    }

    out = HERE / "reference.json"
    out.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
