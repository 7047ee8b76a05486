"""Traced per-layer probe: fixed public calls into every measured layer.

Every traced run executes the same probe, so each per-layer metric has a
value whatever the workload.  Spans are recorded by the benchmark around
the calls it makes; nothing inside ``forkcast`` is instrumented.  The one
exception to "time it" is ``quadrature.gk_points``, which is counted by
handing ``fork_rate_inid`` proxies of ``PosteriorTransform`` through its
documented "anything exposing the log-transform interface" contract.
"""

from __future__ import annotations

import contextlib
import io
import statistics
from pathlib import Path

import numpy as np

import gen
from workloads import (
    FAMILIES,
    REL_TOL,
    VALIDATE_N,
    Validate,
    check_band,
    check_report,
    default_threads,
    rel_err,
    setup,
    sim_op,
)

D0 = 2.0  # the validate operating point, shared by every n = 35 probe
N_ZERO_LARGE = 315  # 35 + 315 = 350 miners
PROBE_SEED = 7
# RNG draws per (round, miner) cell, per simulated model
DRAWS_PER_CELL = {"lognormal": 2, "semi_iid": 3, "semi_inid": 2, "fixed": 1}


class Probe:
    def __init__(self, tr, ref: dict, size, workdir: Path):
        self.tr = tr
        self.ref = ref
        self.size = size
        self.workdir = workdir
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.errors: list[str] = []

    def _check(self, error: str | None):
        self.attempted += 1
        if error:
            self.errors.append(error)

    def _timed(self, name: str, fn, reps: int):
        """Run ``fn`` ``reps`` times under spans; returns (last value, median s)."""
        times = []
        for _ in range(reps):
            with self.tr.span(name) as s:
                value = fn()
            times.append(s.duration)
        return value, statistics.median(times)

    def run(self) -> dict[str, tuple[float, str]]:
        self.pipeline()
        self.band()
        self.forkrate()
        self.quadrature()
        self.simulate()
        return self.metrics

    # ------------------------------------------------------------------ ingest, estimate, cli

    def pipeline(self):
        from forkcast import cli, ingest
        from forkcast.estimate import fit_moments, method_of_moments
        from forkcast.forkrate import fork_rate, hhi_from_counts, implied_delta0, implied_hhi
        from forkcast.model import IIDNull, SemiEmpiricalIID, SemiEmpiricalINID

        tr = self.tr
        members = list(range(self.size.probe_periods))
        out = self.workdir / "probe-pipeline"
        paths = gen.write_dataset(out, self.ref["pipeline"]["profiles"], members, PROBE_SEED, 0)
        report = out / "report.json"
        argv = ["pipeline", "--families", FAMILIES, "--out", str(report)]
        for name, path in paths.items():
            argv += [f"--{name}", str(path)]
        with tr.trace("probe.pipeline"), tr.span("cli.main") as run_span:
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        self._check(f"pipeline exited with {code}" if code else
                    check_report(self.ref, report, paths, members))

        # replay the call sequence of the pipeline command, one public call per span
        with tr.trace("probe.replay") as replay:
            with tr.span("ingest.parse_blocks_csv") as blocks_span:
                blocks = ingest.parse_blocks_csv(paths["blocks"])
            with tr.span("ingest.parse_stale_csv") as s1:
                stales = ingest.parse_stale_csv(paths["stale"])
            with tr.span("ingest.parse_propagation_csv") as s2:
                prop = ingest.parse_propagation_csv(paths["propagation"])
            with tr.span("ingest.parse_hashrate_csv") as s3:
                rates = ingest.parse_hashrate_csv(paths["hashrate"])
            with tr.span("ingest.segment_periods") as seg:
                periods, _ = ingest.segment_periods(blocks)
            record_s, fit_s = [], []
            for idx, chunk in enumerate(periods):
                with tr.span("ingest.build_period_record") as s:
                    record = ingest.build_period_record(chunk, stales, prop, rates, idx)
                record_s.append(s.duration)
                counts, lam = record.counts, record.lambda_total
                with tr.span("estimate.fit_moments") as s:
                    mp = fit_moments(counts, lam)
                fit = s.duration
                gamma = counts.total / lam
                models = {}
                for kind in ("exp", "lognormal", "tpl"):
                    with tr.span("estimate.method_of_moments") as s:
                        models[kind] = IIDNull(method_of_moments(mp, kind), counts.n)
                    fit += s.duration
                fit_s.append(fit)
                models["semi"] = SemiEmpiricalIID(counts, gamma)
                models["semi-inid"] = SemiEmpiricalINID(counts, gamma)
                for model in models.values():
                    for d0 in (record.prop_p50, record.prop_p90, record.prop_p99):
                        with tr.span("forkrate.fork_rate"):
                            fork_rate(model, d0)
                with tr.span("forkrate.hhi_from_counts"):
                    h = hhi_from_counts(counts)
                with tr.span("forkrate.implied_delta0"):
                    implied_delta0(record.fork_rate_empirical, lam, h)
                with tr.span("forkrate.implied_hhi"):
                    implied_hhi(record.fork_rate_empirical, lam, record.prop_p50)
        replayed = sum(s.duration for s in tr.spans
                       if s.trace == replay.trace and s.parent == replay.id)

        m = self.metrics
        m["ingest.blocks_rows_per_s"] = (len(blocks) / blocks_span.duration, "1/s")
        m["ingest.other_parse_s"] = (s1.duration + s2.duration + s3.duration, "s")
        m["ingest.segment_ms"] = (seg.duration * 1e3, "ms")
        m["ingest.record_ms"] = (statistics.fmean(record_s) * 1e3, "ms")
        m["estimate.fit_ms"] = (statistics.fmean(fit_s) * 1e3, "ms")
        m["cli.pipeline_s"] = (run_span.duration, "s")
        m["cli.self_s"] = (run_span.duration - replayed, "s")

    def band(self):
        from forkcast.estimate import confidence_band
        from forkcast.model import BlockCounts
        from forkcast.synthetic import REFERENCE_COUNTS, REFERENCE_LAMBDA

        ref = self.ref["band"]
        fam = self.size.band_family
        seed = ref["full"][fam]["seed"]
        counts = BlockCounts(REFERENCE_COUNTS)
        with self.tr.trace("probe.band"), self.tr.span("estimate.confidence_band") as s:
            out = confidence_band(counts, REFERENCE_LAMBDA, fam, ref["grid"], ref["samples"], seed=seed)
        self._check(check_band(out, ref, fam, seed))
        self.metrics["estimate.band_s"] = (s.duration, "s")
        points = (ref["samples"] + 1) * len(ref["grid"])
        self.metrics["estimate.band_point_ms"] = (s.duration / points * 1e3, "ms")

    # ------------------------------------------------------------------ forkrate

    def forkrate(self):
        from forkcast.estimate import (add_zero_miners, estimate_hash_rates, fit_moments,
                                       method_of_moments)
        from forkcast.forkrate import (conditional_fork_rate, fork_rate_iid,
                                       fork_rate_semi_empirical)
        from forkcast.model import BlockCounts, SemiEmpiricalIID, SemiEmpiricalINID
        from forkcast.synthetic import REFERENCE_COUNTS, REFERENCE_LAMBDA

        counts = BlockCounts(REFERENCE_COUNTS)
        big = add_zero_miners(counts, N_ZERO_LARGE)
        gamma = counts.total / REFERENCE_LAMBDA
        mp = fit_moments(counts, REFERENCE_LAMBDA)
        miners = estimate_hash_rates(counts, REFERENCE_LAMBDA)
        reps = self.size.probe_reps
        calls = {
            "iid_exp": (lambda f=method_of_moments(mp, "exp"): fork_rate_iid(f, counts.n, D0), 4 * reps, "ms"),
            "iid_tpl": (lambda f=method_of_moments(mp, "tpl"): fork_rate_iid(f, counts.n, D0), 4 * reps, "ms"),
            "iid_lognormal": (lambda f=method_of_moments(mp, "lognormal"): fork_rate_iid(f, counts.n, D0), reps, "ms"),
            "semi_iid": (lambda: fork_rate_semi_empirical(SemiEmpiricalIID(counts, gamma), D0), 2 * reps, "ms"),
            "semi_inid": (lambda: fork_rate_semi_empirical(SemiEmpiricalINID(counts, gamma), D0), 2 * reps, "ms"),
            "semi_iid_n350": (lambda: fork_rate_semi_empirical(SemiEmpiricalIID(big, gamma), D0), reps, "ms"),
            "semi_inid_n350": (lambda: fork_rate_semi_empirical(SemiEmpiricalINID(big, gamma), D0), reps, "ms"),
            "conditional": (lambda: conditional_fork_rate(miners, D0), 40 * reps, "us"),
        }
        worst = 0.0
        with self.tr.trace("probe.forkrate"):
            for name, (fn, n, unit) in calls.items():
                res, t = self._timed(f"forkrate.{name}", fn, n)
                err = rel_err(res.value, self.ref["forkrate"][name])
                self._check(None if err <= REL_TOL else f"forkrate {name}: rel err {err:.3g}")
                worst = max(worst, err)
                self.metrics[f"forkrate.{name}_{unit}"] = (t * (1e3 if unit == "ms" else 1e6), unit)
        self.metrics["forkrate.max_rel_err"] = (worst, "fraction")

    # ------------------------------------------------------------------ quadrature

    def quadrature(self):
        from forkcast.estimate import fit_moments, method_of_moments
        from forkcast.forkrate import fork_rate_inid
        from forkcast.model import BlockCounts
        from forkcast.quadrature import (LogNormalTransform, PosteriorTransform,
                                         integrate_semi_infinite, posterior_mixture)
        from forkcast.synthetic import REFERENCE_COUNTS, REFERENCE_LAMBDA

        counts = BlockCounts(REFERENCE_COUNTS)
        gamma = counts.total / REFERENCE_LAMBDA
        fam = method_of_moments(fit_moments(counts, REFERENCE_LAMBDA), "lognormal")
        transform = LogNormalTransform(fam.mu, fam.sigma)
        # the 15 points of one outer segment on (0, scale): x = scale t / (1 - t), t in (0, 1/2)
        t = np.linspace(0.02, 0.48, 15)
        x = t / (1.0 - t) / (35 * transform.mean())
        reps = self.size.probe_reps

        def lognormal_transform():
            return (transform.log_laplace(x), transform.log_laplace_weighted(x),
                    transform.log_laplace_decrement(x, D0))

        def mixtures():
            out = []
            for c in (counts.counts, counts.counts + (0,) * N_ZERO_LARGE):
                mix = posterior_mixture(c, gamma)
                out.append((mix.log_laplace(x), mix.log_laplace_weighted(x),
                            mix.log_laplace_decrement(x, D0)))
            return out

        def integrate():
            return integrate_semi_infinite(lambda u: np.exp(-u))

        proxies = [CountingTransform(PosteriorTransform(b, gamma)) for b in counts.counts]
        with self.tr.trace("probe.quadrature"):
            _, t_ln = self._timed("quadrature.LogNormalTransform", lognormal_transform, 2 * reps)
            _, t_mix = self._timed("quadrature.posterior_mixture", mixtures, 4 * reps)
            one, t_int = self._timed("quadrature.integrate_semi_infinite", integrate, 20 * reps)
            with self.tr.span("forkrate.fork_rate_inid"):
                res = fork_rate_inid(proxies, D0)
        self._check(None if abs(one - 1.0) <= REL_TOL else f"integral of exp(-x) = {one!r}")
        err = rel_err(res.value, self.ref["forkrate"]["semi_inid"])
        self._check(None if err <= REL_TOL else f"counted semi-inid rate: rel err {err:.3g}")
        m = self.metrics
        m["quadrature.lognormal_transform_ms"] = (t_ln * 1e3, "ms")
        m["quadrature.posterior_mixture_us"] = (t_mix * 1e6, "us")
        m["quadrature.integrate_us"] = (t_int * 1e6, "us")
        m["quadrature.gk_points"] = (proxies[0].points, "count")

    # ------------------------------------------------------------------ simulate

    def simulate(self):
        env = setup("validate", self.size)
        validate = Validate(self.ref, self.size, env, self.workdir)
        for error in validate.precheck():
            self._check(error)
        rounds = self.size.probe_rounds
        draws, busy = 0, 0.0
        with self.tr.trace("probe.simulate"):
            for j, name in enumerate(Validate.ORDER):
                op = sim_op(env, name, validate.analytic[name], rounds, PROBE_SEED + j)
                out = op.run(self.tr)
                span = self.tr.spans[-1]
                self._check(op.check(out))
                self.metrics[f"simulate.rounds_per_s.{name}"] = (rounds / span.duration, "1/s")
                draws += rounds * VALIDATE_N * DRAWS_PER_CELL[name]
                busy += span.duration
        # computed from rounds x miners x draws per cell, not counted by the program
        self.metrics["simulate.draws_per_s"] = (draws / busy, "1/s")
        self.metrics["simulate.threads"] = (default_threads(), "count")


class CountingTransform:
    """Forwards the log-transform interface and counts integrand points."""

    def __init__(self, inner):
        self.inner = inner
        self.points = 0

    def log_laplace(self, s):
        self.points += np.size(s)
        return self.inner.log_laplace(s)

    def log_laplace_weighted(self, s):
        return self.inner.log_laplace_weighted(s)

    def log_laplace_decrement(self, s, d):
        return self.inner.log_laplace_decrement(s, d)

    def mean(self):
        return self.inner.mean()

