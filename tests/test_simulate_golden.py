"""Golden regression values for the Monte Carlo simulator.

``tests/golden/simulate.json`` pins every field of ``SimOutcome`` for fixed
rates, i.i.d. null families and an independent population of distinct
families, with and without per-round rate resampling.  The semi-empirical
i.i.d. and independent models run on the reference counts plus 20
zero-count miners, so their posterior draws cover zero and positive counts
alike, both through the one normal-then-uniform kernel of
``PosteriorTransform.sample_counts``.  These random streams are part of the
reproducibility contract: a refactor of the sampler must reproduce them bit
for bit.  They hold for the SFC64 streams spawned from the seed, one per
row block, each drawing its rates and then its exponentials, so they also
pin ``simulate.BLOCK_ELEMENTS``.  The statistical checks of the
semi-empirical models live in ``test_acceptance.py``.

Regenerate (only when a stream change is intended) with::

    PYTHONPATH=src python tests/test_simulate_golden.py
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from forkcast.model import (
    BlockCounts,
    Fixed,
    IIDNull,
    INIDNull,
    MinerSet,
    SemiEmpiricalIID,
    SemiEmpiricalINID,
)
from forkcast.quadrature import Exponential, LogNormal, TruncatedPowerLaw
from forkcast.simulate import SimConfig, simulate_fork_rate
from forkcast.synthetic import REFERENCE_COUNTS, REFERENCE_LAMBDA

GOLDEN = Path(__file__).parent / "golden" / "simulate.json"
ROUNDS = 100_000  # partial last row blocks: 5 blocks at n = 3, 16 at n = 10, 153 at n = 100
SEMI_COUNTS = BlockCounts(REFERENCE_COUNTS + (0,) * 20)
SEMI_GAMMA = SEMI_COUNTS.total / REFERENCE_LAMBDA
MODELS = {
    "fixed": Fixed(MinerSet([0.001, 0.0007, 0.0002])),
    "iid-exp": IIDNull(Exponential(20000.0), 10),
    "iid-lognormal": IIDNull(LogNormal(-10.7, 1.27), 10),
    "iid-tpl": IIDNull(TruncatedPowerLaw(0.75, 5000.0), 10),
    "iid-exp-n100": IIDNull(Exponential(20000.0), 100),
    "inid-distinct": INIDNull(
        (Exponential(15000.0), TruncatedPowerLaw(0.5, 1e4), LogNormal(-10.7, 1.2))
    ),
    "semi-iid": SemiEmpiricalIID(SEMI_COUNTS, SEMI_GAMMA),
    "semi-inid": SemiEmpiricalINID(SEMI_COUNTS, SEMI_GAMMA),
}
DELTA0 = {"fixed": 100.0}  # every other model at 8.7 s
CASES = [(name, resample) for name in MODELS for resample in (True, False)]


def outcome(name: str, resample: bool) -> dict:
    seed = 1000 + sorted(MODELS).index(name)
    cfg = SimConfig(MODELS[name], DELTA0.get(name, 8.7), ROUNDS, seed,
                    threads=1, resample_rates=resample)
    return {"model": name, "resample_rates": resample, **asdict(simulate_fork_rate(cfg))}


@pytest.fixture(scope="module")
def golden() -> dict:
    rows = json.loads(GOLDEN.read_text())
    return {(r["model"], r["resample_rates"]): r for r in rows}


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name, resample", CASES)
def test_outcome_matches_golden_bit_for_bit(golden, name, resample):
    assert outcome(name, resample) == golden[(name, resample)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([outcome(*c) for c in CASES], indent=1) + "\n")
