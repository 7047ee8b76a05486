"""Golden regression values for the semi-empirical engine and the pipeline.

The files under ``tests/golden/`` pin the semi-empirical fork rates over a
zero-miner/delay grid and the full synthetic 3-period pipeline report.
Refactors of the transform and fork-rate code must reproduce them: fork
rates to 1e-12 relative, every other report field exactly.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from forkcast.cli import main
from forkcast.estimate import add_zero_miners
from forkcast.forkrate import fork_rate_semi_empirical
from forkcast.model import BlockCounts, SemiEmpiricalIID, SemiEmpiricalINID
from forkcast.synthetic import REFERENCE_COUNTS, REFERENCE_LAMBDA, write_dataset

GOLDEN = Path(__file__).parent / "golden"
ZERO_MINERS = (0, 5, 20, 100, 315)
DELAYS = (1e-3, 0.815, 2.0, 9.0)
FAMILIES = "exp,lognormal,tpl,semi,semi-inid"
REL = 1e-12


def semi_rates() -> list[dict]:
    base = BlockCounts(REFERENCE_COUNTS)
    gamma = base.total / REFERENCE_LAMBDA
    rows = []
    for k in ZERO_MINERS:
        counts = add_zero_miners(base, k)
        for kind, cls in (("iid", SemiEmpiricalIID), ("inid", SemiEmpiricalINID)):
            for d0 in DELAYS:
                value = fork_rate_semi_empirical(cls(counts, gamma), d0).value
                rows.append({"zero_miners": k, "kind": kind, "delta0": d0, "value": value})
    return rows


def pipeline_report(workdir: Path) -> dict:
    """Synthetic 3-period report, input paths reduced to file names."""
    paths = write_dataset(workdir / "data", periods=3)
    out = workdir / "report.json"
    argv = ["pipeline", "--families", FAMILIES, "--out", str(out)]
    for name, path in paths.items():
        argv += [f"--{name}", str(path)]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    for entry in doc["inputs"].values():
        entry["path"] = Path(entry["path"]).name
    return doc


def _split_rates(doc: dict):
    """Pop every model fork rate out of a report; returns the flat list."""
    rates = []
    for entry in doc["periods"]:
        for family, per_pct in sorted(entry.pop("model_fork_rates").items()):
            rates += [(entry["index"], family, pct, v) for pct, v in sorted(per_pct.items())]
    return rates


def test_semi_empirical_rates_match_golden():
    golden = json.loads((GOLDEN / "semi_rates.json").read_text())
    got = semi_rates()
    assert [{**r, "value": None} for r in got] == [{**r, "value": None} for r in golden]
    for g, want in zip(got, golden):
        assert g["value"] == pytest.approx(want["value"], rel=REL, abs=0.0), g


def test_pipeline_report_matches_golden(tmp_path, capsys):
    golden = json.loads((GOLDEN / "pipeline_report.json").read_text())
    got = pipeline_report(tmp_path)
    capsys.readouterr()
    got_rates, want_rates = _split_rates(got), _split_rates(golden)
    assert got == golden
    assert [r[:3] for r in got_rates] == [r[:3] for r in want_rates]
    for g, want in zip(got_rates, want_rates):
        assert g[3] == pytest.approx(want[3], rel=REL, abs=0.0), g


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "semi_rates.json").write_text(json.dumps(semi_rates(), indent=1) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        doc = pipeline_report(Path(tmp))
    (GOLDEN / "pipeline_report.json").write_text(json.dumps(doc, indent=1) + "\n")
