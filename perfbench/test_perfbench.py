"""Self-tests of the benchmark harness (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import gen  # noqa: E402
import workloads as wl  # noqa: E402
from spans import NullTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]
    assert any(line.startswith("error_rate ") for line in lines)


def _failures(workload: str, ref: dict) -> list[str]:
    size = wl.SIZES["tiny"]
    tally = run.Tally()
    workdir = ROOT / "perfbench" / "out" / f"selftest-{workload}"
    run.reset_dir(workdir)
    try:
        w = wl.WORKLOADS[workload](ref, size, wl.setup(workload, size), workdir)
        for error in w.precheck():
            tally.fail(error)
        run.timed_phase(w, 5, 0.0, tally, NullTracer())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return tally.errors


def _perturb_scan(ref):
    key = wl.scan_key("inid", 5, 2.0)
    ref["scan"][key] *= 1 + 1e-6


def _perturb_pipeline(ref):
    first = gen.partition(5, 0)[0][0]
    rates = ref["pipeline"]["entries"][first]["model_fork_rates"]["lognormal"]
    rates["p90"] *= 1 + 1e-6


def _perturb_validate(ref):
    ref["validate"]["semi_iid"] *= 1 + 1e-6


@pytest.mark.parametrize("workload,perturb", [
    ("scan", _perturb_scan), ("pipeline", _perturb_pipeline), ("validate", _perturb_validate),
])
def test_perturbed_reference_raises_error_rate(workload, perturb):
    assert _failures(workload, REFERENCE) == []
    ref = json.loads(json.dumps(REFERENCE))
    perturb(ref)
    assert _failures(workload, ref)


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    pool = REFERENCE["pipeline"]["profiles"]
    members = gen.partition(9, 0)[0]
    files = []
    for out, seed in ((tmp_path / "a", 9), (tmp_path / "b", 9), (tmp_path / "c", 10)):
        paths = gen.write_dataset(out, pool, members, seed, 0)
        files.append({k: p.read_bytes() for k, p in paths.items()})
    assert files[0] == files[1]
    assert files[0]["blocks"] != files[2]["blocks"]
    assert gen.partition(9, 0) == gen.partition(9, 0) != gen.partition(10, 0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
