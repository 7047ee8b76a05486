import json
import math

import jsonschema
import pytest

from forkcast import cli
from forkcast.cli import main, model_from_json, model_to_json
from forkcast.forkrate import (
    conditional_fork_rate,
    fork_rate_curve,
    fork_rate_iid,
    taylor_fork_rate,
)
from forkcast.ingest import parse_blocks_csv, segment_periods
from forkcast.model import (
    BlockCounts,
    Fixed,
    IIDNull,
    MinerSet,
    SemiEmpiricalIID,
    SemiEmpiricalINID,
)
from forkcast.quadrature import Exponential, LogNormal, TruncatedPowerLaw

from conftest import SUITE_SEED

SCHEMA_PATH = "docs/report.schema.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fitted_exp_model(tmp_path, dataset_dir, capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--blocks", str(dataset_dir / "blocks.csv"),
        "--lambda", "0.0017", "--family", "exp",
    )
    assert code == 0
    path = tmp_path / "model_exp.json"
    path.write_text(out)
    return path, json.loads(out)


class TestModelJson:
    def test_round_trip_all_kinds(self):
        models = [
            Fixed(MinerSet([0.001, 0.0007])),
            IIDNull(Exponential(2e4), 10),
            IIDNull(TruncatedPowerLaw(0.75, 5000.0), 5),
            IIDNull(LogNormal(-10.7, 1.27), 35),
            SemiEmpiricalIID(BlockCounts([5, 7]), 1e6),
            SemiEmpiricalINID(BlockCounts([0, 3]), 1e6),
        ]
        for model in models:
            assert model_from_json(model_to_json(model)) == model

    def test_wire_keys_in_order(self):
        head = ["schema_version", "kind"]
        assert list(model_to_json(Fixed(MinerSet([1e-3])))) == head + ["lambdas"]
        doc = model_to_json(IIDNull(LogNormal(-10.7, 1.27), 35))
        assert list(doc) == head + ["family", "n"]
        assert doc["family"] == {"kind": "lognormal", "mu": -10.7, "sigma": 1.27}
        doc = model_to_json(SemiEmpiricalINID(BlockCounts([0, 3]), 1e6))
        assert doc == {"schema_version": 1, "kind": "semi-inid", "counts": [0, 3], "gamma": 1e6}
        assert list(doc) == head + ["counts", "gamma"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model_from_json({"kind": "mystery"})


class TestFit:
    def test_equal_counts_exponential_rate(self, tmp_path, capsys):
        blocks = tmp_path / "blocks.csv"
        rows = ["height,timestamp,bits,miner_id"]
        for i in range(100):
            rows.append(f"{i},{1700000000 + 600 * i},0x1d00ffff,m{i % 4}")
        blocks.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "fit", "--blocks", str(blocks), "--lambda", "0.0017",
            "--family", "exp",
        )
        assert code == 0
        doc = json.loads(out)
        # equal counts: r = 1/m = n / lambda
        assert doc["family"]["rate"] == pytest.approx(4 / 0.0017)
        assert any("mean only" in n for n in doc["notes"])

    def test_fixture_tpl_matches_library(self, dataset_dir, capsys):
        from forkcast.estimate import fit_moments, method_of_moments
        from forkcast.ingest import count_blocks_by_miner, parse_blocks_csv

        code, out, _ = run_cli(
            capsys, "fit", "--blocks", str(dataset_dir / "blocks.csv"),
            "--lambda", "0.0017", "--family", "tpl",
        )
        assert code == 0
        doc = json.loads(out)
        _, counts = count_blocks_by_miner(parse_blocks_csv(dataset_dir / "blocks.csv"))
        fam = method_of_moments(fit_moments(counts, 0.0017), "tpl")
        assert doc["family"]["alpha"] == fam.alpha
        assert doc["family"]["beta"] == fam.beta
        assert doc["n"] == 35

    def test_zero_miners_flag(self, dataset_dir, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--blocks", str(dataset_dir / "blocks.csv"),
            "--lambda", "0.0017", "--family", "semi-inid", "--zero-miners", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 40
        assert doc["counts"].count(0) == 5

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "fit", "--blocks", "/does/not/exist.csv",
            "--lambda", "0.0017", "--family", "exp",
        )
        assert code == 2
        assert out == ""  # no partial output

    def test_short_row_exits_2_with_position(self, tmp_path, capsys):
        blocks = tmp_path / "blocks.csv"
        blocks.write_text(
            "height,timestamp,bits,miner_id\n"
            "0,1700000000,0x1d00ffff,alice\n"
            "1,1700000600,0x1d00ffff\n"
        )
        code, out, err = run_cli(
            capsys, "fit", "--blocks", str(blocks), "--lambda", "0.0017",
            "--family", "exp",
        )
        assert code == 2
        assert out == ""
        assert f"{blocks}:3:" in err


class TestForkrateCommand:
    def test_conditional_two_equal_miners(self, tmp_path, capsys):
        model = tmp_path / "fixed.json"
        model.write_text(json.dumps(model_to_json(Fixed(MinerSet([0.001, 0.001])))))
        code, out, _ = run_cli(
            capsys, "forkrate", "--model", str(model), "--delta0", "100", "--method", "auto",
        )
        assert code == 0
        line = out.splitlines()[1].split(",")
        assert float(line[1]) == pytest.approx(0.0951626, rel=1e-6)
        assert line[3] == "conditional"

    def test_taylor_agrees_with_auto_at_small_tau(self, tmp_path, capsys):
        miners = MinerSet([0.0005, 0.0005])
        model = tmp_path / "fixed.json"
        model.write_text(json.dumps(model_to_json(Fixed(miners))))
        d0 = 0.001 / miners.total  # tau = 1e-3
        _, out_taylor, _ = run_cli(
            capsys, "forkrate", "--model", str(model), "--delta0", str(d0),
            "--method", "taylor",
        )
        _, out_auto, _ = run_cli(
            capsys, "forkrate", "--model", str(model), "--delta0", str(d0),
            "--method", "auto",
        )
        v_taylor = float(out_taylor.splitlines()[1].split(",")[1])
        v_auto = float(out_auto.splitlines()[1].split(",")[1])
        assert v_taylor == pytest.approx(v_auto, rel=1e-3)

    def test_delta_list_matches_library_bit_for_bit(self, fitted_exp_model, capsys):
        # the list is one curve, and each delay reads as its lone integral
        path, doc = fitted_exp_model
        code, out, _ = run_cli(
            capsys, "forkrate", "--model", str(path), "--delta0", "0.5,1,2",
        )
        assert code == 0
        family = Exponential(doc["family"]["rate"])
        for line, d0 in zip(out.splitlines()[1:], (0.5, 1.0, 2.0)):
            lone = fork_rate_iid(family, doc["n"], d0)
            assert line.split(",")[1:3] == [repr(lone.value), repr(lone.error_estimate)]

    @pytest.mark.parametrize("kind", ["lognormal", "semi-iid"])
    def test_delta_list_integrates_one_curve(self, tmp_path, dataset_dir, capsys,
                                             integrand_calls, kind):
        code, out, _ = run_cli(
            capsys, "fit", "--blocks", str(dataset_dir / "blocks.csv"),
            "--lambda", "0.0017", "--family", kind,
        )
        path = tmp_path / "model.json"
        path.write_text(out)
        delays = (0.5, 1.0, 2.0)
        fork_rate_curve(model_from_json(json.loads(out)), delays)
        one_curve, integrand_calls["calls"] = integrand_calls["calls"], 0
        code, out, _ = run_cli(capsys, "forkrate", "--model", str(path), "--delta0", "0.5,1,2")
        assert code == 0 and len(out.splitlines()) == 4
        assert integrand_calls["calls"] == one_curve > 0

    @pytest.mark.parametrize("text, message", [("abc", "not a number: 'abc'"),
                                               ("0.5,1x,2", "not a number: '1x'"),
                                               (",", "no delay in ','"),
                                               ("", "no delay in ''")])
    @pytest.mark.parametrize("source", ["--model", "--blocks", "band"])
    def test_bad_delay_list_exits_2_before_any_load(self, capsys, monkeypatch, text, message,
                                                    source):
        def load(path):
            raise AssertionError("a model or blocks file was read")

        monkeypatch.setattr(cli, "_load_model", load)
        monkeypatch.setattr(cli, "parse_blocks_csv", load)
        if source == "band":
            argv = ["band", "--blocks", "b.csv", "--lambda", "0.0017", "--family", "exp",
                    "--seed", "1", "--delta0-grid", text]
        else:
            argv = ["forkrate", source, "m", "--lambda", "0.0017", "--delta0", text]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        option = "--delta0-grid" if source == "band" else "--delta0"
        assert f"{option}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["-2", "nan", "0.5,inf"])
    def test_delay_out_of_domain_exits_3(self, fitted_exp_model, capsys, text):
        path, _ = fitted_exp_model
        code, out, err = run_cli(capsys, "forkrate", "--model", str(path), "--delta0", text)
        assert (code, out) == (3, "")
        assert "delta0 must be" in err

    def test_auto_is_quadrature_for_a_distributional_model(self, fitted_exp_model, capsys):
        path, doc = fitted_exp_model
        code, out, _ = run_cli(capsys, "forkrate", "--model", str(path), "--delta0", "2,0.5",
                               "--method", "auto")
        assert code == 0
        for line, d0 in zip(out.splitlines()[1:], (2.0, 0.5)):
            fields = line.split(",")
            want = fork_rate_iid(Exponential(doc["family"]["rate"]), doc["n"], d0)
            assert fields[3] == "quadrature"
            assert fields[1:3] == [repr(want.value), repr(want.error_estimate)]

    @pytest.mark.parametrize("method", ["quadrature", "conditional"])
    def test_methods_that_were_auto_exit_2(self, fitted_exp_model, capsys, method):
        with pytest.raises(SystemExit) as exc:
            main(["forkrate", "--model", str(fitted_exp_model[0]), "--delta0", "2",
                  "--method", method])
        assert exc.value.code == 2
        assert "--method: invalid choice" in capsys.readouterr().err

    def test_taylor_needs_a_fixed_rate_model(self, fitted_exp_model, capsys):
        code, out, err = run_cli(capsys, "forkrate", "--model", str(fitted_exp_model[0]),
                                 "--delta0", "2", "--method", "taylor")
        assert (code, out) == (3, "")
        assert "--method taylor needs a fixed-rate model" in err

    def test_blocks_input_conditional(self, dataset_dir, capsys):
        code, out, _ = run_cli(
            capsys, "forkrate", "--blocks", str(dataset_dir / "blocks.csv"),
            "--lambda", "0.0017", "--delta0", "1.0",
        )
        assert code == 0
        assert out.splitlines()[1].split(",")[3] == "conditional"


    @pytest.mark.parametrize("model, name", [
        pytest.param('"iid-null", "n": 35, "family": {"kind": "lognormal", "mu": 800, "sigma": 1}',
                     "LogNormal mean", id="lognormal-mu-800"),
        pytest.param('"iid-null", "n": 35, "family": {"kind": "lognormal", "mu": -800, "sigma": 1}',
                     "LogNormal mean", id="lognormal-mu--800"),
        pytest.param('"iid-null", "n": 35, "family": {"kind": "lognormal", "mu": -10, "sigma": 40}',
                     "LogNormal mean", id="lognormal-sigma-40"),
        pytest.param('"fixed", "lambdas": [1e308, 1e308]', "total hash rate", id="fixed-total"),
        pytest.param('"semi-iid", "counts": [1e999, 2], "gamma": 1e6', "block count",
                     id="semi-iid-count-inf"),
        pytest.param('"iid-null", "n": 1e999, "family": {"kind": "exp", "rate": 2e4}', "n must be",
                     id="iid-n-inf"),
        pytest.param('"iid-null", "n": 3.7, "family": {"kind": "exp", "rate": 2e4}', "n must be",
                     id="iid-n-3.7"),
        pytest.param('"iid-null", "n": 35, "family": {"kind": "exp", "rate": 1e-320}',
                     "Exponential rate", id="exp-rate-subnormal"),
        pytest.param('"semi-iid", "counts": [3, 2], "gamma": 1e-320', "gamma",
                     id="semi-iid-gamma-subnormal"),
        pytest.param('"semi-inid", "counts": [1' + "0" * 300 + ', 2], "gamma": 1e6', "block count",
                     id="semi-inid-count-1e300"),
        pytest.param('"iid-null", "n": 35, "family": {"kind": "exp", "rate": 1e308}',
                     "Exponential mean", id="exp-mean-subnormal"),
        pytest.param('"iid-null", "n": 35, "family": {"kind": "tpl", "alpha": -1e308, "beta": 1e-300}',
                     "TruncatedPowerLaw mean", id="tpl-mean-inf"),
    ])
    def test_out_of_range_model_names_the_parameter(self, tmp_path, capsys, model, name):
        path = tmp_path / "m.json"
        path.write_text('{"kind": ' + model + "}")
        code, _, err = run_cli(capsys, "forkrate", "--model", str(path), "--delta0", "1")
        assert code in (2, 3)
        assert name in err and "internal error" not in err

    def test_underflowing_integral_exits_3(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "iid-null", "n": 35, '
                        '"family": {"kind": "lognormal", "mu": -1800, "sigma": 60}}')
        code, out, err = run_cli(capsys, "forkrate", "--model", str(path), "--delta0", "1")
        assert code == 3 and out == ""
        assert "underflowed" in err

    @pytest.mark.parametrize("doc, message", [
        ('{"kind": "iid-null", "n": 35, "family": {"kind": "exp"}}', "lacks the key 'rate'"),
        ('{"kind": "semi-iid", "gamma": 1e6}', "lacks the key 'counts'"),
        ('{"kind": "iid-null", "family": {"kind": "exp", "rate": 2e4}}', "lacks the key 'n'"),
        ('[{"kind": "iid-null", "n": 35}]', "a model is a JSON object, got a list"),
        ('{"kind": "fixed", "lambdas": 3}', "malformed model"),
        ('{"kind": "mystery"}', "unknown model kind 'mystery'"),
        ('{"kind": "iid-null", "n": 35, "family": {"kind": "gamma"}}',
         "unknown family kind 'gamma'"),
        ('{"kind": "iid-null", "n": 35, "family": {"kind": "exp", "rate": "fast"}}',
         "malformed model: could not convert"),
    ])
    @pytest.mark.parametrize("command", [["forkrate"], ["simulate", "--rounds", "10", "--seed", "1"]])
    def test_malformed_model_exits_2_naming_the_fault(self, tmp_path, capsys, doc, message,
                                                      command):
        path = tmp_path / "m.json"
        path.write_text(doc)
        code, out, err = run_cli(capsys, *command, "--model", str(path), "--delta0", "1")
        assert code == 2 and out == ""
        assert f"{path}:0: " in err and message in err


class TestSimulateCommand:
    def test_seed_repeat_byte_identical(self, fitted_exp_model, capsys):
        path, _ = fitted_exp_model
        args = (
            "simulate", "--model", str(path), "--delta0", "1.0",
            "--rounds", "100000", "--seed", "42",
        )
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_thread_counts_agree(self, fitted_exp_model, capsys):
        path, _ = fitted_exp_model
        outputs = []
        for t in ("1", "8"):
            _, out, _ = run_cli(
                capsys, "simulate", "--model", str(path), "--delta0", "1.0",
                "--rounds", "200000", "--seed", "7", "--threads", t,
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_z_score_within_three(self, fitted_exp_model, capsys):
        path, _ = fitted_exp_model
        _, out, _ = run_cli(
            capsys, "simulate", "--model", str(path), "--delta0", "1.0",
            "--rounds", "1000000", "--seed", str(SUITE_SEED),
        )
        doc = json.loads(out)
        assert abs(doc["z_score"]) <= 3.0
        assert doc["stderr"] > 0

    def test_no_fork_gives_null_z_score_in_standard_json(self, tmp_path, capsys):
        # no round forks, so stderr is 0 while the analytic rate is above 0:
        # z is undefined, and standard JSON has no Infinity to stand for it
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"kind": "iid-null", "n": 2, "family": {"kind": "exp", "rate": 20000}}
        ))
        code, out, _ = run_cli(capsys, "simulate", "--model", str(path), "--delta0", "1e-6",
                               "--rounds", "100", "--seed", "1")

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        doc = json.loads(out, parse_constant=reject)
        assert code == 0
        assert doc["stderr"] == 0.0 and doc["analytic_fork_rate"] > 0.0
        assert doc["z_score"] is None


class TestImpliedCommand:
    def test_delta_anchor(self, capsys):
        code, out, _ = run_cli(
            capsys, "implied", "delta", "--forkrate", "0.0041",
            "--lambda", "0.0017", "--hhi", "0.2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(3.0147, rel=1e-4)

    def test_hhi_negative_regime(self, capsys):
        code, out, _ = run_cli(
            capsys, "implied", "hhi", "--forkrate", "0.0041",
            "--lambda", "0.0017", "--delta0", "0.815",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(-1.959, rel=1e-3)
        assert doc["valid"] is False

    def test_zero_fork_rate(self, capsys):
        _, out, _ = run_cli(
            capsys, "implied", "delta", "--forkrate", "0",
            "--lambda", "0.0017", "--hhi", "0.2",
        )
        assert json.loads(out)["value"] == 0.0
        _, out, _ = run_cli(
            capsys, "implied", "hhi", "--forkrate", "0",
            "--lambda", "0.0017", "--delta0", "2.0",
        )
        assert json.loads(out)["value"] == 1.0

    def test_overflowing_delay_exits_3_instead_of_writing_infinity(self, capsys):
        # 0.5 / (2.3e-308 * 0.01) overflows; standard JSON cannot carry the inf
        code, out, err = run_cli(capsys, "implied", "delta", "--forkrate", "0.5",
                                 "--lambda", "2.3e-308", "--hhi", "0.99")
        assert (code, out) == (3, "")
        assert "lambda_total * (1 - hhi) must be a positive normal float" in err

    def test_missing_mode_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["implied", "delta", "--forkrate", "0.1", "--lambda", "0.0017"])
        assert exc.value.code == 2


class TestBandCommand:
    def test_deterministic_and_bracketing(self, dataset_dir, capsys):
        args = (
            "band", "--blocks", str(dataset_dir / "blocks.csv"),
            "--lambda", "0.0017", "--family", "exp",
            "--delta0-grid", "0.5,2", "--samples", "100",
            "--seed", str(SUITE_SEED),
        )
        code, out_a, _ = run_cli(capsys, *args)
        assert code == 0
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b
        for line in out_a.splitlines()[1:]:
            _, lo, pt, up = (float(x) for x in line.split(","))
            assert lo <= pt <= up

    @pytest.mark.parametrize("text", ["5", "a,b", "5,50,95", ""])
    def test_bad_percentiles_exit_2_before_any_ingest(self, capsys, monkeypatch, text):
        def parse(path):
            raise AssertionError("ingest ran")

        monkeypatch.setattr(cli, "parse_blocks_csv", parse)
        with pytest.raises(SystemExit) as exc:
            main(["band", "--blocks", "b.csv", "--lambda", "0.0017", "--family", "exp",
                  "--delta0-grid", "1", "--seed", "1", "--percentiles", text])
        assert exc.value.code == 2
        assert f"--percentiles: need two numbers low,high, got {text!r}" in capsys.readouterr().err

    def test_percentiles_out_of_range_exit_3(self, dataset_dir, capsys):
        code, out, err = run_cli(capsys, "band", "--blocks", str(dataset_dir / "blocks.csv"),
                                 "--lambda", "0.0017", "--family", "exp", "--delta0-grid", "1",
                                 "--seed", "1", "--percentiles", "95,5")
        assert (code, out) == (3, "")
        assert "percentiles must satisfy" in err


@pytest.fixture(scope="module")
def report(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("report") / "report.json"
    code = main([
        "pipeline",
        "--blocks", str(dataset_dir / "blocks.csv"),
        "--stale", str(dataset_dir / "stale.csv"),
        "--propagation", str(dataset_dir / "propagation.csv"),
        "--hashrate", str(dataset_dir / "hashrate.csv"),
        "--out", str(out),
    ])
    assert code == 0
    return out, json.loads(out.read_text())


def run_pipeline(capsys, dataset_dir, out, *flags, **paths):
    """``forkcast pipeline`` on the dataset, with any of its four files replaced."""
    argv = ["pipeline", "--out", str(out), *flags]
    for name in ("blocks", "stale", "propagation", "hashrate"):
        argv += [f"--{name}", str(paths.get(name, dataset_dir / f"{name}.csv"))]
    return run_cli(capsys, *argv)


class TestPipelineCommand:
    def test_three_period_fixture(self, report):
        _, doc = report
        assert len(doc["periods"]) == 3
        assert all("error" not in e for e in doc["periods"])

    def test_validates_against_shipped_schema(self, report):
        _, doc = report
        schema = json.loads(open(SCHEMA_PATH).read())
        jsonschema.validate(doc, schema)

    def test_family_ordering_per_period(self, report):
        _, doc = report
        for entry in doc["periods"]:
            rates = entry["model_fork_rates"]
            for pct in ("p50", "p90", "p99"):
                assert rates["exp"][pct] >= rates["lognormal"][pct] >= rates["tpl"][pct]

    def test_csv_twin_matches_to_twelve_digits(self, report):
        path, doc = report
        csv_path = path.with_suffix(".csv")
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            entry = doc["periods"][int(row["period"])]
            json_value = entry["model_fork_rates"][row["family"]][row["delay_percentile"]]
            csv_value = float(row["model_fork_rate"])
            if json_value != 0:
                assert abs(csv_value - json_value) / abs(json_value) < 1e-12
            assert float(row["hhi"]) == pytest.approx(entry["hhi"], rel=1e-12)

    def test_input_digests_present(self, report):
        _, doc = report
        for name in ("blocks", "stale", "propagation", "hashrate"):
            assert len(doc["inputs"][name]["sha256"]) == 64

    @pytest.mark.parametrize("text", [",", ""])
    def test_empty_family_list_exits_2_before_any_ingest(self, tmp_path, capsys, monkeypatch,
                                                         text):
        def parse(path):
            raise AssertionError("ingest ran")

        monkeypatch.setattr(cli, "parse_blocks_csv", parse)
        with pytest.raises(SystemExit) as exc:
            main([
                "pipeline", "--blocks", "b.csv", "--stale", "s.csv",
                "--propagation", "p.csv", "--hashrate", "h.csv",
                "--out", str(tmp_path / "report.json"), "--families", text,
            ])
        assert exc.value.code == 2
        assert f"--families: no family in {text!r}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_unknown_family_exits_2_before_any_ingest(self, tmp_path, capsys, monkeypatch):
        def parse(path):
            raise AssertionError("ingest ran")

        monkeypatch.setattr(cli, "parse_blocks_csv", parse)
        with pytest.raises(SystemExit) as exc:
            main([
                "pipeline", "--blocks", "b.csv", "--stale", "s.csv",
                "--propagation", "p.csv", "--hashrate", "h.csv",
                "--out", str(tmp_path / "report.json"), "--families", "exp,gamma",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--families: unknown gamma" in err and "semi-inid" in err

    @pytest.mark.parametrize("length, message", [("0", "must be >= 1, got 0"),
                                                 ("-5", "must be >= 1, got -5"),
                                                 ("2.5", "not an integer: '2.5'")])
    def test_bad_period_length_exits_2_before_any_ingest(self, tmp_path, capsys, monkeypatch,
                                                         length, message):
        def parse(path):
            raise AssertionError("ingest ran")

        monkeypatch.setattr(cli, "parse_blocks_csv", parse)
        with pytest.raises(SystemExit) as exc:
            main([
                "pipeline", "--blocks", "b.csv", "--stale", "s.csv",
                "--propagation", "p.csv", "--hashrate", "h.csv",
                "--out", str(tmp_path / "report.json"), "--period-length", length,
            ])
        assert exc.value.code == 2
        assert f"--period-length: {message}" in capsys.readouterr().err

    def test_empty_stale_file(self, tmp_path, dataset_dir, capsys):
        empty = tmp_path / "stale.csv"
        empty.write_text("height\n")
        out = tmp_path / "report.json"
        code = main([
            "pipeline",
            "--blocks", str(dataset_dir / "blocks.csv"),
            "--stale", str(empty),
            "--propagation", str(dataset_dir / "propagation.csv"),
            "--hashrate", str(dataset_dir / "hashrate.csv"),
            "--out", str(out), "--families", "exp",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        for entry in doc["periods"]:
            assert entry["fork_rate_empirical"] == 0.0
            assert entry["model_fork_rates"]["exp"]["p50"] > 0


    def test_failing_period_is_reported_and_skipped_in_csv(self, tmp_path, dataset_dir,
                                                            capsys):
        periods, _ = segment_periods(parse_blocks_csv(str(dataset_dir / "blocks.csv")))
        t_lo, t_hi = int(periods[1]["timestamp"].min()), int(periods[1]["timestamp"].max())
        header, *rows = (dataset_dir / "propagation.csv").read_text().splitlines(keepends=True)
        kept = [row for row in rows if not t_lo <= int(row.split(",")[0]) <= t_hi]
        assert len(kept) < len(rows)
        propagation = tmp_path / "propagation.csv"
        propagation.write_text(header + "".join(kept))
        out = tmp_path / "report.json"
        code, _, err = run_pipeline(capsys, dataset_dir, out, propagation=propagation)
        assert code == 0
        assert err.endswith(": 2/3 periods ok\n")
        doc = json.loads(out.read_text())
        assert doc["periods"][1] == {
            "index": 1,
            "error": f"no propagation rows inside the period span [{t_lo}, {t_hi}]",
        }
        assert [e["index"] for e in doc["periods"]] == [0, 1, 2]
        jsonschema.validate(doc, json.loads(open(SCHEMA_PATH).read()))
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 4 * 3  # header, 2 periods x 4 families x 3 percentiles
        assert {line.split(",")[0] for line in lines[1:]} == {"0", "2"}

    def test_every_period_failing_exits_3_with_the_report_written(self, tmp_path, dataset_dir,
                                                                  capsys):
        propagation = tmp_path / "propagation.csv"
        propagation.write_text("timestamp,p50,p90,p99\n")
        out = tmp_path / "report.json"
        code, _, err = run_pipeline(capsys, dataset_dir, out, propagation=propagation)
        assert code == 3
        assert err.endswith(": 0/3 periods ok\n")
        doc = json.loads(out.read_text())
        assert [sorted(e) for e in doc["periods"]] == [["error", "index"]] * 3
        assert out.with_suffix(".csv").read_text().count("\n") == 1

    def test_no_complete_period_exits_3(self, tmp_path, dataset_dir, capsys):
        out = tmp_path / "report.json"
        code, _, err = run_pipeline(capsys, dataset_dir, out, "--period-length", "100000")
        assert code == 3
        assert "no complete period of 100000 blocks" in err
        assert not out.exists()

    def test_shorter_periods(self, tmp_path, dataset_dir, capsys):
        out = tmp_path / "report.json"
        code, _, err = run_pipeline(capsys, dataset_dir, out, "--period-length", "10000",
                                    "--families", "exp")
        assert code == 0 and err.endswith(": 6/6 periods ok\n")
        doc = json.loads(out.read_text())
        assert doc["period_length"] == 10000
        assert [e["index"] for e in doc["periods"]] == list(range(6))
        assert doc["remainder_blocks"] == 0


class TestParserBasics:
    @pytest.mark.parametrize("command, flag, value, message", [
        ("fit", "--zero-miners", "-1", "must be >= 0, got -1"),
        ("simulate", "--rounds", "0", "must be >= 1, got 0"),
        ("simulate", "--threads", "-2", "must be >= 0, got -2"),
        ("simulate", "--rounds", "2.5", "not an integer: '2.5'"),
        ("simulate", "--seed", "-1", "must be >= 0, got -1"),
        ("simulate", "--seed", str(1 << 128), f"must be < 2**128, got {1 << 128}"),
        ("band", "--seed", "-3", "must be >= 0, got -3"),
        ("band", "--seed", str(1 << 128), f"must be < 2**128, got {1 << 128}"),
        ("band", "--samples", "5", "must be >= 100, got 5"),
    ])
    def test_bad_count_flag_exits_2_before_any_ingest(self, dataset_dir, fitted_exp_model,
                                                      capsys, monkeypatch,
                                                      command, flag, value, message):
        read = []
        for name in ("parse_blocks_csv", "_load_model"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda path, real=real: read.append(path) or real(path))
        argv = {
            "fit": ["fit", "--blocks", str(dataset_dir / "blocks.csv"), "--lambda", "0.0017",
                    "--family", "exp"],
            "simulate": ["simulate", "--model", str(fitted_exp_model[0]), "--delta0", "1",
                         "--rounds", "10", "--seed", "1"],
            "band": ["band", "--blocks", str(dataset_dir / "blocks.csv"), "--lambda", "0.0017",
                     "--family", "exp", "--delta0-grid", "1", "--seed", "1"],
        }[command]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert (exc.value.code, read) == (2, [])
        assert f"{flag}: {message}" in capsys.readouterr().err

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("fit", "forkrate", "simulate", "implied", "band", "pipeline"):
            assert cmd in out

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--nope"])
        assert exc.value.code == 2

    def test_env_threads_default(self, monkeypatch):
        # --threads defaults to 0 (automatic); the simulator alone reads
        # FORKCAST_THREADS and sizes its pool from it
        import forkcast.simulate as simulate
        from forkcast.cli import build_parser

        args = build_parser().parse_args(
            ["simulate", "--model", "x", "--delta0", "1", "--rounds", "1", "--seed", "1"]
        )
        assert args.threads == 0

        workers = []
        real_pool = simulate.ThreadPoolExecutor

        def recording_pool(max_workers):
            workers.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setenv("FORKCAST_THREADS", "3")
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording_pool)
        rounds = 2 * (simulate.BLOCK_ELEMENTS // 2) + 1  # three row blocks at two miners
        cfg = simulate.SimConfig(Fixed(MinerSet([0.001, 0.002])), 1.0, rounds, seed=1)
        simulate.simulate_fork_rate(cfg)
        assert workers == [3]
