"""CLI subcommands: records, formats, exit codes, reproducibility."""

import builtins
import json

import numpy as np
import pytest

from tailratio.cli import main

PARETO = "pareto:alpha=1.5,xm=1"


def run_cli(argv, capsys, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDetect:
    def test_stdin_json(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["detect", "--kappa", "0.5"], capsys, stdin="1\n-2\n10\n", monkeypatch=monkeypatch
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["is_outlier"] is True
        assert rec["ratio"] == pytest.approx(0.2)
        assert rec["max_index"] == 2

    def test_comments_ignored(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# header\n1\n\n2\n10\n")
        code, out, _ = run_cli(
            ["detect", "--input", str(path)], capsys
        )
        assert code == 0 and json.loads(out)["is_outlier"] is True

    def test_insufficient_data_exit_code(self, capsys, monkeypatch):
        code, _, err = run_cli(["detect"], capsys, stdin="1\n", monkeypatch=monkeypatch)
        assert code == 4 and "at least 2" in err

    def test_non_finite_value_exit_code(self, capsys, monkeypatch):
        code, out, err = run_cli(
            ["detect"], capsys, stdin="1\nnan\n10\n", monkeypatch=monkeypatch
        )
        assert code == 2 and out == "" and "index 1 is not finite" in err

    def test_bad_kappa_exit_code(self, capsys, monkeypatch):
        code, _, err = run_cli(
            ["detect", "--kappa", "2"], capsys, stdin="1\n2\n", monkeypatch=monkeypatch
        )
        assert code == 2 and "kappa" in err


class TestKSigma:
    def test_spike_hidden(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["ksigma", "--k", "2"], capsys, stdin="0\n0\n0\n10\n", monkeypatch=monkeypatch
        )
        assert code == 0 and json.loads(out)["count"] == 0

    def test_spike_found_at_k1(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["ksigma", "--k", "1"], capsys, stdin="0\n0\n0\n10\n", monkeypatch=monkeypatch
        )
        assert json.loads(out)["indices"] == "3"


class TestProbability:
    def test_limit(self, capsys):
        code, out, _ = run_cli(
            ["prob-limit", "--kappa", "0.5", "--alpha", "1.5"], capsys
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == pytest.approx(0.3535533906, abs=1e-9)
        assert rec["method"] == "limit"

    def test_exact_pareto(self, capsys):
        code, out, _ = run_cli(
            ["prob-exact", "--dist", PARETO, "--n", "1000", "--kappa", "0.5"],
            capsys,
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["value"] == pytest.approx(0.3535533906, abs=1e-8)
        assert rec["n"] == 1000

    def test_oracle(self, capsys):
        code, out, _ = run_cli(
            ["prob-oracle", "--dist", "pareto:alpha=1,xm=1", "--n", "2"], capsys
        )
        assert json.loads(out)["value"] == pytest.approx(0.5, abs=1e-6)

    def test_mc_deterministic(self, capsys):
        argv = [
            "prob-mc", "--dist", PARETO, "--n", "10",
            "--trials", "2000", "--seed", "42",
        ]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_mc_threads_flag_does_not_change_output(self, capsys):
        base = [
            "prob-mc", "--dist", PARETO, "--n", "10",
            "--trials", "1000", "--seed", "9",
        ]
        _, out1, _ = run_cli(base, capsys)
        _, out2, _ = run_cli(base + ["--threads", "4"], capsys)
        assert out1 == out2

    def test_mc_requires_seed(self, capsys):
        code, _, err = run_cli(
            ["prob-mc", "--dist", PARETO, "--n", "10"], capsys
        )
        assert code == 2 and "--seed" in err

    def test_capability_exit_code(self, capsys):
        for argv in (
            ["prob-exact", "--dist", "stable:alpha=0.6", "--n", "10"],
            ["prob-oracle", "--dist", "stable:alpha=0.6", "--n", "3"],
            ["check-conditions", "--dist", "stable:alpha=0.6"],
        ):
            code, out, _ = run_cli(argv, capsys)
            assert code == 3 and out == ""

    def test_unknown_family_exit_code(self, capsys):
        code, _, _ = run_cli(
            ["prob-exact", "--dist", "weibull:k=1", "--n", "10"], capsys
        )
        assert code == 2


class TestFormatsAndConfig:
    def test_json_round_trip_fixed_key_order(self, capsys):
        argv = ["prob-limit", "--alpha", "1.0", "--kappa", "0.25"]
        _, out, _ = run_cli(argv, capsys)
        rec = json.loads(out)
        assert json.dumps(rec) + "\n" == out
        assert list(rec)[:5] == ["method", "family", "params", "n", "kappa"]

    def test_csv(self, capsys):
        _, out, _ = run_cli(
            ["prob-limit", "--alpha", "1.0", "--format", "csv"], capsys
        )
        header, row = out.strip().split("\n")
        assert header.startswith("method,family,params,n,kappa,value")
        assert ",0.5," in row

    def test_csv_float_precision_round_trips(self, capsys):
        _, out, _ = run_cli(
            ["prob-limit", "--alpha", "1.5", "--format", "csv"], capsys
        )
        value = out.strip().split("\n")[1].split(",")[5]
        assert float(value) == 0.5**1.5

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(
            ["prob-limit", "--alpha", "1.0", "--output", str(path)], capsys
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["value"] == 0.5

    def test_config_file_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha": 1.5, "kappa": 0.5}))
        _, out, _ = run_cli(["prob-limit", "--config", str(cfg)], capsys)
        assert json.loads(out)["value"] == pytest.approx(0.5**1.5)

    def test_config_file_read_once(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha": 1.5, "format": "csv"}))
        reads = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(cfg):
                reads.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, out, _ = run_cli(["prob-limit", "--config", str(cfg)], capsys)
        assert code == 0 and out.startswith("method,")
        assert len(reads) == 1

    def test_config_value_outside_choices(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        code, out, err = run_cli(["prob-limit", "--alpha", "1", "--config", str(cfg)], capsys)
        assert code == 2 and out == "" and "--format" in err
        code, out, _ = run_cli(["prob-limit", "--alpha", "1", "--format", "xml"], capsys)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("n", [2.9, True])
    def test_config_integer_must_be_integral(self, capsys, tmp_path, n):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": n}))
        argv = ["prob-oracle", "--dist", "pareto:alpha=1", "--config", str(cfg)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and "--n" in err

    def test_config_integral_float_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 2.0}))
        code, out, _ = run_cli(
            ["prob-oracle", "--dist", "pareto:alpha=1,xm=1", "--config", str(cfg)], capsys
        )
        assert code == 0 and json.loads(out)["n"] == 2

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha": 1.5}))
        _, out, _ = run_cli(
            ["prob-limit", "--config", str(cfg), "--alpha", "1.0"], capsys
        )
        assert json.loads(out)["value"] == 0.5


class TestEstimateAlpha:
    def test_basic(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["estimate-alpha", "--block-size", "3", "--kappa", "0.5"],
            capsys,
            stdin="1\n2\n10\n1\n2\n3\n",
            monkeypatch=monkeypatch,
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["alpha_hat"] == pytest.approx(1.0)
        assert rec["blocks"] == 2

    def test_degenerate_exit_code(self, capsys, monkeypatch):
        code, _, err = run_cli(
            ["estimate-alpha", "--block-size", "2", "--kappa", "0.5"],
            capsys,
            stdin="1\n100\n1\n100\n",
            monkeypatch=monkeypatch,
        )
        assert code == 6 and "bound" in err


class TestLLNDemo:
    def test_scaling_csv(self, capsys):
        code, out, _ = run_cli(
            [
                "lln-demo", "--dist", "stable:alpha=0.6,scale=1",
                "--ns", "1000,5000", "--replications", "30", "--seed", "8",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,median_abs_mean"
        assert lines[3] == "slope,theory_slope"
        slope, theory = map(float, lines[4].split(","))
        assert theory == pytest.approx(2.0 / 3.0)
        assert slope > 0.0

    def test_trajectory_csv(self, capsys):
        code, out, _ = run_cli(
            [
                "lln-demo", "--dist", "stable:alpha=1.5,scale=1",
                "--mode", "trajectory", "--total", "1000",
                "--checkpoints", "100,1000", "--replications", "2", "--seed", "3",
            ],
            capsys,
        )
        lines = out.strip().split("\n")
        assert lines[0] == "n,replication,running_mean"
        assert len(lines) == 5

    def test_requires_seed(self, capsys):
        code, _, _ = run_cli(
            ["lln-demo", "--dist", "stable:alpha=0.6,scale=1"], capsys
        )
        assert code == 2


class TestCheckConditions:
    def test_default_range_is_the_library_default(self, capsys):
        # (support_lo + 0.01, support_lo + 50): x = 51 for Pareto with xm = 1
        code, out, _ = run_cli(["check-conditions", "--dist", PARETO], capsys)
        assert code == 0
        assert "over [2, 51]" in json.loads(out)["notes"]

    def test_flag_replaces_only_its_own_end(self, capsys):
        _, out, _ = run_cli(["check-conditions", "--dist", PARETO, "--probe-lo", "3"], capsys)
        assert "over [3, 51]" in json.loads(out)["notes"]
        _, out, _ = run_cli(["check-conditions", "--dist", PARETO, "--probe-hi", "20"], capsys)
        assert "over [2, 20]" in json.loads(out)["notes"]


# Deterministic subcommands, byte for byte.  Monte Carlo digits are not
# pinned: the Monte Carlo stream layout may change on purpose.
GOLDEN = {
    ("detect", "json"): (
        '{"is_outlier": true, "kappa": 0.5, "ratio": 0.2, "max_magnitude": '
        '10.0, "second_magnitude": 2.0, "max_index": 2, "second_index": 1}\n'
    ),
    ("detect", "csv"): (
        'is_outlier,kappa,ratio,max_magnitude,second_magnitude,max_index,'
        'second_index\n'
        'true,0.5,0.20000000000000001,10,2,2,1\n'
    ),
    ("ksigma", "json"): (
        '{"k": 1.0, "count": 1, "indices": "3"}\n'
    ),
    ("ksigma", "csv"): (
        'k,count,indices\n'
        '1,1,3\n'
    ),
    ("estimate-alpha", "json"): (
        '{"alpha_hat": 1.4474589769712212, "p_hat": 0.36666666666666664, '
        '"kappa": 0.5, "block_size": 20, "blocks": 30, "ci_lo": '
        '0.8760309595469211, "ci_hi": 2.1927162544495324, "confidence": 0.95}\n'
    ),
    ("estimate-alpha", "csv"): (
        'alpha_hat,p_hat,kappa,block_size,blocks,ci_lo,ci_hi,confidence\n'
        '1.4474589769712212,0.36666666666666664,0.5,20,30,0.87603095954692112,'
        '2.1927162544495324,0.94999999999999996\n'
    ),
    ("prob-limit", "json"): (
        '{"method": "limit", "family": null, "params": "alpha=1.5", "n": null, '
        '"kappa": 0.5, "value": 0.3535533905932738, "error_estimate": 0.0, '
        '"ci_lo": null, "ci_hi": null, "trials": null, "seed": null}\n'
    ),
    ("prob-limit", "csv"): (
        'method,family,params,n,kappa,value,error_estimate,ci_lo,ci_hi,trials,'
        'seed\n'
        'limit,,alpha=1.5,,0.5,0.35355339059327379,0,,,,\n'
    ),
    ("prob-exact", "json"): (
        '{"method": "quadrature", "family": "half_cauchy", "params": "scale=1",'
        ' "n": 100, "kappa": 0.5, "value": 0.5001798374824743, '
        '"error_estimate": 3.970127671060197e-09, "ci_lo": null, "ci_hi": null,'
        ' "trials": null, "seed": null}\n'
    ),
    ("prob-exact", "csv"): (
        'method,family,params,n,kappa,value,error_estimate,ci_lo,ci_hi,trials,'
        'seed\n'
        'quadrature,half_cauchy,scale=1,100,0.5,0.5001798374824743,'
        '3.9701276710601974e-09,,,,\n'
    ),
    ("prob-oracle", "json"): (
        '{"method": "joint_oracle", "family": "half_cauchy", "params": '
        '"scale=1", "n": 4, "kappa": 0.5, "value": 0.5774902981001574, '
        '"error_estimate": 1.2000653985456487e-10, "ci_lo": null, "ci_hi": '
        'null, "trials": null, "seed": null}\n'
    ),
    ("prob-oracle", "csv"): (
        'method,family,params,n,kappa,value,error_estimate,ci_lo,ci_hi,trials,'
        'seed\n'
        'joint_oracle,half_cauchy,scale=1,4,0.5,0.5774902981001574,'
        '1.2000653985456487e-10,,,,\n'
    ),
    ("check-conditions", "json"): (
        '{"family": "half_cauchy", "params": "scale=1", "n": 1000, "kappa": '
        '0.5, "boundary_ratio_limit": 0.5009369144284822, "zero_limit_ok": '
        'true, "integrand_integral": 1.1987528980177706, "notes": "edge probe '
        'at x -> 0: first 0.000e+00, last 0.000e+00; integral of |g| over [0.5,'
        ' 40] = 1.199e+00; boundary ratio at x = 40: 5.009369e-01"}\n'
    ),
    ("check-conditions", "csv"): (
        'family,params,n,kappa,boundary_ratio_limit,zero_limit_ok,'
        'integrand_integral,notes\n'
        'half_cauchy,scale=1,1000,0.5,0.50093691442848221,true,'
        '1.1987528980177706,edge probe at x -> 0: first 0.000e+00; last '
        '0.000e+00; integral of |g| over [0.5; 40] = 1.199e+00; boundary ratio '
        'at x = 40: 5.009369e-01\n'
    ),
}


def _sample_file(tmp_path):
    rng = np.random.default_rng(20161229)
    values = (1.0 - rng.random(600)) ** (-1.0 / 1.5)
    path = tmp_path / "sample.txt"
    path.write_text("".join(format(v, ".17g") + "\n" for v in values.tolist()))
    return str(path)


GOLDEN_ARGV = {
    "detect": ["detect", "--kappa", "0.5"],
    "ksigma": ["ksigma", "--k", "1"],
    "estimate-alpha": ["estimate-alpha", "--block-size", "20", "--kappa", "0.5"],
    "prob-limit": ["prob-limit", "--kappa", "0.5", "--alpha", "1.5"],
    "prob-exact": ["prob-exact", "--dist", "half_cauchy:scale=1", "--n", "100",
                   "--kappa", "0.5"],
    "prob-oracle": ["prob-oracle", "--dist", "half_cauchy:scale=1", "--n", "4"],
    "check-conditions": ["check-conditions", "--dist", "half_cauchy:scale=1",
                         "--probe-lo", "0.5", "--probe-hi", "40"],
}
GOLDEN_STDIN = {"detect": "1\n-2\n10\n", "ksigma": "0\n0\n0\n10\n-1\n"}


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN), ids="-".join)
def test_golden_output(command, fmt, capsys, monkeypatch, tmp_path):
    argv = GOLDEN_ARGV[command] + ["--format", fmt]
    if command == "estimate-alpha":
        argv += ["--input", _sample_file(tmp_path)]
    code, out, _ = run_cli(
        argv, capsys, stdin=GOLDEN_STDIN.get(command, ""), monkeypatch=monkeypatch
    )
    assert code == 0 and out == GOLDEN[command, fmt]
