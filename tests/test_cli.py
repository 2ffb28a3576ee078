"""CLI subcommands: records, formats, exit codes, reproducibility."""

import builtins
import json

import numpy as np
import pytest

from tailratio import cli
from tailratio.cli import main
from tailratio.families import TailFamily

PARETO = "pareto:alpha=1.5,xm=1"


def growing_family(a):
    """Not a distribution: at kappa = 0.01 its quadrature integrand is 100 * v**(-99*a)."""
    return TailFamily(name="growing", _pdf=lambda x: np.exp(a * x),
                      _upper_quantile=lambda v: -np.log(v))


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
        assert code == 2 and out == "" and "line 2: not a finite number: 'nan'" in err

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

    @pytest.mark.parametrize("top", ["1e308", "1e300"])
    def test_large_values_flagged_without_warnings(self, capsys, monkeypatch, top):
        code, out, err = run_cli(
            ["ksigma", "--k", "1"], capsys, stdin=f"{top}\n{top}\n0\n", monkeypatch=monkeypatch
        )
        assert code == 0 and err == "" and json.loads(out)["indices"] == "2"


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

    def test_oracle_far_from_the_unit(self, capsys):
        # 2/(n+1) = 0.4 at kappa = 1/2, as at rate 1, not 0.0
        code, out, _ = run_cli(
            ["prob-oracle", "--dist", "exponential:rate=1e300", "--n", "4"], capsys
        )
        assert code == 0 and json.loads(out)["value"] == 0.3999999999999999

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

    def test_mc_interval_at_a_confidence_next_to_1(self, capsys):
        # 1 - 2**-53: its z is finite, so the interval is not the whole of [0, 1]
        code, out, _ = run_cli([
            "prob-mc", "--dist", "pareto:alpha=1.5", "--n", "5", "--trials", "1000",
            "--seed", "1", "--confidence", "0.9999999999999999",
        ], capsys)
        rec = json.loads(out)
        assert code == 0 and 0.0 < rec["ci_lo"] < rec["value"] < rec["ci_hi"] < 1.0

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

    def test_accuracy_failure_names_its_reason(self, capsys, monkeypatch):
        # the integrand grows like 1/(1 - w), so the rule's levels never agree
        monkeypatch.setattr(cli, "parse_family_spec", lambda spec: growing_family(1.0 / 99.0))
        code, out, err = run_cli(
            ["prob-exact", "--dist", "growing", "--n", "2", "--kappa", "0.01"], capsys
        )
        assert code == 5 and out == ""
        assert err.startswith("error: quadrature levels 7 and 8 differ by ")

    @pytest.mark.parametrize("a", [1.0 / 99.0, 0.01],
                             ids=["diverging", "mass_beyond_the_outermost_node"])
    def test_integral_out_of_reach_exit_code(self, capsys, monkeypatch, a):
        # a value the rule cannot bound within 1e-8 of itself is exit 5, not a wrong value
        monkeypatch.setattr(cli, "parse_family_spec", lambda spec: growing_family(a))
        code, out, err = run_cli(
            ["prob-exact", "--dist", "growing", "--n", "2", "--kappa", "0.01"], capsys
        )
        assert code == 5 and out == "" and "best estimate" in err

    def test_oracle_accuracy_failure_exit_code(self, capsys):
        # 0.2 % of Pareto(0.01)'s mass lies beyond y = 1e275, the outermost node
        code, out, err = run_cli(
            ["prob-oracle", "--dist", "pareto:alpha=0.01", "--n", "8", "--kappa", "0.5"],
            capsys,
        )
        assert code == 5 and out == ""
        assert "and the outermost nodes add 8.860e-02, against a tolerance of" in err

    def test_oracle_integrand_at_infinity(self, capsys):
        # the outermost node puts y near 1e275, where the integrand must stay finite
        code, out, err = run_cli(
            ["prob-oracle", "--dist", "pareto:alpha=0.01", "--n", "2", "--kappa", "0.9"],
            capsys,
        )
        assert code == 5 and out == ""
        assert err.startswith("error: quadrature levels 7 and 8 differ by ")

    def test_unknown_family_exit_code(self, capsys):
        code, _, _ = run_cli(
            ["prob-exact", "--dist", "weibull:k=1", "--n", "10"], capsys
        )
        assert code == 2

    def test_non_text_dist_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dist": 5}))
        code, out, err = run_cli(["prob-exact", "--config", str(cfg), "--n", "10"], capsys)
        assert code == 2 and out == "" and "unknown family '5'" in err

    def test_repeated_spec_key_exit_code(self, capsys):
        code, out, err = run_cli(
            ["prob-exact", "--dist", "pareto:alpha=1,alpha=2", "--n", "10"], capsys
        )
        assert code == 2 and out == ""
        assert err == "error: --dist: parameter 'alpha' given twice in 'pareto:alpha=1,alpha=2'\n"


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

    @pytest.mark.parametrize("key", ["alpha", "kappa"])
    def test_config_real_refuses_boolean(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha": 1.5, key: True}))
        code, out, err = run_cli(["prob-limit", "--config", str(cfg)], capsys)
        assert code == 2 and out == "" and f"--{key}" in err

    def test_config_file_must_hold_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1]")
        code, out, err = run_cli(["prob-limit", "--alpha", "1.5", "--config", str(cfg)], capsys)
        assert (code, out, err) == (2, "", "error: config file must hold a JSON object\n")

    def test_config_list_is_the_comma_separated_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"ns": [10, 100], "replications": 3, "seed": 1}))
        base = ["lln-demo", "--dist", "stable:alpha=0.6,scale=1"]
        code, out, _ = run_cli(base + ["--config", str(cfg)], capsys)
        assert code == 0 and out.startswith("n,median_abs_mean\n10,")
        assert run_cli(base + ["--ns", "10,100", "--replications", "3", "--seed", "1"],
                       capsys) == (0, out, "")

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha": 1.5}))
        _, out, _ = run_cli(
            ["prob-limit", "--config", str(cfg), "--alpha", "1.0"], capsys
        )
        assert json.loads(out)["value"] == 0.5


def test_dist_parsed_through_module_name(capsys, monkeypatch):
    # a wrapper bound to cli.parse_family_spec (as perfbench's tracer binds one) sees the call
    calls = []
    real = cli.parse_family_spec
    monkeypatch.setattr(cli, "parse_family_spec", lambda spec: calls.append(spec) or real(spec))
    code, _, _ = run_cli(["prob-exact", "--dist", PARETO, "--n", "10"], capsys)
    assert code == 0 and calls == [PARETO]


# a valid flag for every required option, so the option under test fails alone
REQUIRED_FLAGS = {"dist": PARETO, "n": "3", "seed": "1", "alpha": "1.5", "block_size": "3"}
NUMERIC_OPTIONS = [
    (command, option)
    for command, (_, options, _) in cli._COMMANDS.items()
    for option in options
    if option.type is not str and option.name != "dist"
]


@pytest.mark.parametrize("value", [True, "x"])
@pytest.mark.parametrize(
    "command,option", NUMERIC_OPTIONS, ids=[f"{c}-{o.name}" for c, o in NUMERIC_OPTIONS]
)
def test_config_numeric_option_refuses(command, option, value, capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({option.name: value}))
    argv = [command, "--config", str(cfg)]
    for other in cli._COMMANDS[command][1]:
        if other.default is cli._REQUIRED and other is not option:
            argv += [cli._flag(other), REQUIRED_FLAGS[other.name]]
    code, out, err = run_cli(argv, capsys, stdin="1\n2\n3\n", monkeypatch=monkeypatch)
    assert code == 2 and out == "" and err.startswith(f"error: {cli._flag(option)}: ")


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

    def test_degenerate_names_its_confidence(self, capsys, monkeypatch):
        code, _, err = run_cli(
            ["estimate-alpha", "--block-size", "2", "--confidence", "0.975"],
            capsys,
            stdin="0\n0\n0\n0\n",
            monkeypatch=monkeypatch,
        )
        assert code == 6 and err.endswith("(97.5% upper bound on alpha: 1.81227)\n")

    @pytest.mark.parametrize("stdin,bound", [
        ("1\n1\n1\n1\n", "lower bound on alpha: inf"),  # p_hat = 0 = p_hi
        ("1\n2\n3\n100\n", "upper bound on alpha: 0"),  # p_hat = 1 = p_lo
    ])
    def test_degenerate_bound_where_z_is_0(self, stdin, bound, capsys, monkeypatch):
        # z rounds to 0 at confidence 1e-300, so the Wilson interval is p_hat alone
        code, out, err = run_cli(
            ["estimate-alpha", "--block-size", "2", "--confidence", "1e-300"],
            capsys,
            stdin=stdin,
            monkeypatch=monkeypatch,
        )
        assert (code, out) == (6, "") and err.endswith(f"(1e-298% {bound})\n")


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
                "--mode", "trajectory",
                "--ns", "100,1000", "--replications", "2", "--seed", "3",
            ],
            capsys,
        )
        lines = out.strip().split("\n")
        assert lines[0] == "n,replication,running_mean"
        assert len(lines) == 5

    def test_trajectory_ends_at_its_last_checkpoint(self, capsys):
        # the stream runs to its last checkpoint, however far that is
        code, out, _ = run_cli(
            ["lln-demo", "--dist", PARETO, "--mode", "trajectory",
             "--ns", "10,250000", "--seed", "1"],
            capsys,
        )
        lines = out.strip().split("\n")
        assert code == 0 and lines[0] == "n,replication,running_mean"
        assert [line.split(",")[:2] for line in lines[1:]] == [["10", "0"], ["250000", "0"]]

    def test_trajectories_of_adjacent_seeds_never_share_a_stream(self, capsys):
        # replication r of seed s draws substream (s, r), not the stream of s + r
        def trajectories(seed):
            code, out, _ = run_cli(
                ["lln-demo", "--dist", "stable:alpha=0.6,scale=1", "--mode", "trajectory",
                 "--ns", "1,50", "--replications", "3",
                 "--seed", str(seed)],
                capsys,
            )
            assert code == 0
            rows = [line.split(",") for line in out.strip().split("\n")[1:]]
            return [[m for _, r, m in rows if r == str(rep)] for rep in range(3)]

        ours, next_seed = trajectories(11), trajectories(12)
        assert all(a != b for a in ours for b in next_seed)

    def test_trajectory_rows_do_not_depend_on_later_checkpoints(self, capsys):
        def rows(ns):
            code, out, _ = run_cli(
                ["lln-demo", "--dist", "stable:alpha=1.5", "--mode", "trajectory",
                 "--seed", "3", "--ns", ns],
                capsys,
            )
            assert code == 0
            return out.split("\n")[1:3]

        assert rows("10,1000") == rows("10,1000,150000")

    def test_scaling_table_is_the_median_of_the_trajectory_rows(self, capsys):
        def lines(mode):
            code, out, _ = run_cli(
                ["lln-demo", "--dist", "stable:alpha=0.6", "--mode", mode, "--ns", "100,1000",
                 "--replications", "3", "--seed", "2"],
                capsys,
            )
            assert code == 0
            return [line.split(",") for line in out.split("\n")[1:]]

        trajectory = lines("trajectory")
        for n, median in lines("scaling")[:2]:
            means = [abs(float(m)) for cp, _, m in trajectory[:-1] if cp == n]
            assert float(median) == float(np.median(means))

    def test_trajectory_output_does_not_depend_on_threads(self, capsys):
        base = ["lln-demo", "--dist", "stable:alpha=1.5", "--mode", "trajectory",
                "--ns", "10,1000,15000", "--replications", "5", "--seed", "4"]
        outs = {run_cli(base + threads, capsys)[1]
                for threads in ([], ["--threads", "1"], ["--threads", "2"])}
        assert len(outs) == 1 and outs.pop().count("\n") == 1 + 3 * 5

    @pytest.mark.parametrize("mode", ["trajectory", "scaling"])
    @pytest.mark.parametrize("replications", ["0", "-1"])
    def test_replications_below_one_exit_code(self, capsys, mode, replications):
        code, out, err = run_cli(
            ["lln-demo", "--dist", PARETO, "--mode", mode, "--ns", "10,20",
             "--seed", "1", "--replications", replications],
            capsys,
        )
        assert code == 2 and out == ""
        assert f"replications must be in 1..{2**63 - 1}, got {replications}" in err

    @pytest.mark.parametrize("mode,sizes,extra", [
        ("trajectory", ["--ns", "1000,10000,100000"], []),
        ("scaling", ["--ns", "1000,10000,100000"], ["--replications", "5"]),
    ])
    def test_default_sizes(self, capsys, mode, sizes, extra):
        # both modes read one default size list
        base = ["lln-demo", "--dist", PARETO, "--mode", mode, "--seed", "1", *extra]
        default = run_cli(base, capsys)
        assert default[0] == 0 and default == run_cli(base + sizes, capsys)

    @pytest.mark.parametrize("mode", ["trajectory", "scaling"])
    def test_checkpoints_flag_is_gone(self, capsys, mode):
        # --ns names the sizes in both modes
        with pytest.raises(SystemExit) as exc:
            main(["lln-demo", "--dist", PARETO, "--mode", mode, "--seed", "1",
                  "--checkpoints", "10,20"])
        assert exc.value.code == 2 and "--checkpoints" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_code(self, capsys, threads):
        code, out, err = run_cli(
            ["lln-demo", "--dist", PARETO, "--seed", "1", "--threads", threads], capsys
        )
        assert code == 2 and out == "" and "--threads" in err

    def test_requires_seed(self, capsys):
        code, _, _ = run_cli(
            ["lln-demo", "--dist", "stable:alpha=0.6,scale=1"], capsys
        )
        assert code == 2

    def test_theory_slope_beyond_alpha_two_is_minus_one_half(self, capsys):
        code, out, _ = run_cli(
            ["lln-demo", "--dist", "pareto:alpha=3", "--seed", "1",
             "--ns", "100,1000", "--replications", "5"],
            capsys,
        )
        assert code == 0 and out.endswith(",-0.5\n")

    @pytest.mark.parametrize("dist", ["exponential:rate=1", "half_normal:sigma=1",
                                      "pareto:alpha=3"])
    def test_finite_variance_slope_is_measured(self, capsys, dist):
        # at the default --ns and --replications
        code, out, _ = run_cli(["lln-demo", "--dist", dist, "--seed", "1"], capsys)
        slope, theory = map(float, out.splitlines()[-1].split(","))
        assert code == 0 and theory == -0.5 and abs(slope - theory) < 0.15


class TestCheckConditions:
    def test_default_range_is_the_library_default(self, capsys):
        # (support_lo + 0.01, support_lo + 50): x = 51 for Pareto with xm = 1
        code, out, _ = run_cli(["check-conditions", "--dist", PARETO], capsys)
        assert code == 0
        assert "over [2, 51]" in json.loads(out)["notes"]

    def test_vanishing_density_exit_code(self, capsys):
        code, out, err = run_cli(
            ["check-conditions", "--dist", "half_normal:sigma=1", "--probe-hi", "100"], capsys
        )
        assert code == 2 and out == "" and "density vanishes" in err

    def test_default_range_follows_the_scale(self, capsys):
        code, out, _ = run_cli(["check-conditions", "--dist", "half_normal:sigma=1e-300"], capsys)
        assert code == 0
        assert "over [1e-302, 5e-299]" in json.loads(out)["notes"]

    def test_probe_range_must_increase(self, capsys):
        code, out, err = run_cli(["check-conditions", "--dist", "pareto:alpha=1.5",
                                  "--probe-lo", "10", "--probe-hi", "5"], capsys)
        assert code == 2 and out == "" and "probe_range must have lo < hi" in err
        assert err.endswith("got (10, 5)\n")

    def test_flag_replaces_only_its_own_end(self, capsys):
        _, out, _ = run_cli(["check-conditions", "--dist", PARETO, "--probe-lo", "3"], capsys)
        assert "over [3, 51]" in json.loads(out)["notes"]
        _, out, _ = run_cli(["check-conditions", "--dist", PARETO, "--probe-hi", "20"], capsys)
        assert "over [2, 20]" in json.loads(out)["notes"]

    @pytest.mark.parametrize("dist,grid", [
        ("pareto:alpha=1.5,xm=1e308", "[2e+308, 5.1e+309]"),
        ("half_normal:sigma=1e308", "[1e+306, 5e+309]"),
    ], ids=["pareto", "half_normal"])
    def test_range_beyond_the_floats_written_exactly(self, capsys, dist, grid):
        # the probe runs on the standard law; only the notes give x in the data's unit
        code, out, _ = run_cli(["check-conditions", "--dist", dist], capsys)
        notes = json.loads(out)["notes"]
        assert code == 0 and f"over {grid}" in notes and "inf" not in notes


def _flags(command):
    return [cli._flag(o) for o in cli._COMMANDS[command][1] + (cli._OUTPUT,)] + ["--config"]


# every long flag whose name has at least two characters, so its prefix is not bare "--"
PREFIXED_FLAGS = [(c, f) for c in cli._COMMANDS for f in _flags(c) if len(f) > 3]


class TestCommandOptions:
    def test_lln_demo_has_no_format(self, capsys):
        # lln-demo writes CSV tables only, so a --format would do nothing
        with pytest.raises(SystemExit) as exc:
            main(["lln-demo", "--dist", "stable:alpha=0.6", "--seed", "1", "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_lln_demo_has_no_total(self, capsys):
        # a trajectory ends at its last checkpoint, so a stream length would say it twice
        with pytest.raises(SystemExit) as exc:
            main(["lln-demo", "--dist", "stable:alpha=0.6", "--mode", "trajectory",
                  "--seed", "1", "--total", "1000"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --total 1000" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", PREFIXED_FLAGS)
    def test_flag_prefix_refused(self, command, flag, capsys, monkeypatch):
        # a flag answers to its full name only, as a --config key does
        assert flag[:-1] not in _flags(command)
        with pytest.raises(SystemExit) as exc:
            run_cli([command, flag[:-1], "1"], capsys, stdin="1\n2\n3\n", monkeypatch=monkeypatch)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[:-1]} 1" in capsys.readouterr().err

    def test_full_flag_names_and_equals_form(self, capsys):
        spaced = run_cli(["prob-limit", "--kappa", "0.25", "--alpha", "1.5"], capsys)
        joined = run_cli(["prob-limit", "--kappa=0.25", "--alpha=1.5"], capsys)
        assert spaced == joined and spaced[0] == 0 and '"value": 0.125' in spaced[1]

    @pytest.mark.parametrize("command", sorted(set(cli._COMMANDS) - {"lln-demo"}))
    def test_record_commands_take_format(self, command):
        assert cli.build_parser().parse_args([command, "--format", "csv"]).format == "csv"

    def test_config_key_naming_no_option(self, capsys, monkeypatch, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kapa": 0.3}))
        code, out, err = run_cli(
            ["detect", "--config", str(cfg)], capsys, stdin="1\n2\n10\n", monkeypatch=monkeypatch
        )
        assert (code, out, err) == (
            2, "", "error: config key 'kapa' names no option of this subcommand\n"
        )

    def test_config_key_config(self, capsys, monkeypatch, tmp_path):
        # a config file cannot name another, which would never be opened
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"config": "missing.json", "kappa": 0.3}))
        code, out, err = run_cli(
            ["detect", "--config", str(cfg)], capsys, stdin="1\n2\n10\n", monkeypatch=monkeypatch
        )
        assert (code, out, err) == (
            2, "", "error: config key 'config' names no option of this subcommand\n"
        )

    def test_config_key_checked_after_hyphen_normalisation(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"probe-lo": 3, "grid-size": 5}))
        code, out, err = run_cli(["check-conditions", "--dist", PARETO, "--config", str(cfg)],
                                 capsys)
        assert code == 2 and out == ""
        assert err == "error: config key 'grid_size' names no option of this subcommand\n"
        cfg.write_text(json.dumps({"probe-lo": 3, "grid-points": 5}))
        code, out, _ = run_cli(["check-conditions", "--dist", PARETO, "--config", str(cfg)],
                               capsys)
        assert code == 0 and "over [3, 51]" in json.loads(out)["notes"]


# one command per exit status: (argv, stdin, exit code, the whole of stderr)
EXIT_STATUS = {
    2: (["detect", "--kappa", "2"], "1\n2\n",
        "error: kappa must be a real number in (0, 1), got 2.0\n"),
    3: (["prob-exact", "--dist", "stable:alpha=0.5", "--n", "10"], None,
        "error: family 'stable' has no quantile\n"),
    4: (["detect"], "1\n",
        "error: need at least 2 values to rank the top two, got 1\n"),
    5: (["prob-oracle", "--dist", "pareto:alpha=0.01", "--n", "8", "--kappa", "0.5"], None,
        "error: quadrature levels 7 and 8 differ by 8.341e-05 and the outermost nodes add "
        "8.860e-02, against a tolerance of 9.791e-09 (best estimate 0.9791100991575936)\n"),
    6: (["estimate-alpha", "--block-size", "2"], "0\n0\n0\n0\n",
        "error: every block triggered the event; alpha_hat is only bounded above "
        "(95% upper bound on alpha: 1.54633)\n"),
}


@pytest.mark.parametrize("code", sorted(EXIT_STATUS))
def test_exit_status_and_stderr(code, capsys, monkeypatch):
    argv, stdin, err = EXIT_STATUS[code]
    assert run_cli(argv, capsys, stdin=stdin, monkeypatch=monkeypatch) == (code, "", err)


@pytest.mark.parametrize("command", ["prob-exact", "prob-mc", "check-conditions"])
def test_n_beyond_int64_exit_code(command, capsys):
    n = "1" + "0" * 400
    seed = ["--seed", "1"] if command == "prob-mc" else []
    argv = [command, "--dist", PARETO, "--n", n, *seed]
    assert run_cli(argv, capsys) == (2, "", f"error: n must be in 2..{2**63 - 1}, got {n}\n")


def test_trials_beyond_int64_exit_code(capsys):
    trials = "1" + "0" * 400
    argv = ["prob-mc", "--dist", PARETO, "--n", "10", "--seed", "1", "--trials", trials]
    err = f"error: trials must be in 1..{2**63 - 1}, got {trials}\n"
    assert run_cli(argv, capsys) == (2, "", err)


@pytest.mark.parametrize("mode", ["trajectory", "scaling"])
def test_replications_beyond_int64_exit_code(capsys, mode):
    replications = "1" + "0" * 400
    argv = ["lln-demo", "--dist", PARETO, "--mode", mode, "--ns", "10,20", "--seed", "1",
            "--replications", replications]
    err = f"error: replications must be in 1..{2**63 - 1}, got {replications}\n"
    assert run_cli(argv, capsys) == (2, "", err)


# the smallest float rate whose unit, 1/rate, is a float (1.7976931348623143e308)
SMALLEST_RATE = "5.562684646268008e-309"


# each command that takes --dist, with its other arguments
DIST_COMMANDS = {
    "prob-exact": ["--n", "10"],
    "prob-oracle": ["--n", "4"],
    "prob-mc": ["--n", "10", "--seed", "1", "--trials", "2000"],
    "check-conditions": [],
    "lln-demo": ["--ns", "10,100", "--replications", "3", "--seed", "1"],
}


@pytest.mark.parametrize("command", DIST_COMMANDS)
def test_rate_whose_unit_overflows_exit_code(command, capsys):
    # 1/1e-309 is inf: every sample would be inf and every density 0
    argv = [command, "--dist", "exponential:rate=1e-309", *DIST_COMMANDS[command]]
    err = ("error: --dist: rate must be a real number in (5.562684646268003e-309, inf), "
           "got '1e-309'\n")
    assert run_cli(argv, capsys) == (2, "", err)


@pytest.mark.parametrize("command", ["prob-exact", "prob-mc"])
def test_smallest_rate_gives_the_unit_rate_record(command, capsys):
    records = []
    for rate in (SMALLEST_RATE, "1"):
        argv = [command, "--dist", f"exponential:rate={rate}", *DIST_COMMANDS[command]]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        records.append({k: v for k, v in json.loads(out).items() if k != "params"})
    assert records[0] == records[1]


MC_OVERFLOW = ["prob-mc", "--trials", "20000", "--seed", "1", "--dist"]


# Pareto's P(second <= kappa * largest) is kappa**alpha at every n.  A standard
# value beyond the largest float M is inf, which leaves its row undecided unless
# the second is at most kappa * M.  At kappa = 1e-300 such rows once gave 0.744,
# 0.0573 and 0.00195 for kappa**alpha = 0.5012, 0.0316 and 0.0010, at exit 0;
# at n = 50, kappa = 0.5, 24 of the 20000 rows hold two infs
@pytest.mark.parametrize("alpha, kappa, n", [("0.001", "1e-300", "2"), ("0.005", "1e-300", "2"),
                                             ("0.01", "1e-300", "2"), ("0.01", "0.5", "50")])
def test_mc_refuses_an_event_the_floats_cannot_decide(alpha, kappa, n, capsys):
    argv = [*MC_OVERFLOW, f"pareto:alpha={alpha}", "--kappa", kappa, "--n", n]
    err = "error: a sample overflowed the floats where it decides the outlier event\n"
    assert run_cli(argv, capsys) == (5, "", err)


def test_mc_counts_a_decided_overflow(capsys):
    # 39 of these rows hold one inf and a second below kappa * M: each an event
    argv = [*MC_OVERFLOW, "pareto:alpha=0.01", "--kappa", "0.5", "--n", "2"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out == (
        '{"method": "monte_carlo", "family": "pareto", "params": "alpha=0.01;xm=1", "n": 2, '
        '"kappa": 0.5, "value": 0.993, "error_estimate": 0.0005895337140486541, '
        '"ci_lo": 0.9917460998660389, "ci_hi": 0.9940645525826418, "trials": 20000, '
        '"seed": 1}\n')


@pytest.mark.parametrize("mode", ["trajectory", "scaling"])
def test_lln_demo_refuses_an_overflowed_sum(mode, capsys):
    # the standard law's sum overflows at alpha = 0.005: it once printed 100,inf
    argv = ["lln-demo", "--dist", "pareto:alpha=0.005", "--ns", "10,100", "--replications",
            "3", "--seed", "1", "--mode", mode]
    assert run_cli(argv, capsys) == (5, "", "error: a running mean overflowed the floats\n")


def test_n_too_large_to_sample_exit_code(capsys):
    n = 2**63 - 1  # accepted as an int64, refused by numpy before it takes memory
    code, out, err = run_cli(["prob-mc", "--dist", PARETO, "--n", str(n), "--seed", "1"], capsys)
    assert (code, out) == (2, "") and err.startswith(f"error: n is too large to sample, got {n}: ")


@pytest.mark.parametrize("points", [2**63 - 1, 10**19])
def test_grid_points_beyond_bound_exit_code(points, capsys):
    argv = ["check-conditions", "--dist", PARETO, "--grid-points", str(points)]
    err = f"error: grid_points must be in 2..10000000, got {points}\n"
    assert run_cli(argv, capsys) == (2, "", err)


def test_count_too_large_to_convert_exit_code(capsys, monkeypatch):
    # raised by hand: an OverflowError is an argument error wherever it comes from
    def handler(opts):
        raise OverflowError("int too large to convert to float")

    text, options, _ = cli._COMMANDS["prob-exact"]
    monkeypatch.setitem(cli._COMMANDS, "prob-exact", (text, options, handler))
    code, out, err = run_cli(["prob-exact", "--dist", PARETO, "--n", "10"], capsys)
    assert (code, out, err) == (2, "", "error: int too large to convert to float\n")


def test_count_too_large_to_allocate_exit_code(capsys, monkeypatch):
    # raised by hand: where memory is overcommitted, a real request could be granted
    def handler(opts):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    text, options, _ = cli._COMMANDS["prob-mc"]
    monkeypatch.setitem(cli._COMMANDS, "prob-mc", (text, options, handler))
    code, out, err = run_cli(["prob-mc", "--dist", PARETO, "--n", "10", "--seed", "1"], capsys)
    assert (code, out, err) == (2, "", "error: Unable to allocate 7.28 TiB for an array\n")


# Every subcommand but lln-demo, byte for byte.  A prob-mc record is a
# function of its event count, which does not hang on the last bits of
# numpy's SIMD tan; its stream layout may change, on purpose and announced.
# check-conditions' integrand_integral is the total variation of the
# half-Cauchy r(x) = (2 + x**2/2)/(1 + x**2) over [0.5, 40], which falls
# from r(0.5) to r(40): 19197/16010 = 1.1990630855715179 by hand.
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
        ' "n": 100, "kappa": 0.5, "value": 0.5001798374824591, '
        '"error_estimate": 4.44248937621036e-16, "ci_lo": null, "ci_hi": null,'
        ' "trials": null, "seed": null}\n'
    ),
    ("prob-exact", "csv"): (
        'method,family,params,n,kappa,value,error_estimate,ci_lo,ci_hi,trials,'
        'seed\n'
        'quadrature,half_cauchy,scale=1,100,0.5,0.50017983748245909,'
        '4.4424893762103598e-16,,,,\n'
    ),
    ("prob-oracle", "json"): (
        '{"method": "joint_oracle", "family": "half_cauchy", "params": '
        '"scale=1", "n": 4, "kappa": 0.5, "value": 0.5774902981001575, '
        '"error_estimate": 1.3921863661892075e-11, "ci_lo": null, "ci_hi": '
        'null, "trials": null, "seed": null}\n'
    ),
    ("prob-oracle", "csv"): (
        'method,family,params,n,kappa,value,error_estimate,ci_lo,ci_hi,trials,'
        'seed\n'
        'joint_oracle,half_cauchy,scale=1,4,0.5,0.57749029810015751,'
        '1.3921863661892075e-11,,,,\n'
    ),
    ("check-conditions", "json"): (
        '{"family": "half_cauchy", "params": "scale=1", "n": 1000, "kappa": '
        '0.5, "boundary_ratio_limit": 0.5009369144284822, "zero_limit_ok": '
        'true, "integrand_integral": 1.1990630855715176, "notes": "edge probe '
        'at x -> 0: first 0.000e+00, last 0.000e+00; integral of |g| over [0.5,'
        ' 40] = 1.199e+00; boundary ratio at x = 40: 5.009369e-01"}\n'
    ),
    ("check-conditions", "csv"): (
        'family,params,n,kappa,boundary_ratio_limit,zero_limit_ok,'
        'integrand_integral,notes\n'
        'half_cauchy,scale=1,1000,0.5,0.50093691442848221,true,'
        '1.1990630855715176,edge probe at x -> 0: first 0.000e+00; last '
        '0.000e+00; integral of |g| over [0.5; 40] = 1.199e+00; boundary ratio '
        'at x = 40: 5.009369e-01\n'
    ),
    ("prob-mc:pareto", "json"): (
        '{"method": "monte_carlo", "family": "pareto", "params": '
        '"alpha=1.5;xm=1", "n": 7, "kappa": 0.5, "value": '
        '0.39666666666666667, "error_estimate": 0.02824430457173164, "ci_lo": '
        '0.34295083194304077, "ci_hi": 0.452995382110032, "trials": 300, '
        '"seed": 5}\n'
    ),
    ("prob-mc:half_cauchy", "json"): (
        '{"method": "monte_carlo", "family": "half_cauchy", "params": '
        '"scale=1", "n": 7, "kappa": 0.5, "value": 0.5766666666666667, '
        '"error_estimate": 0.028526141357371502, "ci_lo": 0.5201332672229635, '
        '"ci_hi": 0.6312614771892728, "trials": 300, "seed": 5}\n'
    ),
    ("prob-mc:exponential", "json"): (
        '{"method": "monte_carlo", "family": "exponential", "params": '
        '"rate=1", "n": 7, "kappa": 0.5, "value": 0.31, "error_estimate": '
        '0.026702059845637376, "ci_lo": 0.26034352510199493, "ci_hi": '
        '0.3644608039633325, "trials": 300, "seed": 5}\n'
    ),
    ("prob-mc:half_normal", "json"): (
        '{"method": "monte_carlo", "family": "half_normal", "params": '
        '"sigma=1", "n": 7, "kappa": 0.5, "value": 0.09333333333333334, '
        '"error_estimate": 0.016795061002392163, "ci_lo": '
        '0.06536421957889091, "ci_hi": 0.1315853970170732, "trials": 300, '
        '"seed": 5}\n'
    ),
    ("prob-mc:stable", "json"): (
        '{"method": "monte_carlo", "family": "stable", "params": '
        '"alpha=1.5;scale=1", "n": 7, "kappa": 0.5, "value": 0.35, '
        '"error_estimate": 0.02753785273643051, "ci_lo": 0.29823200252235404, '
        '"ci_hi": 0.4055608888450096, "trials": 300, "seed": 5}\n'
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
    **{f"prob-mc:{spec.partition(':')[0]}": ["prob-mc", "--dist", spec, "--n", "7",
                                              "--trials", "300", "--seed", "5"]
       for spec in ("pareto:alpha=1.5", "half_cauchy:scale=1", "exponential:rate=1",
                    "half_normal:sigma=1", "stable:alpha=1.5")},
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


# numpy's AVX-512 exp, sinh, cosh, arctan and pow differ from libm's in the last
# bit; the quadrature routes use math alone, so a CPU without AVX-512 (and without
# AVX2, X86_V3) prints the same digits.  numpy ignores a feature it does not know.
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"


# the goldens, and the commands whose digits numpy's AVX-512 loops moved
CPU_ARGV = {
    **{command: GOLDEN_ARGV[command] for command in
       ("prob-exact", "prob-oracle", "check-conditions")},
    "prob-exact:half_cauchy": ["prob-exact", "--dist", "half_cauchy:scale=1", "--n", "10"],
    "prob-exact:half_normal": ["prob-exact", "--dist", "half_normal:sigma=1", "--n", "10"],
    "check-conditions:pareto": ["check-conditions", "--dist", PARETO],
}


@pytest.mark.parametrize("command", sorted(CPU_ARGV))
def test_quadrature_digits_do_not_depend_on_the_cpu(command):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    argv = [sys.executable, "-m", "tailratio.cli", *CPU_ARGV[command]]
    outs = [subprocess.run(argv, capture_output=True, text=True, timeout=120, env=e).stdout
            for e in (env, dict(env, NPY_DISABLE_CPU_FEATURES=NO_AVX512))]
    assert outs[0] == outs[1] != ""
    assert outs[0] == GOLDEN.get((command, "json"), outs[0])
