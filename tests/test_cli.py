import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from scenerywalk import cli, reporting
from scenerywalk.cli import main


def run_cli(args, env=None):
    """Invoke the CLI in-process, capturing stdout and the exit code."""
    import contextlib
    import io

    buf = io.StringIO()
    old_env = {}
    if env:
        for k, v in env.items():
            old_env[k] = os.environ.get(k)
            os.environ[k] = v
    try:
        with contextlib.redirect_stdout(buf):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        for k, v in old_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, buf.getvalue()


class TestExponentsCommand:
    def test_single_point_row(self):
        code, out = run_cli(["exponents", "--dim", "1", "--alpha", "1", "--rho", "1.5"])
        assert code == 0
        assert out.splitlines()[0] == "alpha,x,value,regime"
        assert "1,1.5,0.5,first" in out.splitlines()

    def test_empty_grid_usage_error(self):
        code, _ = run_cli(["exponents", "--dim", "1", "--alpha", "", "--rho", "1.5"])
        assert code == 2

    def test_q_boundary_rows_match_figure_corner(self):
        code, out = run_cli(
            ["exponents", "--which", "q", "--dim", "1", "--alpha", "1", "--delta", "0.6,1.1"]
        )
        assert code == 0
        # boundary at delta = (2 alpha + 1)/(2 alpha) = 1.5 for alpha = 1
        assert any(line.startswith("1,1.5,1,boundary:") for line in out.splitlines())

    def test_json_format(self, tmp_path):
        out_file = tmp_path / "table.json"
        code, _ = run_cli(
            [
                "exponents",
                "--dim",
                "1",
                "--alpha",
                "1",
                "--rho",
                "1.5",
                "--format",
                "json",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["which"] == "p"
        assert any(r["regime"] == "first" for r in payload["rows"])


class TestSimulateCommand:
    def test_lln_json_mean_near_target(self, tmp_path):
        out_file = tmp_path / "lln.json"
        code, _ = run_cli(
            [
                "simulate",
                "lln",
                "--alpha",
                "2",
                "--dim",
                "1",
                "--t-grid",
                "2000",
                "--replicas",
                "400",
                "--seed",
                "5",
                "--format",
                "json",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        t, mean, stderr, target = payload["result"]
        assert target == 2.0
        assert abs(mean - 2.0) <= 5 * stderr

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate",
            "tail-scan",
            "--alpha",
            "0.5",
            "--dim",
            "1",
            "--rho",
            "1.2",
            "--t-grid",
            "100,1000",
            "--replicas",
            "2000",
            "--seed",
            "9",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(f1)])[0] == 0
        assert run_cli(args + ["--out", str(f2)])[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_provenance_covers_rho(self):
        def provenance(rho):
            code, out = run_cli(
                [
                    "simulate", "tail-scan", "--alpha", "0.5", "--dim", "1", "--rho", rho,
                    "--t-grid", "100", "--replicas", "50", "--seed", "9",
                ]
            )
            assert code == 0
            return out.splitlines()[1].split(",")[-1]

        assert provenance("1.2") != provenance("1.3")

    def test_zero_replicas_usage_error(self):
        code, _ = run_cli(
            ["simulate", "lln", "--alpha", "2", "--dim", "1", "--t-grid", "100", "--replicas", "0"]
        )
        assert code == 2

    def test_stretched_regime_refused_with_exit_3(self):
        code, _ = run_cli(
            [
                "simulate",
                "tail-scan",
                "--alpha",
                "0.5",
                "--dim",
                "1",
                "--rho",
                "2.0",
                "--t-grid",
                "100",
                "--replicas",
                "100",
            ]
        )
        assert code == 3

    def test_environment_does_not_set_the_seed(self, tmp_path):
        args = ["simulate", "lln", "--alpha", "2", "--dim", "1", "--t-grid", "100"]
        args += ["--replicas", "128", "--format", "json"]
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + ["--out", str(f1)], env={"SCENERYWALK_SEED": "77"})[0] == 0
        assert run_cli(args + ["--out", str(f2), "--seed", "0"])[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {"alpha": 2.0, "dim": 1, "t_grid": "100", "replicas": 128, "seed": 3}
            )
        )
        out_file = tmp_path / "out.json"
        code, _ = run_cli(
            [
                "simulate",
                "lln",
                "--config",
                str(cfg),
                "--seed",
                "4",
                "--format",
                "json",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        assert json.loads(out_file.read_text())["seed"] == 4  # flag wins

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"alpha": 2.0, "mystery": 1}))
        code, _ = run_cli(["simulate", "lln", "--config", str(cfg), "--replicas", "8"])
        assert code == 2

    def test_config_quantile_is_read(self, tmp_path):
        base = {"alpha": 0.8, "dim": 1, "t_grid": "10:100:5", "replicas": 64, "seed": 2}
        cfg = tmp_path / "q.json"
        cfg.write_text(json.dumps({**base, "quantile": 0.9}))
        code, from_config = run_cli(["simulate", "scaling", "--config", str(cfg)])
        assert code == 0
        cfg_flag = tmp_path / "base.json"
        cfg_flag.write_text(json.dumps(base))
        code, from_flag = run_cli(
            ["simulate", "scaling", "--config", str(cfg_flag), "--quantile", "0.9"]
        )
        assert code == 0
        assert from_config == from_flag

    def test_config_key_not_read_rejected(self, tmp_path):
        cfg = tmp_path / "chem.json"
        cfg.write_text(json.dumps({"replicas": 100}))
        args = ["chemdist", "--config", str(cfg), "--alpha", "1", "--dim", "1", "--delta", "1"]
        code, _ = run_cli(args + ["--t-grid", "10:1000:5"])
        assert code == 2

    def test_config_string_number_converted(self, tmp_path):
        base = {"alpha": 2.0, "dim": "1", "t_grid": "100", "seed": "3"}
        cfg = tmp_path / "str.json"
        cfg.write_text(json.dumps({**base, "replicas": "64"}))
        code, from_config = run_cli(["simulate", "lln", "--config", str(cfg)])
        assert code == 0
        cfg_flag = tmp_path / "base.json"
        cfg_flag.write_text(json.dumps(base))
        code, from_flag = run_cli(
            ["simulate", "lln", "--config", str(cfg_flag), "--replicas", "64"]
        )
        assert code == 0
        assert from_config == from_flag

    @pytest.mark.parametrize(
        "key,value", [("replicas", "many"), ("replicas", 6.5), ("format", "xml")]
    )
    def test_config_bad_typed_value_rejected(self, tmp_path, capsys, key, value):
        base = {"alpha": 2.0, "dim": 1, "t_grid": "100", "replicas": 64, "seed": 3}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**base, key: value}))
        out_file = tmp_path / "out"
        code, _ = run_cli(["simulate", "lln", "--config", str(cfg), "--out", str(out_file)])
        assert code == 2
        # a config value gets the message its flag gets on the command line
        assert f"error: argument --{key}: invalid" in capsys.readouterr().err
        assert not out_file.exists()

    def test_config_list_t_grid(self, tmp_path):
        base = {"alpha": 0.5, "dim": 1, "rho": 1.2, "replicas": 200, "seed": 9}
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({**base, "t_grid": [100, 1000]}))
        code, from_list = run_cli(["simulate", "tail-scan", "--config", str(cfg)])
        assert code == 0
        cfg_flag = tmp_path / "base.json"
        cfg_flag.write_text(json.dumps(base))
        code, from_flag = run_cli(
            ["simulate", "tail-scan", "--config", str(cfg_flag), "--t-grid", "100,1000"]
        )
        assert code == 0
        assert from_list == from_flag

    def test_config_empty_list_is_unset(self, tmp_path):
        base = {"alpha": 0.5, "dim": 1, "delta": 0.4, "t_grid": "100", "replicas": 50, "seed": 9}
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({**base, "rho": [], "gamma": []}))
        cfg_unset = tmp_path / "unset.json"
        cfg_unset.write_text(json.dumps(base))
        code, with_empty = run_cli(["simulate", "tail-scan", "--config", str(cfg)])
        assert code == 0
        assert with_empty == run_cli(["simulate", "tail-scan", "--config", str(cfg_unset)])[1]

    def test_geometric_grid_needs_positive_ends(self, capsys):
        args = ["simulate", "tail-scan", "--alpha", "0.5", "--dim", "1", "--rho", "1.2"]
        code, _ = run_cli(args + ["--t-grid", "100:-5:3", "--replicas", "10"])
        assert code == 2
        assert "bad range '100:-5:3'" in capsys.readouterr().err

    def test_write_once(self, tmp_path):
        out_file = tmp_path / "once.csv"
        args = [
            "exponents",
            "--dim",
            "1",
            "--alpha",
            "1",
            "--rho",
            "1.5",
            "--out",
            str(out_file),
        ]
        assert run_cli(args)[0] == 0
        assert run_cli(args)[0] == 2  # refuses to overwrite

    def test_write_once_refuses_a_file_made_after_the_check(self, tmp_path, monkeypatch):
        # a file created between an existence check and the open must not be
        # clobbered: the open itself refuses it
        out_file = tmp_path / "raced.csv"
        out_file.write_text("first\n")
        monkeypatch.setattr(os.path, "exists", lambda path: False)
        with pytest.raises(FileExistsError, match="refusing to overwrite existing output"):
            reporting.write_text(str(out_file), "second\n")
        assert out_file.read_text() == "first\n"

    @pytest.mark.parametrize("where", ["missing-dir/x.csv", "a-file/x.csv"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, where):
        (tmp_path / "a-file").write_text("")
        args = ["simulate", "lln", "--alpha", "2", "--dim", "1", "--t-grid", "100"]
        code, out = run_cli(args + ["--replicas", "10", "--out", str(tmp_path / where)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")


class TestOutsideInput:
    """Seeds and config files come from outside and are checked before any run."""

    _LLN = ["simulate", "lln", "--alpha", "2", "--dim", "1", "--t-grid", "100", "--replicas", "10"]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_flag_outside_64_bits_refused(self, capsys, seed):
        assert run_cli(self._LLN + ["--seed", seed]) == (2, "")
        assert "seed must lie in [0, 2^64)" in capsys.readouterr().err

    def test_largest_seed_accepted(self):
        assert run_cli(self._LLN + ["--seed", str(2**64 - 1)])[0] == 0

    def test_config_seed_outside_64_bits_refused(self, tmp_path):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"seed": 2**64}))
        assert run_cli(self._LLN + ["--config", str(cfg)])[0] == 2

    def test_chemdist_seed_refused_as_usage_error(self, capsys):
        args = ["chemdist", "--alpha", "1", "--dim", "1", "--delta", "1", "--t-grid", "10:1000:5"]
        assert run_cli(args + ["--seed", "-1"])[0] == 2
        assert "seed must lie in [0, 2^64)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "lln", "--alpha", "2", "--t-grid", "0"], "must be finite and > 0"),
            (["simulate", "khasminskii", "--t-grid", "0"], "must be finite and > 0"),
            (["simulate", "tail-scan", "--alpha", "0.5", "--rho", "1.2", "--t-grid", "0,100"],
             "must be finite and > 0"),
            (["simulate", "lln", "--alpha", "2", "--t-grid", "inf"], "must be finite and > 0"),
            (["simulate", "lln", "--alpha", "nan", "--t-grid", "100"], "must be finite, got 'nan'"),
            (["exponents", "--which", "q", "--alpha", "nan", "--delta", "1"], "must be finite"),
            (["chemdist", "--alpha", "1", "--delta", "1", "--t-grid", "10:1000:5", "--dim", "0"],
             "--dim must be >= 1, got 0"),
            (["simulate", "lln", "--alpha", "2", "--t-grid", "100", "--dim", "0"],
             "--dim must be >= 1, got 0"),
            (["exponents", "--alpha", "1", "--rho", "1.5", "--dim", "0"], "--dim must be >= 1"),
            (["simulate", "scaling", "--alpha", "0", "--t-grid", "10:100:5"], "0 < alpha <= 1"),
            (["simulate", "scaling", "--alpha", "-1", "--t-grid", "10:100:5"], "0 < alpha <= 1"),
        ],
        ids=["lln-t-0", "khasminskii-t-0", "tail-scan-t-0", "lln-t-inf", "lln-alpha-nan",
             "exponents-alpha-nan", "chemdist-dim-0", "simulate-dim-0", "exponents-dim-0",
             "scaling-alpha-0", "scaling-alpha-negative"],
    )
    def test_outside_number_refused_with_exit_2(self, capsys, args, message):
        dim = [] if "--dim" in args else ["--dim", "1"]
        replicas = ["--replicas", "10"] if args[0] == "simulate" else []
        assert run_cli(args + dim + replicas) == (2, "")
        err = capsys.readouterr().err
        assert "error: " in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "scaling", "--alpha", "0.8", "--t-grid", "10:100:5", "--quantile", "nan"],
            ["simulate", "chen", "--t-grid", "100", "--b-value", "inf"],
        ],
        ids=["quantile", "b-value"],
    )
    def test_non_finite_value_flag_refused(self, capsys, args):
        assert run_cli(args + ["--dim", "1", "--replicas", "10"]) == (2, "")
        assert "invalid finite value" in capsys.readouterr().err

    def test_config_time_grid_list_needs_positive_values(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"t_grid": [0, 100]}))
        args = ["simulate", "tail-scan", "--alpha", "0.5", "--rho", "1.2", "--dim", "1"]
        assert run_cli(args + ["--replicas", "10", "--config", str(cfg)]) == (2, "")
        message = "--t-grid: grid values must be finite and > 0, got '0,100'"
        assert message in capsys.readouterr().err

    def test_lln_needs_alpha(self, capsys):
        args = ["simulate", "lln", "--dim", "1", "--t-grid", "100", "--replicas", "10"]
        assert run_cli(args) == (2, "")
        assert "lln needs --alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"alpha": {"a": 1}}, 'config field alpha: {"a": 1} is not a number'),
            ({"t_grid": [[100]]}, "config field t_grid: [[100]] is not a number"),
            ({"alpha": True}, "config field alpha: true is not a number"),
            ({"alpha": "-inf"}, "--alpha: grid values must be finite, got '-inf'"),
        ],
        ids=["object", "nested-list", "boolean", "leading-minus"],
    )
    def test_config_value_read_as_flag_text(self, tmp_path, capsys, payload, message):
        # a value is its flag's text; a JSON type with no such text is a usage error
        cfg = tmp_path / "value.json"
        cfg.write_text(json.dumps(payload))
        args = ["simulate", "lln", "--dim", "1", "--t-grid", "100", "--replicas", "10"]
        assert run_cli(args + ["--config", str(cfg)]) == (2, "")
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "tail-scan", "--alpha", "0.5", "--rho", "nan", "--t-grid", "100"],
             "--rho: grid values must be finite, got 'nan'"),
            (["simulate", "lln", "--alpha", "nan", "--t-grid", "100"],
             "--alpha: grid values must be finite, got 'nan'"),
            (["simulate", "scaling", "--alpha", "0.8", "--t-grid", "100:1000:2.5"],
             "--t-grid: invalid literal for int()"),
            (["chemdist", "--alpha", "1", "--delta", "1", "--t-grid", "10:1000"],
             "--t-grid: range syntax is lo:hi:n"),
            (["exponents", "--alpha", "1", "--rho", "x"], "--rho: could not convert"),
        ],
        ids=["rho-nan", "alpha-nan", "t-grid-count", "t-grid-range", "rho-text"],
    )
    def test_number_error_names_its_flag(self, capsys, args, message):
        replicas = ["--replicas", "10"] if args[0] == "simulate" else []
        assert run_cli(args + ["--dim", "1"] + replicas) == (2, "")
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [5, [["alpha", 1]], ["alpha"], "alpha"])
    def test_config_not_an_object_refused(self, tmp_path, capsys, payload):
        cfg = tmp_path / "shape.json"
        cfg.write_text(json.dumps(payload))
        assert run_cli(self._LLN + ["--config", str(cfg)])[0] == 2
        assert "config must be a JSON object" in capsys.readouterr().err


#: a valid, cheap run of each simulate task
_TASK_RUN = {
    "lln": ["--alpha", "2", "--t-grid", "100"],
    "scaling": ["--alpha", "0.8", "--t-grid", "10:100:5"],
    "tail-scan": ["--alpha", "0.5", "--rho", "1.2", "--t-grid", "100"],
    "chen": ["--t-grid", "100"],
    "khasminskii": ["--t-grid", "100"],
}
#: the flags of each task besides dim, t-grid, replicas, seed and format
_TASK_FLAGS = {
    "lln": ("alpha",),
    "scaling": ("alpha", "quantile", "jobs"),
    "tail-scan": ("alpha", "rho", "delta", "gamma", "jobs"),
    "chen": ("b_value",),
    "khasminskii": ("moment",),
}
_FLAG_VALUE = {
    "alpha": "2", "rho": "1.2", "delta": "0.4", "gamma": "0.1", "jobs": "2",
    "quantile": "0.9", "b_value": "3", "moment": "3",
}
_UNREAD = [
    (task, flag)
    for task, flags in _TASK_FLAGS.items()
    for flag in _FLAG_VALUE
    if flag not in flags
]


def _simulate(task, *extra):
    run = ["--dim", "1", "--replicas", "10", "--seed", "1"]
    return ["simulate", task, *_TASK_RUN[task], *run, *extra]


class TestEveryOptionIsRead:
    """A flag or config key that a command or task does not read is a usage error."""

    @pytest.mark.parametrize("task, flag", _UNREAD, ids=[f"{t}-{f}" for t, f in _UNREAD])
    def test_flag_the_task_does_not_read_exits_2(self, capsys, task, flag):
        name = "--" + flag.replace("_", "-")
        assert run_cli(_simulate(task, name, _FLAG_VALUE[flag])) == (2, "")
        assert f"unrecognized arguments: {name}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "task, extra",
        [("scaling", ["--quantile", "0.9", "--jobs", "2"]), ("tail-scan", ["--jobs", "2"]),
         ("chen", ["--b-value", "3"]), ("khasminskii", ["--moment", "3"])],
    )
    def test_each_flag_of_the_task_is_taken(self, task, extra):
        code, out = run_cli(_simulate(task, *extra))
        assert code == 0 and out

    @pytest.mark.parametrize(
        "model, unread",
        [(["--rho", "1.2"], "gamma"), (["--delta", "0.4"], "rho")],
        ids=["rwrs", "rcm"],
    )
    def test_tail_scan_flag_its_model_does_not_read_exits_2(self, capsys, model, unread):
        args = ["simulate", "tail-scan", "--alpha", "0.5", "--dim", "1", "--t-grid", "100", *model]
        assert run_cli(args + ["--replicas", "10", "--" + unread, "0.1"]) == (2, "")
        assert f"tail-scan does not read --{unread}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "task, key, value",
        [("lln", "quantile", 0.9), ("scaling", "rho", 1.2), ("chen", "moment", 3),
         ("khasminskii", "b_value", 3.0), ("tail-scan", "quantile", 0.9)],
    )
    def test_config_key_of_another_task_exits_2(self, tmp_path, capsys, task, key, value):
        cfg = tmp_path / "other.json"
        cfg.write_text(json.dumps({key: value}))
        assert run_cli(_simulate(task, "--config", str(cfg))) == (2, "")
        assert f"config fields not read by simulate {task}: ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, capsys, jobs):
        assert run_cli(_simulate("scaling", "--jobs", jobs)) == (2, "")
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--seeds", "0"), ("--seeds", "-2"), ("--replicas", "0"), ("--replicas", "-1")]
    )
    def test_count_below_one_exits_2(self, capsys, flag, value):
        if flag == "--seeds":
            args = ["chemdist", "--alpha", "1", "--delta", "1", "--t-grid", "10:1000:5"]
        else:
            args = ["simulate", "lln", "--alpha", "2", "--t-grid", "100"]
        assert run_cli(args + ["--dim", "1", flag, value]) == (2, "")
        assert f"error: {flag} must be >= 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_config_jobs_below_one_exits_2(self, tmp_path, jobs):
        cfg = tmp_path / "jobs.json"
        cfg.write_text(json.dumps({"jobs": jobs}))
        assert run_cli(_simulate("tail-scan", "--config", str(cfg))) == (2, "")

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "lln", "--alpha", "2,5", "--t-grid", "100", "--replicas", "10"],
            ["simulate", "tail-scan", "--alpha", "0.5", "--rho", "1.2,1.3", "--t-grid", "100",
             "--replicas", "10"],
            ["simulate", "tail-scan", "--alpha", "0.5", "--delta", "0.4:0.5:2", "--t-grid", "100",
             "--replicas", "10"],
            ["simulate", "tail-scan", "--alpha", "0.5", "--delta", "0.4", "--gamma", "0.1,0.2",
             "--t-grid", "100", "--replicas", "10"],
            ["chemdist", "--alpha", "1,2", "--delta", "1", "--t-grid", "10:1000:5"],
            ["chemdist", "--alpha", "1", "--delta", "1,1.2", "--t-grid", "10:1000:5"],
            ["chemdist", "--alpha", "1", "--delta", "1", "--gamma", "0,0.2", "--t-grid", "10:1000:5"],
            ["exponents", "--which", "displacement", "--alpha", "1", "--delta", "0.5",
             "--gamma", "0.5,0.7"],
        ],
        ids=["sim-alpha", "sim-rho", "sim-delta", "sim-gamma", "chem-alpha", "chem-delta",
             "chem-gamma", "exp-gamma"],
    )
    def test_grid_given_to_a_value_flag_exits_2(self, capsys, args):
        assert run_cli(args + ["--dim", "1"]) == (2, "")
        assert "takes one value, got" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "which, flag, value",
        [("p", "delta", "1"), ("p", "gamma", "0.5"), ("q", "rho", "1.5"), ("q", "gamma", "0.5"),
         ("displacement", "rho", "1.5")],
    )
    def test_exponents_flag_the_table_does_not_read_exits_2(self, capsys, which, flag, value):
        x = {"p": ["--rho", "1.5"], "q": ["--delta", "1"], "displacement": ["--delta", "1"]}[which]
        args = ["exponents", "--which", which, "--alpha", "1", "--dim", "1", *x]
        assert run_cli(args + ["--" + flag, value]) == (2, "")
        assert f"--which {which} does not read --{flag}" in capsys.readouterr().err


#: a cheap run of each simulate task (tail-scan once per model) and, for each
#: flag it takes besides --jobs and --format, another value that moves its numbers
_MOVE_BASE = {"dim": "1", "replicas": "100", "seed": "1"}
_MOVE_OTHER = {"dim": "2", "replicas": "300", "seed": "2"}
_MOVES = {
    "lln": ("lln", {"alpha": "2", "t_grid": "100"}, {"alpha": "3", "t_grid": "200"}),
    "scaling": (
        "scaling",
        {"alpha": "0.8", "t_grid": "10:100:5"},
        {"alpha": "0.6", "t_grid": "20:200:5", "quantile": "0.9"},
    ),
    "tail-scan-rwrs": (
        "tail-scan",
        {"alpha": "0.5", "rho": "1.45", "t_grid": "1000"},
        {"alpha": "0.45", "rho": "1.4", "t_grid": "2000"},
    ),
    "tail-scan-rcm": (
        "tail-scan",
        {"alpha": "0.5", "delta": "0.4", "gamma": "0.1", "t_grid": "4", "replicas": "200"},
        {"alpha": "0.6", "delta": "0.7", "gamma": "0.5", "t_grid": "8"},
    ),
    "chen": ("chen", {"t_grid": "100"}, {"t_grid": "200", "b_value": "3"}),
    "khasminskii": ("khasminskii", {"t_grid": "100"}, {"t_grid": "200", "moment": "3"}),
}
_MOVE_CASES = [
    pytest.param(task, {**_MOVE_BASE, **base}, flag, value, id=f"{name}-{flag}")
    for name, (task, base, other) in _MOVES.items()
    for flag, value in {**_MOVE_OTHER, **other}.items()
]


class TestEveryFlagMovesTheNumbers:
    """Two runs that differ in one flag of the task differ in more than the provenance."""

    @pytest.mark.parametrize("task, base, flag, value", _MOVE_CASES)
    def test_flag_changes_the_csv(self, task, base, flag, value):
        def numbers(flags):
            argv = [x for f, v in flags.items() for x in ("--" + f.replace("_", "-"), v)]
            code, out = run_cli(["simulate", task, *argv])
            assert code == 0
            return [line.rsplit(",", 1)[0] for line in out.splitlines()]

        assert numbers(base) != numbers({**base, flag: value})

    def test_every_flag_of_every_task_is_moved(self):
        taken = {
            (task, flag)
            for task, (_, flags, _) in cli._TASKS.items()
            for flag in (*cli._SIM_COMMON, *flags)
            if flag not in ("jobs", "format")
        }
        assert {(case.values[0], case.values[2]) for case in _MOVE_CASES} == taken


def _readme_commands():
    """Every ``scenerywalk …`` line of the README's code blocks, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```", readme, re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()]
    commands = [line for line in lines if line.startswith("scenerywalk ")]
    return [shlex.split(line, comments=True)[1:] for line in commands]


_README_COMMANDS = _readme_commands()


class TestReadmeExamples:
    def test_readme_has_examples_of_every_command(self):
        commands = {argv[0] for argv in _README_COMMANDS}
        assert commands == {"exponents", "simulate", "chemdist", "verify"}
        assert {argv[1] for argv in _README_COMMANDS if argv[0] == "simulate"} == set(cli._TASKS)

    @pytest.mark.parametrize(
        "argv", _README_COMMANDS, ids=[" ".join(argv[:2]) for argv in _README_COMMANDS]
    )
    def test_example_parses(self, argv):
        cli._build_parser().parse_args(argv)


class TestChemdistCommand:
    def test_scaling_run(self, tmp_path):
        out_file = tmp_path / "chem.json"
        code, _ = run_cli(
            [
                "chemdist",
                "--alpha",
                "1",
                "--dim",
                "1",
                "--delta",
                "1",
                "--gamma",
                "0",
                "--t-grid",
                "100:10000:5",
                "--seeds",
                "4",
                "--seed",
                "1",
                "--format",
                "json",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert abs(payload["slope"] - 2 / 3) < 0.25


    def test_provenance_covers_seeds(self):
        def provenance(seed):
            args = ["chemdist", "--alpha", "1", "--dim", "1", "--delta", "1", "--seeds", "2"]
            code, out = run_cli(args + ["--t-grid", "10:1000:5", "--seed", seed])
            assert code == 0
            return out.splitlines()[1].split(",")[-1]

        assert provenance("1") != provenance("2")


    def test_config_seeds_is_read(self, tmp_path):
        cfg = tmp_path / "chem.json"
        cfg.write_text(json.dumps({"seeds": 3, "seed": 5}))
        args = ["chemdist", "--config", str(cfg), "--alpha", "1", "--dim", "1", "--delta", "1"]
        code, out = run_cli(args + ["--t-grid", "10:1000:5"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:-1]]
        assert {row[1] for row in rows} == {"5", "6", "7"}


class TestBudgetRefusal:
    @pytest.mark.parametrize(
        "args",
        [
            ["chemdist", "--alpha", "1", "--dim", "1", "--delta", "1"]
            + ["--t-grid", "1e10:1e12:5", "--seeds", "1"],
            ["simulate", "lln", "--alpha", "2", "--dim", "1", "--t-grid", "1e12", "--replicas", "2"],
        ],
        ids=["chemdist-sites", "lln-jumps"],
    )
    def test_exit_2_with_error_line(self, capsys, args):
        assert run_cli(args) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceeds" in err and err.count("\n") == 1

    def test_walk_call_over_jump_budget_names_count_t_and_budget(self, capsys):
        # about 1e12 jumps, hours of work, in sub-batches under the cell cap
        args = ["simulate", "lln", "--alpha", "2", "--dim", "1", "--t-grid", "100000",
                "--replicas", "10000000"]
        assert run_cli(args) == (2, "")
        err = capsys.readouterr().err
        assert "count 10000000" in err and "t 100000" in err and "budget 4294967296" in err


class TestVerifyCommand:
    def test_fast_suites_pass(self):
        code, out = run_cli(["verify", "--suite", "continuity,determinism"])
        assert code == 0
        lines = out.splitlines()
        assert any(l.startswith("PASS regime continuity") for l in lines)
        assert any(l.startswith("PASS determinism") for l in lines)

    def test_config_suite_is_read(self, tmp_path):
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"suite": "lln"}))
        code, out = run_cli(["verify", "--config", str(cfg)])
        assert code == 0
        (line,) = out.splitlines()
        assert line.startswith("PASS law of large numbers")

    def test_config_suite_list_is_read(self, tmp_path):
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"suite": ["continuity"]}))
        code, out = run_cli(["verify", "--config", str(cfg)])
        assert code == 0
        (line,) = out.splitlines()
        assert line.startswith("PASS regime continuity")

    def test_flag_not_read_rejected(self):
        code, _ = run_cli(["verify", "--suite", "determinism", "--seed", "5"])
        assert code == 2

    def test_unknown_suite(self):
        code, _ = run_cli(["verify", "--suite", "nonexistent"])
        assert code == 2

    def test_report_written(self, tmp_path):
        out_file = tmp_path / "report.json"
        code, _ = run_cli(["verify", "--suite", "determinism", "--out", str(out_file)])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["results"][0]["passed"] is True


    def test_over_budget_fails_with_statistic_reported(self, tmp_path, monkeypatch):
        from scenerywalk import verify

        slow = verify._suite("slow", 0.0)(lambda: (True, {}))
        monkeypatch.setitem(verify.SUITES, "determinism", slow)
        out_file = tmp_path / "report.json"
        code, out = run_cli(["verify", "--suite", "determinism", "--out", str(out_file)])
        assert code == 1
        assert out.startswith("FAIL slow")
        (row,) = json.loads(out_file.read_text())["results"]
        assert not row["passed"]
        assert row["statistic_passed"] and not row["within_budget"]


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "scenerywalk.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "scenerywalk" in proc.stdout


class TestImportPath:
    #: a fresh interpreter runs the CLI, then lists the scipy modules it loaded
    SCRIPT = """
import contextlib, io, sys
from scenerywalk import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["exponents", "--which", "p", "--dim", "1", "--alpha", "1", "--rho", "1.5"]) == 0
    assert cli.main(["simulate", "lln", "--alpha", "2", "--dim", "1", "--t-grid", "100",
                     "--replicas", "64", "--seed", "7"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

    def test_cli_runs_without_scipy(self):
        # scipy is imported only by the chi-square test, the Bessel series and
        # chen's exact mean, so the CLI, an exponent table and an lln run
        # leave it unloaded
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestFieldRecordConfig:
    def test_bad_field_record_rejected(self, tmp_path, capsys):
        # a scenery record is not a config key: --alpha, --dim and --seed are
        cfg = tmp_path / "field.json"
        cfg.write_text(json.dumps({"field": {"alpha": 2.0, "dim": 1, "seed": 11}}))
        code, _ = run_cli(["simulate", "lln", "--config", str(cfg), "--replicas", "8"])
        assert code == 2
        assert "config fields not read by simulate lln: ['field']" in capsys.readouterr().err


#: tiny invocations whose stdout bytes are pinned (SHA-256) against a
#: front-end refactor: every simulate task in csv and json, both tail-scan
#: models, chemdist and the three exponent tables
_SIM = ["--dim", "1", "--seed", "3"]
_PINNED = {
    "lln": ["simulate", "lln", "--alpha", "2", "--t-grid", "100", "--replicas", "200", *_SIM],
    "scaling": [
        "simulate", "scaling", "--alpha", "0.8", "--t-grid", "100:1000:5", "--replicas", "200",
        *_SIM,
    ],
    "tail-scan-rwrs": [
        "simulate", "tail-scan", "--alpha", "0.5", "--rho", "1.2", "--t-grid", "100,1000",
        "--replicas", "500", *_SIM,
    ],
    "tail-scan-rcm": [
        "simulate", "tail-scan", "--alpha", "0.5", "--delta", "0.4", "--gamma", "0.1",
        "--t-grid", "100,1000", "--replicas", "500", *_SIM,
    ],
    "chen": ["simulate", "chen", "--t-grid", "100", "--replicas", "2000", *_SIM],
    "khasminskii": [
        "simulate", "khasminskii", "--t-grid", "100", "--replicas", "2000", "--moment", "3", *_SIM,
    ],
    "chemdist": [
        "chemdist", "--alpha", "1", "--delta", "1", "--gamma", "0.2", "--t-grid", "100:1000:5",
        "--seeds", "2", *_SIM,
    ],
    "exponents-p": [
        "exponents", "--which", "p", "--alpha", "0.5,1,2", "--rho", "0.8:3:5", "--dim", "2",
    ],
    "exponents-q": [
        "exponents", "--which", "q", "--alpha", "0.5,1,2,3", "--delta", "0:3:7", "--dim", "1",
    ],
    "exponents-displacement": [
        "exponents", "--which", "displacement", "--alpha", "0.5,2", "--delta", "0:3:4",
        "--gamma", "0.7", "--dim", "3",
    ],
}
_PINNED_SHA256 = {
    "chemdist csv": "7be803dd84ed8eef003782753ce8c557fce213c4f2827f8633b9a301361d5965",
    "chemdist json": "0dac44978f6e9cf98444428838dce07e209dccf0059ae63ab827fa412c479de2",
    "chen csv": "fec074f96a91cb24e4652c5cccc47ccb2316340326a671d7add93933fc75759a",
    "chen json": "53bb7641347ecf52977b1809ca7651ae94282dafe2b5aca3ed138853ff694e18",
    "exponents-displacement csv": "808418ab538bf1e11a42db47b60a6e9bd9db8666a0e9899c450f448fec7227b7",
    "exponents-displacement json": "9230bf9440d4c30c1641bc49e81ab136d92822e8a446cea22244fb5506ca3959",
    "exponents-p csv": "556d9c9a58bfa7d5cc90bd6e386cad8d103d71c3e5c6dd9752e22fb78b69fe2c",
    "exponents-p json": "897c8b67b7f4d3b5110aebf8cc24175b82e1079a31df2e7c280695abbd6cdd3d",
    "exponents-q csv": "91d28fbd5f18b0b71e1270f61acc2e7ece605cdd9a402f4f36b34dea543dab4a",
    "exponents-q json": "a6f0f6449c090891e3e537014b6863578480e0084262b17239b7f06382f42c10",
    "khasminskii csv": "bd504e22bc3f930a966a15eac24fc25853fa9fd8d6a2cb3b28c0d2084f350d7f",
    "khasminskii json": "91e7163970aa5e9de8604ab919c7abb89a38f949413a60123962fa9e835a5b1e",
    "lln csv": "6a79576b32ec31de73cbbb834e67eed9b4f76f50ec270294b523053ef5654b7f",
    "lln json": "7cbef04eccb5beeecbad32e35a0fb2fcaf65096c43d3984740d4595a2e8b45da",
    "scaling csv": "c0c7be0463e74da0e8a5bb8fbfa131304a78cc5106f097d9a4c1332e974a45b6",
    "scaling json": "96fe8b5779efe9cd162a6b6d090a70e851674605553297759894b9e9f4fe2adc",
    "tail-scan-rcm csv": "3bb437897be4870994b33310a70735bbbb05c561d3763e458a9be6668b7f3a39",
    "tail-scan-rcm json": "cbcad6afe5736d822c75259cfa710fbccf3272b6800b2684406431dec4c02d07",
    "tail-scan-rwrs csv": "51e559699619c41e600917a04201b511e225c7d7af5d24e66e1a5873d68af79f",
    "tail-scan-rwrs json": "0fea6973cc3fd60a490d4cdd80c3f04778a8bca1d55c95fd18eb714b9579aead",
}


class TestOutputBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_stdout_bytes_pinned(self, name, fmt):
        code, out = run_cli(_PINNED[name] + ["--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_SHA256[f"{name} {fmt}"]

    def test_scaling_jobs_do_not_change_bytes(self):
        one = run_cli(_PINNED["scaling"] + ["--jobs", "1"])
        two = run_cli(_PINNED["scaling"] + ["--jobs", "2"])
        assert one == two and one[0] == 0

    @pytest.mark.parametrize("name", ["tail-scan-rwrs", "tail-scan-rcm"])
    def test_tail_scan_jobs_do_not_change_bytes(self, name):
        one = run_cli(_PINNED[name] + ["--jobs", "1"])
        two = run_cli(_PINNED[name] + ["--jobs", "2"])
        assert one == two and one[0] == 0

    @pytest.mark.parametrize("task", ["chen", "khasminskii"])
    def test_single_replica_verifier_refused(self, capsys, task):
        args = ["simulate", task, "--t-grid", "100", "--replicas", "1", *_SIM]
        assert run_cli(args) == (2, "")
        assert capsys.readouterr().err.endswith("error: replicas must be >= 2\n")

    @pytest.mark.parametrize(
        "task, t_grid, message",
        [
            ("lln", ["--t-grid", "100,200"], "lln needs --t-grid with exactly one value"),
            ("chen", ["--t-grid", "100,200"], "chen needs --t-grid with exactly one value"),
            (
                "khasminskii",
                ["--t-grid", "100,200"],
                "khasminskii needs --t-grid with exactly one value",
            ),
            ("scaling", [], "scaling needs --t-grid"),
            ("tail-scan", ["--rho", "1.2"], "tail-scan needs --t-grid"),
        ],
    )
    def test_horizon_usage_errors(self, capsys, task, t_grid, message):
        alpha = [] if task in ("chen", "khasminskii") else ["--alpha", "2"]
        code, out = run_cli(["simulate", task, *alpha, "--replicas", "20", *_SIM, *t_grid])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
