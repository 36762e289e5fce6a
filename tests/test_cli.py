"""The `coad` command line: the presets, `gen-oran`'s worked example, flag
parsing by config key, and the scripts that stay beside it."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coad
from coad import cli
from coad.cli import build_parser, main
from coad.harness import CONFIG_KEYS
from coad.data import SCHEMA_KEYS, parse_kv_file
from tables import toy_csv

REPO = Path(__file__).resolve().parent.parent
PRESETS = sorted(path.stem for path in (REPO / "configs").glob("*.cfg"))


def test_gen_oran_writes_the_worked_example(tmp_path, capsys):
    out = tmp_path / "oran_data"
    assert main(["gen-oran", "--samples", "2000", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "benchmark.cfg", "graph.json", "oran.csv", "oran.schema"]
    cfg = parse_kv_file(out / "benchmark.cfg")
    assert cfg["csv_path"] == str(out / "oran.csv")
    assert cfg["schema_path"] == str(out / "oran.schema")
    # every context of the schema holds rows, so each run can fit its
    # models; with the fixed bins 0.5,1.5,2.5 context 0 is empty here
    results = tmp_path / "results"
    assert main(["run", "--config", str(out / "benchmark.cfg"), "--runs", "2",
                 "--steps", "10", "--out", str(results)]) == 0
    assert "C_PP_COAD: final sfdr=" in capsys.readouterr().out
    # the O-RAN preset: COAD against the context-aware methods and FIXED
    summary = json.loads((results / "summary.json").read_text())
    assert sorted(summary["per_method"]) == [
        "COAD", "C_COAD", "C_PO_COAD", "C_PP_COAD", "FIXED"]


@pytest.mark.parametrize("preset", PRESETS)
def test_presets_run(preset, tmp_path, capsys):
    # at the preset's own step count, which sets the batch size n that a
    # table dataset's split serves
    out = tmp_path / preset
    assert main(["run", "--config", str(REPO / "configs" / f"{preset}.cfg"),
                 "--runs", "1", "--out", str(out)]) == 0
    assert (out / "steps.csv").is_file() and (out / "aggregate.csv").is_file()
    assert "max_sfdr=" in capsys.readouterr().out


@pytest.mark.parametrize("flags, message", [
    (["--alpha", "2"], "alpha must lie in (0, 1)"),
    (["--runs", "many"], "config key 'runs'"),
    (["--plus-one", "maybe"], "config key 'plus_one'"),
    (["--dataset", "parquet"], "dataset must be one of"),
    (["--config", "no-such.cfg"], "no-such.cfg"),
    # O-RAN data reaches the engine as gen-oran's CSV
    (["--dataset", "oran"], "dataset must be one of ('csv', 'gaussian')"),
])
def test_bad_flag_exits_2_naming_the_key(flags, message, capsys):
    assert _exit_status(["run", *flags]) == 2
    assert message in capsys.readouterr().err


def _exit_status(argv) -> int:
    """The status that ``main(argv)`` exits with."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    return exit_info.value.code


def _config(tmp_path, mapping) -> str:
    """The path of a config file of ``mapping``."""
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{key} = {value}\n"
                              for key, value in mapping.items()))
    return str(config)


def _run_config(tmp_path, mapping) -> int:
    """``coad run`` on a config file of ``mapping``: its exit status."""
    return _exit_status(["run", "--config", _config(tmp_path, mapping),
                         "--out", str(tmp_path / "r")])


def test_retired_synth_pool_exits_2(tmp_path, capsys):
    # the gamma calibration ranks against the pool the stream's q reads,
    # whose size per context is n_tilde; its own pool size key is gone
    assert _run_config(tmp_path, {"synth_pool": "100"}) == 2
    assert "unknown config key 'synth_pool'" in capsys.readouterr().err
    assert _exit_status(["run", "--synth-pool", "100"]) == 2
    assert "--synth-pool" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["csv_path", "schema_path"])
def test_missing_dataset_file_exits_2_naming_the_key(missing, tmp_path,
                                                      capsys):
    # the config reads no file; the run names the key of the missing one
    absent = tmp_path / "absent"
    assert _run_config(tmp_path, toy_csv(
        tmp_path, **{missing: str(absent)})) == 2
    assert f"config key '{missing}': no file {absent}" in \
        capsys.readouterr().err


def test_steps_beyond_the_inlier_rows_exit_2(tmp_path, capsys):
    # each run reserves one inlier test point a step; the toy CSV has 360
    assert _run_config(tmp_path, toy_csv(tmp_path, steps="1000")) == 2
    assert "360 inlier rows, fewer than the steps = 1000" in \
        capsys.readouterr().err


def test_malformed_csv_row_exits_2(tmp_path, capsys):
    mapping = toy_csv(tmp_path)
    path = Path(mapping["csv_path"])
    lines = path.read_text().splitlines()
    lines[5] = "abc," + lines[5].split(",", 1)[1]  # line 6 of the file
    path.write_text("\n".join(lines) + "\n")
    assert _run_config(tmp_path, mapping) == 2
    assert "malformed row 6: could not convert string to float: 'abc'" in \
        capsys.readouterr().err


def test_schema_kind_fault_exits_2_naming_file_and_key(tmp_path, capsys):
    # it printed "feature 'x1': unknown kind 'ordinal'", naming no file
    mapping = toy_csv(tmp_path)
    schema = Path(mapping["schema_path"])
    schema.write_text(schema.read_text().replace(
        "feature.x1 = continuous", "feature.x1 = ordinal"))
    assert _run_config(tmp_path, mapping) == 2
    assert f"{schema}: feature.x1: unknown kind 'ordinal'" in \
        capsys.readouterr().err


def test_unobserved_feature_column_exits_2(tmp_path, capsys):
    # run 0 died with a traceback naming 'feature 1', not the column
    mapping = toy_csv(tmp_path)
    path = Path(mapping["csv_path"])
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0]] + [
        ",".join(line.split(",")[:1] + ["?"] + line.split(",")[2:])
        for line in lines[1:]]) + "\n")
    assert _run_config(tmp_path, mapping) == 2
    assert f"{path}: column 'x1' holds no observed value" in \
        capsys.readouterr().err


def test_plus_one_false_parses(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--method", "C_COAD", "--runs", "1", "--steps", "5",
                 "--plus-one", "false", "--out", str(out)]) == 0
    assert "plus_one = false" in (out / "config.txt").read_text()


def test_lambda_sweep_script_runs():
    src = str(Path(coad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_lambda_sweep.py"),
         "--runs", "1", "--lambdas", "1", "--alphas", "0.1"],
        capture_output=True, text=True, timeout=300, env=env)
    assert result.returncode == 0, result.stderr
    assert "0.10     1.0" in result.stdout


@pytest.mark.parametrize("flag, count", [("--xapps", "n_xapps"),
                                         ("--params", "n_params"),
                                         ("--kpis", "n_kpis")])
def test_gen_oran_names_a_node_count_below_one(flag, count, tmp_path,
                                               capsys):
    assert _exit_status(["gen-oran", flag, "0",
                         "--out", str(tmp_path / "data")]) == 2
    assert f"error: {count} must be >= 1\n" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--samples", "0"], "n_samples must be >= 1"),
    (["--anomaly-frac", "1"], "anomaly_frac must lie in [0, 1)"),
])
def test_gen_oran_bad_value_exits_2(flags, message, tmp_path, capsys):
    assert _exit_status(["gen-oran", *flags,
                         "--out", str(tmp_path / "data")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["gen-oran", "--samples", "200"],
    ["run", "--method", "C_COAD", "--runs", "1", "--steps", "5"],
])
def test_uncreatable_out_exits_2(command, tmp_path, capsys):
    # a file where the output directory should go
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert _exit_status([*command, "--out", str(blocker / "out")]) == 2
    assert str(blocker) in capsys.readouterr().err


def test_failed_run_propagates_naming_the_run(tmp_path):
    # not an input fault: the twin fit fails inside run 0
    config = _config(tmp_path, toy_csv(
        tmp_path, method="C_PP_COAD", seed="11", runs="1", steps="8",
        alpha="0.2", delta="0.5"))
    with pytest.raises(RuntimeError, match=r"method C_PP_COAD, run 0 "
                                           r"\(master seed 11\) failed"):
        main(["run", "--config", config, "--gmm-components", "1000000",
              "--out", str(tmp_path / "r")])


# a valid value other than the default for every config key; the base file
# names a CSV dataset's files, so `dataset = csv` validates
KEY_VALUES = {
    "method": "C_COAD,FIXED", "score": "supervised", "alpha": "0.2",
    "delta": "0.9", "eta": "2", "lambda": "3", "gamma_override": "0.5",
    "steps": "7", "runs": "3", "seed": "4", "dataset": "csv", "n": "50",
    "n_tilde": "60", "q_miss": "0.1", "plus_one": "false",
    "gmm_components": "3", "kmeans_k": "4", "out": "elsewhere",
    "csv_path": "b.csv", "schema_path": "b.schema", "contexts": "3",
    "dim": "4", "context_spread": "1.5", "anomaly_shift": "3",
    "twin_var_scale": "2", "twin_mean_shift": "0.5", "anomaly_rate": "0.2",
    "score_train_size": "900", "twin_train_size": "800", "val_size": "400",
}
BASE = {"csv_path": "a.csv", "schema_path": "a.schema"}


class _Resolved(Exception):
    """Stops ``coad run`` at its benchmark call, carrying the config."""


def _resolved(monkeypatch, tmp_path, mapping, flags) -> dict:
    """``RunConfig.resolved()`` of ``coad run`` on a config file of
    ``mapping`` plus ``flags``, without running it."""
    def stop(cfg):
        raise _Resolved(cfg.resolved())

    monkeypatch.setattr(cli, "run_benchmark", stop)
    with pytest.raises(_Resolved) as stopped:
        main(["run", "--config", _config(tmp_path, mapping), *flags])
    return stopped.value.args[0]


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_every_key_is_a_flag(key, monkeypatch, tmp_path):
    value = KEY_VALUES[key]
    flag = "--" + key.replace("_", "-")
    by_flag = _resolved(monkeypatch, tmp_path, BASE, [flag, value])
    by_file = _resolved(monkeypatch, tmp_path, {**BASE, key: value}, [])
    assert by_flag == by_file
    assert by_flag != _resolved(monkeypatch, tmp_path, BASE, [])


def test_run_help_lists_each_key_once(capsys):
    assert _exit_status(["run", "--help"]) == 0
    options = capsys.readouterr().out.split("options:", 1)[1]
    assert sorted(re.findall(r"^ +(--[a-z-]+)", options, re.M)) == sorted(
        ["--config"] + ["--" + key.replace("_", "-") for key in CONFIG_KEYS])


def test_readme_flags_parse():
    # every flag in README's CLI usage block, for its subcommand
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    usage = readme.split("## CLI", 1)[1].split("```")[1]
    flags, sub = [], None
    for line in usage.splitlines():
        command = re.match(r"coad ([a-z-]+)", line)
        sub = command.group(1) if command else sub
        flags += [(sub, flag) for flag in re.findall(r"--[a-z][a-z-]*", line)]
    assert ("run", "--plus-one") in flags and ("gen-oran", "--kpis") in flags
    for sub, flag in flags:
        # "1" parses for every flag; an abbreviation would set another dest
        args = build_parser().parse_args([sub, flag, "1"])
        assert vars(args).get(flag[2:].replace("-", "_")) in ("1", 1), flag


def test_readme_names_every_schema_key():
    # README's one sentence that lists the schema keys names each of them
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"The schema keys are (.*?)\.\s+[A-Z]", readme,
                         re.DOTALL).group(1)
    named = set(re.findall(r"`([^`]+)`", sentence))
    assert {*SCHEMA_KEYS, "feature.<name>", "categories.<name>"} <= named
