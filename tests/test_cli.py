"""The `coad` command line: the presets, `gen-oran`'s worked example, flag
parsing by config key, and the scripts that stay beside it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coad
from coad.cli import main
from coad.data import parse_kv_file

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
    with pytest.raises(SystemExit) as exit_info:
        main(["run", *flags])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


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
def test_gen_oran_names_a_node_count_below_one(flag, count, tmp_path):
    with pytest.raises(ValueError, match=rf"^{count} must be >= 1$"):
        main(["gen-oran", flag, "0", "--out", str(tmp_path / "data")])
