"""The `coad` command line: the presets, `gen-oran`'s worked example, flag
parsing by config key, and the scripts that stay beside it."""

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
# run_benchmark's warning that real p-values cannot reach the threshold floor
UNREACHABLE = r"error:1/\(n\+1\) > alpha\*eta\*\(1-delta\):UserWarning"


@pytest.mark.filterwarnings(UNREACHABLE)
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
    assert main(["run", "--config", str(out / "benchmark.cfg"), "--runs", "2",
                 "--steps", "10", "--out", str(tmp_path / "results")]) == 0
    assert "C_PP_COAD: final sfdr=" in capsys.readouterr().out


@pytest.mark.filterwarnings(UNREACHABLE)
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
