"""scripts/run_comparison.py writes one config per variant holding only the
settings it was given, and merges the three runs into one CSV."""
import hashlib
import importlib.util
from pathlib import Path

from qfedring import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_comparison.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_comparison", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_short_comparison(tmp_path, capsys):
    code = load_script().main(
        ["--out-dir", str(tmp_path), "--rounds", "1", "--local-epochs", "1"]
    )
    assert code == 0
    configs = {p.name: p.read_text() for p in tmp_path.glob("*.cfg")}
    assert configs == {
        "cfl.cfg": "model = cfl\nrounds = 1\nlocal_epochs = 1\n",
        "qfl-classical.cfg": "model = qfl-classical\nrounds = 1\nlocal_epochs = 1\n",
        "qfl-quantum.cfg": "model = qfl-quantum\ntransport = teleport\nrounds = 1\n"
        "local_epochs = 1\n",
    }
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert lines[0] == cli.COMPARE_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [(row[0], row[1]) for row in rows] == [
        ("cfl", "copy"), ("qfl-classical", "copy"), ("qfl-quantum", "teleport"),
    ]
    checksums = {row[-1] for row in rows}
    assert len(checksums) == 1 and len(checksums.pop()) == 64
    assert "combined metrics:" in capsys.readouterr().out


def test_ten_round_comparison_is_pinned(tmp_path):
    # The run CI compares against the base commit; a commit that changes its
    # combined CSV must update this pin in the same commit.
    assert load_script().main(["--out-dir", str(tmp_path), "--rounds", "10"]) == 0
    csv = (tmp_path / "comparison.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == (
        "33218709b80e325b05c2e98512d70f1887340b3eb299cfe4b91162d108fab4a9"
    )


def test_out_dir_that_is_a_file_exits_1(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert load_script().main(["--out-dir", str(out), "--rounds", "1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: --out-dir {out}: ")
    assert out.read_text() == "kept\n"


def test_config_that_cannot_be_written_exits_1(tmp_path, capsys):
    # A directory where the first config file goes: the write used to end
    # in an IsADirectoryError traceback.
    out = tmp_path / "out"
    (out / "cfl.cfg").mkdir(parents=True)
    assert load_script().main(["--out-dir", str(out), "--rounds", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out-dir {out}: ") and "Is a directory" in err
    assert sorted(p.name for p in out.iterdir()) == ["cfl.cfg"]


def test_bad_setting_exits_2_before_any_file_is_written(tmp_path, capsys):
    out = tmp_path / "comparison"
    assert load_script().main(["--out-dir", str(out), "--rounds", "0"]) == 2
    assert capsys.readouterr().err == "error: cfl: rounds must be an integer >= 1, got 0\n"
    assert not out.exists()
