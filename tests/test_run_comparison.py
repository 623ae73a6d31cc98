"""scripts/run_comparison.py writes one config per variant holding only the
settings it was given, and merges the three runs into one CSV."""
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
