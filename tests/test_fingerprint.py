"""scripts/fingerprint.py: equal for reruns, moved by a one-ulp change."""
import hashlib
import importlib.util
import math
from pathlib import Path

import pytest

from qfedring import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def short_runs(script):
    """Each default run at 2 rounds, trained twice."""
    flags = [(*run, "--rounds", "2") for run in script.DEFAULT_RUNS]
    return [(script.run(f), script.run(f)) for f in flags]


def test_reruns_give_equal_fingerprints(script, short_runs):
    prints = []
    for first, second in short_runs:
        assert script.fingerprint(*first) == script.fingerprint(*second)
        prints.append(script.fingerprint(*first))
    # Copy and teleport give equal CSVs but move the angles apart in the last bits.
    assert len(set(prints)) == len(prints)


def test_one_ulp_changes_the_fingerprint(script, short_runs):
    metrics, values = short_runs[1][0]
    assert len(metrics) == 2 and len(values) == 12
    want = script.fingerprint(metrics, values)
    for i in (0, len(values) - 1):
        nudged = list(values)
        nudged[i] = math.nextafter(nudged[i], math.inf)
        assert script.fingerprint(metrics, nudged) != want
    assert script.fingerprint(metrics[:1], values) != want


def test_main_prints_one_line_per_run(script, capsys):
    assert script.main(["--model", "cfl", "--rounds", "1"]) == 0
    digest, csv_sha, flags = capsys.readouterr().out.rstrip("\n").split("  ")
    assert len(digest) == len(csv_sha) == 64 and digest != csv_sha
    assert flags == "--model cfl --rounds 1"


def test_printed_csv_sha_is_that_of_the_written_csv(script, capsys, tmp_path):
    flags = ["--model", "qfl-quantum", "--transport", "teleport", "--rounds", "3"]
    assert script.main(flags) == 0
    csv_sha = capsys.readouterr().out.split("  ")[1]
    out = tmp_path / "metrics.csv"
    assert cli.main([*flags, "--out", str(out)]) == 0
    assert csv_sha == hashlib.sha256(out.read_bytes()).hexdigest()
