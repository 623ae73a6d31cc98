"""Command-line interface checks: config parsing and precedence, CSV output
stability, convergence reporting, end-to-end runs and exit codes."""
import dataclasses
import hashlib
import math
import os
import re
import string
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qfedring import cli
from qfedring import datagen as dg
from qfedring import fedring as fr
from qfedring import teleport as tp
from qfedring.teleport import TransferError
from qfedring.trainkit import RoundMetrics


def _run_fresh_cli(*args) -> subprocess.CompletedProcess:
    """``python -W default -m qfedring *args`` in a fresh interpreter, so that
    numpy's warnings reach its stderr (in-process, pytest captures them)."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "default", "-m", "qfedring", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

FAST = [
    "--clients", "2", "--rounds", "2", "--local-epochs", "1",
    "--num-points", "80", "--batch-size", "16",
]


def refuse_training(monkeypatch):
    """Make building the data or running a round fail the test."""

    def fail(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "build_dataset", fail)
    monkeypatch.setattr(fr, "run_ring", fail)


def write_config(path, **values):
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


class TestConfig:
    def test_defaults(self):
        c = cli.ExperimentConfig(model="cfl")
        assert (c.clients, c.rounds, c.local_epochs, c.layers) == (3, 100, 5, 2)
        assert c.learning_rate == pytest.approx(0.02)
        assert c.batch_size == 32
        assert c.gamma == pytest.approx(math.pi)
        assert (c.num_points, c.noise, c.factor) == (1200, 0.1, 0.5)
        assert c.train_fraction == pytest.approx(0.8)
        assert (c.transport, c.seed, c.out) == ("copy", 42, "metrics.csv")
        assert c.dump_dataset is None

    def test_validation(self):
        with pytest.raises(cli.ConfigError, match="model"):
            cli.ExperimentConfig(model="deep-ensemble")
        with pytest.raises(cli.ConfigError, match="teleport"):
            cli.ExperimentConfig(model="cfl", transport="teleport")
        with pytest.raises(cli.ConfigError, match="teleport"):
            cli.ExperimentConfig(model="qfl-classical", transport="teleport")
        cli.ExperimentConfig(model="qfl-quantum", transport="teleport")  # allowed
        with pytest.raises(cli.ConfigError, match="rounds"):
            cli.ExperimentConfig(model="cfl", rounds=0)
        with pytest.raises(cli.ConfigError, match="learning_rate"):
            cli.ExperimentConfig(model="cfl", learning_rate=-0.1)
        with pytest.raises(cli.ConfigError, match="gamma"):
            cli.ExperimentConfig(model="qfl-quantum", gamma=0.0)
        with pytest.raises(cli.ConfigError, match="train_fraction"):
            cli.ExperimentConfig(model="cfl", train_fraction=1.5)

    def test_split_sizes_checked_against_datagen(self):
        config = cli.ExperimentConfig(model="cfl", num_points=20, clients=16)
        assert cli.build_dataset(config).train_labels.size == 16
        with pytest.raises(cli.ConfigError, match="clients"):
            cli.ExperimentConfig(model="cfl", num_points=20, clients=17)
        with pytest.raises(cli.ConfigError, match="train_fraction"):
            cli.ExperimentConfig(model="cfl", num_points=20, train_fraction=0.04)
        config = cli.ExperimentConfig(model="cfl", num_points=20, train_fraction=0.06, clients=2)
        assert cli.build_dataset(config).train_labels.size == 2

    def test_circuit_depth_checked_against_engine(self):
        # 73 two-qubit layers are the deepest whose gradient fits the engine's
        # unitary cap; 74 must fail here, not after the data is built.
        for model in ("qfl-classical", "qfl-quantum"):
            assert cli.ExperimentConfig(model=model, layers=73).layers == 73
            with pytest.raises(cli.ConfigError, match="layers=74"):
                cli.ExperimentConfig(model=model, layers=74)
        cli.ExperimentConfig(model="cfl", layers=74)  # the MLP has no circuit layers


# Values each setting's parser reads back unchanged from its str() form.
_FIELD_VALUES = {
    int: st.integers(-10**6, 10**6),
    float: st.floats(allow_nan=False, allow_infinity=False),
    # A '#' inside a value is kept; only a leading one would read as a comment.
    str: st.text(string.ascii_letters + string.digits + "._-/=#", min_size=1, max_size=12).filter(
        lambda v: not v.startswith("#")
    ),
}
_FILLER = st.sampled_from(["", "   ", "# a comment", "  # indented comment"])


@st.composite
def config_files(draw):
    """(values, lines): a subset of settings written one per line with spacing,
    trailing comments and filler lines around them."""
    keys = draw(st.lists(st.sampled_from(sorted(cli._FIELD_TYPES)), unique=True))
    values = {k: draw(_FIELD_VALUES[cli._FIELD_TYPES[k]]) for k in keys}
    lines = []
    for key, value in values.items():
        lines.extend(draw(st.lists(_FILLER, max_size=2)))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        comment = draw(st.sampled_from(["", "  # why", "\t#"]))
        lines.append(f"{pad}{key}{pad}={pad}{value}{comment}")
    lines.extend(draw(st.lists(_FILLER, max_size=2)))
    return values, lines


class TestConfigFileProperties:
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(config=config_files())
    def test_round_trips(self, tmp_path, config):
        values, lines = config
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert cli._load_config_file(str(path)) == values

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        config=config_files(),
        data=st.data(),
        bad=st.one_of(
            st.text(string.ascii_lowercase + "_", min_size=1, max_size=10)
            .filter(lambda k: k not in cli._FIELD_TYPES)
            .map(lambda k: (f"{k} = 1", "unknown setting")),
            st.tuples(
                st.sampled_from(sorted(k for k, t in cli._FIELD_TYPES.items() if t is not str)),
                st.text(string.ascii_lowercase, max_size=6),
            ).map(lambda kv: (f"{kv[0]} = {kv[1]}?", f"bad value for {kv[0]}")),
        ),
    )
    def test_bad_line_is_named(self, tmp_path, config, data, bad):
        _, lines = config
        line, message = bad
        at = data.draw(st.integers(0, len(lines)))
        path = tmp_path / "run.cfg"
        path.write_text("\n".join([*lines[:at], line, *lines[at:]]) + "\n")
        with pytest.raises(cli.ConfigError, match=f"run.cfg:{at + 1}: {message}"):
            cli._load_config_file(str(path))

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(config=config_files(), data=st.data(), junk=st.binary(max_size=16))
    def test_any_bytes_load_or_are_refused_naming_the_file(self, tmp_path, config, data, junk):
        # Bytes that are not UTF-8 used to escape as a UnicodeDecodeError, which exits 1.
        text = ("\n".join(config[1]) + "\n").encode()
        at = data.draw(st.integers(0, len(text)))
        path = tmp_path / "run.cfg"
        path.write_bytes(text[:at] + junk + text[at:])
        try:
            cli._load_config_file(str(path))
        except cli.ConfigError as exc:
            assert str(path) in str(exc)


# A valid value other than the default for every ExperimentConfig field.
_SAMPLE_VALUES = {
    "model": "qfl-classical",
    "clients": 4,
    "rounds": 7,
    "local_epochs": 2,
    "layers": 3,
    "learning_rate": 0.05,
    "batch_size": 8,
    "gamma": 2.5,
    "num_points": 100,
    "noise": 0.25,
    "factor": 0.3,
    "train_fraction": 0.7,
    "transport": "teleport",
    "seed": 7,
    "out": "run.csv",
    "dump_dataset": "points.csv",
}


class TestDerivedFlags:
    @pytest.mark.parametrize(
        "field", dataclasses.fields(cli.ExperimentConfig), ids=lambda f: f.name
    )
    def test_every_field_is_a_typed_flag(self, field):
        value = _SAMPLE_VALUES[field.name]
        assert isinstance(value, typing.get_type_hints(cli.ExperimentConfig)[field.name])
        assert value != field.default
        base = [] if field.name == "model" else ["--model", "qfl-quantum"]
        flag = "--" + field.name.replace("_", "-")
        config = cli.parse_config([*base, flag, str(value)])
        parsed = getattr(config, field.name)
        assert parsed == value and type(parsed) is type(value)

    def test_help_lists_choices(self):
        text = cli._build_parser().format_help()
        assert "--model {cfl,qfl-classical,qfl-quantum}" in text
        assert "--transport {copy,teleport}" in text

    @pytest.mark.parametrize(
        "num_points, noise, factor",
        [(3, 0.1, 0.5), (5, 0.1, 0.5), (100, -1.0, 0.5), (100, math.inf, 0.5),
         (100, 0.1, 0.0), (100, 0.1, 1.0)],
    )
    def test_circles_checks_shared_with_datagen(self, num_points, noise, factor):
        with pytest.raises(ValueError) as data_error:
            dg.make_circles(num_points, noise, factor, seed=0)
        with pytest.raises(cli.ConfigError) as config_error:
            cli.ExperimentConfig(model="cfl", num_points=num_points, noise=noise, factor=factor)
        assert str(config_error.value) == str(data_error.value)


class TestParsing:
    def test_flags_only(self):
        c = cli.parse_config(["--model", "qfl-classical", "--rounds", "7"])
        assert isinstance(c, cli.ExperimentConfig)
        assert c.model == "qfl-classical" and c.rounds == 7

    def test_model_required(self):
        with pytest.raises(cli.ConfigError, match="model"):
            cli.parse_config(["--rounds", "5"])

    def test_unknown_flag_is_config_error(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(["--model", "cfl", "--warp-speed", "9"])

    def test_bad_choice_is_config_error(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(["--model", "resnet"])

    def test_config_file(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", model="cfl", rounds=9, noise=0.2)
        c = cli.parse_config(["--config", path])
        assert c.model == "cfl" and c.rounds == 9 and c.noise == pytest.approx(0.2)

    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", model="cfl", rounds=9)
        c = cli.parse_config(["--config", path, "--rounds", "3", "--seed", "5"])
        assert c.rounds == 3 and c.seed == 5 and c.model == "cfl"

    def test_file_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# experiment\nmodel = cfl\n\nrounds = 4  # short\n")
        c = cli.parse_config(["--config", str(path)])
        assert c.rounds == 4

    @pytest.mark.parametrize("field", ["out", "dump_dataset"])
    def test_hash_in_value_reads_as_the_flag_does(self, tmp_path, field):
        path = tmp_path / "run.cfg"
        path.write_text(f"model = cfl\n{field} = run#1.csv  # keeps the name\n")
        from_file = cli.parse_config(["--config", str(path)])
        flag = "--" + field.replace("_", "-")
        assert from_file == cli.parse_config(["--model", "cfl", flag, "run#1.csv"])
        assert getattr(from_file, field) == "run#1.csv"

    def test_hash_glued_to_a_number_is_a_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model = cfl\nrounds = 4#\n")
        with pytest.raises(cli.ConfigError, match=r"run.cfg:2: bad value for rounds: '4#'"):
            cli.parse_config(["--config", str(path)])

    def test_file_errors(self, tmp_path):
        missing_eq = tmp_path / "a.cfg"
        missing_eq.write_text("model cfl\n")
        with pytest.raises(cli.ConfigError, match="key = value"):
            cli.parse_config(["--config", str(missing_eq)])
        unknown = tmp_path / "b.cfg"
        unknown.write_text("model = cfl\nwidgets = 3\n")
        with pytest.raises(cli.ConfigError, match="unknown setting"):
            cli.parse_config(["--config", str(unknown)])
        bad_value = tmp_path / "c.cfg"
        bad_value.write_text("model = cfl\nrounds = many\n")
        with pytest.raises(cli.ConfigError, match="bad value"):
            cli.parse_config(["--config", str(bad_value)])
        with pytest.raises(cli.ConfigError, match="cannot read"):
            cli.parse_config(["--config", str(tmp_path / "nope.cfg")])

    @pytest.mark.parametrize("compare", [False, True])
    def test_duplicate_setting_exits_2(self, tmp_path, capsys, monkeypatch, compare):
        # The last value used to win without a word: rounds 5, then 7, gave 7.
        refuse_training(monkeypatch)
        path = tmp_path / "run.cfg"
        path.write_text("model = cfl\nrounds = 5\n# again\nrounds = 7\n")
        other = write_config(tmp_path / "other.cfg", model="qfl-classical")
        argv = ["--compare", other, str(path)] if compare else ["--config", str(path)]
        out = tmp_path / "x.csv"
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert f"{path}:4: duplicate setting 'rounds'" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_request(self, tmp_path):
        a = write_config(tmp_path / "a.cfg", model="cfl")
        b = write_config(tmp_path / "b.cfg", model="qfl-classical")
        req = cli.parse_config(["--compare", a, b, "--out", "both.csv"])
        assert isinstance(req, cli.CompareRequest)
        assert req.config_paths == (a, b) and req.out == "both.csv"
        default = cli.parse_config(["--compare", a, b])
        assert default.out == "compare.csv"

    def test_compare_validation(self, tmp_path):
        a = write_config(tmp_path / "a.cfg", model="cfl")
        with pytest.raises(cli.ConfigError, match="two config files"):
            cli.parse_config(["--compare", a])
        b = write_config(tmp_path / "b.cfg", model="cfl")
        for flags, named in [
            (["--rounds", "5"], "--rounds"),
            (["--config", a], "--config"),
            (["--rounds", "5", "--config", a, "--local-epochs", "2"],
             "--config, --local-epochs, --rounds"),
        ]:
            with pytest.raises(cli.ConfigError) as refused:
                cli.parse_config(["--compare", a, b, *flags])
            assert str(refused.value) == (
                f"compare mode takes config files plus --out only, not {named}; "
                "each setting goes in its config file"
            )


class TestCsv:
    def test_metrics_csv_format(self):
        metrics = [
            RoundMetrics(1, 2, 0.6931471805599453, 0.5),
            RoundMetrics(2, 2, 0.123456789012, 0.975),
        ]
        text = cli.metrics_csv_text(metrics)
        lines = text.split("\n")
        assert lines[0] == cli.METRICS_HEADER
        assert lines[1] == "1,2,0.693147181,0.5,0"
        assert lines[2] == "2,2,0.123456789,0.975,0"
        assert text.endswith("\n") and lines[-1] == ""

    def test_write_metrics_csv_lf(self, tmp_path):
        path = tmp_path / "m.csv"
        cli.write_metrics_csv(path, [RoundMetrics(1, 0, 0.5, 0.5)])
        assert b"\r" not in path.read_bytes()


class TestConvergence:
    def test_first_round_within_band(self):
        assert cli.convergence_round([0.5, 0.96, 0.97, 0.975]) == 2
        assert cli.convergence_round([0.9, 0.9, 0.9]) == 1
        assert cli.convergence_round([0.4]) == 1

    def test_dip_after_entering_band_still_counts_first(self):
        # The first round inside the band wins even if accuracy later dips.
        assert cli.convergence_round([0.96, 0.5, 0.97]) == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no accuracies"):
            cli.convergence_round([])

    @pytest.mark.parametrize("accs, shown", [
        ([math.nan], "nan"), ([0.5, math.nan], "nan"), ([math.inf], "inf"),
    ])
    def test_refuses_a_final_accuracy_that_is_not_finite(self, accs, shown):
        with pytest.raises(ValueError, match=f"^the final accuracy must be finite, got {shown}$"):
            cli.convergence_round(accs)

    @settings(max_examples=200, deadline=None)
    @given(accs=st.lists(st.floats(0, 1), min_size=1, max_size=30))
    def test_names_first_round_within_tolerance(self, accs):
        tolerance = cli.CONVERGENCE_TOLERANCE
        found = cli.convergence_round(accs)
        assert 1 <= found <= len(accs)
        assert abs(accs[found - 1] - accs[-1]) <= tolerance
        assert all(abs(acc - accs[-1]) > tolerance for acc in accs[: found - 1])


class TestDataset:
    def test_build_dataset_deterministic(self):
        c = cli.ExperimentConfig(model="cfl", num_points=100)
        a = cli.build_dataset(c)
        b = cli.build_dataset(c)
        assert dg.dataset_checksum(a) == dg.dataset_checksum(b)
        other = cli.build_dataset(cli.ExperimentConfig(model="cfl", num_points=100, seed=7))
        assert dg.dataset_checksum(other) != dg.dataset_checksum(a)

    def test_init_model_kinds(self):
        from qfedring.qweights import QuantumWeightStore
        from qfedring.trainkit import ClassicalMlp
        from qfedring.vqc import VqcModel

        assert isinstance(
            cli._init_model(cli.ExperimentConfig(model="cfl")), ClassicalMlp
        )
        assert isinstance(
            cli._init_model(cli.ExperimentConfig(model="qfl-classical", layers=3)),
            VqcModel,
        )
        store = cli._init_model(cli.ExperimentConfig(model="qfl-quantum", gamma=2.0))
        assert isinstance(store, QuantumWeightStore)
        assert store.gamma == pytest.approx(2.0)


# One out-of-range value per setting that is checked before any data is built.
_BAD_SETTINGS = [
    ("model", "resnet"),
    ("transport", "pigeon"),
    ("num_points", "3"),
    ("noise", "-1"),
    ("factor", "1"),
    ("seed", "-1"),
]


class TestEndToEnd:
    def test_run_writes_metrics_and_returns_zero(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = cli.main(["--model", "qfl-classical", *FAST, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == cli.METRICS_HEADER
        assert len(lines) == 3  # header + one row per round
        printed = capsys.readouterr().out
        assert "final_test_accuracy=" in printed
        assert "convergence_round=" in printed

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["--model", "qfl-classical", *FAST]
        assert cli.main([*argv, "--out", str(a)]) == 0
        assert cli.main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dump_dataset_round_trips(self, tmp_path, capsys):
        argv = ["--model", "cfl", *FAST, "--out", str(tmp_path / "m.csv"),
                "--dump-dataset", str(tmp_path / "data.csv")]
        assert cli.main(argv) == 0
        # The file is the canonical CSV of the run's data, and the summary's
        # checksum is a prefix of that file's sha256.
        raw = (tmp_path / "data.csv").read_bytes()
        assert raw == dg.csv_text(cli.build_dataset(cli.parse_config(argv))).encode("ascii")
        printed = re.search(r"checksum=([0-9a-f]+)", capsys.readouterr().out).group(1)
        assert hashlib.sha256(raw).hexdigest().startswith(printed)

    def test_bad_flags_exit_2(self, capsys):
        assert cli.main(["--model", "nope"]) == 2
        assert cli.main([]) == 2
        assert "error:" in capsys.readouterr().err

    def test_runtime_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # A hand-off that fails mid-run is a runtime error, not a config error.
        def lose_weight(model, channel_rng):
            raise TransferError("decode residual above the purity gate", (0, 0, 0))

        monkeypatch.setattr(fr, "teleport_weights", lose_weight)
        code = cli.main(
            ["--model", "qfl-quantum", "--transport", "teleport", *FAST,
             "--out", str(tmp_path / "m.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "round 1, client 0" in err

    def test_channel_failure_names_its_weight_and_exits_1(self, tmp_path, capsys, monkeypatch):
        # A ValueError inside the channel itself, not only in decoding,
        # reaches the user as a TransferError naming the (layer, qubit, k) slot.
        calls = {"n": 0}
        real = tp.teleport_state

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ValueError("register lost its norm")
            return real(*args, **kwargs)

        monkeypatch.setattr(tp, "teleport_state", flaky)
        code = cli.main(
            ["--model", "qfl-quantum", "--transport", "teleport", *FAST,
             "--out", str(tmp_path / "m.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "round 1, client 0" in err
        assert "(layer=0, qubit=0, k=2)" in err and "register lost its norm" in err

    def test_divergence_names_its_client_and_step_and_exits_1(self, tmp_path):
        # This used to exit with only "error: params must be finite", and
        # later one step late, after numpy's overflow warnings.
        for model, culprit in [("cfl", "logits"), ("qfl-quantum", "angles")]:
            done = _run_fresh_cli(
                "--model", model, "--learning-rate", "1e308", "--rounds", "3",
                "--out", str(tmp_path / "m.csv"),
            )
            assert done.returncode == 1, model
            pattern = rf"error: client 0, epoch 1, step \d+: {culprit} must be finite"
            assert re.search(pattern, done.stderr), done.stderr
            assert "RuntimeWarning" not in done.stderr, done.stderr

    @pytest.mark.parametrize("noise", ["3e307", "6e307"])
    def test_overflowing_noise_is_named_and_exits_1(self, tmp_path, noise):
        # 3e307 used to print two numpy RuntimeWarnings, then "train split:
        # features must be finite"; 6e307 "the data: features must be finite".
        out = tmp_path / "m.csv"
        done = _run_fresh_cli(
            "--model", "cfl", "--noise", noise, "--rounds", "2", "--out", str(out)
        )
        assert done.returncode == 1
        assert f"error: noise={float(noise)!r} jitters" in done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--num-points", "20", "--clients", "17"], "clients"),
            (["--clients", "2000"], "clients"),
            (["--train-fraction", "0.0001"], "train_fraction"),
            (["--train-fraction", "0.9999"], "train_fraction"),
        ],
    )
    def test_unsplittable_data_exits_2(self, tmp_path, capsys, flags, field):
        out = tmp_path / "m.csv"
        code = cli.main(["--model", "cfl", "--rounds", "1", *flags, "--out", str(out)])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", _BAD_SETTINGS)
    def test_bad_setting_exits_2(self, tmp_path, capsys, key, value):
        out = tmp_path / "m.csv"
        flag = "--" + key.replace("_", "-")
        assert cli.main(["--model", "cfl", flag, value, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["qfl-classical", "qfl-quantum"])
    def test_too_deep_circuit_exits_2(self, tmp_path, capsys, model):
        out = tmp_path / "m.csv"
        assert cli.main(["--model", model, "--layers", "74", "--out", str(out)]) == 2
        assert "layers" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_1(self, tmp_path, capsys, monkeypatch):
        refuse_training(monkeypatch)
        out = tmp_path / "missing-dir" / "m.csv"
        code = cli.main(["--model", "qfl-classical", *FAST, "--out", str(out)])
        assert code == 1
        assert f"--out {out}: " in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("dump", ["missing-dir/d.csv", "a-directory"])
    def test_unwritable_dump_dataset_exits_1(self, tmp_path, capsys, monkeypatch, dump):
        refuse_training(monkeypatch)
        (tmp_path / "a-directory").mkdir()
        path, out = tmp_path / dump, tmp_path / "m.csv"
        code = cli.main(["--model", "cfl", *FAST, "--out", str(out), "--dump-dataset", str(path)])
        assert code == 1
        assert f"--dump-dataset {path}: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory"]

    @pytest.mark.parametrize("flag", ["--out", "--dump-dataset"])
    def test_empty_output_path_exits_2(self, tmp_path, capsys, monkeypatch, flag):
        # An empty --dump-dataset used to be ignored, an empty --out to exit 1
        # on the directory '.'.
        refuse_training(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--model", "cfl", *FAST, flag, ""]) == 2
        assert capsys.readouterr().err == f"error: {flag} needs a file name, got an empty path\n"
        assert list(tmp_path.iterdir()) == []

    def test_empty_config_path_exits_2(self, tmp_path, capsys, monkeypatch):
        # An empty --config used to be skipped, so the defaults ran.
        refuse_training(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--model", "cfl", *FAST, "--config", ""]) == 2
        assert capsys.readouterr().err == "error: --config needs a file name, got an empty path\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["out", "dump_dataset"])
    def test_nul_in_an_output_path_exits_2(self, tmp_path, capsys, monkeypatch, key):
        # Only a config file can carry a NUL; resolving the path used to raise
        # "embedded null byte", which exits 1 without naming the flag.
        refuse_training(monkeypatch)
        flag = "--" + key.replace("_", "-")
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path / "run.cfg", model="cfl", **{key: "a\0b.csv"})
        assert cli.main(["--config", config]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} 'a\\x00b.csv': a file name cannot hold a NUL byte\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_out_check_leaves_no_file_behind(self, tmp_path, monkeypatch):
        """Checking --out neither creates an empty file nor truncates an old
        one that a failure after the check would leave behind."""

        def fail(*args, **kwargs):
            raise ValueError("training failed")

        monkeypatch.setattr(fr, "run_ring", fail)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("keep\n")
        assert cli.main(["--model", "cfl", *FAST, "--out", str(new)]) == 1
        assert cli.main(["--model", "cfl", *FAST, "--out", str(old)]) == 1
        assert not new.exists()
        assert old.read_text() == "keep\n"

    def test_dump_dataset_onto_out_exits_2(self, tmp_path, capsys, monkeypatch):
        # Writing both would leave only the metrics in the file.
        refuse_training(monkeypatch)
        path = tmp_path / "x.csv"
        path.write_text("keep\n")
        argv = ["--model", "cfl", *FAST, "--out", str(path),
                "--dump-dataset", str(tmp_path / "." / "x.csv")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "--dump-dataset" in err
        assert path.read_text() == "keep\n"

    @pytest.mark.parametrize("output", ["--out", "--dump-dataset"])
    def test_output_onto_config_file_exits_2(self, tmp_path, capsys, monkeypatch, output):
        refuse_training(monkeypatch)
        path = tmp_path / "run.cfg"
        write_config(path, model="cfl")
        argv = ["--config", str(path), "--out", str(tmp_path / "m.csv"), output, str(path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert output in err and "--config" in err
        assert path.read_text() == "model = cfl\n"


class TestCompare:
    def test_unwritable_out_exits_1(self, tmp_path, capsys, monkeypatch):
        refuse_training(monkeypatch)
        shared = dict(rounds=2, clients=2, local_epochs=1, num_points=80, batch_size=16)
        a = write_config(tmp_path / "a.cfg", model="cfl", **shared)
        b = write_config(tmp_path / "b.cfg", model="qfl-classical", **shared)
        out = tmp_path / "missing-dir" / "all.csv"
        assert cli.main(["--compare", a, b, "--out", str(out)]) == 1
        assert f"--out {out}: " in capsys.readouterr().err
        assert not out.parent.exists()

    def test_empty_out_exits_2(self, tmp_path, capsys, monkeypatch):
        # An empty --out used to write compare.csv.
        refuse_training(monkeypatch)
        monkeypatch.chdir(tmp_path)
        a = write_config(tmp_path / "a.cfg", model="cfl", rounds=1)
        b = write_config(tmp_path / "b.cfg", model="qfl-classical", rounds=1)
        assert cli.main(["--compare", a, b, "--out", ""]) == 2
        assert capsys.readouterr().err == "error: --out needs a file name, got an empty path\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.cfg", "b.cfg"]

    def test_empty_config_exits_2(self, tmp_path, capsys, monkeypatch):
        # An empty --config used to be accepted beside --compare, and ignored.
        refuse_training(monkeypatch)
        monkeypatch.chdir(tmp_path)
        a = write_config(tmp_path / "a.cfg", model="cfl", rounds=1)
        b = write_config(tmp_path / "b.cfg", model="qfl-classical", rounds=1)
        assert cli.main(["--compare", a, b, "--config", ""]) == 2
        assert capsys.readouterr().err == (
            "error: compare mode takes config files plus --out only, not --config; "
            "each setting goes in its config file\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.cfg", "b.cfg"]

    def test_config_without_model_exits_2(self, tmp_path, capsys, monkeypatch):
        refuse_training(monkeypatch)
        a = write_config(tmp_path / "a.cfg", model="cfl", rounds=1)
        b = write_config(tmp_path / "b.cfg", rounds=1)
        out = tmp_path / "x.csv"
        assert cli.main(["--compare", a, b, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {b}: config file must set 'model'\n"
        assert not out.exists()

    def test_combined_csv(self, tmp_path, capsys):
        shared = dict(rounds=2, clients=2, local_epochs=1, num_points=80, batch_size=16)
        a = write_config(tmp_path / "a.cfg", model="cfl", **shared)
        b = write_config(tmp_path / "b.cfg", model="qfl-classical", **shared)
        c = write_config(
            tmp_path / "c.cfg", model="qfl-quantum", transport="teleport", **shared
        )
        out = tmp_path / "all.csv"
        code = cli.main(["--compare", a, b, c, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == cli.COMPARE_HEADER
        assert len(lines) == 1 + 3 * 2  # one row per model per round
        models = [line.split(",")[0] for line in lines[1:]]
        assert models == ["cfl", "cfl", "qfl-classical", "qfl-classical",
                          "qfl-quantum", "qfl-quantum"]
        transports = {line.split(",")[1] for line in lines[1:]}
        assert transports == {"copy", "teleport"}
        checksums = {line.split(",")[-1] for line in lines[1:]}
        assert len(checksums) == 1 and len(checksums.pop()) == 64

    def test_dataset_checksum_is_computed_once(self, tmp_path, capsys, monkeypatch):
        # The CSV column and every run's summary share one checksum of the data.
        calls = []
        checksum = dg.dataset_checksum
        monkeypatch.setattr(dg, "dataset_checksum", lambda ds: calls.append(ds) or checksum(ds))
        paths = [tmp_path / name for name in ("cfl.cfg", "qfl-classical.cfg")]
        for path in paths:
            path.write_text((CONFIGS / path.name).read_text() + "rounds = 1\n")
        out = tmp_path / "out.csv"
        assert cli.main(["--compare", *map(str, paths), "--out", str(out)]) == 0
        assert len(calls) == 1
        (column,) = {line.split(",")[-1] for line in out.read_text().splitlines()[1:]}
        printed = re.findall(r"checksum=([0-9a-f]+)", capsys.readouterr().out)
        assert len(printed) == len(paths)
        assert all(column.startswith(prefix) for prefix in printed)

    def test_committed_configs_are_the_three_variants(self):
        configs = {path.name: cli.config_from_file(str(path)) for path in CONFIGS.iterdir()}
        assert configs == {
            "cfl.cfg": cli.ExperimentConfig(model="cfl"),
            "qfl-classical.cfg": cli.ExperimentConfig(model="qfl-classical"),
            "qfl-quantum.cfg": cli.ExperimentConfig(model="qfl-quantum", transport="teleport"),
        }

    def test_ten_round_comparison_is_pinned(self, tmp_path):
        # The committed configs at 10 rounds, as scripts/compare_base.py runs
        # them; a commit that changes this CSV must update the pin with it.
        paths = [tmp_path / path.name for path in sorted(CONFIGS.glob("*.cfg"))]
        for path in paths:
            path.write_text((CONFIGS / path.name).read_text() + "rounds = 10\n")
        out = tmp_path / "comparison.csv"
        assert cli.main(["--compare", *map(str, paths), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "33218709b80e325b05c2e98512d70f1887340b3eb299cfe4b91162d108fab4a9"
        )

    def test_dataset_mismatch_exits_2(self, tmp_path, capsys):
        a = write_config(tmp_path / "a.cfg", model="cfl", rounds=1, num_points=80)
        b = write_config(tmp_path / "b.cfg", model="cfl", rounds=1, num_points=100)
        code = cli.main(["--compare", a, b, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "share the dataset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, field",
        [({"clients": 2000}, "clients"), ({"train_fraction": 0.0001}, "train_fraction")],
    )
    def test_unsplittable_data_exits_2(self, tmp_path, capsys, setting, field):
        a = write_config(tmp_path / "a.cfg", model="cfl", rounds=1, **setting)
        b = write_config(tmp_path / "b.cfg", model="qfl-classical", rounds=1, **setting)
        out = tmp_path / "x.csv"
        assert cli.main(["--compare", a, b, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", _BAD_SETTINGS)
    def test_bad_setting_exits_2(self, tmp_path, capsys, key, value):
        settings = {"model": "cfl", "rounds": 1, key: value}
        a = write_config(tmp_path / "a.cfg", **settings)
        b = write_config(tmp_path / "b.cfg", **settings)
        out = tmp_path / "x.csv"
        assert cli.main(["--compare", a, b, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert a in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["out", "dump_dataset"])
    def test_output_setting_in_a_file_exits_2(self, tmp_path, capsys, monkeypatch, key):
        # Compare mode writes one combined CSV, so an output of a file's own is refused.
        refuse_training(monkeypatch)
        a = write_config(tmp_path / "a.cfg", model="cfl", rounds=1)
        b = write_config(
            tmp_path / "b.cfg", model="qfl-classical", rounds=1, **{key: tmp_path / "own.csv"}
        )
        out = tmp_path / "merged.csv"
        assert cli.main(["--compare", a, b, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert b in err and repr(key) in err
        assert not out.exists() and not (tmp_path / "own.csv").exists()

    def test_out_onto_a_config_file_exits_2(self, tmp_path, capsys, monkeypatch):
        refuse_training(monkeypatch)
        a = write_config(tmp_path / "a.cfg", model="cfl", rounds=1)
        b = write_config(tmp_path / "b.cfg", model="qfl-classical", rounds=1)
        assert cli.main(["--compare", a, b, "--out", a]) == 2
        err = capsys.readouterr().err
        assert f"--out {a}" in err and f"--compare {a}" in err
        assert (tmp_path / "a.cfg").read_text() == "model = cfl\nrounds = 1\n"
        # Reading one file twice overwrites nothing.
        assert cli.parse_config(["--compare", a, a]).config_paths == (a, a)

    def test_too_deep_circuit_exits_2(self, tmp_path, capsys):
        a = write_config(tmp_path / "a.cfg", model="cfl", rounds=1, layers=74)
        b = write_config(tmp_path / "b.cfg", model="qfl-quantum", rounds=1, layers=74)
        out = tmp_path / "x.csv"
        assert cli.main(["--compare", a, b, "--out", str(out)]) == 2
        assert "layers" in capsys.readouterr().err
        assert not out.exists()

    def test_differing_rounds_allowed(self, tmp_path):
        shared = dict(clients=2, local_epochs=1, num_points=80, batch_size=16)
        a = write_config(tmp_path / "a.cfg", model="cfl", rounds=1, **shared)
        b = write_config(tmp_path / "b.cfg", model="qfl-classical", rounds=3, **shared)
        out = tmp_path / "mix.csv"
        assert cli.main(["--compare", a, b, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 1 + 3
