"""Command-line interface checks: config parsing and precedence, CSV output
stability, convergence reporting, end-to-end runs and exit codes."""
import math

import numpy as np
import pytest

from qfedring import cli
from qfedring import datagen as dg
from qfedring import fedring as fr
from qfedring.teleport import TransferError
from qfedring.trainkit import RoundMetrics

FAST = [
    "--clients", "2", "--rounds", "2", "--local-epochs", "1",
    "--num-points", "80", "--batch-size", "16",
]


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
        with pytest.raises(cli.ConfigError, match="config files plus --out"):
            cli.parse_config(["--compare", a, b, "--rounds", "5"])
        with pytest.raises(cli.ConfigError, match="config files plus --out"):
            cli.parse_config(["--compare", a, b, "--config", a])


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

    def test_custom_tolerance(self):
        assert cli.convergence_round([0.5, 0.8, 0.9], tolerance=0.12) == 2
        assert cli.convergence_round([0.5, 0.8, 0.9], tolerance=0.05) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no accuracies"):
            cli.convergence_round([])


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

    def test_dump_dataset_round_trips(self, tmp_path):
        out = tmp_path / "m.csv"
        dump = tmp_path / "data.csv"
        code = cli.main(
            ["--model", "cfl", *FAST, "--out", str(out), "--dump-dataset", str(dump)]
        )
        assert code == 0
        loaded = dg.load_csv(dump)
        assert loaded.train_labels.size == 64  # 80 points at the default 0.8 split

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

    def test_unwritable_out_exits_1(self, tmp_path):
        code = cli.main(
            ["--model", "qfl-classical", *FAST,
             "--out", str(tmp_path / "missing-dir" / "m.csv")]
        )
        assert code == 1


class TestCompare:
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

    def test_differing_rounds_allowed(self, tmp_path):
        shared = dict(clients=2, local_epochs=1, num_points=80, batch_size=16)
        a = write_config(tmp_path / "a.cfg", model="cfl", rounds=1, **shared)
        b = write_config(tmp_path / "b.cfg", model="qfl-classical", rounds=3, **shared)
        out = tmp_path / "mix.csv"
        assert cli.main(["--compare", a, b, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 1 + 3
