"""Command-line surface: config precedence, dotted overrides, exit codes,
and the replayability of runs from their persisted artifacts.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from mclab.cli import load_config, main
from mclab.harness import ConfigError, normalize_config
from test_harness import assert_trees_identical, mini_doc


def write_doc(tmp_path: Path, doc: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadConfig:
    def test_defaults_without_any_input(self):
        assert load_config(None, []) == normalize_config({})

    @pytest.mark.parametrize("value", ["42", "lots"])
    def test_environment_seed_is_ignored(self, tmp_path, monkeypatch, value):
        # the seed comes from the document, a manifest or --set, never the environment
        monkeypatch.setenv("MCLAB_SEED", value)
        assert load_config(None, []).seed == 0
        path = write_doc(tmp_path, {"seed": 5})
        assert load_config(path, []).seed == 5
        assert load_config(path, ["seed=9"]).seed == 9

    def test_set_parses_json_values(self):
        cfg = load_config(
            None,
            ["policy.tau=0.75", "model.conv_channels=[2,4,8]",
             "dataset.kind=images", "policy.as_new_class=true"],
        )
        assert cfg.policy.tau == 0.75
        assert cfg.model.conv_channels == (2, 4, 8)
        assert cfg.dataset.kind == "images"
        assert cfg.policy.as_new_class is True

    def test_set_rejects_malformed_assignments(self):
        with pytest.raises(ConfigError, match="dotted.path=value"):
            load_config(None, ["policy.tau"])
        with pytest.raises(ConfigError, match="unknown field"):
            load_config(None, ["policy.threshold=0.5"])
        with pytest.raises(ConfigError, match="^seed: expected int$"):
            load_config(None, ["seed.sub=1"])  # {"sub": 1} is not a seed
        with pytest.raises(ConfigError, match="path crosses a non-object value"):
            load_config(None, ["seed=1", "seed.sub=1"])
        with pytest.raises(ConfigError, match="empty path"):
            load_config(None, ["policy..tau=0.5"])

    def test_missing_file_names_the_path(self):
        with pytest.raises(ConfigError, match="no such file: /nope/cfg.json"):
            load_config("/nope/cfg.json", [])

    def test_garbage_file_is_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path), [])
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(str(path), [])

    def test_manifest_document_is_accepted(self, tmp_path):
        cfg = normalize_config(mini_doc(str(tmp_path)))
        manifest = {"artifact": "mclab-sweep v1", "config": cfg.to_dict(), "runs": {}}
        path = write_doc(tmp_path, manifest, "manifest.json")
        assert load_config(path, []) == cfg
        with pytest.raises(ConfigError, match="^artifact: unknown field$"):
            normalize_config(manifest)  # only the file reader unwraps a manifest
        path = write_doc(tmp_path, {"artifact": "mclab-sweep v1", "runs": {}}, "empty.json")
        with pytest.raises(ConfigError, match="^config: .*empty.json is a sweep manifest"):
            load_config(path, [])

    def test_config_key_is_not_a_manifest(self):
        with pytest.raises(ConfigError, match="^config: unknown field$"):
            load_config(None, ["config.seed=3"])


class TestExitCodes:
    def test_validation_failure_is_exit_1(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "absent.json" in err

        code = main(["train", "--set", "policy.tau=1.5"])
        assert code == 1
        assert "policy.tau" in capsys.readouterr().err

        # the seven-class default profile needs n_total >= 70
        code = main(["train", "--set", "dataset.n_total=50"])
        assert code == 1
        assert "dataset.n_total: n_total must be >= 70" in capsys.readouterr().err

        # the document holds no per-run field, no dataset.source and no
        # excluded_class (train and correct take it as --exclude)
        for path in ("split.seed", "train.seed", "gbdt.seed", "policy.excluded_label",
                     "dataset.source", "excluded_class"):
            assert main(["train", "--set", f"{path}=1"]) == 1
            assert f"config error: {path}: unknown field" in capsys.readouterr().err

    def test_runtime_failure_is_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, mini_doc(str(tmp_path / "runs")))
        code = main(["train", "--config", path,
                     "--set", f"dataset.path={tmp_path / 'absent.csv'}"])
        assert code == 2
        assert "'data'" in capsys.readouterr().err

    def test_feature_shape_the_model_cannot_take_is_exit_1(self, tmp_path, capsys):
        path = write_doc(tmp_path, mini_doc(str(tmp_path / "runs")))
        code = main(["train", "--config", path, "--set", "dataset.profile.dim=32"])
        assert code == 1
        assert "config error: model.input_shape: holds 64 features" in capsys.readouterr().err
        code = main(["train", "--config", path, "--set", "dataset.kind=images",
                     "--set", "dataset.image.side=16", "--set", "model.input_shape=[4,8,8]"])
        assert code == 1
        assert "(channels, side, side) = [1, 16, 16]" in capsys.readouterr().err

    def test_unknown_command_fails_at_parse(self):
        assert main(["mystery"]) == 1
        assert main(["eval"]) == 1  # --preds is required

    def test_usage_errors_exit_1_and_help_exits_0(self, capsys):
        assert main(["sweep", "--jobs", "x"]) == 1
        assert "invalid int value" in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert "usage: mclab" in capsys.readouterr().out

    def test_config_file_that_is_not_utf8_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config: ") and "not UTF-8" in err
        assert main(["train", "--config", str(tmp_path)]) == 1  # a directory
        assert "config error: config: cannot read" in capsys.readouterr().err

    def test_eval_of_a_directory_names_it(self, tmp_path, capsys):
        assert main(["eval", "--preds", str(tmp_path)]) == 2
        assert f"cannot read prediction log {tmp_path}" in capsys.readouterr().err

    def test_correct_needs_an_excluded_class(self, tmp_path, capsys):
        path = write_doc(tmp_path, mini_doc(str(tmp_path / "runs")))
        assert main(["correct", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "usage: mclab correct" in err
        assert "the following arguments are required: --exclude" in err

    @pytest.mark.parametrize("command", ["train", "correct"])
    def test_an_excluded_class_out_of_range_is_exit_2(self, tmp_path, capsys, command):
        # run_single's range check is the only one; the mini profile has 3 classes
        path = write_doc(tmp_path, mini_doc(str(tmp_path / "runs")))
        assert main([command, "--config", path, "--exclude", "9"]) == 2
        assert ("error: stage 'exclude' failed: excluded class 9 outside [0, 3)"
                in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    def test_sweep_rejects_zero_jobs(self, tmp_path, capsys):
        path = write_doc(tmp_path, mini_doc(str(tmp_path / "runs")))
        assert main(["sweep", "--config", path, "--jobs", "0"]) == 1
        assert "jobs" in capsys.readouterr().err


class TestGenTrain:
    def test_gen_writes_dataset(self, tmp_path, capsys):
        path = write_doc(tmp_path, mini_doc(str(tmp_path / "runs")))
        out = tmp_path / "data.csv"
        assert main(["gen", "--config", path, "--set", "dataset.n_total=120",
                     "--out", str(out)]) == 0
        assert out.is_file()
        assert "wrote 120 samples" in capsys.readouterr().out

    def test_train_saves_model(self, tmp_path, capsys):
        path = write_doc(tmp_path, mini_doc(str(tmp_path / "runs")))
        assert main(["train", "--config", path]) == 0
        assert "best val_acc" in capsys.readouterr().out
        assert (tmp_path / "runs" / "mini" / "excl_none" / "model.bin").is_file()

    def test_train_with_an_excluded_class(self, tmp_path, capsys):
        path = write_doc(tmp_path, mini_doc(str(tmp_path / "runs")))
        assert main(["train", "--config", path, "--exclude", "2"]) == 0
        assert "excl_2/model.bin" in capsys.readouterr().out
        run_dir = tmp_path / "runs" / "mini" / "excl_2"
        assert sorted(p.name for p in run_dir.iterdir()) == ["history.csv", "model.bin"]


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One full exclusion run driven through the command line."""
    tmp = tmp_path_factory.mktemp("cli_run")
    path = write_doc(tmp, mini_doc(str(tmp / "runs")))
    code = main(["correct", "--config", path, "--exclude", "1"])
    assert code == 0
    return tmp, tmp / "runs" / "mini" / "excl_1"


class TestCorrectEval:
    def test_correct_persists_artifacts(self, cli_run):
        _, run_dir = cli_run
        for name in ("model.bin", "corrector.txt", "preds.csv", "metrics.csv"):
            assert (run_dir / name).is_file(), name

    def test_eval_replays_metrics_bit_exactly(self, cli_run, tmp_path, capsys):
        _, run_dir = cli_run
        out = tmp_path / "replayed.csv"
        code = main(["eval", "--preds", str(run_dir / "preds.csv"),
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        assert out.read_bytes() == (run_dir / "metrics.csv").read_bytes()

    def test_eval_prints_table_to_stdout(self, cli_run, capsys):
        _, run_dir = cli_run
        assert main(["eval", "--preds", str(run_dir / "preds.csv")]) == 0
        out = capsys.readouterr().out
        assert "retention" in out and "macro:" in out

    def test_eval_missing_log_is_runtime_error(self, capsys):
        assert main(["eval", "--preds", "/nope/preds.csv"]) == 2
        assert "prediction log" in capsys.readouterr().err

    def test_eval_malformed_log_is_runtime_error_naming_the_file(self, cli_run, tmp_path,
                                                                 capsys):
        _, run_dir = cli_run
        lines = (run_dir / "preds.csv").read_text().splitlines()
        bad = tmp_path / "truncated.csv"
        bad.write_text("\n".join(lines[:-1] + [lines[-1][:4]]) + "\n")
        assert main(["eval", "--preds", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: line {len(lines)}: expected 7 cells" in err

    @pytest.mark.parametrize("cell,message", [("9", "true 9 outside [0, 3)"),
                                              ("1\u00b9", "non-ASCII byte")])
    def test_eval_bad_label_or_byte_names_the_file(self, cli_run, tmp_path, capsys,
                                                     cell, message):
        _, run_dir = cli_run
        lines = (run_dir / "preds.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = cell
        bad = tmp_path / "edited.csv"
        bad.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n",
                       encoding="utf-8")
        assert main(["eval", "--preds", str(bad)]) == 2
        assert f"{bad}: line 3: {message}" in capsys.readouterr().err
        # a log must state K on its first line; one without it is rejected there
        no_k = tmp_path / "no_k.csv"
        no_k.write_text("\n".join(lines[1:]) + "\n", encoding="ascii")
        assert main(["eval", "--preds", str(no_k)]) == 2
        assert f"{no_k}: line 1: prediction log header" in capsys.readouterr().err

    def test_eval_of_a_perfect_log_leaves_undefined_averages_blank(self, tmp_path, capsys):
        # every prediction right: no class has a gain, and the report says so
        log = tmp_path / "perfect.csv"
        log.write_text("# mclab-preds v1 K=2\n"
                       "sample_id,true,base,corrected,overridden,base_conf,corr_conf\n"
                       "0,0,0,0,0,0.900000,0.800000\n1,1,1,1,0,0.900000,0.800000\n")
        out = tmp_path / "metrics.csv"
        assert main(["eval", "--preds", str(log), "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert "gain_macro," in lines and "accuracy_base,1.000000" in lines


@pytest.fixture(scope="module")
def cli_sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_sweep")
    path = write_doc(tmp, mini_doc(str(tmp / "runs"), name="cli"))
    code = main(["sweep", "--config", path])
    assert code == 0
    return tmp, path, tmp / "runs" / "cli"


class TestSweepReport:
    def test_sweep_prints_summary_and_writes_tables(self, cli_sweep, capsys):
        _, _, root = cli_sweep
        for tag in ("table3", "table4", "table5"):
            assert (root / f"{tag}.csv").is_file()
        assert (root / "manifest.json").is_file()

    def test_sweep_twice_gives_identical_trees(self, cli_sweep, tmp_path, capsys):
        _, path, root = cli_sweep
        aside = tmp_path / "first"
        shutil.copytree(root, aside)
        assert main(["sweep", "--config", path]) == 0
        capsys.readouterr()
        assert_trees_identical(aside, root)

    def test_report_rerenders_from_artifacts(self, cli_sweep, capsys):
        _, _, root = cli_sweep
        original = (root / "table3.csv").read_bytes()
        (root / "table3.csv").unlink()
        assert main(["report", "--run", str(root)]) == 0
        capsys.readouterr()
        assert (root / "table3.csv").read_bytes() == original

    def test_manifest_replays_with_overrides(self, cli_sweep):
        _, path, root = cli_sweep
        manifest = str(root / "manifest.json")
        cfg = load_config(path, [])
        assert load_config(manifest, []) == cfg
        assert load_config(manifest, ["seed=4"]) == replace(cfg, seed=4)
        assert load_config(manifest, ["gbdt.n_rounds=3"]) == load_config(
            path, ["gbdt.n_rounds=3"])

    def test_report_without_manifest_fails(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path)]) == 2
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("text,named,message", [
        ("{not json", "manifest.json", "Expecting property name"),
        ("[1, 2]", "manifest.json", "not a sweep manifest"),
        ('{"runs": {}}', "manifest.json", "not a sweep manifest"),
        ('{"config": {"seed": "x"}}', "manifest.json", "seed: expected int"),
        ('{"config": {"name": "caf\u00e9"}}', "manifest.json", "codec can't decode"),
        ('{"config": {}, "runs": []}', "excl_none/preds.csv", "manifest lists no sha256"),
    ], ids=["not_json", "list", "no_config", "invalid_config", "not_ascii", "runs_list"])
    def test_report_of_a_damaged_manifest_names_the_file(self, cli_sweep, tmp_path, capsys,
                                                         text, named, message):
        _, _, root = cli_sweep
        copy = tmp_path / "cli"
        shutil.copytree(root, copy)
        (copy / "manifest.json").write_text(text, encoding="utf-8")
        assert main(["report", "--run", str(copy)]) == 2
        err = capsys.readouterr().err
        assert str(copy / named) in err and message in err

    def test_a_sweep_written_with_the_deleted_policy_fields_fails_cleanly(
            self, cli_sweep, tmp_path, capsys):
        # the policy block of a manifest written before the policy kept one rule
        _, _, root = cli_sweep
        copy = tmp_path / "cli"
        shutil.copytree(root, copy)
        manifest = copy / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="ascii"))
        doc["config"]["policy"] = {"kind": "excluded_only", "tau": 0.5,
                                   "base_confidence_floor": 0.6, "as_new_class": False}
        manifest.write_text(json.dumps(doc), encoding="ascii")
        assert main(["report", "--run", str(copy)]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: policy.kind: unknown field" in err
        assert main(["sweep", "--config", str(manifest)]) == 1
        assert "config error: policy.kind: unknown field" in capsys.readouterr().err

    def test_a_sweep_written_with_stage_seeds_fails_cleanly(self, cli_sweep, tmp_path, capsys):
        # the config of a manifest written before the document lost its stage
        # seeds and dataset.source
        _, _, root = cli_sweep
        copy = tmp_path / "cli"
        shutil.copytree(root, copy)
        manifest = copy / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="ascii"))
        doc["config"]["dataset"]["source"] = "generated"
        for section in ("split", "train", "gbdt"):
            doc["config"][section]["seed"] = None
        manifest.write_text(json.dumps(doc, sort_keys=True), encoding="ascii")
        assert main(["report", "--run", str(copy)]) == 2
        assert f"{manifest}: dataset.source: unknown field" in capsys.readouterr().err
        assert main(["sweep", "--config", str(manifest)]) == 1
        assert "config error: dataset.source: unknown field" in capsys.readouterr().err
        del doc["config"]["dataset"]["source"]
        manifest.write_text(json.dumps(doc, sort_keys=True), encoding="ascii")
        assert main(["report", "--run", str(copy)]) == 2
        assert f"{manifest}: split.seed: unknown field" in capsys.readouterr().err

    def test_a_sweep_written_with_excluded_class_fails_cleanly(self, cli_sweep, tmp_path,
                                                              capsys):
        # every manifest written while the document held excluded_class has it,
        # null unless a run set it
        _, _, root = cli_sweep
        copy = tmp_path / "cli"
        shutil.copytree(root, copy)
        manifest = copy / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="ascii"))
        doc["config"]["excluded_class"] = None
        manifest.write_text(json.dumps(doc, sort_keys=True), encoding="ascii")
        assert main(["report", "--run", str(copy)]) == 2
        assert f"{manifest}: excluded_class: unknown field" in capsys.readouterr().err
        assert main(["sweep", "--config", str(manifest)]) == 1
        assert "config error: excluded_class: unknown field" in capsys.readouterr().err

    def test_report_of_a_missing_log_names_it(self, cli_sweep, tmp_path, capsys):
        _, _, root = cli_sweep
        copy = tmp_path / "cli"
        shutil.copytree(root, copy)
        (copy / "excl_1" / "preds.csv").unlink()
        assert main(["report", "--run", str(copy)]) == 2
        assert f"cannot read {copy / 'excl_1' / 'preds.csv'}" in capsys.readouterr().err
