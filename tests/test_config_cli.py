import dataclasses
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from hdnn_audio import cli, gmm, mlp, systems
from hdnn_audio.cli import main
from hdnn_audio.data import load_annotations, split_dataset
from hdnn_audio.config import (RunConfig, config_to_dict, fingerprint,
                               load_config, write_snapshot)
from hdnn_audio.errors import ConfigError
from hdnn_audio.features import NormStats


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config()
        assert cfg.seed == 0
        assert cfg.context.width == 49
        assert cfg.nn.schedule.initial_lr == 0.002
        assert cfg.gmm.num_components == 256

    def test_yaml_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("seed: 9\ncontext:\n  width: 9\n  dct_keep_per_band: 5\n")
        cfg = load_config(path)
        assert cfg.seed == 9
        assert cfg.context.width == 9
        # untouched sections keep their defaults
        assert cfg.gmm.iterations == 20

    @pytest.mark.parametrize("text", ["1e-3", "1.0e-3", "1E-3", ".1e-2"])
    def test_exponent_floats(self, text, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(f"nn:\n  schedule:\n    initial_lr: {text}\n")
        assert load_config(path).nn.schedule.initial_lr == 0.001
        cfg = load_config(None, [f"nn.schedule.initial_lr={text}"])
        assert cfg.nn.schedule.initial_lr == 0.001

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("sed: 9\n")
        with pytest.raises(ConfigError, match="sed"):
            load_config(path)

    def test_unknown_nested_key_names_path(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("nn:\n  schedule:\n    lr: 0.1\n")
        with pytest.raises(ConfigError, match=r"nn\.schedule"):
            load_config(path)

    def test_scalar_where_mapping_expected(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("nn: 3\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)

    def test_overrides(self):
        cfg = load_config(None, ["seed=4", "nn.schedule.initial_lr=0.5",
                                 "context.dct_enabled=false"])
        assert cfg.seed == 4
        assert cfg.nn.schedule.initial_lr == 0.5
        assert cfg.context.dct_enabled is False

    def test_override_list_value(self):
        cfg = load_config(None, ["nn.hidden_dims=[64, 32]"])
        assert cfg.nn.hidden_dims == [64, 32]

    def test_override_bad_form(self):
        with pytest.raises(ConfigError, match="key=value"):
            load_config(None, ["seed"])

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            load_config(None, ["bogus=1"])

    def test_shipped_configs_parse(self):
        from pathlib import Path
        root = Path(__file__).resolve().parents[1] / "configs"
        for name in ("full_scale.yaml", "desk_scale.yaml"):
            cfg = load_config(root / name)
            assert isinstance(cfg, RunConfig)


class TestFingerprint:
    def test_stable_and_sensitive(self):
        a, b = load_config(), load_config()
        assert fingerprint(a) == fingerprint(b)
        assert len(fingerprint(a)) == 16
        c = load_config(None, ["seed=1"])
        assert fingerprint(c) != fingerprint(a)

    def test_snapshot_round_trips(self, tmp_path):
        cfg = load_config(None, ["context.width=17", "context.dct_keep_per_band=9",
                                 "seed=5"])
        write_snapshot(cfg, tmp_path)
        reloaded = load_config(tmp_path / "config.yaml")
        assert config_to_dict(reloaded) == config_to_dict(cfg)
        assert (tmp_path / "fingerprint.txt").read_text().strip() \
            == fingerprint(cfg)


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    rc = main(["--set", f"paths.corpus_dir={corpus}",
               "--set", "synth.clips_per_concept=3",
               "--set", "synth.clip_seconds_range=[0.6, 0.9]",
               "--out-dir", str(root / "synth_run"),
               "--seed", "7",
               "synth-data"])
    assert rc == 0
    return corpus


class TestCli:
    def test_synth_data_layout(self, cli_corpus):
        assert (cli_corpus / "annotations.csv").exists()
        assert len(list(cli_corpus.glob("*.wav"))) == 24

    def test_snapshot_written(self, tmp_path):
        corpus = tmp_path / "corpus"
        out = tmp_path / "run"
        rc = main(["--set", f"paths.corpus_dir={corpus}",
                   "--set", "synth.clips_per_concept=2",
                   "--set", "synth.clip_seconds_range=[0.5, 0.6]",
                   "--out-dir", str(out), "synth-data"])
        assert rc == 0
        snap = yaml.safe_load((out / "config.yaml").read_text())
        assert snap["paths"]["corpus_dir"] == str(corpus)
        assert (out / "fingerprint.txt").exists()

    def test_train_gmm_and_evaluate_round_trip(self, cli_corpus, tmp_path):
        out = tmp_path / "gmm"
        common = ["--set", f"paths.corpus_dir={cli_corpus}",
                  "--set", "gmm.num_components=2",
                  "--set", "gmm.iterations=3"]
        rc = main(common + ["--out-dir", str(out), "train-gmm"])
        assert rc == 0
        assert (out / "system.acsy").exists()
        report = (out / "report.csv").read_text()
        assert "OVERALL" in report

        out2 = tmp_path / "eval"
        rc = main(common + ["--out-dir", str(out2), "evaluate",
                            "--model", str(out / "system.acsy")])
        assert rc == 0
        assert (out2 / "report.csv").read_text() == report

    def test_train_nn_writes_model_and_history(self, cli_corpus, tmp_path):
        out = tmp_path / "nn"
        rc = main(["--set", f"paths.corpus_dir={cli_corpus}",
                   "--set", "nn.hidden_dims=[8]",
                   "--set", "nn.schedule.max_epochs=2",
                   "--set", "nn.schedule.minibatch_frames=64",
                   "--set", "context.width=5",
                   "--set", "context.dct_enabled=false",
                   "--out-dir", str(out), "train-nn"])
        assert rc == 0
        assert (out / "system.acsy").exists()
        history = (out / "history.csv").read_text().splitlines()
        assert history[0].startswith("epoch")
        assert len(history) >= 2

    def test_config_error_exit_code(self, tmp_path):
        rc = main(["--set", "bogus=1", "--out-dir", str(tmp_path / "x"),
                   "synth-data"])
        assert rc == 2

    def test_data_error_exit_code(self, tmp_path):
        rc = main(["--set", f"paths.corpus_dir={tmp_path / 'missing'}",
                   "--out-dir", str(tmp_path / "y"), "train-gmm"])
        assert rc == 3

    def test_deterministic_reports(self, cli_corpus, tmp_path):
        reports = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["--set", f"paths.corpus_dir={cli_corpus}",
                       "--set", "gmm.num_components=2",
                       "--set", "gmm.iterations=2",
                       "--out-dir", str(out), "train-gmm"])
            assert rc == 0
            reports.append((out / "system.acsy").read_bytes())
        assert reports[0] == reports[1]


# small settings for each training command; a geometry, front-end and
# schedule that evaluate's own (default) config does not share
NN_SETTINGS = ["nn.hidden_dims=[8]", "nn.schedule.max_epochs=2",
               "nn.schedule.minibatch_frames=64", "context.width=9",
               "context.dct_keep_per_band=3", "pretrain=null"]
TRAINED_SYSTEMS = {
    "train-nn": NN_SETTINGS,
    "train-hdnn": NN_SETTINGS + [
        "stage2.hidden_dims=[6]", "stage2.schedule.max_epochs=2",
        "stage2.schedule.minibatch_frames=64", "sparse.offsets=[-2, 0, 2]"],
    "train-gmm": ["gmm.feature_mode=stacked", "gmm.stacked_width=3",
                  "gmm.num_components=2", "gmm.iterations=3"],
}


class TestSystemFile:
    @pytest.mark.parametrize("command", list(TRAINED_SYSTEMS))
    def test_evaluate_reproduces_training_report(self, command, cli_corpus,
                                                 tmp_path):
        corpus = ["--set", f"paths.corpus_dir={cli_corpus}"]
        settings = [arg for item in TRAINED_SYSTEMS[command]
                    for arg in ("--set", item)]
        train = tmp_path / "train"
        assert main(corpus + settings + ["--out-dir", str(train), command]) == 0
        out = tmp_path / "eval"
        assert main(corpus + ["--out-dir", str(out), "evaluate",
                              "--model", str(train / "system.acsy")]) == 0
        # report.txt carries the training fingerprint, not evaluate's
        for name in ("report.csv", "report.txt"):
            assert (out / name).read_bytes() == (train / name).read_bytes()

    def test_evaluate_extracts_only_the_test_clips(self, cli_corpus, tmp_path,
                                                   monkeypatch):
        corpus = ["--set", f"paths.corpus_dir={cli_corpus}"]
        settings = [arg for item in TRAINED_SYSTEMS["train-gmm"]
                    for arg in ("--set", item)]
        train = tmp_path / "train"
        assert main(corpus + settings + ["--out-dir", str(train), "train-gmm"]) == 0
        calls = []
        extract = systems.mfcc_sequence
        monkeypatch.setattr(systems, "mfcc_sequence",
                            lambda clip: calls.append(clip) or extract(clip))
        out = tmp_path / "eval"
        assert main(corpus + ["--out-dir", str(out), "evaluate",
                              "--model", str(train / "system.acsy")]) == 0
        segments = load_annotations(cli_corpus / "annotations.csv")
        _, test = split_dataset(segments, 0.8, 0)
        assert len(calls) == len(test) < len(segments)
        assert (out / "report.csv").read_bytes() == (train / "report.csv").read_bytes()

    def test_report_files_written_when_stdout_is_closed(self, cli_corpus,
                                                        tmp_path, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        args = ["--set", f"paths.corpus_dir={cli_corpus}"] + [
            arg for item in TRAINED_SYSTEMS["train-gmm"] for arg in ("--set", item)]
        assert main(args + ["--out-dir", str(tmp_path / "a"), "train-gmm"]) == 0
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        rc = main(args + ["--out-dir", str(tmp_path / "b"), "train-gmm"])
        monkeypatch.undo()
        assert rc == 0
        for name in ("report.csv", "report.txt"):
            assert ((tmp_path / "b" / name).read_bytes()
                    == (tmp_path / "a" / name).read_bytes())

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_pipe_reader_exits_0(self, unbuffered, cli_corpus, tmp_path):
        # a reader that closes at once, as `hdnn-audio train-gmm | true`;
        # unbuffered, the print itself fails, buffered, the final flush does
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        args = ["--set", f"paths.corpus_dir={cli_corpus}"] + [
            arg for item in TRAINED_SYSTEMS["train-gmm"] for arg in ("--set", item)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "hdnn_audio.cli", *args,
             "--out-dir", str(tmp_path), "train-gmm"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr.decode()
        assert stderr == b""
        for name in ("system.acsy", "report.csv", "report.txt"):
            assert (tmp_path / name).exists()

    def test_evaluate_normalizes_with_the_stored_mfcc_norm(self, cli_corpus,
                                                           tmp_path):
        corpus = ["--set", f"paths.corpus_dir={cli_corpus}"]
        settings = [arg for item in TRAINED_SYSTEMS["train-gmm"]
                    for arg in ("--set", item)]
        train = tmp_path / "train"
        assert main(corpus + settings + ["--out-dir", str(train), "train-gmm"]) == 0
        system = systems.load_system(train / "system.acsy")
        system.mfcc_norm = NormStats(system.mfcc_norm.mean + 1.0,
                                     system.mfcc_norm.std)
        systems.save_system(system, tmp_path / "shifted.acsy")
        out = tmp_path / "eval"
        assert main(corpus + ["--out-dir", str(out), "evaluate",
                              "--model", str(tmp_path / "shifted.acsy")]) == 0
        # the same clips normalized otherwise score otherwise
        assert (out / "report.csv").read_text() != (train / "report.csv").read_text()


def _edit_header(**changes):
    """A corruption that rewrites header fields, keeping the arrays."""
    def edit(blob, arrays_at):
        header = json.loads(blob[12:arrays_at])
        header.update(changes)
        head = json.dumps(header, sort_keys=True).encode()
        return blob[:8] + len(head).to_bytes(4, "little") + head + blob[arrays_at:]
    return edit


def _cut_arrays(fraction):
    def cut(blob, arrays_at):
        return blob[:arrays_at + int(fraction * (len(blob) - arrays_at))]
    return cut


# (intact file bytes, offset of the first array) -> corrupt bytes
CORRUPTIONS = {
    "empty": lambda blob, at: b"",
    "bad_magic": lambda blob, at: b"ACNN" + blob[4:],
    "unknown_version": lambda blob, at: blob[:4] + b"\x02\0\0\0" + blob[8:],
    "header_cut_short": lambda blob, at: blob[:at - 10],
    "arrays_cut_25": _cut_arrays(0.25),
    "arrays_cut_50": _cut_arrays(0.50),
    "arrays_cut_99": _cut_arrays(0.99),
    "trailing_byte": lambda blob, at: blob + b"\0",
    "missing_array": lambda blob, at: blob.replace(b'"net.0.bias"',
                                                   b'"net.0.bia5"', 1),
    "missing_path": None,
    # well-formed files whose header does not fit together; the first two
    # keep 14 x 3 = 42 model inputs, so only their geometry is wrong
    "even_width": _edit_header(width=4, dct_keep=3),
    "dct_keep_above_width": _edit_header(width=1, dct_keep=3),
    "width_not_int": _edit_header(width="abc"),
    "width_bool": _edit_header(width=True),
    "dct_keep_not_int": _edit_header(dct_keep=3.0),
    "deltas_not_bool": _edit_header(deltas=1),
    "labels_not_list": _edit_header(labels="ab"),
    "labels_not_strings": _edit_header(labels=[1, 2]),
    "more_labels_than_outputs": _edit_header(labels=["a", "b", "c"]),
    "front_end_dim": _edit_header(width=5),
    # the same number of values, split 13 + 43 between two stds
    "norm_shapes_differ": _edit_header(arrays=[
        ["mfcc_norm.mean", [14]], ["mfcc_norm.std", [13]],
        ["input_norm.mean", [42]], ["input_norm.std", [43]],
        ["net.0.weights", [4, 42]], ["net.0.bias", [4]],
        ["net.1.weights", [2, 4]], ["net.1.bias", [2]]]),
    # whole files written from parts that do not fit together
    "input_norm_dim": {"input_norm": NormStats(np.zeros(41), np.ones(41))},
    "mfcc_norm_dim": {"mfcc_norm": NormStats(np.zeros(7), np.ones(7)),
                      "width": 7, "dct_keep": 6},
    "bias_shape": {"model": mlp.MlpModel([
        mlp.Layer(np.zeros((4, 42)), np.zeros(5)),
        mlp.Layer(np.zeros((2, 4)), np.zeros(2))])},
    "concept_shape": {"model": gmm.GmmConceptBank(
        ubm=gmm.DiagGmm(np.ones(2) / 2, np.zeros((2, 42)), np.ones((2, 42))),
        concept_models={
            "a": gmm.DiagGmm(np.ones(2) / 2, np.zeros((2, 42)), np.ones((2, 42))),
            "b": gmm.DiagGmm(np.ones(3) / 3, np.zeros((3, 42)), np.ones((3, 42)))},
        labels=["a", "b"])},
}


def write_small_system(path, **changes):
    """An untrained two-concept NN system on 3 stacked frames."""
    systems.save_system(dataclasses.replace(systems.System(
        labels=["a", "b"], mfcc_norm=NormStats(np.zeros(14), np.ones(14)),
        width=3, input_norm=NormStats(np.zeros(42), np.ones(42)),
        model=mlp.init_random([42, 4, 2], np.random.default_rng(0))), **changes), path)


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_corrupt_system_file_exits_3_before_corpus(case, tmp_path, capsys):
    path = tmp_path / "system.acsy"
    write_small_system(path)
    systems.load_system(path)
    if CORRUPTIONS[case] is None:
        path.unlink()
    elif isinstance(CORRUPTIONS[case], dict):
        write_small_system(path, **CORRUPTIONS[case])
    else:
        blob = path.read_bytes()
        arrays_at = 12 + int.from_bytes(blob[8:12], "little")
        path.write_bytes(CORRUPTIONS[case](blob, arrays_at))
    # the corpus dir is missing: a file checked only after the corpus was
    # read would fail on the corpus and not name the system file
    rc = main(["--set", f"paths.corpus_dir={tmp_path / 'missing'}",
               "--out-dir", str(tmp_path / "run"),
               "evaluate", "--model", str(path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{path}:" in err and "system file" in err


def test_evaluate_rejects_other_concepts(cli_corpus, tmp_path, capsys):
    path = tmp_path / "system.acsy"
    write_small_system(path)
    rc = main(["--set", f"paths.corpus_dir={cli_corpus}",
               "--out-dir", str(tmp_path / "run"),
               "evaluate", "--model", str(path)])
    assert rc == 3
    assert "trained on concepts ['a', 'b']" in capsys.readouterr().err


# each value is rejected when the config loads; the corpus dir is missing,
# so a check that ran only after the corpus was opened would exit 3
BAD_VALUES = [
    "context.width=8", "nn.hidden_dims=64", "nn.schedule.initial_lr=abc",
    "context.dct_keep_per_band=99", "gmm.feature_mode=bogus", "seed=abc",
    "pretrain.gb_lr=-1", "synth.num_concepts=1", "features.frame_shift_ms=20",
    "nn.schedule.rng_seed=5", "sparse.offsets=[1,2]", "seed=true",
    "nn.hidden_dims=[0]", "nn.schedule.minibatch_frames=0",
    "pretrain.minibatch=0", "gmm.num_components=0", "train_fraction=1.5",
]


class TestValidation:
    @pytest.mark.parametrize("override", BAD_VALUES)
    def test_bad_value_exits_2_before_corpus(self, override, tmp_path):
        rc = main(["--set", f"paths.corpus_dir={tmp_path / 'missing'}",
                   "--set", override, "--out-dir", str(tmp_path / "run"),
                   "train-hdnn"])
        assert rc == 2

    def test_unused_geometry_not_checked(self):
        cfg = load_config(None, ["context.width=5", "context.dct_enabled=false",
                                 "gmm.stacked_width=4"])
        assert cfg.context.dct_keep is None
        assert load_config().context.dct_keep == 33
        with pytest.raises(ConfigError, match="width"):
            load_config(None, ["gmm.feature_mode=stacked", "gmm.stacked_width=4"])

    def test_types_follow_annotations(self):
        cfg = load_config(None, ["nn.schedule.initial_lr=1",
                                 "synth.clip_seconds_range=[0.5, 1]",
                                 "sparse.offsets=[-2, 0, 2]"])
        assert cfg.nn.schedule.initial_lr == 1
        assert cfg.synth.clip_seconds_range == (0.5, 1)
        assert cfg.sparse.offsets == (-2, 0, 2)
        with pytest.raises(ConfigError, match=r"clip_seconds_range"):
            load_config(None, ["synth.clip_seconds_range=[1.0]"])
        with pytest.raises(ConfigError, match=r"hidden_dims\[1\]"):
            load_config(None, ["nn.hidden_dims=[8, 2.5]"])

    def test_seed_flag_derives_every_rng_seed(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_synth_data",
                            lambda cfg, out_dir: seen.append(cfg))
        rc = main(["--seed", "7", "--out-dir", str(tmp_path), "synth-data"])
        assert rc == 0
        (cfg,) = seen
        assert (cfg.nn.schedule.rng_seed, cfg.stage2.schedule.rng_seed,
                cfg.pretrain.rng_seed, cfg.synth.rng_seed) == (7, 8, 7, 7)
        assert "rng_seed" not in (tmp_path / "config.yaml").read_text()

    def test_fingerprint_ignores_paths(self):
        base = fingerprint(load_config())
        moved = load_config(None, ["paths.out_dir=elsewhere",
                                   "paths.corpus_dir=other"])
        assert fingerprint(moved) == base

    def test_snapshot_round_trips_without_pretraining(self, tmp_path):
        cfg = load_config(None, ["pretrain=null", "seed=3"])
        write_snapshot(cfg, tmp_path)
        reloaded = load_config(tmp_path / "config.yaml")
        assert reloaded.pretrain is None
        assert config_to_dict(reloaded) == config_to_dict(cfg)
        assert fingerprint(reloaded) == fingerprint(cfg)


class TestListArguments:
    @pytest.mark.parametrize("args", [
        ["sweep-context", "--widths", "8"],
        ["sweep-context", "--widths", "a"],
        ["grid-arch", "--depths", "0", "--neurons", "8"],
        ["grid-arch", "--depths", "1", "--neurons", "8,x"],
        ["grid-arch", "--depths", "1", "--neurons", "8", "--pretrain", "yes"],
    ])
    def test_bad_list_exits_2(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2

    def test_parsed_values(self):
        args = cli.build_parser().parse_args(
            ["grid-arch", "--depths", "1,3", "--neurons", "16"])
        assert (args.depths, args.neurons, args.pretrain) == ([1, 3], [16],
                                                              [True, False])
        args = cli.build_parser().parse_args(["sweep-context", "--widths", "1,9"])
        assert args.widths == [1, 9]

    def test_pretrain_on_without_pretrain_section(self, tmp_path):
        rc = main(["--set", "pretrain=null",
                   "--set", f"paths.corpus_dir={tmp_path / 'missing'}",
                   "--out-dir", str(tmp_path / "run"),
                   "grid-arch", "--depths", "1", "--neurons", "8",
                   "--pretrain", "on"])
        assert rc == 2


SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(script), "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0


@pytest.mark.parametrize("script, command", [
    ("make_corpus.py", "cmd_synth_data"),
    ("run_arch_grid.py", "cmd_grid_arch"),
    ("run_context_sweep.py", "cmd_sweep_context"),
])
def test_script_corpus_dir_stays_a_string(script, command, monkeypatch, tmp_path):
    seen = []
    monkeypatch.setattr(cli, command, lambda cfg, *args: seen.append(cfg))
    monkeypatch.chdir(tmp_path)
    root = Path(__file__).resolve().parents[1]
    monkeypatch.setattr(sys, "argv", [script, "--corpus-dir", "2024", "--config",
                                      str(root / "configs" / "desk_scale.yaml")])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(root / "scripts" / script), run_name="__main__")
    assert exc.value.code == 0
    (cfg,) = seen
    assert cfg.paths.corpus_dir == "2024"
