import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from hdnn_audio import cli, evaluation, gmm, hierarchy, mlp, systems
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

    def test_int_for_a_float_has_the_float_fingerprint(self):
        as_int = load_config(None, ["nn.schedule.initial_lr=1", "synth.noise_db=-30"])
        as_float = load_config(None, ["nn.schedule.initial_lr=1.0",
                                      "synth.noise_db=-30.0"])
        assert as_int == as_float
        assert isinstance(as_int.nn.schedule.initial_lr, float)
        assert fingerprint(as_int) == fingerprint(as_float)

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
        rc = main(common[:2] + ["--out-dir", str(out2), "evaluate",
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

    def test_unreadable_wav_exits_3_naming_it(self, cli_corpus, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(cli_corpus, corpus)
        bad = corpus / load_annotations(corpus / "annotations.csv")[0].clip_path
        bad.write_bytes(b"RIFF\x10\x00\x00\x00garbage")
        rc = main(["--set", f"paths.corpus_dir={corpus}",
                   "--out-dir", str(tmp_path / "run"), "train-gmm"])
        assert rc == 3
        assert f"{bad}: unreadable WAV file" in capsys.readouterr().err

    def test_segment_past_the_clip_end_exits_3(self, cli_corpus, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(cli_corpus, corpus)
        rows = list(csv.reader((corpus / "annotations.csv").open(newline="")))
        rows[1][1:3] = ["50.0", "51.0"]  # every synthetic clip is under a second
        with (corpus / "annotations.csv").open("w", newline="") as f:
            csv.writer(f).writerows(rows)
        rc = main(["--set", f"paths.corpus_dir={corpus}",
                   "--out-dir", str(tmp_path / "run"), "train-gmm"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "clip of 0 samples" in err
        assert rows[1][0] in err and "50.0" in err

    def test_truncated_wav_exits_3_naming_it(self, cli_corpus, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(cli_corpus, corpus)
        bad = corpus / load_annotations(corpus / "annotations.csv")[0].clip_path
        bad.write_bytes(bad.read_bytes()[:-2000])  # cut inside the data chunk
        rc = main(["--set", f"paths.corpus_dir={corpus}",
                   "--out-dir", str(tmp_path / "run"), "train-gmm"])
        assert rc == 3
        assert f"{bad}: unreadable WAV file: Reached EOF prematurely" \
            in capsys.readouterr().err

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
        "stage2.hidden_dims=[6]", "sparse.offsets=[-2, 0, 2]"],
    "train-gmm": ["gmm.feature_mode=stacked", "gmm.stacked_width=3",
                  "gmm.num_components=2", "gmm.iterations=3"],
}


def as_sets(settings):
    return [arg for item in settings for arg in ("--set", item)]


class ClosedPipe:
    """A stdout whose reader has gone, as in ``hdnn-audio ... | head -1``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


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
        concepts=[gmm.DiagGmm(np.ones(2) / 2, np.zeros((2, 42)), np.ones((2, 42))),
                  gmm.DiagGmm(np.ones(3) / 3, np.zeros((3, 42)), np.ones((3, 42)))])},
}


def write_small_system(path, **changes):
    """An untrained two-concept NN system on 3 stacked frames."""
    systems.save_system(dataclasses.replace(systems.System(
        labels=["a", "b"], mfcc_norm=NormStats(np.zeros(14), np.ones(14)),
        width=3, input_norm=NormStats(np.zeros(42), np.ones(42)),
        model=mlp.init_random([42, 4, 2], np.random.default_rng(0))), **changes), path)


def write_small_cascade(path):
    """write_small_system's system with a second stage on its network."""
    rng = np.random.default_rng(0)
    write_small_system(path, model=hierarchy.CascadeModel(
        first_stage=mlp.init_random([42, 4, 2], rng),
        sparse=hierarchy.SparseContextConfig(offsets=(-1, 0, 1)),
        second_stage=mlp.init_random([3 * 2, 4, 2], rng)))


# header corruptions of a cascade file; each keeps three increasing
# offsets around 0, so only the offsets' type is wrong
CASCADE_CORRUPTIONS = {
    "offsets_not_int": _edit_header(offsets=[-1.5, 0, 1.5]),
    "offsets_bool": _edit_header(offsets=[-1, False, 1]),
}


@pytest.mark.parametrize("case", list(CORRUPTIONS) + list(CASCADE_CORRUPTIONS))
def test_corrupt_system_file_exits_3_before_corpus(case, tmp_path, capsys):
    path = tmp_path / "system.acsy"
    cascade = case in CASCADE_CORRUPTIONS
    corruption = CASCADE_CORRUPTIONS[case] if cascade else CORRUPTIONS[case]
    (write_small_cascade if cascade else write_small_system)(path)
    systems.load_system(path)
    if corruption is None:
        path.unlink()
    elif isinstance(corruption, dict):
        write_small_system(path, **corruption)
    else:
        blob = path.read_bytes()
        arrays_at = 12 + int.from_bytes(blob[8:12], "little")
        path.write_bytes(corruption(blob, arrays_at))
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


class TestEvaluateOverrides:
    def test_reads_the_split_and_paths(self, cli_corpus, tmp_path):
        train = tmp_path / "train"
        assert main(["--set", f"paths.corpus_dir={cli_corpus}"]
                    + as_sets(TRAINED_SYSTEMS["train-gmm"])
                    + ["--out-dir", str(train), "train-gmm"]) == 0
        out = tmp_path / "eval"
        assert main(["--set", f"paths.corpus_dir={cli_corpus}", "--seed", "0",
                     "--set", "train_fraction=0.8", "--set", f"paths.out_dir={out}",
                     "evaluate", "--model", str(train / "system.acsy")]) == 0
        assert (out / "report.csv").read_bytes() == (train / "report.csv").read_bytes()

    @pytest.mark.parametrize("override", [
        "nn.hidden_dims=[8]", "gmm.num_components=2", "context.width=5",
        "pretrain=null", "synth.num_concepts=4"])
    def test_ignored_key_exits_2_before_anything_is_read(self, override, tmp_path,
                                                         capsys):
        # the system file and the corpus are missing, so reading either
        # would exit 3
        out = tmp_path / "run"
        rc = main(["--set", f"paths.corpus_dir={tmp_path / 'missing'}",
                   "--set", override, "--out-dir", str(out),
                   "evaluate", "--model", str(tmp_path / "missing.acsy")])
        assert rc == 2
        assert override in capsys.readouterr().err
        assert not out.exists()


# each value is rejected when the config loads; the corpus dir is missing,
# so a check that ran only after the corpus was opened would exit 3
BAD_VALUES = [
    "context.width=8", "nn.hidden_dims=64", "nn.schedule.initial_lr=abc",
    "context.dct_keep_per_band=99", "gmm.feature_mode=bogus", "seed=abc",
    "pretrain.gb_epochs=-1", "synth.num_concepts=1", "synth.num_concepts=9",
    "features.frame_shift_ms=20",
    "nn.schedule.rng_seed=5", "sparse.offsets=[1,2]", "seed=true",
    "nn.hidden_dims=[0]", "nn.schedule.minibatch_frames=0",
    "pretrain.minibatch=0", "gmm.num_components=0", "train_fraction=1.5",
    "nn.schedule.min_epochs=51",  # above the default max_epochs of 50
    "nn.schedule.initial_lr=.nan", "nn.schedule.initial_lr=.inf",
    "nn.schedule.initial_lr=0", "nn.schedule.initial_lr=-1", "synth.noise_db=.nan",
    "synth.clip_seconds_range=[.nan, 1.0]",
]
# recipe values that are module constants (mlp.CV_FRACTION, rbm.GB_LR, ...)
# and stage 2's schedule, which is nn.schedule: each is an unknown key
REMOVED_KEYS = [
    "nn.schedule.ramp_improvement_threshold", "nn.schedule.stop_improvement_threshold",
    "nn.schedule.cv_fraction", "pretrain.gb_lr", "pretrain.bb_lr",
    *(f"stage2.schedule.{name}" for name in (
        "initial_lr", "ramp_improvement_threshold", "stop_improvement_threshold",
        "minibatch_frames", "cv_fraction", "max_epochs", "min_epochs")),
]


class TestValidation:
    @pytest.mark.parametrize("command, override", [
        pytest.param(command, override,
                     id=override if command == "train-hdnn" else f"{command}-{override}")
        for command in ("train-hdnn", "compare") for override in BAD_VALUES])
    def test_bad_value_exits_2_before_corpus(self, command, override, tmp_path):
        rc = main(["--set", f"paths.corpus_dir={tmp_path / 'missing'}",
                   "--set", override, "--out-dir", str(tmp_path / "run"),
                   command])
        assert rc == 2

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_exits_2_naming_it(self, key, tmp_path, capsys):
        rc = main(["--set", f"paths.corpus_dir={tmp_path / 'missing'}",
                   "--set", f"{key}=1", "--out-dir", str(tmp_path / "run"),
                   "train-hdnn"])
        assert rc == 2
        section, name = key.rsplit(".", 1)
        if section == "stage2.schedule":
            section, name = "stage2", "schedule"
        assert f"config.{section}: unknown key(s) ['{name}']" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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
        assert (cfg.nn.schedule.rng_seed, cfg.pretrain.rng_seed,
                cfg.synth.rng_seed) == (7, 7, 7)
        assert "rng_seed" not in (tmp_path / "config.yaml").read_text()

        # train-hdnn trains stage 2 on nn.schedule, seeded seed + 1
        class Trained(Exception):
            pass

        def train_nn_system(corpus, schedule, **kwargs):
            seen.append(schedule)
            return "stage 1", None, []

        def add_second_stage(first, corpus, hidden_dims, schedule, sparse):
            seen.append(schedule)
            raise Trained

        monkeypatch.setattr(cli, "_prepare", lambda cfg: None)
        monkeypatch.setattr(systems, "train_nn_system", train_nn_system)
        monkeypatch.setattr(systems, "add_second_stage", add_second_stage)
        with pytest.raises(Trained):
            main(["--seed", "7", "--set", "nn.schedule.max_epochs=3",
                  "--out-dir", str(tmp_path / "hdnn"), "train-hdnn"])
        first, second = seen[-2:]
        assert (first.rng_seed, second.rng_seed) == (7, 8)
        assert dataclasses.replace(second, rng_seed=7) == first
        assert second.max_epochs == 3

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
        assert not (tmp_path / "run").exists()


# every training command's small settings at once; compare's fixed
# settings override the ones that name the same keys
COMPARE_SETTINGS = list(dict.fromkeys(
    item for settings in TRAINED_SYSTEMS.values() for item in settings))


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def overall_fa(run_dir):
    """The OVERALL frame accuracy of a run's report.csv, as written."""
    (row,) = [row for row in read_csv(run_dir / "report.csv") if row[0] == "OVERALL"]
    return row[2]


@pytest.fixture(scope="module")
def compare_run(cli_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    assert main(["--set", f"paths.corpus_dir={cli_corpus}"]
                + as_sets(COMPARE_SETTINGS) + ["--out-dir", str(out), "compare"]) == 0
    return out


def assert_trained_as(system_dir, command, settings, cli_corpus, out):
    """``system_dir`` holds the files ``command`` writes with ``settings``."""
    assert main(["--set", f"paths.corpus_dir={cli_corpus}"] + as_sets(settings)
                + ["--out-dir", str(out), command]) == 0
    names = ["system.acsy", "report.csv", "report.txt", "fingerprint.txt"]
    if command == "train-nn":
        names.append("history.csv")
    for file_name in names:
        assert ((system_dir / file_name).read_bytes()
                == (out / file_name).read_bytes()), file_name
    # the snapshot is train-*'s own but for the system's directory
    snapshot = load_config(system_dir / "config.yaml")
    assert snapshot.paths.out_dir == str(system_dir)
    assert fingerprint(snapshot) == fingerprint(load_config(out / "config.yaml"))


class TestCompare:
    @pytest.mark.parametrize("name, command, fixed", cli.COMPARE_SYSTEMS,
                             ids=[name for name, *_ in cli.COMPARE_SYSTEMS])
    def test_system_equals_its_train_command(self, name, command, fixed,
                                             compare_run, cli_corpus, tmp_path):
        assert_trained_as(compare_run / name, command, COMPARE_SETTINGS + fixed,
                          cli_corpus, tmp_path / name)

    def test_table(self, compare_run):
        rows = read_csv(compare_run / "compare.csv")
        assert rows[0] == ["measure", "system", "value", "paper"]
        names = [name for name, *_ in cli.COMPARE_SYSTEMS]
        fa = {system: value for measure, system, value, _ in rows[1:]
              if measure == "frame_accuracy"}
        assert fa == {name: overall_fa(compare_run / name) for name in names}
        fa = {name: float(value) for name, value in fa.items()}
        best_gmm = max(names[:3], key=fa.get)
        reductions = [row[1:] for row in rows if row[0] == "hdnn_error_reduction"]
        assert [(system, paper) for system, _, paper in reductions] == [
            (best_gmm, "54.0"), ("nn-x9", "33.0"), ("dnn", "12.0")]
        for system, value, _ in reductions:
            assert float(value) == evaluation.relative_error_reduction(
                fa[system], fa["hdnn"])
        assert rows[-1][:3] == ["accuracy_gap", "gmm-stack21 - gmm-stack5",
                                str(fa["gmm-stack21"] - fa["gmm-stack5"])]
        text = (compare_run / "compare.txt").read_text()
        assert f"over best GMM ({best_gmm})" in text
        assert all(name in text for name in names)

    def test_trains_each_network_once(self, cli_corpus, tmp_path, monkeypatch):
        trained = []
        train_network = systems.train_network

        def counted(x, y, hidden_dims, *args, **kwargs):
            trained.append(hidden_dims)
            return train_network(x, y, hidden_dims, *args, **kwargs)

        monkeypatch.setattr(systems, "train_network", counted)
        assert main(["--set", f"paths.corpus_dir={cli_corpus}"]
                    + as_sets(COMPARE_SETTINGS) + ["--out-dir", str(tmp_path), "compare"]) == 0
        # nn-x9, dnn, and hdnn's second stage on dnn's network
        snapshot = {name: load_config(tmp_path / name / "config.yaml")
                    for name in ("nn-x9", "dnn", "hdnn")}
        assert trained == [snapshot["nn-x9"].nn.hidden_dims, snapshot["dnn"].nn.hidden_dims,
                           snapshot["hdnn"].stage2.hidden_dims]

    def test_hdnn_stacks_only_on_its_own_config(self, cli_corpus, tmp_path):
        cfg = load_config(None, [f"paths.corpus_dir={cli_corpus}"]
                          + TRAINED_SYSTEMS["train-hdnn"])
        write_snapshot(cfg, tmp_path / "run")
        cli._run_systems(cfg, tmp_path / "run", [
            ("nn", "train-nn", ["nn.hidden_dims=[5]"]), ("hdnn", "train-hdnn", [])])
        assert_trained_as(tmp_path / "run" / "hdnn", "train-hdnn",
                          TRAINED_SYSTEMS["train-hdnn"], cli_corpus, tmp_path / "alone")

    def test_train_hdnn_equals_the_benchmark_composition(self, cli_corpus, tmp_path):
        # the benchmark trains its H-DNN with systems.train_hdnn_system,
        # which the CLI does not call; a system file holds every array as
        # its <f8 bytes, so equal files hold bitwise-equal arrays
        settings = [f"paths.corpus_dir={cli_corpus}"] + TRAINED_SYSTEMS["train-hdnn"]
        assert main(as_sets(settings) + ["--out-dir", str(tmp_path), "train-hdnn"]) == 0
        cfg = load_config(None, settings)
        system, _ = systems.train_hdnn_system(
            cli._prepare(cfg), cfg.context, stage1_hidden=cfg.nn.hidden_dims,
            stage2_hidden=cfg.stage2.hidden_dims, schedule_first=cfg.nn.schedule,
            schedule_second=dataclasses.replace(cfg.nn.schedule, rng_seed=cfg.seed + 1),
            pretrain=cfg.pretrain, sparse=cfg.sparse)
        system.config_fingerprint = fingerprint(cfg)
        systems.save_system(system, tmp_path / "benchmark.acsy")
        assert ((tmp_path / "benchmark.acsy").read_bytes()
                == (tmp_path / "system.acsy").read_bytes())

    def test_closed_stdout_exits_0_with_every_file(self, cli_corpus, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        rc = main(["--set", f"paths.corpus_dir={cli_corpus}"]
                  + as_sets(COMPARE_SETTINGS) + ["--out-dir", str(tmp_path), "compare"])
        monkeypatch.undo()
        assert rc == 0
        for name, *_ in cli.COMPARE_SYSTEMS:
            for file_name in ("config.yaml", "system.acsy", "report.csv"):
                assert (tmp_path / name / file_name).exists()
        assert (tmp_path / "compare.csv").exists()
        assert (tmp_path / "compare.txt").exists()


# a grid with a pretrain section, so its cells train both ways
GRID_SETTINGS = [item for item in NN_SETTINGS if item != "pretrain=null"] + [
    "pretrain.gb_epochs=1", "pretrain.bb_epochs=1"]
# each cell of the sweep and grid runs below, with the settings that make
# train-nn train the same network
SWEEP_CELLS = {"width-1": NN_SETTINGS + cli.SWEEP_CONTEXT_SETTINGS + ["context.width=1"],
               "width-5": NN_SETTINGS + cli.SWEEP_CONTEXT_SETTINGS + ["context.width=5"]}
GRID_CELLS = {"1x8-RBM": GRID_SETTINGS + ["nn.hidden_dims=[8]"],
              "1x8-RND": GRID_SETTINGS + ["nn.hidden_dims=[8]", "pretrain=null"],
              "2x8-RBM": GRID_SETTINGS + ["nn.hidden_dims=[8, 8]"],
              "2x8-RND": GRID_SETTINGS + ["nn.hidden_dims=[8, 8]", "pretrain=null"]}


@pytest.fixture(scope="module")
def sweep_run(cli_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    assert main(["--set", f"paths.corpus_dir={cli_corpus}"] + as_sets(NN_SETTINGS)
                + ["--out-dir", str(out), "sweep-context", "--widths", "1,5"]) == 0
    return out


@pytest.fixture(scope="module")
def grid_run(cli_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    assert main(["--set", f"paths.corpus_dir={cli_corpus}"] + as_sets(GRID_SETTINGS)
                + ["--out-dir", str(out), "grid-arch", "--depths", "1,2",
                   "--neurons", "8", "--pretrain", "on,off"]) == 0
    return out


class TestSweeps:
    @pytest.mark.parametrize("name", SWEEP_CELLS)
    def test_sweep_cell_equals_train_nn(self, name, sweep_run, cli_corpus, tmp_path):
        assert_trained_as(sweep_run / name, "train-nn", SWEEP_CELLS[name],
                          cli_corpus, tmp_path / name)

    @pytest.mark.parametrize("name", GRID_CELLS)
    def test_grid_cell_equals_train_nn(self, name, grid_run, cli_corpus, tmp_path):
        assert_trained_as(grid_run / name, "train-nn", GRID_CELLS[name],
                          cli_corpus, tmp_path / name)

    def test_grid_rows_are_the_cells_accuracies(self, grid_run):
        rows = read_csv(grid_run / "grid.csv")
        assert [row[:3] for row in rows[1:]] == [
            ["1", "8", "RBM"], ["1", "8", "RND"], ["2", "8", "RBM"], ["2", "8", "RND"]]
        assert [row[3] for row in rows[1:]] == [overall_fa(grid_run / name)
                                               for name in GRID_CELLS]

    def test_sweep_context_csv(self, cli_corpus, tmp_path):
        args = ["--set", f"paths.corpus_dir={cli_corpus}"] + as_sets(NN_SETTINGS)
        sweep = tmp_path / "sweep"
        assert main(args + ["--out-dir", str(sweep),
                            "sweep-context", "--widths", "1,5"]) == 0
        rows = read_csv(sweep / "sweep.csv")
        assert rows[0] == ["width", "frame_accuracy"]
        assert [row[0] for row in rows[1:]] == ["1", "5"]
        # each width's network is train-nn's on raw stacked frames
        nn = tmp_path / "nn"
        assert main(args + as_sets(["context.width=5", "context.dct_enabled=false"])
                    + ["--out-dir", str(nn), "train-nn"]) == 0
        assert rows[2][1] == overall_fa(nn)

    def test_sweep_context_records_what_it_trains(self, cli_corpus, tmp_path):
        settings = [item for item in NN_SETTINGS if item != "pretrain=null"] + [
            "pretrain.gb_epochs=1", "pretrain.bb_epochs=1"]
        args = ["--set", f"paths.corpus_dir={cli_corpus}"] + as_sets(settings)
        # a pretrain section with the DCT on, and both off, sweep the same
        # raw-frame, random-init networks under one fingerprint
        runs = {name: tmp_path / name for name in ("on", "off")}
        for name, extra in (("on", []),
                            ("off", ["pretrain=null", "context.dct_enabled=false"])):
            assert main(args + as_sets(extra) + ["--out-dir", str(runs[name]),
                        "sweep-context", "--widths", "1,5"]) == 0
        for name in ("fingerprint.txt", "sweep.csv"):
            assert (runs["on"] / name).read_bytes() == (runs["off"] / name).read_bytes()
        snapshot = yaml.safe_load((runs["on"] / "config.yaml").read_text())
        assert snapshot["context"]["dct_enabled"] is False
        assert snapshot["pretrain"] is None
        # the sweep's rows before the settings were recorded, as an oracle
        cfg = load_config(runs["on"] / "config.yaml")
        corpus = cli._prepare(cfg)
        rows = []
        for width in (1, 5):
            _, classifier, _ = systems.train_nn_system(
                corpus, hidden_dims=cfg.nn.hidden_dims, width=width,
                schedule=cfg.nn.schedule, dct_keep=None, pretrain=None)
            rows.append([width, evaluation.evaluate(classifier, corpus.test,
                                                    corpus.labels).overall_fa])
        evaluation.write_csv(tmp_path / "want.csv", ["width", "frame_accuracy"], rows)
        assert (runs["on"] / "sweep.csv").read_bytes() \
            == (tmp_path / "want.csv").read_bytes()

    def test_grid_arch_csv(self, cli_corpus, tmp_path):
        settings = [item for item in NN_SETTINGS if item != "pretrain=null"] + [
            "pretrain.gb_epochs=1", "pretrain.bb_epochs=1"]
        args = ["--set", f"paths.corpus_dir={cli_corpus}"] + as_sets(settings)
        grid = tmp_path / "grid"
        assert main(args + ["--out-dir", str(grid), "grid-arch", "--depths", "1",
                            "--neurons", "8", "--pretrain", "on,off"]) == 0
        rows = read_csv(grid / "grid.csv")
        assert rows[0] == ["depth", "neurons", "pretrain", "frame_accuracy"]
        assert [row[:3] for row in rows[1:]] == [["1", "8", "RBM"], ["1", "8", "RND"]]
        # each cell's network is train-nn's with that depth, width and pretraining
        for row, extra in zip(rows[1:], ([], ["pretrain=null"])):
            nn = tmp_path / row[2]
            assert main(args + as_sets(extra) + ["--out-dir", str(nn), "train-nn"]) == 0
            assert row[3] == overall_fa(nn)
