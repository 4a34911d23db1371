"""Command-line entry point.

Subcommands: synth-data, extract-features, train-gmm, train-nn,
train-hdnn, evaluate, sweep-context, grid-arch. Every run writes its
resolved config snapshot and fingerprint into the output directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import evaluation, gmm, hierarchy, mlp, rbm, systems
from .config import (RunConfig, config_to_dict, fingerprint, load_config,
                     write_snapshot)
from .data import SynthConfig, generate_synthetic_corpus, load_annotations
from .errors import ConfigError, DataError, HdnnError, TrainingDiverged
from .features import ContextConfig, mfcc_sequence, save_features
from .data import load_segment_audio

EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3
EXIT_TRAINING_DIVERGED = 4


def _schedule(section, seed) -> mlp.TrainSchedule:
    return mlp.TrainSchedule(
        initial_lr=section.initial_lr,
        ramp_improvement_threshold=section.ramp_improvement_threshold,
        stop_improvement_threshold=section.stop_improvement_threshold,
        minibatch_frames=section.minibatch_frames,
        cv_fraction=section.cv_fraction,
        max_epochs=section.max_epochs,
        min_epochs=section.min_epochs,
        rng_seed=seed)


def _pretrain(cfg: RunConfig) -> rbm.PretrainConfig | None:
    if not cfg.pretrain.enabled:
        return None
    return rbm.PretrainConfig(
        gb_lr=cfg.pretrain.gb_lr, gb_epochs=cfg.pretrain.gb_epochs,
        bb_lr=cfg.pretrain.bb_lr, bb_epochs=cfg.pretrain.bb_epochs,
        minibatch=cfg.pretrain.minibatch, rng_seed=cfg.seed)


def _prepare(cfg: RunConfig) -> systems.PreparedCorpus:
    corpus_dir = Path(cfg.paths.corpus_dir)
    segments = load_annotations(corpus_dir / "annotations.csv", check_audio=True)
    return systems.prepare_corpus(segments, corpus_dir, seed=cfg.seed,
                                  train_fraction=cfg.train_fraction)


def _finish_report(cfg: RunConfig, out_dir: Path, report) -> None:
    report.config_fingerprint = fingerprint(cfg)
    print(evaluation.format_report(report))
    evaluation.write_report_csv(report, out_dir / "report.csv")
    (out_dir / "report.txt").write_text(evaluation.format_report(report) + "\n")


def cmd_synth_data(cfg: RunConfig, out_dir: Path) -> None:
    synth = SynthConfig(
        num_concepts=cfg.synth.num_concepts,
        clips_per_concept=cfg.synth.clips_per_concept,
        clip_seconds_range=(cfg.synth.clip_seconds_min, cfg.synth.clip_seconds_max),
        sample_rate=cfg.synth.sample_rate,
        noise_db=cfg.synth.noise_db,
        rng_seed=cfg.seed)
    segments = generate_synthetic_corpus(synth, cfg.paths.corpus_dir)
    print(f"wrote {len(segments)} clips to {cfg.paths.corpus_dir}")


def cmd_extract_features(cfg: RunConfig, out_dir: Path) -> None:
    corpus_dir = Path(cfg.paths.corpus_dir)
    segments = load_annotations(corpus_dir / "annotations.csv", check_audio=True)
    cache_dir = out_dir / "features"
    cache_dir.mkdir(parents=True, exist_ok=True)
    for i, seg in enumerate(segments):
        seq = mfcc_sequence(load_segment_audio(seg, corpus_dir),
                            frame_length_ms=cfg.features.frame_length_ms,
                            frame_shift_ms=cfg.features.frame_shift_ms,
                            num_ceps=cfg.features.num_ceps)
        save_features(seq, cache_dir / f"{Path(seg.clip_path).stem}_{i:05d}.acft")
    print(f"cached features for {len(segments)} segments in {cache_dir}")


def cmd_train_gmm(cfg: RunConfig, out_dir: Path) -> None:
    corpus = _prepare(cfg)
    bank, classifier = systems.train_gmm_system(
        corpus, num_components=cfg.gmm.num_components,
        iterations=cfg.gmm.iterations, seed=cfg.seed,
        feature_mode=cfg.gmm.feature_mode, width=cfg.gmm.stacked_width)
    gmm.save_bank(bank, out_dir / "bank.acgm")
    _finish_report(cfg, out_dir,
                   evaluation.evaluate(classifier, corpus.test, corpus.labels))


def cmd_train_nn(cfg: RunConfig, out_dir: Path) -> None:
    corpus = _prepare(cfg)
    keep = cfg.context.dct_keep_per_band if cfg.context.dct_enabled else None
    model, classifier, history = systems.train_nn_system(
        corpus, hidden_dims=list(cfg.nn.hidden_dims),
        width=cfg.context.width, schedule=_schedule(cfg.nn.schedule, cfg.seed),
        dct_keep=keep, pretrain=_pretrain(cfg))
    mlp.save_model(model, out_dir / "model.acnn")
    mlp.write_history_csv(history, out_dir / "history.csv")
    _finish_report(cfg, out_dir,
                   evaluation.evaluate(classifier, corpus.test, corpus.labels))


def cmd_train_hdnn(cfg: RunConfig, out_dir: Path) -> None:
    corpus = _prepare(cfg)
    context = ContextConfig(width=cfg.context.width,
                            dct_enabled=cfg.context.dct_enabled,
                            dct_keep_per_band=cfg.context.dct_keep_per_band)
    cascade, classifier = systems.train_hdnn_system(
        corpus, context,
        stage1_hidden=list(cfg.nn.hidden_dims),
        stage2_hidden=list(cfg.stage2.hidden_dims),
        schedule_first=_schedule(cfg.nn.schedule, cfg.seed),
        schedule_second=_schedule(cfg.stage2.schedule, cfg.seed + 1),
        pretrain=_pretrain(cfg),
        sparse=hierarchy.SparseContextConfig(offsets=tuple(cfg.sparse_offsets)))
    hierarchy.save_cascade(cascade, out_dir / "cascade.achd")
    _finish_report(cfg, out_dir,
                   evaluation.evaluate(classifier, corpus.test, corpus.labels))


def cmd_evaluate(cfg: RunConfig, out_dir: Path, model_path: str) -> None:
    corpus = _prepare(cfg)
    magic = open(model_path, "rb").read(4)
    keep = cfg.context.dct_keep_per_band if cfg.context.dct_enabled else None
    if magic == b"ACNN":
        model = mlp.load_model(model_path)
        transform = systems.context_transform(cfg.context.width, keep)

        def classifier(seq):
            return mlp.predict_frames(model, transform(seq))
    elif magic == b"ACHD":
        cascade = hierarchy.load_cascade(model_path)
        transform = systems.context_transform(cfg.context.width, keep)

        def classifier(seq):
            return hierarchy.classify(cascade, transform(seq))
    elif magic == b"ACGM":
        bank = gmm.load_bank(model_path)
        from .features import append_deltas, stack_context
        if cfg.gmm.feature_mode == "delta42":
            def classifier(seq):
                return gmm.classify_frames(bank, append_deltas(seq).frames)
        else:
            def classifier(seq):
                return gmm.classify_frames(
                    bank, stack_context(seq, cfg.gmm.stacked_width).frames)
    else:
        raise DataError(f"{model_path}: unrecognized model file")
    _finish_report(cfg, out_dir,
                   evaluation.evaluate(classifier, corpus.test, corpus.labels))


def cmd_sweep_context(cfg: RunConfig, out_dir: Path, widths: list[int]) -> None:
    corpus = _prepare(cfg)

    def factory(width):
        _, classifier, _ = systems.train_nn_system(
            corpus, hidden_dims=list(cfg.nn.hidden_dims), width=width,
            schedule=_schedule(cfg.nn.schedule, cfg.seed), dct_keep=None,
            pretrain=None)
        return classifier

    rows = evaluation.context_sweep(widths, factory, corpus.test, corpus.labels,
                                    csv_path=out_dir / "sweep.csv")
    for width, fa in rows:
        print(f"width {width:3d}: {fa:6.2f}%")


def cmd_grid_arch(cfg: RunConfig, out_dir: Path, depths: list[int],
                  neurons: list[int], pretrain_options: list[bool]) -> None:
    corpus = _prepare(cfg)
    keep = cfg.context.dct_keep_per_band if cfg.context.dct_enabled else None

    def cell(depth, width, use_pretrain):
        _, classifier, _ = systems.train_nn_system(
            corpus, hidden_dims=[width] * depth, width=cfg.context.width,
            schedule=_schedule(cfg.nn.schedule, cfg.seed), dct_keep=keep,
            pretrain=_pretrain(cfg) if use_pretrain else None)
        return evaluation.evaluate(classifier, corpus.test, corpus.labels).overall_fa

    rows = evaluation.architecture_grid(depths, neurons, pretrain_options, cell,
                                        csv_path=out_dir / "grid.csv")
    for depth, width, pre, fa in rows:
        print(f"{depth} x {width:5d} {'RBM' if pre else 'RND'}: {fa:6.2f}%")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdnn-audio",
        description="Per-frame audio concept classification pipeline")
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="dotted-path config override")
    parser.add_argument("--out-dir", help="run directory (overrides paths.out_dir)")
    parser.add_argument("--seed", type=int, help="override the run seed")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth-data", "extract-features", "train-gmm", "train-nn",
                 "train-hdnn"):
        sub.add_parser(name)
    p = sub.add_parser("evaluate")
    p.add_argument("--model", required=True, help="model/cascade/bank file")
    p = sub.add_parser("sweep-context")
    p.add_argument("--widths", required=True,
                   help="comma-separated odd context widths")
    p = sub.add_parser("grid-arch")
    p.add_argument("--depths", required=True, help="comma-separated depths")
    p.add_argument("--neurons", required=True, help="comma-separated layer widths")
    p.add_argument("--pretrain", default="on,off",
                   help="comma-separated subset of {on,off}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out_dir is not None:
            cfg.paths.out_dir = args.out_dir
        out_dir = Path(cfg.paths.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_snapshot(cfg, out_dir)
        if args.command == "synth-data":
            cmd_synth_data(cfg, out_dir)
        elif args.command == "extract-features":
            cmd_extract_features(cfg, out_dir)
        elif args.command == "train-gmm":
            cmd_train_gmm(cfg, out_dir)
        elif args.command == "train-nn":
            cmd_train_nn(cfg, out_dir)
        elif args.command == "train-hdnn":
            cmd_train_hdnn(cfg, out_dir)
        elif args.command == "evaluate":
            cmd_evaluate(cfg, out_dir, args.model)
        elif args.command == "sweep-context":
            widths = [int(w) for w in args.widths.split(",")]
            cmd_sweep_context(cfg, out_dir, widths)
        elif args.command == "grid-arch":
            depths = [int(d) for d in args.depths.split(",")]
            neurons = [int(n) for n in args.neurons.split(",")]
            pre = [p == "on" for p in args.pretrain.split(",")]
            cmd_grid_arch(cfg, out_dir, depths, neurons, pre)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_TRAINING_DIVERGED
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except HdnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
