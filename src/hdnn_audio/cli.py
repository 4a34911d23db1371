"""Command-line entry point.

Subcommands: synth-data, train-gmm, train-nn, train-hdnn, evaluate,
sweep-context, grid-arch. Every run writes its resolved config snapshot
and fingerprint into the output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import evaluation, mlp, systems
from .config import RunConfig, fingerprint, load_config, write_snapshot
from .data import generate_synthetic_corpus, load_annotations
from .errors import ConfigError, DataError, HdnnError, TrainingDiverged
from .features import ContextConfig, NormStats

EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3
EXIT_TRAINING_DIVERGED = 4
SYSTEM_FILE = "system.acsy"


def _prepare(cfg: RunConfig, norm: NormStats | None = None) -> systems.PreparedCorpus:
    corpus_dir = Path(cfg.paths.corpus_dir)
    segments = load_annotations(corpus_dir / "annotations.csv", check_audio=True)
    return systems.prepare_corpus(segments, corpus_dir, seed=cfg.seed,
                                  train_fraction=cfg.train_fraction, norm=norm)


def _report(out_dir: Path, system: systems.System,
            corpus: systems.PreparedCorpus) -> None:
    report = evaluation.evaluate(system.classify, corpus.test, corpus.labels,
                                 config_fingerprint=system.config_fingerprint)
    # the files first: a closed stdout must not cost the run its report
    text = evaluation.format_report(report)
    evaluation.write_report_csv(report, out_dir / "report.csv")
    (out_dir / "report.txt").write_text(text + "\n")
    print(text)


def _save_and_report(cfg: RunConfig, out_dir: Path, system: systems.System,
                     corpus: systems.PreparedCorpus) -> None:
    system.config_fingerprint = fingerprint(cfg)
    systems.save_system(system, out_dir / SYSTEM_FILE)
    _report(out_dir, system, corpus)


def cmd_synth_data(cfg: RunConfig, out_dir: Path) -> None:
    segments = generate_synthetic_corpus(cfg.synth, cfg.paths.corpus_dir)
    print(f"wrote {len(segments)} clips to {cfg.paths.corpus_dir}")


def cmd_train_gmm(cfg: RunConfig, out_dir: Path) -> None:
    corpus = _prepare(cfg)
    system, _ = systems.train_gmm_system(
        corpus, num_components=cfg.gmm.num_components,
        iterations=cfg.gmm.iterations, seed=cfg.seed,
        feature_mode=cfg.gmm.feature_mode, width=cfg.gmm.stacked_width)
    _save_and_report(cfg, out_dir, system, corpus)


def cmd_train_nn(cfg: RunConfig, out_dir: Path) -> None:
    corpus = _prepare(cfg)
    system, _, history = systems.train_nn_system(
        corpus, hidden_dims=cfg.nn.hidden_dims, width=cfg.context.width,
        schedule=cfg.nn.schedule, dct_keep=cfg.context.dct_keep,
        pretrain=cfg.pretrain)
    mlp.write_history_csv(history, out_dir / "history.csv")
    _save_and_report(cfg, out_dir, system, corpus)


def cmd_train_hdnn(cfg: RunConfig, out_dir: Path) -> None:
    corpus = _prepare(cfg)
    system, _ = systems.train_hdnn_system(
        corpus, cfg.context,
        stage1_hidden=cfg.nn.hidden_dims, stage2_hidden=cfg.stage2.hidden_dims,
        schedule_first=cfg.nn.schedule, schedule_second=cfg.stage2.schedule,
        pretrain=cfg.pretrain, sparse=cfg.sparse)
    _save_and_report(cfg, out_dir, system, corpus)


def cmd_evaluate(cfg: RunConfig, out_dir: Path, model_path: str) -> None:
    """Score a saved system on the test split the config selects; the
    system file supplies the front-end, both norms and the model."""
    system = systems.load_system(model_path)
    corpus = _prepare(cfg, norm=system.mfcc_norm)
    if corpus.labels != system.labels:
        raise DataError(f"{model_path}: trained on concepts {system.labels}, "
                        f"but the corpus has {corpus.labels}")
    _report(out_dir, system, corpus)


def cmd_sweep_context(cfg: RunConfig, out_dir: Path, widths: list[int]) -> None:
    corpus = _prepare(cfg)

    def factory(width):
        _, classifier, _ = systems.train_nn_system(
            corpus, hidden_dims=cfg.nn.hidden_dims, width=width,
            schedule=cfg.nn.schedule, dct_keep=None, pretrain=None)
        return classifier

    rows = evaluation.context_sweep(widths, factory, corpus.test, corpus.labels,
                                    csv_path=out_dir / "sweep.csv")
    for width, fa in rows:
        print(f"width {width:3d}: {fa:6.2f}%")


def cmd_grid_arch(cfg: RunConfig, out_dir: Path, depths: list[int],
                  neurons: list[int], pretrain_options: list[bool]) -> None:
    if True in pretrain_options and cfg.pretrain is None:
        raise ConfigError("grid-arch --pretrain on needs a pretrain section, "
                          "but pretrain is null")
    corpus = _prepare(cfg)

    def cell(depth, width, use_pretrain):
        _, classifier, _ = systems.train_nn_system(
            corpus, hidden_dims=[width] * depth, width=cfg.context.width,
            schedule=cfg.nn.schedule, dct_keep=cfg.context.dct_keep,
            pretrain=cfg.pretrain if use_pretrain else None)
        return evaluation.evaluate(classifier, corpus.test, corpus.labels).overall_fa

    rows = evaluation.architecture_grid(depths, neurons, pretrain_options, cell,
                                        csv_path=out_dir / "grid.csv")
    for depth, width, pre, fa in rows:
        print(f"{depth} x {width:5d} {'RBM' if pre else 'RND'}: {fa:6.2f}%")


def _comma_list(item):
    """argparse type: comma-separated values, each parsed by ``item``."""
    def parse(text):
        try:
            return [item(v) for v in text.split(",")]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return parse


def _context_width(text: str) -> int:
    return ContextConfig(width=int(text), dct_enabled=False).width


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise ValueError(f"expected on or off, got {text!r}")
    return text == "on"


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
    for name in ("synth-data", "train-gmm", "train-nn", "train-hdnn"):
        sub.add_parser(name)
    p = sub.add_parser("evaluate")
    p.add_argument("--model", required=True, help=f"system file ({SYSTEM_FILE})")
    p = sub.add_parser("sweep-context")
    p.add_argument("--widths", required=True, type=_comma_list(_context_width),
                   help="comma-separated odd context widths")
    p = sub.add_parser("grid-arch")
    p.add_argument("--depths", required=True, type=_comma_list(_positive_int),
                   help="comma-separated depths")
    p.add_argument("--neurons", required=True, type=_comma_list(_positive_int),
                   help="comma-separated layer widths")
    p.add_argument("--pretrain", default="on,off", type=_comma_list(_on_off),
                   help="comma-separated subset of {on,off}")
    return parser


def _detach_stdout() -> None:
    """Point file descriptor 1 at os.devnull, so the flush at interpreter
    exit finds no broken pipe to report."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        pass  # a stdout without a file descriptor has nothing to flush at exit
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.out_dir is not None:
        # a JSON string is a quoted YAML scalar, so the path stays a string
        overrides.append(f"paths.out_dir={json.dumps(args.out_dir)}")
    try:
        cfg = load_config(args.config, overrides)
        out_dir = Path(cfg.paths.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_snapshot(cfg, out_dir)
        if args.command == "synth-data":
            cmd_synth_data(cfg, out_dir)
        elif args.command == "train-gmm":
            cmd_train_gmm(cfg, out_dir)
        elif args.command == "train-nn":
            cmd_train_nn(cfg, out_dir)
        elif args.command == "train-hdnn":
            cmd_train_hdnn(cfg, out_dir)
        elif args.command == "evaluate":
            cmd_evaluate(cfg, out_dir, args.model)
        elif args.command == "sweep-context":
            cmd_sweep_context(cfg, out_dir, args.widths)
        elif args.command == "grid-arch":
            cmd_grid_arch(cfg, out_dir, args.depths, args.neurons, args.pretrain)
        sys.stdout.flush()
    except BrokenPipeError:
        # every print comes after the run's files are written, so a closed
        # stdout (``train-gmm | head -1``) loses nothing
        _detach_stdout()
        return 0
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
