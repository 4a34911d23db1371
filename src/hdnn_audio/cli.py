"""Command-line entry point.

Subcommands: synth-data, train-gmm, train-nn, train-hdnn, compare,
evaluate, sweep-context, grid-arch. Every run writes its resolved config
snapshot and fingerprint into the output directory. compare, sweep-context
and grid-arch train each system as its train-* command does, into its own
directory with its own snapshot, which evaluate can score: <out>/<system>/,
<out>/width-<W>/ and <out>/<D>x<N>-RBM|RND/ (pretrained or random init).
Every H-DNN is a second stage on a train-nn network: compare's hdnn
stacks on the network dnn has just trained, train-hdnn on its own.
evaluate reads only EVALUATE_KEYS from its config and rejects a --set of
any other key.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from pathlib import Path

from . import evaluation, systems
from .config import RunConfig, fingerprint, load_config, write_snapshot
from .data import generate_synthetic_corpus, load_annotations
from .errors import ConfigError, DataError, HdnnError, TrainingDiverged
from .features import ContextConfig, NormStats

EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3
EXIT_TRAINING_DIVERGED = 4
SYSTEM_FILE = "system.acsy"
TRAIN_COMMANDS = ("train-gmm", "train-nn", "train-hdnn")

# the paper's system set: name, the train-* command that trains it, and
# settings applied over the run's config (they win over its overrides)
COMPARE_SYSTEMS = [
    ("gmm-delta42", "train-gmm", ["gmm.feature_mode=delta42"]),
    ("gmm-stack5", "train-gmm", ["gmm.feature_mode=stacked", "gmm.stacked_width=5"]),
    ("gmm-stack21", "train-gmm", ["gmm.feature_mode=stacked", "gmm.stacked_width=21"]),
    ("nn-x9", "train-nn", ["nn.hidden_dims=[1000]", "context.width=9",
                           "context.dct_enabled=false", "pretrain=null"]),
    ("dnn", "train-nn", []),
    ("hdnn", "train-hdnn", []),
]
# sweep-context trains each width's network on raw stacked frames from
# random initialisation; applied over the run's config, so the snapshot
# and fingerprint record what was trained
SWEEP_CONTEXT_SETTINGS = ["context.dct_enabled=false", "pretrain=null"]
# the config values evaluate reads (the split, and where the files are);
# evaluate rejects an override of any other
EVALUATE_KEYS = ("seed", "train_fraction", "paths")
# the H-DNN's relative frame-error reduction (%) over each baseline, as
# the paper reports it
PAPER_REDUCTIONS = {"best GMM": 54.0, "nn-x9": 33.0, "dnn": 12.0}


def _prepare(cfg: RunConfig, norm: NormStats | None = None) -> systems.PreparedCorpus:
    corpus_dir = Path(cfg.paths.corpus_dir)
    segments = load_annotations(corpus_dir / "annotations.csv", check_audio=True)
    return systems.prepare_corpus(segments, corpus_dir, seed=cfg.seed,
                                  train_fraction=cfg.train_fraction, norm=norm)


def _write_report(out_dir: Path, system: systems.System,
                  corpus: systems.PreparedCorpus) -> evaluation.EvalReport:
    report = evaluation.evaluate(system.classify, corpus.test, corpus.labels,
                                 config_fingerprint=system.config_fingerprint)
    evaluation.write_report_csv(report, out_dir / "report.csv")
    (out_dir / "report.txt").write_text(evaluation.format_report(report) + "\n")
    return report


def _train(command: str, cfg: RunConfig, corpus: systems.PreparedCorpus,
           out_dir: Path, first: systems.System | None = None
           ) -> tuple[systems.System, evaluation.EvalReport]:
    """Train the system a ``train-*`` command names and write its system
    file, history (train-nn) and report files to ``out_dir``. Every H-DNN
    is ``systems.add_second_stage`` on a ``train_nn_system`` network:
    ``first`` (a train-nn system) if it has ``cfg``'s fingerprint, else
    one trained here. Prints nothing: a closed stdout must not cost a run
    its files."""
    if command == "train-gmm":
        system, _ = systems.train_gmm_system(
            corpus, num_components=cfg.gmm.num_components,
            iterations=cfg.gmm.iterations, seed=cfg.seed,
            feature_mode=cfg.gmm.feature_mode, width=cfg.gmm.stacked_width)
    else:
        if (command == "train-nn" or first is None
                or first.config_fingerprint != fingerprint(cfg)):
            first, _, history = systems.train_nn_system(
                corpus, hidden_dims=cfg.nn.hidden_dims, width=cfg.context.width,
                schedule=cfg.nn.schedule, dct_keep=cfg.context.dct_keep,
                pretrain=cfg.pretrain)
        if command == "train-nn":
            system = first
            evaluation.write_csv(out_dir / "history.csv",
                                 ["epoch", "lr", "train_loss", "cv_accuracy"],
                                 [dataclasses.astuple(record) for record in history])
        else:
            system = systems.add_second_stage(
                first, corpus, cfg.stage2.hidden_dims,
                dataclasses.replace(cfg.nn.schedule, rng_seed=cfg.seed + 1), cfg.sparse)
    system.config_fingerprint = fingerprint(cfg)
    systems.save_system(system, out_dir / SYSTEM_FILE)
    return system, _write_report(out_dir, system, corpus)


def cmd_synth_data(cfg: RunConfig, out_dir: Path) -> None:
    segments = generate_synthetic_corpus(cfg.synth, cfg.paths.corpus_dir)
    print(f"wrote {len(segments)} clips to {cfg.paths.corpus_dir}")


def _run_systems(cfg: RunConfig, out_dir: Path,
                 runs: list[tuple[str, str, list[str]]]) -> list[float]:
    """Train each ``(name, train-* command, settings)`` of ``runs`` on one
    prepared corpus into ``out_dir/<name>``, under the run's snapshot with
    the settings applied (they win over the run's overrides; every config is
    validated before the corpus is read). Returns the frame accuracies."""
    configs = [load_config(out_dir / "config.yaml", settings + [
                   f"paths.out_dir={json.dumps(str(out_dir / name))}"])
               for name, _, settings in runs]
    commands = [command for _, command, _ in runs]
    corpus = _prepare(cfg)
    fa, first = [], None
    for i, ((name, command, _), system_cfg) in enumerate(zip(runs, configs)):
        write_snapshot(system_cfg, out_dir / name)
        first, report = _train(command, system_cfg, corpus, out_dir / name, first)
        fa.append(report.overall_fa)
        if commands[i:i + 2] != ["train-nn", "train-hdnn"]:
            first = None  # kept only for a train-hdnn run to stack on
    return fa


def cmd_compare(cfg: RunConfig, out_dir: Path) -> None:
    """Train every system of COMPARE_SYSTEMS, then write and print the
    comparison table."""
    fa = dict(zip([name for name, *_ in COMPARE_SYSTEMS],
                  _run_systems(cfg, out_dir, COMPARE_SYSTEMS)))
    best_gmm = max((name for name in fa if name.startswith("gmm-")), key=fa.get)
    rows = [["frame_accuracy", name, value, ""] for name, value in fa.items()]
    lines = [f"{'system':<12} {'F.A.%':>6}"] + [f"{name:<12} {value:6.2f}"
                                                 for name, value in fa.items()]
    lines.append(f"{'H-DNN relative frame-error reduction':<38} {'this run':>8}  paper")
    for baseline, paper in PAPER_REDUCTIONS.items():
        base = best_gmm if baseline == "best GMM" else baseline
        reduction = evaluation.relative_error_reduction(fa[base], fa["hdnn"])
        rows.append(["hdnn_error_reduction", base, reduction, paper])
        label = f"over {baseline}" + (f" ({base})" if base != baseline else "")
        lines.append(f"{label:<38} {reduction:7.1f}%  {paper:4.0f}%")
    gap = fa["gmm-stack21"] - fa["gmm-stack5"]
    rows.append(["accuracy_gap", "gmm-stack21 - gmm-stack5", gap, ""])
    lines.append(f"gmm-stack21 - gmm-stack5: {gap:+.2f} F.A. points")
    text = "\n".join(lines)
    evaluation.write_csv(out_dir / "compare.csv",
                         ["measure", "system", "value", "paper"], rows)
    (out_dir / "compare.txt").write_text(text + "\n")
    print(text)


def cmd_evaluate(cfg: RunConfig, out_dir: Path, model_path: str) -> None:
    """Score a saved system on the test split the config selects; the
    system file supplies the front-end, both norms and the model."""
    system = systems.load_system(model_path)
    corpus = _prepare(cfg, norm=system.mfcc_norm)
    if corpus.labels != system.labels:
        raise DataError(f"{model_path}: trained on concepts {system.labels}, "
                        f"but the corpus has {corpus.labels}")
    print(evaluation.format_report(_write_report(out_dir, system, corpus)))


def cmd_sweep_context(cfg: RunConfig, out_dir: Path, widths: list[int]) -> None:
    runs = [(f"width-{width}", "train-nn", [f"context.width={width}"]) for width in widths]
    rows = [[width, fa] for width, fa in zip(widths, _run_systems(cfg, out_dir, runs))]
    evaluation.write_csv(out_dir / "sweep.csv", ["width", "frame_accuracy"], rows)
    for width, fa in rows:
        print(f"width {width:3d}: {fa:6.2f}%")


def cmd_grid_arch(cfg: RunConfig, out_dir: Path, depths: list[int],
                  neurons: list[int], pretrain_options: list[bool]) -> None:
    cells = [(depth, width, "RBM" if pre else "RND")
             for depth, width, pre in itertools.product(depths, neurons, pretrain_options)]
    runs = [(f"{depth}x{width}-{pre}", "train-nn", [f"nn.hidden_dims={[width] * depth}"]
             + (["pretrain=null"] if pre == "RND" else [])) for depth, width, pre in cells]
    rows = [[*cell, fa] for cell, fa in zip(cells, _run_systems(cfg, out_dir, runs))]
    evaluation.write_csv(out_dir / "grid.csv",
                         ["depth", "neurons", "pretrain", "frame_accuracy"], rows)
    for depth, width, pre, fa in rows:
        print(f"{depth} x {width:5d} {pre}: {fa:6.2f}%")


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
    for name in ("synth-data",) + TRAIN_COMMANDS + ("compare",):
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
    if args.command == "sweep-context":
        overrides += SWEEP_CONTEXT_SETTINGS
    try:
        if args.command == "evaluate":
            ignored = [item for item in args.overrides
                       if item.split("=", 1)[0].split(".")[0] not in EVALUATE_KEYS]
            if ignored:
                raise ConfigError(f"evaluate reads only {', '.join(EVALUATE_KEYS)} "
                                  f"from the config; it would ignore {ignored}")
        cfg = load_config(args.config, overrides)
        if args.command == "grid-arch" and True in args.pretrain and cfg.pretrain is None:
            raise ConfigError("grid-arch --pretrain on needs a pretrain section, "
                              "but pretrain is null")
        out_dir = Path(cfg.paths.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_snapshot(cfg, out_dir)
        if args.command == "synth-data":
            cmd_synth_data(cfg, out_dir)
        elif args.command in TRAIN_COMMANDS:
            _, report = _train(args.command, cfg, _prepare(cfg), out_dir)
            print(evaluation.format_report(report))
        elif args.command == "compare":
            cmd_compare(cfg, out_dir)
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
